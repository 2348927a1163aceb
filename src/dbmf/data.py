"""Sparse observation matrices: loading, simulation, splitting, ordering, partitioning.

All functions are pure given their inputs; randomness always flows through an
explicit integer seed, so repeated calls are bitwise reproducible.
"""

from __future__ import annotations

import io
import json
import logging
import numbers
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .artifacts import write_atomic
from .errors import ArtifactError, TripletParseError, ValidationError

logger = logging.getLogger(__name__)

# Endpoints of the decreasing weight sequences used by the structured
# missingness scenario (one sequence per axis, linearly spaced).
STRUCTURED_WEIGHT_HIGH = 0.9
STRUCTURED_WEIGHT_LOW = 0.005

# One plain-format line, as parsed by the one-call parse ``_parse_plain_text``.
_PLAIN_DTYPE = np.dtype([("row", np.int64), ("col", np.int64), ("val", np.float64)])
_INT64 = np.iinfo(np.int64)
# Characters (bytes, for ASCII) per read of a triplet file: the text and tables
# ``load_triplets`` holds at once beside the entry arrays scale with this.
_CHUNK_BYTES = 1 << 20


@dataclass
class SparseMatrix:
    """Observed entries of an ``n_rows x n_cols`` matrix in coordinate form.

    Entries are stored as three parallel arrays (row index, column index,
    value).  Every (row, col) pair appears at most once; indices are
    0-based and in range; values are finite.  Every construction checks
    this, derived matrices (splits, blocks) included: the check is a bounds
    test, a finiteness test plus one sort of the flattened keys, and a
    violation raises ``ValidationError``.
    File syntax is checked before, by ``load_triplets``.
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        self.rows = check_int_array("rows", self.rows)
        self.cols = check_int_array("cols", self.cols)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise ValidationError("rows, cols and vals must have equal length")
        if self.rows.ndim != 1:
            raise ValidationError("entry arrays must be 1-D")
        self.n_rows = check_int("n_rows", self.n_rows)
        self.n_cols = check_int("n_cols", self.n_cols)
        if self.m:
            if self.rows.min() < 0 or self.rows.max() >= self.n_rows:
                raise ValidationError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.n_cols:
                raise ValidationError("column index out of range")
            finite = np.isfinite(self.vals)
            if not finite.all():
                i = np.argmin(finite)
                raise ValidationError(f"non-finite value {self.vals[i]} at entry "
                                      f"({self.rows[i]}, {self.cols[i]})")
            keys = self.rows * self.n_cols
            keys += self.cols
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                raise ValidationError("duplicate (row, col) entries")

    @property
    def m(self) -> int:
        """Number of observed entries."""
        return self.rows.size

    def row_counts(self) -> np.ndarray:
        """Observation count per row."""
        return np.bincount(self.rows, minlength=self.n_rows)

    def col_counts(self) -> np.ndarray:
        return np.bincount(self.cols, minlength=self.n_cols)


@dataclass
class GroundTruth:
    """Factors and noise precision behind a simulated matrix."""

    x_true: np.ndarray
    w_true: np.ndarray
    tau: float


@dataclass
class PartitionPlan:
    """An r x c grid over the permuted matrix.

    ``row_perm[new] = old``: position ``new`` of the permuted matrix holds
    original row ``old``.  ``row_cuts`` has r+1 strictly increasing entries
    with ``row_cuts[0] == 0`` and ``row_cuts[-1] == n_rows``; block (i, j)
    covers permuted rows ``[row_cuts[i], row_cuts[i+1])`` and columns
    ``[col_cuts[j], col_cuts[j+1])``.  Each array follows ``check_int_array``.
    """

    row_perm: np.ndarray
    col_perm: np.ndarray
    row_cuts: np.ndarray
    col_cuts: np.ndarray

    def __post_init__(self):
        for name in ("row_perm", "col_perm", "row_cuts", "col_cuts"):
            setattr(self, name, check_int_array(name, getattr(self, name)))
        for perm, n, name in ((self.row_perm, self.n_rows, "row"),
                              (self.col_perm, self.n_cols, "col")):
            if not np.array_equal(np.sort(perm), np.arange(n)):
                raise ValidationError(f"{name}_perm is not a permutation")
        for cuts, n, name in ((self.row_cuts, self.n_rows, "row"),
                              (self.col_cuts, self.n_cols, "col")):
            if (cuts.ndim != 1 or cuts.size < 2 or cuts[0] != 0 or cuts[-1] != n
                    or np.any(np.diff(cuts) <= 0)):
                raise ValidationError(f"{name}_cuts must be strictly increasing from 0 to {n}")

    @property
    def n_rows(self) -> int:
        return self.row_perm.size

    @property
    def n_cols(self) -> int:
        return self.col_perm.size

    @property
    def n_row_blocks(self) -> int:
        return self.row_cuts.size - 1

    @property
    def n_col_blocks(self) -> int:
        return self.col_cuts.size - 1

    def inverse_perms(self) -> tuple[np.ndarray, np.ndarray]:
        """Maps from original index to permuted position, for both axes."""
        inv_r = np.empty_like(self.row_perm)
        inv_r[self.row_perm] = np.arange(self.n_rows)
        inv_c = np.empty_like(self.col_perm)
        inv_c[self.col_perm] = np.arange(self.n_cols)
        return inv_r, inv_c

    def row_range(self, i: int) -> tuple[int, int]:
        return int(self.row_cuts[i]), int(self.row_cuts[i + 1])

    def col_range(self, j: int) -> tuple[int, int]:
        return int(self.col_cuts[j]), int(self.col_cuts[j + 1])

    def save(self, path) -> None:
        doc = {name: getattr(self, name).tolist()
               for name in ("row_perm", "col_perm", "row_cuts", "col_cuts")}
        write_atomic(path, lambda fh: fh.write(json.dumps(doc).encode("utf-8")))


# ---------------------------------------------------------------------------
# Loading and saving triplet files
# ---------------------------------------------------------------------------

def load_triplets(path, fmt: str = "plain") -> SparseMatrix:
    """Read a sparse matrix from disk.

    ``plain``: one ``row col value`` per line (whitespace or commas),
    0-based indices, whole-line ``#`` comments and blank lines ignored.
    Dimensions are inferred as max index + 1.

    ``movielens-dat``: ``user::item::rating::timestamp`` with 1-based ids;
    ids are compacted to dense 0-based indices (sorted id order).

    The file is read as UTF-8 text with universal newlines, in reads of
    ``_CHUNK_BYTES`` characters, each finished to its line end by one
    ``readline``.  A plain piece is parsed by one ``np.loadtxt`` call when
    that is certain to be valid, and otherwise by the format's line loop,
    which names the file's bad line; the two give bitwise-equal arrays.  A
    MovieLens piece is parsed by its line loop.  So a load holds one piece's
    text, the parsed pieces and their concatenation, about twice the entry
    arrays, whatever the size of the file.  A byte that is not UTF-8
    anywhere in the file is reported, naming its line, before a bad line.
    A ``ValidationError`` of the matrix built names the file.
    """
    if fmt not in _FORMATS:
        raise ValidationError(f"unknown triplet format: {fmt!r}")
    parse_text, parse_lines, build = _FORMATS[fmt]
    try:
        try:
            with open(path, encoding="utf-8") as fh:
                parsed = _parse_pieces(path, fh, parse_text, parse_lines)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path) from exc
    except OSError as exc:
        raise ArtifactError(f"cannot read data file {path}: {exc}") from exc
    try:
        mat = build(*parsed)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    logger.info("loaded %s: %d x %d with %d entries", path, mat.n_rows, mat.n_cols, mat.m)
    return mat


def _parse_pieces(path, fh, parse_text, parse_lines) -> list[np.ndarray]:
    """The three entry arrays of the open text file ``fh``, parsed piece by
    piece and concatenated once; the pieces' arrays are freed on return,
    before the matrix is built.  Typed empty arrays come first, for a file
    without entries.  A format without a one-call parse (``parse_text``
    None) is read by its line loop alone."""
    parts, lineno = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))], 1
    try:
        for text in iter(lambda: fh.read(_CHUNK_BYTES), ""):
            if text[-1] != "\n":
                text += fh.readline()
            parsed = parse_text(text) if parse_text else None
            parts.append(parse_lines(path, text.split("\n"), lineno) if parsed is None
                         else parsed)
            lineno += text.count("\n")
    except TripletParseError:
        # A byte that is not UTF-8 later in the file outranks this bad line:
        # reading the rest raises it.
        while fh.read(_CHUNK_BYTES):
            pass
        raise
    return [np.concatenate(column) for column in zip(*parts)]


def _not_utf8(path) -> TripletParseError:
    """The error naming the first byte of ``path`` that is not UTF-8 and its
    line, found by rereading the file a line at a time; lines end at LF,
    CRLF or CR, as in text mode."""
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                return TripletParseError(path, lineno, f"byte 0x{ord(line[exc.start]):02x} "
                                                       "is not UTF-8 text")
    return TripletParseError(path, 1, "file is not UTF-8 text")


def _fields(path, lineno: int, parts: list[str]) -> tuple[int, int, float]:
    """A line's first three fields as (int64, int64, float)."""
    try:
        return _int64(parts[0]), _int64(parts[1]), float(parts[2])
    except ValueError as exc:
        raise TripletParseError(path, lineno, str(exc)) from exc


def _int64(field: str) -> int:
    value = int(field)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"integer {field} is outside the int64 range")
    return value


def _parse_plain_text(text: str):
    """Whole lines of a plain-format file, a piece or all of it, parsed in one
    numpy call into ``(rows, cols, vals)``.

    Returns ``None`` whenever the text is not certain to be valid, so that
    ``_parse_plain_lines`` decides and names the bad line.  Anything
    accepted here is accepted by the line loop with bitwise-equal arrays.
    ``np.loadtxt`` strips a trailing ``# note``, a line error in the loop,
    so every ``#`` must start its line; and a text with commas in its data
    lines is split on commas only, because mapping them to blanks would
    turn a comma-only line, also a line error, into a skipped one.
    """
    if _outside_comment_lines(text, "#"):
        return None
    try:
        with warnings.catch_warnings():
            # A piece with no entries is valid.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(io.StringIO(text), dtype=_PLAIN_DTYPE, comments="#", ndmin=1,
                               delimiter="," if _outside_comment_lines(text, ",") else None)
    except ValueError:
        return None
    if np.any(table["row"] < 0) or np.any(table["col"] < 0):
        return None
    return table["row"], table["col"], table["val"]


def _outside_comment_lines(text: str, char: str) -> bool:
    """True when ``char`` occurs on a line whose first non-blank is not ``#``."""
    pos = text.find(char)
    while pos != -1:
        start = text.rfind("\n", 0, pos) + 1
        if not text[start:pos + 1].lstrip().startswith("#"):
            return True
        end = text.find("\n", pos)
        if end == -1:
            return False
        pos = text.find(char, end)
    return False


def _parse_plain_lines(path, lines: Iterable[str], start: int = 1):
    """The plain format, one line at a time: its reference definition.

    One ``row col value`` per line, separated by whitespace or commas;
    blank lines and lines whose first non-blank is ``#`` are skipped.
    Raises ``TripletParseError`` naming the first bad line, counting the
    first of ``lines`` as line ``start``.
    """
    rows, cols, vals = [], [], []
    for lineno, line in enumerate(lines, start=start):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.replace(",", " ").split()
        if len(parts) != 3:
            raise TripletParseError(path, lineno, f"expected 3 fields, got {len(parts)}")
        r, c, v = _fields(path, lineno, parts)
        if r < 0 or c < 0:
            raise TripletParseError(path, lineno, "negative index")
        rows.append(r)
        cols.append(c)
        vals.append(v)
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(vals, dtype=np.float64))


def _plain_matrix(rows, cols, vals) -> SparseMatrix:
    return SparseMatrix(int(rows.max()) + 1 if rows.size else 0,
                        int(cols.max()) + 1 if cols.size else 0, rows, cols, vals)


def _parse_movielens_lines(path, lines: Iterable[str], start: int = 1):
    """The MovieLens format, one line at a time: its reference definition.

    One ``user::item::rating::timestamp`` per line; blank lines are skipped
    and the timestamp is not read.  Raises ``TripletParseError`` naming the
    first bad line, counting the first of ``lines`` as line ``start``.
    """
    users, items, ratings = [], [], []
    for lineno, line in enumerate(lines, start=start):
        text = line.strip()
        if not text:
            continue
        parts = text.split("::")
        if len(parts) != 4:
            raise TripletParseError(path, lineno, f"expected 4 '::' fields, got {len(parts)}")
        user, item, rating = _fields(path, lineno, parts)
        users.append(user)
        items.append(item)
        ratings.append(rating)
    return (np.array(users, dtype=np.int64), np.array(items, dtype=np.int64),
            np.array(ratings, dtype=np.float64))


def _movielens_matrix(users, items, ratings) -> SparseMatrix:
    # Checked before compaction, so the message names the file's ids.
    finite = np.isfinite(ratings)
    if not finite.all():
        i = np.argmin(finite)
        raise ValidationError(f"non-finite rating {ratings[i]} of user {users[i]}, "
                              f"item {items[i]}")
    # Each id's rank among the sorted distinct ids: ``np.unique``'s inverse
    # bitwise, at a traced peak of 8 bytes per id where its inverse takes 41.
    user_ids, item_ids = np.unique(users), np.unique(items)
    return SparseMatrix(user_ids.size, item_ids.size, np.searchsorted(user_ids, users),
                        np.searchsorted(item_ids, items), ratings)


# Each triplet format: (one-call parser or None, line loop, matrix builder).
# MovieLens has none: no ``dbmf`` command or benchmark workload reads that
# format, and its line loop reads a 1M-line file in about 2 s.
_FORMATS = {"plain": (_parse_plain_text, _parse_plain_lines, _plain_matrix),
            "movielens-dat": (None, _parse_movielens_lines, _movielens_matrix)}


def save_triplets(matrix: SparseMatrix, path) -> None:
    """Write in the plain triplet format (lossless for float64 values)."""
    def write(fh):
        fh.write(f"# {matrix.n_rows} x {matrix.n_cols}, {matrix.m} entries\n".encode("utf-8"))
        fh.writelines(f"{r} {c} {float(v)!r}\n".encode("utf-8")
                      for r, c, v in zip(matrix.rows, matrix.cols, matrix.vals))
    write_atomic(path, write)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def check_int(name: str, value, positive: bool = False) -> int:
    """``value`` as an ``int``; it must be an integer, and a bool is not
    one, of at least 1 when ``positive`` and at least 0 otherwise."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < (1 if positive else 0)):
        kind = "positive" if positive else "nonnegative"
        raise ValidationError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def check_int_array(name: str, values) -> np.ndarray:
    """``values`` as an int64 array: an ndarray of integer dtype, or a list
    or tuple of integers, none of them a bool.  A float, even a whole one, a
    bool, an object or a ragged nested list is a ``ValidationError``, where
    a cast would truncate a fraction and read True as 1; an empty array may
    have any dtype."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nested list
        raise ValidationError(f"{name} must hold integers, not ragged lists") from None
    # A list of ints with a bool among them casts to int64: only its entries tell.
    has_bool = not isinstance(values, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat)
    if array.size and (array.dtype.kind not in "iu" or has_bool):
        raise ValidationError(f"{name} must hold integers, not booleans, fractions or objects")
    return array.astype(np.int64, copy=False)


def check_real(name: str, value, positive: bool = False) -> float:
    """``value`` as a ``float``; it must be a finite real number, and a bool
    or a string is not one, greater than 0 when ``positive``."""
    kind = "positive finite" if positive else "finite"
    error = ValidationError(f"{name} must be a {kind} real number, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        raise error from None
    if not np.isfinite(real) or (positive and real <= 0):
        raise error
    return real


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(check_int("seed", seed))


def simulate(n_rows: int, n_cols: int, n_factors: int, tau: float,
             seed: int) -> tuple[SparseMatrix, GroundTruth]:
    """Fully observed low-rank matrix plus Gaussian noise of precision ``tau``.

    Factor entries are standard normal; the draw order (X, then W, then
    noise) is fixed so results are bitwise deterministic per seed.
    """
    n_rows = check_int("n_rows", n_rows, positive=True)
    n_cols = check_int("n_cols", n_cols, positive=True)
    n_factors = check_int("n_factors", n_factors, positive=True)
    tau = check_real("tau", tau, positive=True)
    rng = _rng(seed)
    x_true = rng.standard_normal((n_rows, n_factors))
    w_true = rng.standard_normal((n_cols, n_factors))
    y = x_true @ w_true.T
    y += rng.standard_normal((n_rows, n_cols)) * (tau ** -0.5)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), n_cols)
    cols = np.tile(np.arange(n_cols, dtype=np.int64), n_rows)
    mat = SparseMatrix(n_rows, n_cols, rows, cols, y.ravel())
    return mat, GroundTruth(x_true, w_true, tau)


# ---------------------------------------------------------------------------
# Train/test splitting
# ---------------------------------------------------------------------------

def _subset(matrix: SparseMatrix, mask: np.ndarray) -> SparseMatrix:
    return SparseMatrix(matrix.n_rows, matrix.n_cols,
                        matrix.rows[mask], matrix.cols[mask], matrix.vals[mask])


def split_random(matrix: SparseMatrix, test_fraction: float,
                 seed: int) -> tuple[SparseMatrix, SparseMatrix]:
    """Withhold ``floor(test_fraction * m)`` uniformly chosen entries as test."""
    if matrix.m < 2:
        raise ValidationError("need at least 2 entries to split")
    if not 0.0 < check_real("test_fraction", test_fraction) < 1.0:
        raise ValidationError("test_fraction must lie in (0, 1)")
    n_test = int(test_fraction * matrix.m)
    order = _rng(seed).permutation(matrix.m)
    mask = np.zeros(matrix.m, dtype=bool)
    mask[order[:n_test]] = True
    return _subset(matrix, ~mask), _subset(matrix, mask)


def structured_weights(n: int) -> np.ndarray:
    """Equally spaced decreasing weights from 0.9 down to 0.005."""
    return np.linspace(STRUCTURED_WEIGHT_HIGH, STRUCTURED_WEIGHT_LOW, n)


def structured_rescale_factor(probs: np.ndarray, target_fraction: float) -> float:
    """Scale factor s such that mean(min(1, s * probs)) == target_fraction.

    Solved by bisection until the bracket can no longer shrink in floating
    point; the expected fraction is continuous and nondecreasing in s and
    saturates at 1, so a root exists whenever ``target_fraction < 1`` and
    some prob is positive.
    """
    if not 0.0 < check_real("target_fraction", target_fraction) < 1.0:
        raise ValidationError("target_fraction must lie in (0, 1)")
    if probs.size == 0 or probs.max() <= 0:
        raise ValidationError("no positive assignment probabilities")

    def frac(s):
        return float(np.minimum(1.0, s * probs).mean())

    lo, hi = 0.0, 1.0
    while frac(hi) < target_fraction:
        hi *= 2.0
        if hi > 1e12:
            raise ValidationError("target fraction unattainable")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if frac(mid) < target_fraction:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def split_structured(matrix: SparseMatrix, seed: int, mode: str = "raw",
                     target_fraction: float = 0.8) -> tuple[SparseMatrix, SparseMatrix]:
    """Assign entry (n, d) to the test set with probability w_n * w_d.

    Both axis weight sequences decrease linearly from 0.9 to 0.005, so rows
    and columns early in the index order lose the most data.  With the raw
    weights the expected test fraction equals the product of the two weight
    means (about 0.205 for long sequences).  ``mode="rescaled"`` multiplies
    the products by a bisection-derived factor so the expected fraction hits
    ``target_fraction`` (probabilities clipped at 1).
    """
    if matrix.m == 0:
        raise ValidationError("cannot split an empty matrix")
    w_row = structured_weights(matrix.n_rows)
    w_col = structured_weights(matrix.n_cols)
    probs = w_row[matrix.rows] * w_col[matrix.cols]
    if mode == "rescaled":
        probs = np.minimum(1.0, structured_rescale_factor(probs, target_fraction) * probs)
    elif mode != "raw":
        raise ValidationError(f"unknown structured-missingness mode: {mode!r}")
    mask = _rng(seed).random(matrix.m) < probs
    realized = float(mask.mean())
    logger.info("structured split (%s): realized test fraction %.4f", mode, realized)
    return _subset(matrix, ~mask), _subset(matrix, mask)


# ---------------------------------------------------------------------------
# Ordering and partitioning
# ---------------------------------------------------------------------------

def order_matrix(matrix: SparseMatrix, scheme: str,
                 seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Row/column permutations for partitioning; ``perm[new] = old``.

    ``decreasing`` sorts each axis by observation count, densest first,
    ties broken by ascending original index.  ``random`` permutes uniformly.
    ``none`` returns identity permutations.
    """
    if scheme == "none":
        return (np.arange(matrix.n_rows, dtype=np.int64),
                np.arange(matrix.n_cols, dtype=np.int64))
    if scheme == "random":
        rng = _rng(seed)
        return (rng.permutation(matrix.n_rows).astype(np.int64),
                rng.permutation(matrix.n_cols).astype(np.int64))
    if scheme == "decreasing":
        def by_count(counts):
            return np.lexsort((np.arange(counts.size), -counts)).astype(np.int64)
        return by_count(matrix.row_counts()), by_count(matrix.col_counts())
    raise ValidationError(f"unknown ordering scheme: {scheme!r}")


def partition(matrix: SparseMatrix, perms: tuple[np.ndarray, np.ndarray],
              n_row_blocks: int, n_col_blocks: int) -> PartitionPlan:
    """Tile the permuted matrix into an r x c grid of near-equal blocks.

    When the axis size is not divisible, the remainder is spread one
    row/column at a time over the leading blocks.
    """
    row_perm, col_perm = perms
    if not check_int("n_row_blocks", n_row_blocks, positive=True) <= matrix.n_rows:
        raise ValidationError(f"need 1 <= r <= {matrix.n_rows}, got {n_row_blocks}")
    if not check_int("n_col_blocks", n_col_blocks, positive=True) <= matrix.n_cols:
        raise ValidationError(f"need 1 <= c <= {matrix.n_cols}, got {n_col_blocks}")
    return PartitionPlan(row_perm, col_perm,
                         _cuts(matrix.n_rows, n_row_blocks),
                         _cuts(matrix.n_cols, n_col_blocks))


def _cuts(n: int, blocks: int) -> np.ndarray:
    sizes = np.full(blocks, n // blocks, dtype=np.int64)
    sizes[: n % blocks] += 1
    return np.concatenate(([0], np.cumsum(sizes)))
