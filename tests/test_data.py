import json
import tracemalloc

import numpy as np
import pytest

from dbmf import data, sampler
from dbmf.errors import ArtifactError, TripletParseError, ValidationError
import oracles
from oracles import bincount_suff_stats, sequential_float32_gram, sorted_axis, to_dense


def make_matrix(n_rows, n_cols, rows, cols, vals):
    return data.SparseMatrix(n_rows, n_cols, np.array(rows), np.array(cols),
                             np.array(vals, dtype=np.float64))


def repeated_cell(first, second):
    """All 120 cells of a 12 x 10 matrix in shuffled order, except that the
    cell at position ``first`` also takes position ``second``."""
    flat = np.random.default_rng(5).permutation(120)
    flat[second] = flat[first]
    return 12, 10, flat // 10, flat % 10


def line_loop(path):
    """The reference for the plain loader: the format's line loop run over
    the lines of the open file."""
    with open(path, encoding="utf-8") as fh:
        return data._parse_plain_lines(path, fh)


# The loader's chunk size, then sizes at which every line straddles chunks or
# is longer than one, so that results and errors must not depend on the cut.
CHUNK_SIZES = (data._CHUNK_BYTES, 3, 16)


def chunk_sizes(monkeypatch):
    """Yield each of ``CHUNK_SIZES`` with the loader set to read chunks of it."""
    for size in CHUNK_SIZES:
        monkeypatch.setattr(data, "_CHUNK_BYTES", size)
        yield size


def load_error(monkeypatch, path, fmt="plain"):
    """The ``TripletParseError`` of loading ``path`` as (class, message,
    line), the same at every one of ``CHUNK_SIZES``."""
    seen = set()
    for _ in chunk_sizes(monkeypatch):
        with pytest.raises(TripletParseError) as err:
            data.load_triplets(path, fmt)
        assert type(err.value.line_number) is int
        seen.add((type(err.value), str(err.value), err.value.line_number))
    assert len(seen) == 1, seen
    return seen.pop()


def whole_text_only(monkeypatch, fmt):
    """Make ``load_triplets`` fail if it falls back to ``fmt``'s line loop."""
    def line_loop(path, lines, start=1):
        raise AssertionError(f"{fmt} line loop called for {path}")
    parse_text, _, build = data._FORMATS[fmt]
    monkeypatch.setitem(data._FORMATS, fmt, (parse_text, line_loop, build))


# (file bytes, line of the expected TripletParseError or None, whether the
# whole-file parse takes the file without the line loop)
PLAIN_CASES = [
    pytest.param(b"# 2 x 2, 2 entries\n0 1 2.5\n1 0 -1\n", None, True, id="header-comment"),
    pytest.param(b"  # indented\n0 0 1\n\t# tab\n", None, True, id="indented-comments"),
    pytest.param(b"0,1,2.5\n1, 0 ,-1\n", None, True, id="commas"),
    pytest.param(b"# a, b\n0 1 2.5\n", None, True, id="comma-in-comment"),
    pytest.param(b"0 1 2.5\n\n   \n\t\n1 0 -1\n", None, True, id="blank-lines"),
    pytest.param(b"0 1 2.5\r\n1 0 -1\r\n", None, True, id="crlf"),
    pytest.param(b"0 1 2.5\r1 0 -1\r\r2 2 3\r", None, True, id="cr-only"),
    pytest.param(b"0 1 2.5\r1 0 -1\r\n2 2 3\n\r3 3 4", None, True, id="mixed-line-ends"),
    pytest.param(b"# " + b"x" * 40 + b"\n0 1 " + b"0" * 30 + b"2.5\n1 0 -1", None, True,
                 id="long-lines"),
    pytest.param(b"+0 +1 +2.5\n", None, True, id="leading-plus"),
    pytest.param(b"1_0 0 1.0\n0 2 1_5.0\n", None, False, id="underscore-digits"),
    pytest.param("0\u00a01 2\x0c\n".encode(), None, True, id="unicode-whitespace"),
    pytest.param(b"0 0 1.0\n0 1 2.5 # note\n", 2, False, id="trailing-comment"),
    pytest.param(b"".join(b"%d 0 1.0\r\n" % i for i in range(30)) + b"30 0 x\r\n31 0 1.0",
                 31, False, id="bad-line-late"),
    pytest.param(b"0 0 1.0\n1 -1 2.0\n2 2 3.0\n", 2, False, id="negative-index"),
    pytest.param(b"0 0 1.0\n\n0 1\n", 3, False, id="two-fields"),
    pytest.param(b"0 0 1.0 7\n", 1, False, id="four-fields"),
    pytest.param(b"0,0,1.0\n,\n", 2, False, id="comma-only-line"),
    pytest.param(b"0 0 1.0\n9223372036854775808 1 2.0\n", 2, False, id="index-beyond-int64"),
    pytest.param(b"0, 1 2.5\n", None, False, id="mixed-separators"),
    pytest.param(b"", None, True, id="empty-file"),
    pytest.param(b"# nothing\n\n", None, True, id="comments-only"),
    pytest.param(b"3 2 1.5", None, True, id="one-line"),
]


class TestSparseMatrix:
    def test_duplicate_entries_rejected(self):
        for n_rows, n_cols, rows, cols in ((2, 2, [0, 0], [1, 1]),
                                           repeated_cell(3, 97),    # far apart, unsorted
                                           repeated_cell(0, 119)):  # first and last
            with pytest.raises(ValidationError, match="duplicate"):
                make_matrix(n_rows, n_cols, rows, cols, np.ones(len(rows)))
        # one entry and no entries: nothing can repeat
        for rows, cols in (([1], [0]), ([], [])):
            assert make_matrix(2, 2, rows, cols, np.ones(len(rows))).m == len(rows)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            make_matrix(2, 2, [0, 2], [0, 0], [1.0, 1.0])
        with pytest.raises(ValidationError):
            make_matrix(2, 2, [0, 0], [0, -1], [1.0, 1.0])

    @pytest.mark.parametrize("args, field", [
        ((2.5, 3, [0, 1], [0, 2], [1.0, 2.0]), "n_rows"),
        ((True, 3, [0], [0], [1.0]), "n_rows"),
        ((2, -1, [], [], []), "n_cols")])
    def test_dimensions_are_nonnegative_integers(self, args, field):
        with pytest.raises(ValidationError, match=f"^{field} must be a nonnegative integer"):
            data.SparseMatrix(*args)
        assert type(data.SparseMatrix(np.int64(2), 3, [], [], []).n_rows) is int

    @pytest.mark.parametrize("rows, cols, field", [
        ([0.5, 1.9], [1, 2], "rows"),                          # fractions
        ([0, 1], np.array([1.0, 2.0]), "cols"),                # whole floats
        ([True, False], [1, 2], "rows"),                       # booleans
        ([1, True], [1, 2], "rows"),                           # a bool among ints
        (np.array([0, 1]), np.array([1, 2], dtype=object), "cols"),  # objects
        ([[0], [1, 2]], [0, 1], "rows")],                      # a ragged list
        ids=["fraction", "whole-float", "bool", "bool-among-ints", "object", "ragged"])
    def test_index_arrays_must_hold_integers(self, rows, cols, field):
        # A cast to int64 would place these entries in cells silently.
        with pytest.raises(ValidationError, match=f"^{field} must hold integers"):
            data.SparseMatrix(3, 3, rows, cols, [1.0, 2.0])

    def test_integer_index_arrays_kept(self):
        rows = np.array([0, 2])
        m = data.SparseMatrix(3, 3, rows, np.array([1, 0], dtype=np.int32), [1.0, 2.0])
        assert m.rows is rows and m.cols.dtype == np.int64
        listed = data.SparseMatrix(3, 3, (0, np.int64(2)), [1, 0], [1.0, 2.0])
        assert listed.rows.tolist() == [0, 2] and listed.rows.dtype == np.int64
        assert data.SparseMatrix(0, 0, [], np.zeros(0), []).cols.dtype == np.int64

    @pytest.mark.parametrize("value", [np.nan, -np.nan, np.inf, -np.inf],
                             ids=["nan", "-nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValidationError, match="non-finite"):
            data.SparseMatrix(1, 1, [0], [0], [value])
        with pytest.raises(ValidationError, match=r"at entry \(2, 1\)"):
            make_matrix(3, 2, [0, 2, 1], [0, 1, 1], [1.0, value, 2.0])

    def test_counts(self):
        m = make_matrix(3, 2, [0, 1, 1], [0, 0, 1], [1, 2, 3])
        assert m.m == 3
        assert m.row_counts().tolist() == [1, 2, 0]
        assert m.col_counts().tolist() == [2, 1]


class TestLoadTriplets:
    def test_plain_round_trip(self, tmp_path):
        m = make_matrix(4, 3, [0, 2, 3], [1, 0, 2], [0.5, -1.25, 3.0])
        path = tmp_path / "m.txt"
        data.save_triplets(m, path)
        loaded = data.load_triplets(path)
        assert loaded.n_rows == 4 and loaded.n_cols == 3
        assert np.array_equal(loaded.rows, m.rows)
        assert np.array_equal(loaded.cols, m.cols)
        assert np.array_equal(loaded.vals, m.vals)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        m = data.load_triplets(path)
        assert (m.m, m.n_rows, m.n_cols) == (0, 0, 0)

    def test_comments_and_commas(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# header\n0,1,2.5\n1 0 -1\n")
        m = data.load_triplets(path)
        assert m.m == 2
        assert m.vals.tolist() == [2.5, -1.0]

    def test_malformed_line_reports_number(self, tmp_path, monkeypatch):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 1.0\n0 nope 2.0\n")
        assert load_error(monkeypatch, path)[2] == 2

    def test_wrong_field_count(self, tmp_path, monkeypatch):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n")
        assert "expected 3 fields, got 2" in load_error(monkeypatch, path)[1]

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 0 1.0\n0 0 2.0\n")
        with pytest.raises(ValidationError, match="duplicate") as err:
            data.load_triplets(path)
        assert str(path) in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            data.load_triplets(tmp_path / "nope.txt")

    def test_movielens_compaction(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("3::10::4::978300760\n1::10::5::978302109\n"
                        "3::7::3::978301968\n")
        m = data.load_triplets(path, fmt="movielens-dat")
        assert (m.n_rows, m.n_cols, m.m) == (2, 2, 3)
        # user 3 -> row 1, item 10 -> col 1
        dense = to_dense(m, fill=0.0)
        assert dense[1, 1] == 4 and dense[0, 1] == 5 and dense[1, 0] == 3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("content, error_line, whole_file", PLAIN_CASES)
    def test_plain_loader_matches_line_loop(self, tmp_path, monkeypatch, content, error_line,
                                            whole_file):
        path = tmp_path / "m.txt"
        path.write_bytes(content)
        text = path.read_text(encoding="utf-8")
        assert (data._parse_plain_text(text) is not None) == whole_file
        if error_line is not None:
            with pytest.raises(TripletParseError) as expected:
                line_loop(path)
            cls, message, line = load_error(monkeypatch, path)
            assert (cls, message) == (type(expected.value), str(expected.value))
            assert line == expected.value.line_number == error_line
            return
        rows, cols, vals = line_loop(path)
        if whole_file:
            # the loader takes these files without the line loop
            whole_text_only(monkeypatch, "plain")
        for _ in chunk_sizes(monkeypatch):
            loaded = data.load_triplets(path)
            for got, want in ((loaded.rows, rows), (loaded.cols, cols), (loaded.vals, vals)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert loaded.n_rows == (rows.max() + 1 if rows.size else 0)
            assert loaded.n_cols == (cols.max() + 1 if cols.size else 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("content", [
        pytest.param(b"0 0 nan\n", id="nan"), pytest.param(b"0 1 -nan\n", id="-nan"),
        pytest.param(b"1 0 inf\n", id="inf"), pytest.param(b"1 1 -inf\n", id="-inf"),
        pytest.param(b"2 0 1e400\n", id="overflow"),
        pytest.param(b"0 0 nan\n0 1 -nan\n1 0 inf\n1 1 -inf\n2 0 1e400\n",
                     id="nan-inf-overflow")])
    def test_non_finite_value_rejected_naming_file(self, tmp_path, content):
        # Both parsers read these values, bit for bit; the matrix rejects them.
        path = tmp_path / "m.txt"
        path.write_bytes(content)
        parsed = data._parse_plain_text(path.read_text(encoding="utf-8"))
        assert parsed is not None
        for got, want in zip(parsed, line_loop(path)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        with pytest.raises(ValidationError, match="non-finite") as err:
            data.load_triplets(path)
        assert str(path) in str(err.value)

    def test_movielens_non_finite_rating_rejected(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::2::5::978300760\n3::2::nan::978300761\n")
        with pytest.raises(ValidationError, match="non-finite") as err:
            data.load_triplets(path, fmt="movielens-dat")
        # the file's ids, not the compacted (row, col) = (1, 0)
        assert str(path) in str(err.value)
        assert "user 3" in str(err.value) and "item 2" in str(err.value)

    @pytest.mark.parametrize("fmt, content, error_line", [
        ("plain", b"0 0 1.0\n# caf\xe9\n1 1 2.0\n", 2),
        ("plain", b"0 0 1.0\r\n1 1 2.0\r\n\xff 2 3.0\r\n", 3),
        ("plain", b"0 0 1.0\r1 1 2.0\r\r2 2 \xc3(\r", 4),
        ("plain", b"\xe9", 1),
        ("movielens-dat", b"".join(b"%d::1::3::0\n" % u for u in range(1, 2001))
         + b"2001::\xe9::3::0\n", 2001),
        # a bad line before the byte: the byte is reported, as from a whole-file decode
        ("plain", b"0 0 1.0\n0 nope 2.0\r\n" + b"1 1 2.0\n" * 20 + b"# caf\xe9\n", 23),
    ])
    def test_non_utf8_file_names_line(self, tmp_path, monkeypatch, fmt, content, error_line):
        path = tmp_path / "m.txt"
        path.write_bytes(content)
        _, message, line = load_error(monkeypatch, path, fmt)
        assert "not UTF-8" in message and str(path) in message
        assert line == error_line

    def test_whole_file_parse_accepts_only_what_line_loop_accepts(self):
        # Seeded random texts built from the tokens the two parsers could
        # read differently; each one the whole-file parse takes, the line
        # loop must take with bitwise-equal arrays.
        rng = np.random.default_rng(8)
        fields = ["0", "12", "-3", "+4", "-0", "007", "1_0", "99999999999999999999",
                  "1.5", "2e3", ".5", "nan", "-nan", "inf", "1e400", "1_0.5"]
        separators = [" ", "\t", ",", ", ", " , ", "\u00a0"]
        noise = ["", "", "", " ", ",", "#", "# a, b", "\x0c", "\x1c", "\x85", "\x00", "\u0661"]
        accepted = 0
        for _ in range(1500):
            lines = []
            for _ in range(rng.integers(0, 5)):
                line = str(rng.choice(separators)).join(
                    rng.choice(fields, size=rng.choice([2, 3, 3, 3, 4])))
                lines.append(str(rng.choice(noise)) + line + str(rng.choice(noise)))
            text = "\n".join(lines)
            parsed = data._parse_plain_text(text)
            if parsed is None:
                continue
            accepted += 1
            for got, want in zip(parsed, data._parse_plain_lines("random", lines)):
                assert got.tobytes() == want.tobytes(), repr(text)
        assert accepted > 100

    def test_loaded_file_side_stats_bitwise_equal_oracle(self, tmp_path):
        full, _ = data.simulate(40, 30, 2, 1.0, seed=6)
        mat, _ = data.split_random(full, 0.6, seed=7)
        path = tmp_path / "train.txt"
        data.save_triplets(mat, path)
        loaded = data.load_triplets(path)
        for name in ("rows", "cols", "vals"):
            assert getattr(loaded, name).tobytes() == getattr(mat, name).tobytes()
        rng = np.random.default_rng(9)
        sides = sampler._side_matrices(loaded)
        for (ind, val), axis, n, n_partners in zip(
                sides, ("row", "col"), (loaded.n_rows, loaded.n_cols),
                (loaded.n_cols, loaded.n_rows)):
            partner = rng.standard_normal((n_partners, 5))
            suff, lin = sampler._side_stats(ind, val, partner)
            major, minor, vals = sorted_axis(loaded, axis)
            ref_suff, ref_lin = bincount_suff_stats(partner, major, minor, vals, n)
            gram = sequential_float32_gram(partner, major, minor, n)
            assert np.array_equal(suff, np.moveaxis(gram, 0, -1))
            assert np.array_equal(lin, ref_lin)
            # within 1e-5 of the row's mean diagonal of the float64 sums
            mean_diag = np.trace(ref_suff, axis1=1, axis2=2) / partner.shape[1]
            assert np.all(np.abs(suff - np.moveaxis(ref_suff, 0, -1)) <= 1e-5 * mean_diag)

    def test_movielens_whole_file_parse_matches_line_loop(self, tmp_path, monkeypatch):
        # A load equals the line loop over the whole file plus id compaction,
        # whatever the line ends and wherever the pieces are cut.
        lines = ["3::10::4::978300760", "", "1::0010::4.5::978302109", "3::7::.5::0",
                 "18::7::3.::978301968"]
        users, items, ratings = data._parse_movielens_lines("lines", lines)
        user_ids, rows = np.unique(users, return_inverse=True)
        item_ids, cols = np.unique(items, return_inverse=True)
        path = tmp_path / "ratings.dat"
        for end in ("\n", "\r\n", "\r"):
            path.write_bytes(end.join(lines).encode())
            for _ in chunk_sizes(monkeypatch):
                loaded = data.load_triplets(path, fmt="movielens-dat")
                assert (loaded.n_rows, loaded.n_cols) == (user_ids.size, item_ids.size)
                for got, want in ((loaded.rows, rows), (loaded.cols, cols),
                                  (loaded.vals, ratings)):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text, loop_takes", [
        ("::1::2::3::4", False), ("1::2::3::4::", False), ("1::::2::3::4", False),
        ("1::2::3::4\n::", False), ("1 2:: ::3::4", False), ("1::2::3::4.5", True)])
    def test_movielens_whole_file_parse_declines_odd_lines(self, text, loop_takes):
        # Each holds four numbers once "::" is read as a blank; the line loop
        # takes only the non-integer timestamp.
        if loop_takes:
            data._parse_movielens_lines("odd", text.split("\n"))
        else:
            with pytest.raises(TripletParseError):
                data._parse_movielens_lines("odd", text.split("\n"))

    @pytest.mark.parametrize("fmt, end", [("plain", "\n"), ("movielens-dat", "\r\n"),
                                          ("plain", "\r")], ids=["plain-lf", "movielens-crlf",
                                                                  "plain-cr"])
    def test_load_memory_bounded_by_entry_arrays(self, tmp_path, monkeypatch, fmt, end):
        # A file of about 40 chunks: a load holds one chunk's text, the parsed
        # chunks and their concatenation, about twice the entry arrays (a
        # whole-text read held about seven times).
        monkeypatch.setattr(data, "_CHUNK_BYTES", 1 << 16)
        rng = np.random.default_rng(12)
        cells = rng.choice(3000 * 1000, size=100_000, replace=False)
        vals = rng.standard_normal(cells.size)
        if fmt == "plain":
            lines = (f"{c // 1000} {c % 1000} {float(v)!r}{end}" for c, v in zip(cells, vals))
        else:
            lines = (f"{c // 1000 + 1}::{c % 1000 + 1}::{int(v > 0) + 3}::{978300760 + c}{end}"
                     for c, v in zip(cells, vals))
        path = tmp_path / "big.txt"
        path.write_bytes("".join(lines).encode())
        tracemalloc.start()
        try:
            loaded = data.load_triplets(path, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.m == cells.size
        assert peak <= 3 * (loaded.rows.nbytes + loaded.cols.nbytes + loaded.vals.nbytes)

    def test_movielens_id_beyond_int64(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::2::5::978300760\n1::18446744073709551616::4::978300761\n")
        with pytest.raises(TripletParseError) as err:
            data.load_triplets(path, fmt="movielens-dat")
        assert err.value.line_number == 2

    def test_movielens_bad_line(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::2\n")
        with pytest.raises(TripletParseError):
            data.load_triplets(path, fmt="movielens-dat")


class TestSimulate:
    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf, True])
    def test_tau_must_be_positive_and_finite(self, tau):
        with pytest.raises(ValidationError, match="tau"):
            data.simulate(3, 2, 1, tau, seed=0)

    @pytest.mark.parametrize("args, name", [
        ((2.5, 3, 1, 1.0), "n_rows"), ((3, True, 1, 1.0), "n_cols"),
        ((3, 2, 1.0, 1.0), "n_factors"), ((3, 2, np.float64(1), 1.0), "n_factors"),
        ((3, 2, 1, 10 ** 400), "tau")],
        ids=["fractional", "bool", "whole-float", "numpy-float", "int-beyond-float"])
    def test_settings_follow_the_config_type_rule(self, args, name):
        with pytest.raises(ValidationError, match=f"^{name} must be a positive"):
            data.simulate(*args, seed=0)

    def test_numpy_settings_simulate_the_same_matrix(self):
        mat, truth = data.simulate(np.int64(4), np.int32(3), np.int64(2), np.float64(2.0),
                                   seed=np.int64(1))
        ref, ref_truth = data.simulate(4, 3, 2, 2.0, seed=1)
        for name in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(mat, name), getattr(ref, name))
        assert (mat.n_rows, mat.n_cols) == (4, 3) and type(mat.n_rows) is int
        assert np.array_equal(truth.x_true, ref_truth.x_true)
        assert type(truth.tau) is float and truth.tau == 2.0

    def test_shapes_and_determinism(self):
        m1, t1 = data.simulate(20, 10, 2, 4.0, seed=3)
        m2, t2 = data.simulate(20, 10, 2, 4.0, seed=3)
        assert m1.m == 200
        assert np.array_equal(m1.vals, m2.vals)
        assert np.array_equal(t1.x_true, t2.x_true)
        m3, _ = data.simulate(20, 10, 2, 4.0, seed=4)
        assert not np.array_equal(m1.vals, m3.vals)

    def test_noise_variance(self):
        # Residuals against the returned factors are pure noise of
        # variance 1/tau.
        tau = 4.0
        m, truth = data.simulate(80, 50, 1, tau, seed=11)
        resid = m.vals - (truth.x_true @ truth.w_true.T).ravel()
        se = (1 / tau) * np.sqrt(2 / m.m)
        assert abs(resid.var() - 1 / tau) < 4 * se

    def test_entry_variance_matches_rank_plus_noise(self):
        # Each entry is a sum of K products of independent standard normals
        # plus noise: variance K + 1/tau.
        k, tau = 2, 1.0
        m, _ = data.simulate(60, 40, k, tau, seed=5)
        expected = k + 1 / tau
        se = expected * np.sqrt(2 / m.m)
        assert abs(m.vals.var() - expected) < 4 * se

    def test_validation(self):
        with pytest.raises(ValidationError):
            data.simulate(0, 5, 1, 1.0, seed=0)
        with pytest.raises(ValidationError):
            data.simulate(5, 5, 1, -1.0, seed=0)

    @pytest.mark.slow
    def test_benchmark_scale_configuration(self):
        m, truth = data.simulate(6040, 3706, 5, 1.0, seed=0)
        assert m.m == 6040 * 3706
        assert truth.x_true.shape == (6040, 5)
        assert truth.w_true.shape == (3706, 5)


class TestSplitRandom:
    def test_exact_floor_count(self):
        m, _ = data.simulate(5, 2, 1, 1.0, seed=0)
        train, test = data.split_random(m, 0.2, seed=1)
        assert test.m == 2 and train.m == 8

    def test_disjoint_union(self):
        m, _ = data.simulate(12, 7, 1, 1.0, seed=0)
        train, test = data.split_random(m, 0.35, seed=2)
        keys = lambda s: set(zip(s.rows.tolist(), s.cols.tolist()))
        assert keys(train) | keys(test) == keys(m)
        assert not keys(train) & keys(test)
        assert train.m + test.m == m.m

    def test_deterministic(self):
        m, _ = data.simulate(10, 10, 1, 1.0, seed=0)
        a = data.split_random(m, 0.5, seed=9)
        b = data.split_random(m, 0.5, seed=9)
        assert np.array_equal(a[1].rows, b[1].rows)
        assert np.array_equal(a[1].cols, b[1].cols)

    def test_too_small(self):
        m = make_matrix(1, 1, [0], [0], [1.0])
        with pytest.raises(ValidationError):
            data.split_random(m, 0.5, seed=0)

    def test_fraction_must_be_a_real_number(self):
        m, _ = data.simulate(4, 4, 1, 1.0, seed=0)
        with pytest.raises(ValidationError, match="^test_fraction must be a finite real"):
            data.split_random(m, "0.5", seed=0)


class TestSplitStructured:
    def test_weights_endpoints(self):
        w = data.structured_weights(5)
        assert w[0] == 0.9 and w[-1] == 0.005
        assert np.all(np.diff(w) < 0)
        assert data.structured_weights(1).tolist() == [0.9]

    def test_single_cell_probability(self):
        # 1x1 matrix: the only entry lands in test with probability 0.81.
        m = make_matrix(1, 1, [0], [0], [1.0])
        hits = sum(data.split_structured(m, seed=s)[1].m for s in range(400))
        assert abs(hits / 400 - 0.81) < 0.08

    def test_raw_fraction_matches_weight_mean_product(self):
        # Expected fraction = mean(w_row) * mean(w_col) = 0.4525^2 for
        # linear sequences between the fixed endpoints.
        m, _ = data.simulate(600, 400, 1, 1.0, seed=0)
        _, test = data.split_structured(m, seed=1, mode="raw")
        expected = 0.4525 ** 2
        se = np.sqrt(expected * (1 - expected) / m.m)
        assert abs(test.m / m.m - expected) < 5 * se

    def test_rescaled_hits_target(self):
        m, _ = data.simulate(300, 200, 1, 1.0, seed=0)
        _, test = data.split_structured(m, seed=1, mode="rescaled", target_fraction=0.8)
        assert abs(test.m / m.m - 0.8) < 0.02

    def test_rescale_factor_solves_expectation(self):
        probs = np.outer(data.structured_weights(50), data.structured_weights(40)).ravel()
        s = data.structured_rescale_factor(probs, 0.8)
        assert abs(np.minimum(1.0, s * probs).mean() - 0.8) < 1e-9

    def test_rescale_factor_bitwise_equal_fixed_length_bisection(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            probs = rng.random(rng.integers(1, 200)) * 10.0 ** rng.uniform(-6, np.log10(5))
            probs[rng.random(probs.size) < 0.3] = 0.0
            probs[0] = max(probs[0], 1e-6)
            target = rng.uniform(0.001, 0.999) * float(np.mean(probs > 0))
            got = data.structured_rescale_factor(probs, target)
            want = oracles.structured_rescale_factor(probs, target)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), trial

    def test_unknown_mode(self):
        m = make_matrix(1, 2, [0, 0], [0, 1], [1.0, 2.0])
        with pytest.raises(ValidationError):
            data.split_structured(m, seed=0, mode="bogus")

    def test_target_fraction_must_be_a_real_number(self):
        m, _ = data.simulate(4, 4, 1, 1.0, seed=0)
        with pytest.raises(ValidationError, match="^target_fraction must be a finite real"):
            data.split_structured(m, 0, "rescaled", "0.5")


class TestOrderMatrix:
    def test_decreasing_by_counts(self):
        # rows with counts [1, 5, 3] -> row 1 first, then 2, then 0
        rows = [0] + [1] * 5 + [2] * 3
        cols = [0, 0, 1, 2, 3, 4, 0, 1, 2]
        m = make_matrix(3, 5, rows, cols, np.ones(9))
        row_perm, _ = data.order_matrix(m, "decreasing")
        assert row_perm.tolist() == [1, 2, 0]

    def test_ties_keep_original_order(self):
        m = make_matrix(3, 3, [0, 1, 2], [0, 1, 2], [1, 1, 1])
        row_perm, col_perm = data.order_matrix(m, "decreasing")
        assert row_perm.tolist() == [0, 1, 2]
        assert col_perm.tolist() == [0, 1, 2]

    def test_random_deterministic_bijection(self):
        m, _ = data.simulate(30, 20, 1, 1.0, seed=0)
        p1 = data.order_matrix(m, "random", seed=4)
        p2 = data.order_matrix(m, "random", seed=4)
        assert np.array_equal(p1[0], p2[0]) and np.array_equal(p1[1], p2[1])
        assert sorted(p1[0].tolist()) == list(range(30))

    def test_none_scheme(self):
        m, _ = data.simulate(4, 5, 1, 1.0, seed=0)
        rp, cp = data.order_matrix(m, "none")
        assert rp.tolist() == list(range(4)) and cp.tolist() == list(range(5))

    def test_decreasing_property_randomized(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n, d = rng.integers(2, 30, size=2)
            m_entries = int(rng.integers(1, n * d))
            flat = rng.choice(n * d, size=m_entries, replace=False)
            m = make_matrix(n, d, flat // d, flat % d, np.ones(m_entries))
            rp, cp = data.order_matrix(m, "decreasing")
            assert np.all(np.diff(m.row_counts()[rp]) <= 0)
            assert np.all(np.diff(m.col_counts()[cp]) <= 0)


@pytest.mark.parametrize("draw", [
    lambda m: data.simulate(3, 2, 1, 1.0, seed=-1),
    lambda m: data.split_random(m, 0.5, seed=-1),
    lambda m: data.split_structured(m, seed=-1),
    lambda m: data.order_matrix(m, "random", seed=-1),
], ids=["simulate", "split_random", "split_structured", "order_matrix"])
def test_negative_seed_is_validation_error(draw):
    matrix, _ = data.simulate(3, 2, 1, 1.0, seed=0)
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer, got -1"):
        draw(matrix)


class TestPartition:
    def test_remainder_spread_over_leading_blocks(self):
        m, _ = data.simulate(10, 9, 1, 1.0, seed=0)
        plan = data.partition(m, data.order_matrix(m, "none"), 3, 2)
        assert np.diff(plan.row_cuts).tolist() == [4, 3, 3]
        assert np.diff(plan.col_cuts).tolist() == [5, 4]

    def test_even_split(self):
        m, _ = data.simulate(6040, 4, 1, 1.0, seed=0)
        plan = data.partition(m, data.order_matrix(m, "none"), 5, 1)
        assert np.diff(plan.row_cuts).tolist() == [1208] * 5

    def test_single_block(self):
        m, _ = data.simulate(7, 5, 1, 1.0, seed=0)
        plan = data.partition(m, data.order_matrix(m, "none"), 1, 1)
        assert plan.row_cuts.tolist() == [0, 7]
        assert plan.col_cuts.tolist() == [0, 5]

    def test_too_many_blocks(self):
        m, _ = data.simulate(3, 3, 1, 1.0, seed=0)
        with pytest.raises(ValidationError):
            data.partition(m, data.order_matrix(m, "none"), 4, 1)

    @pytest.mark.parametrize("blocks, field", [((2.5, 1), "n_row_blocks"),
                                               ((True, 1), "n_row_blocks"),
                                               ((1, 0), "n_col_blocks")])
    def test_block_counts_must_be_positive_integers(self, blocks, field):
        m, _ = data.simulate(4, 4, 1, 1.0, seed=0)
        with pytest.raises(ValidationError, match=f"^{field} must be a positive integer"):
            data.partition(m, data.order_matrix(m, "none"), *blocks)

    def test_json_round_trip(self, tmp_path):
        m, _ = data.simulate(10, 8, 1, 1.0, seed=0)
        plan = data.partition(m, data.order_matrix(m, "random", seed=3), 3, 2)
        path = tmp_path / "plan.json"
        plan.save(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        loaded = data.PartitionPlan(*(np.array(doc[name]) for name in
                                      ("row_perm", "col_perm", "row_cuts", "col_cuts")))
        assert np.array_equal(loaded.row_perm, plan.row_perm)
        assert np.array_equal(loaded.col_perm, plan.col_perm)
        assert np.array_equal(loaded.row_cuts, plan.row_cuts)
        assert np.array_equal(loaded.col_cuts, plan.col_cuts)

    def test_invalid_plan_rejected(self):
        # Lists, as read from plan.json; a cast to int64 would hide the
        # fractions and booleans.
        for row_perm, row_cuts in (([0, 0], [0, 2]),                 # not a permutation
                                   ([0, 1], []),                     # no cuts
                                   ([0, 1], [2]),                    # one cut
                                   ([0, 1], [[0, 2]]),               # not 1-D
                                   ([0, 1, 2, 3, 4], [0, 2.5, 5]),   # fractional cut
                                   ([0, 1, 2, 3, 4], [0, True, 5]),  # boolean cut
                                   ([0, 1, 2, 3, 4], [0, 2.0, 5]),   # float cut
                                   ([0, 1.7, 2, 3, 4], [0, 2, 5]),   # fractional perm entry
                                   ([True, 0], [0, 2]),              # boolean perm entry
                                   (np.array([False, True]), [0, 2]),  # boolean array
                                   (np.array([0, 1], dtype=object), [0, 2]),  # objects
                                   ([0, 1], [[0], [1, 2]])):         # a ragged list
            with pytest.raises(ValidationError):
                data.PartitionPlan(row_perm, [0], row_cuts, [0, 1])
