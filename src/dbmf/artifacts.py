"""Atomic writes: readers of a run artifact see the old file or the whole
new one, never part of a write."""

from __future__ import annotations

import contextlib
import os

from .errors import ArtifactError


def write_atomic(path, write) -> None:
    """Write ``path`` by calling ``write`` on a binary handle to a temporary
    file beside it, then move that file into place.  On any failure the
    temporary file is removed and ``path`` is left as it was; an ``OSError``
    is raised as ``ArtifactError``."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "wb") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise ArtifactError(f"cannot write {path}: {exc}") from exc
