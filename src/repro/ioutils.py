"""Crash-safe file writing shared by exporters, reports and the runner.

Every artifact this package writes (CSV series, gnuplot scripts, trace
JSON, result-cache entries) goes through
:func:`atomic_write_text`: the content lands in a uniquely named
temporary file *in the destination directory* and is moved into place
with :func:`os.replace`.  A crash — including SIGKILL of a runner
worker — can therefore never leave a truncated artifact under the
final name; at worst an orphaned ``*.tmp-*`` file remains, which
:func:`sweep_tmp_files` removes.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
from typing import List, Union

PathLike = Union[str, os.PathLike]

#: Marker embedded in every temporary file name (and matched by
#: :func:`sweep_tmp_files`).
TMP_MARKER = ".tmp-"


def atomic_write_text(
    path: PathLike,
    text: str,
    *,
    encoding: str = "utf-8",
    newline: str = None,
) -> pathlib.Path:
    """Write ``text`` to ``path`` atomically; return the final path.

    The temporary file lives in ``path``'s directory so the final
    :func:`os.replace` stays on one filesystem (rename atomicity).
    Parent directories are created as needed.  On any failure the
    temporary file is removed and the final path is untouched.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + TMP_MARKER
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding, newline=newline) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def sweep_tmp_files(directory: PathLike) -> List[pathlib.Path]:
    """Remove orphaned ``*.tmp-*`` files under ``directory`` (recursive).

    Interrupted :func:`atomic_write_text` calls from a killed process
    leave their temporary file behind; callers that own a directory
    (e.g. the runner's result cache) sweep it before writing.  Returns
    the paths removed.  Missing directories are a no-op.
    """
    directory = pathlib.Path(directory)
    removed: List[pathlib.Path] = []
    if not directory.is_dir():
        return removed
    for stray in directory.rglob(f"*{TMP_MARKER}*"):
        if stray.is_file():
            try:
                stray.unlink()
            except OSError:
                continue
            removed.append(stray)
    return removed
