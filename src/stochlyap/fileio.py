"""Atomic text output shared by every writer of the package."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path: str, chunks) -> None:
    """Write the text chunks to ``path`` atomically.

    The chunks stream into a temporary file in the target directory,
    which then replaces ``path`` in one rename; on any failure the
    temporary file is removed and ``path`` is left untouched.  The file
    gets the mode ``open`` would give a new file, ``0o666 & ~umask``,
    not the owner-only mode of the temporary file.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "w") as f:
            for chunk in chunks:
                f.write(chunk)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
