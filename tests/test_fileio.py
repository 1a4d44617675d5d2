"""Atomic text output."""

import os
import stat

import pytest

from stochlyap.fileio import write_atomic


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_mode_follows_umask(tmp_path, umask_022):
    # the temporary file is created owner-only; the result must not be
    path = tmp_path / "out.txt"
    write_atomic(str(path), ["a", "b\n"])
    assert path.read_text() == "ab\n"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644


def test_failure_leaves_target_untouched(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")

    def chunks():
        yield "new"
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError):
        write_atomic(str(path), chunks())
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.txt"]
