import json

import numpy as np
import pytest

from rankread import retrieval as R
from rankread import tensor as T
from rankread.files import atomic_write


def test_atomic_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with atomic_write(path) as f:
        f.write("new")
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _save_checkpoint(path):
    T.save_checkpoint(path, {"w": T.Tensor(np.arange(6.0).reshape(2, 3))})


def _save_index(path):
    R.save_index(R.build_index([R.Document("d0", "t", "some words here .")]), path)


@pytest.mark.parametrize("save", [_save_checkpoint, _save_index])
def test_failed_save_leaves_the_old_file(tmp_path, monkeypatch, save):
    path = tmp_path / "saved.json"
    save(path)
    before = path.read_bytes()

    def broken_dump(obj, f, **kwargs):
        f.write(json.dumps(obj, **kwargs)[:10])
        raise RuntimeError("disk went away")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(RuntimeError, match="disk went away"):
        save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["saved.json"]
