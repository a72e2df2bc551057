import re
from dataclasses import fields
from pathlib import Path

import pytest

import rankread
from rankread.config import Config


def test_defaults_validate():
    Config().validate()


def test_roundtrip_through_file_is_lossless(tmp_path):
    cfg = Config(hidden_size=24, learning_rate=0.00325, mode="r3",
                 dropout=0.17, embeddings_path="data/glove.txt", seed=42)
    path = tmp_path / "run.cfg"
    cfg.to_file(path)
    assert Config.from_file(path) == cfg


def test_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("hidden_size=16\nnot_a_key=3\n")
    with pytest.raises(ValueError, match="not_a_key"):
        Config.from_file(path)


def test_file_allows_comments_and_blanks(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("# comment\n\nhidden_size=8\nmode=sr\n")
    cfg = Config.from_file(path)
    assert cfg.hidden_size == 8 and cfg.mode == "sr"


@pytest.mark.parametrize("field,value,msg", [
    ("hidden_size", 7, "even"),
    ("mode", "reinforce", "mode"),
    ("train_sample_k", 2, "min_negatives"),
])
def test_validation_errors(field, value, msg):
    with pytest.raises(ValueError, match=msg):
        Config(**{field: value}).validate()


def test_overrides_skip_none_and_validate():
    cfg = Config().with_overrides({"hidden_size": 20, "dropout": None})
    assert cfg.hidden_size == 20
    assert cfg.dropout == Config().dropout
    with pytest.raises(ValueError):
        Config().with_overrides({"hidden_size": 9})


def test_every_config_field_is_read():
    # a setting that no module reads is a flag that silently does nothing
    package = Path(rankread.__file__).parent
    sources = "\n".join(p.read_text() for p in sorted(package.glob("*.py"))
                        if p.name != "config.py")
    unread = [f.name for f in fields(Config)
              if not re.search(rf"\.{f.name}\b", sources)]
    assert unread == []
