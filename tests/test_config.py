import json
import re
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import rankread
from rankread.config import Config


def test_defaults_validate():
    Config().validate()


def test_roundtrip_through_file_is_lossless(tmp_path):
    cfg = Config(hidden_size=24, learning_rate=0.00325, mode="r3",
                 dropout=0.17, embeddings_path="data/glove.txt", seed=42)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(asdict(cfg)))
    assert Config.from_file(path) == cfg


def test_file_takes_defaults_for_missing_keys(tmp_path):
    path = tmp_path / "some.json"
    path.write_text('{"hidden_size": 8, "mode": "sr"}')
    assert Config.from_file(path) == Config(hidden_size=8, mode="sr")


def test_file_rejects_unknown_key(tmp_path):
    # the wording a checkpoint's config with an unknown key gives
    path = tmp_path / "bad.json"
    path.write_text('{"hidden_size": 16, "not_a_key": 3}')
    with pytest.raises(ValueError) as info:
        Config.from_file(path)
    assert str(info.value).startswith(f"{path}: TypeError: ")
    assert str(info.value).endswith("unexpected keyword argument 'not_a_key'")


def test_file_rejects_a_repeated_key(tmp_path):
    # json alone keeps the last of the two values silently
    path = tmp_path / "twice.json"
    path.write_text('{"hidden_size": 4, "mode": "sr", "hidden_size": 8}')
    with pytest.raises(ValueError) as info:
        Config.from_file(path)
    assert str(info.value) == f"{path}: ValueError: repeated key 'hidden_size'"


def test_file_drops_a_byte_order_mark(tmp_path):
    # json alone: "Unexpected UTF-8 BOM (decode using utf-8-sig)"
    path = tmp_path / "bom.json"
    path.write_text('\ufeff{"hidden_size": 8, "mode": "sr"}', encoding="utf-8")
    cfg = Config.from_file(path)
    assert cfg.hidden_size == 8 and cfg.mode == "sr"


@pytest.mark.parametrize("text, message", [
    ("[1]", "config must be a JSON object, got list"),
    ('"hidden_size=8"', "config must be a JSON object, got str"),
    ('{"hidden_size": "8"}', "TypeError: config hidden_size must be an integer, got '8'"),
    ('{"dropout": null}', "TypeError: config dropout must be a number, got None"),
    ('{"hidden_size": 7}', "ValueError: hidden_size must be even, got 7"),
    ("hidden_size=8\n", "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
], ids=["list", "string", "wrong_type", "null", "invalid", "key_value_line"])
def test_file_error_is_one_line_naming_the_file(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        Config.from_file(path)
    assert str(info.value) == f"{path}: {message}"


def test_checkpoint_config_written_to_a_file_reads_back_as_the_checkpoint_config(tmp_path):
    from rankread.model import RankReadModel, load_checkpoint, save_checkpoint
    from rankread.text import synthetic_embeddings
    cfg = Config(hidden_size=8, embed_dim=8, mode="r3", dropout=0.2, seed=3)
    table = synthetic_embeddings({"blue", "sky"}, cfg.embed_dim, seed=cfg.seed)
    ckpt = tmp_path / "m.json"
    save_checkpoint(ckpt, RankReadModel(cfg, seed=cfg.seed), table)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(json.loads(ckpt.read_text())["extra"]["config"]))
    assert Config.from_file(path) == load_checkpoint(ckpt)[0].config == cfg


@pytest.mark.parametrize("field,value,msg", [
    ("hidden_size", 7, "even"),
    ("mode", "reinforce", "mode"),
    ("train_sample_k", 2, "min_negatives"),
    ("reader_layers", 0, "at least 1"),
    ("ranker_layers", 0, "at least 1"),
    ("batch_size", 0, "at least 1"),
    ("dropout", 1.0, "dropout must be in"),
    ("dropout", -0.1, "dropout must be in"),
    ("learning_rate", float("nan"), "^learning_rate must be finite, got nan$"),
    ("kl_weight", float("inf"), "^kl_weight must be finite, got inf$"),
    ("grad_clip", float("-inf"), "^grad_clip must be finite, got -inf$"),
    ("hidden_size", 0, "^hidden_size must be at least 2, got 0$"),
    ("hidden_size", -2, "^hidden_size must be at least 2, got -2$"),
    ("embed_dim", 0, "^embed_dim must be at least 1, got 0$"),
    ("epochs", -1, "^epochs must be at least 0, got -1$"),
    ("pretrain_epochs", -1, "^pretrain_epochs must be at least 0, got -1$"),
    ("min_negatives", -1, "^min_negatives must be at least 0, got -1$"),
    ("max_span_len", 0, "^max_span_len must be at least 1, got 0$"),
    ("seed", -5, "^seed must be at least 0, got -5$"),
    ("learning_rate", -0.01, "^learning_rate must be at least 0, got -0.01$"),
    ("kl_weight", -1.0, "^kl_weight must be at least 0, got -1.0$"),
    ("grad_clip", -5.0, "^grad_clip must be at least 0, got -5.0$"),
])
def test_validation_errors(field, value, msg):
    with pytest.raises(ValueError, match=msg):
        Config(**{field: value}).validate()


def test_zero_and_unit_bounds_are_accepted():
    # a zero learning rate or kl weight is a frozen run, and a zero grad_clip
    # turns clipping off (retrieval's bounds: test_retrieval's
    # test_settings_check_accepts_its_bounds)
    Config(learning_rate=0.0, kl_weight=0.0, grad_clip=0.0).validate()


# retrieval's settings, as every checkpoint and config file written while
# Config held them stores them
_RETIRED = {"retrieve_n": 10, "top_a": 10, "top_s": 30, "bm25_k1": 1.2, "bm25_b": 0.75}


@pytest.mark.parametrize("stored", [
    {"hidden_size": 8, "mode": "sr", **_RETIRED},
    # a value Config used to reject (retrieve_n above top_s) is ignored too
    {"hidden_size": 8, "mode": "sr", "retrieve_n": 40, "bm25_b": 7},
    # README's paper-scale object, which held the training and the retrieval keys
    {"hidden_size": 300, "embed_dim": 300, "batch_size": 30, "learning_rate": 0.002,
     "top_a": 200, "top_s": 200, "retrieve_n": 50},
], ids=["defaults", "out_of_range", "paper_scale"])
def test_file_ignores_the_retired_retrieval_keys(tmp_path, stored):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(stored))
    training = {key: value for key, value in stored.items() if key not in _RETIRED}
    assert Config.from_file(path) == Config(**training)


def test_retrieval_settings_are_not_fields():
    # they are retrieval.py's, so a Config can neither take nor store them
    assert not {f.name for f in fields(Config)} & set(_RETIRED)
    with pytest.raises(TypeError, match="unexpected keyword argument 'top_a'"):
        Config(top_a=5)


def test_checkpoint_with_the_retired_keys_loads_the_same_model(tmp_path):
    from rankread.model import RankReadModel, load_checkpoint, save_checkpoint
    from rankread.text import synthetic_embeddings
    cfg = Config(hidden_size=8, embed_dim=8, mode="r3", seed=3)
    table = synthetic_embeddings({"blue", "sky"}, cfg.embed_dim, seed=cfg.seed)
    new = tmp_path / "new.json"
    save_checkpoint(new, RankReadModel(cfg, seed=cfg.seed), table)
    payload = json.loads(new.read_text())
    assert list(payload["extra"]["config"]) == [f.name for f in fields(Config)]
    payload["extra"]["config"].update(_RETIRED)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload))
    # saved again, the old file's model is the new file, byte for byte
    again = tmp_path / "again.json"
    save_checkpoint(again, *load_checkpoint(old))
    assert again.read_bytes() == new.read_bytes()


def test_overrides_skip_none_and_validate():
    cfg = Config().with_overrides({"hidden_size": 20, "dropout": None})
    assert cfg.hidden_size == 20
    assert cfg.dropout == Config().dropout
    with pytest.raises(ValueError):
        Config().with_overrides({"hidden_size": 9})
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_key'"):
        Config().with_overrides({"not_a_key": 1})


def test_every_config_field_is_read():
    # a setting that no module reads is a flag that silently does nothing
    package = Path(rankread.__file__).parent
    sources = "\n".join(p.read_text() for p in sorted(package.glob("*.py"))
                        if p.name != "config.py")
    unread = [f.name for f in fields(Config)
              if not re.search(rf"\.{f.name}\b", sources)]
    assert unread == []


def test_experiment_runs_on_the_config_defaults():
    from rankread.experiment import default_config
    assert default_config() == Config()
