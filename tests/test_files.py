import dataclasses
import json

import pytest

from rankread import retrieval as R
from rankread.cli import load_dataset
from rankread.config import Config
from rankread.files import atomic_write, check_fields
from rankread.model import save_checkpoint

from conftest import toy_trainer


def test_atomic_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with atomic_write(path) as f:
        f.write("new")
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _save_checkpoint(path):
    trainer = toy_trainer()
    save_checkpoint(path, trainer.model, trainer.table)


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


def _document(tmp_path, **fields):
    return R.Document(**{"id": "d", "title": "t", "text": "x", **fields})


# load_retrieved checks each passage and set it builds; retrieve's own are not checked
def _passage(tmp_path, **fields):
    return check_fields("retrieved passage", R.RetrievedPassage(
        **{"text": "x", "doc_id": "d", "ir_rank": 1, "ir_score": 0.5, "positive": True, **fields}))


def _retrieved_set(tmp_path, **fields):
    return check_fields("retrieved set", R.RetrievedSet(**{"question_id": "q", "passages": [],
                                                           **fields}))


def _dataset_record(tmp_path, **fields):
    path = tmp_path / "test.jsonl"
    path.write_text(json.dumps({"id": "q", "question": "x", "answers": ["a"], **fields}) + "\n")
    return load_dataset(path)


def test_jsonl_drops_a_byte_order_mark(tmp_path):
    # before: one-line error "Unexpected UTF-8 BOM" on line 1
    path = tmp_path / "bom.jsonl"
    records = [{"id": f"q{i}", "question": "x", "answers": ["a"]} for i in range(2)]
    path.write_text("\ufeff" + "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert [q["id"] for q in load_dataset(path)] == ["q0", "q1"]


def _config(tmp_path, **fields):
    return Config(**fields).validate()


# a value of the wrong type for every Config field, by its annotation
_WRONG_CONFIG_VALUE = {int: (1.5, "an integer"), float: ("1", "a number"), str: (1, "a string")}

_FIELD_CASES = [
    (_document, "document", "id", 5, "a string"),
    (_document, "document", "title", None, "a string"),
    (_document, "document", "text", b"x", "a string"),
    (_passage, "retrieved passage", "text", 5, "a string"),
    (_passage, "retrieved passage", "doc_id", 1, "a string"),
    (_passage, "retrieved passage", "ir_rank", 1.0, "an integer"),
    (_passage, "retrieved passage", "ir_rank", True, "an integer"),
    (_passage, "retrieved passage", "ir_score", "0.5", "a number"),
    (_passage, "retrieved passage", "ir_score", False, "a number"),
    (_passage, "retrieved passage", "positive", 1, "a bool"),
    (_passage, "retrieved passage", "positive", "no", "a bool"),
    (_retrieved_set, "retrieved set", "question_id", ["x"], "a string"),
    (_retrieved_set, "retrieved set", "passages", (), "a list"),
    (_dataset_record, "dataset record", "id", 7, "a string"),
    (_dataset_record, "dataset record", "question", 5, "a string"),
    (_dataset_record, "dataset record", "answers", "blue", "a list of strings"),
    (_dataset_record, "dataset record", "answers", ["blue", 1], "a list of strings"),
    (_config, "config", "hidden_size", True, "an integer"),
    (_config, "config", "dropout", True, "a number"),
] + [(_config, "config", f.name, *_WRONG_CONFIG_VALUE[f.type]) for f in dataclasses.fields(Config)]


@pytest.mark.parametrize("make, what, field, value, noun", _FIELD_CASES, ids=[
    f"{what.replace(' ', '_')}-{field}-{value!r}" for _, what, field, value, _ in _FIELD_CASES])
def test_field_check_names_the_field_and_its_type(tmp_path, make, what, field, value, noun):
    message = f"{what} {field} must be {noun}, got {value!r}"
    if make is _dataset_record:  # read from a file: the one-line error naming the line
        message = f"{tmp_path / 'test.jsonl'}:1: TypeError: {message}"
    with pytest.raises(ValueError if make is _dataset_record else TypeError) as info:
        make(tmp_path, **{field: value})
    assert str(info.value) == message


@pytest.mark.parametrize("make, fields", [
    (_passage, {"ir_score": 3}),
    (_passage, {"ir_rank": 0, "positive": False}),
    (_dataset_record, {"answers": []}),
    (_config, {"learning_rate": 1, "grad_clip": 0}),
], ids=["int_ir_score", "false_positive", "no_answers", "int_floats"])
def test_field_check_counts_ints_as_numbers(tmp_path, make, fields):
    assert make(tmp_path, **fields)
