import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from rankread import retrieval
from rankread.cli import build_parser, load_dataset, main
from rankread.config import Config
from rankread.model import load_checkpoint


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny end-to-end workspace: synth -> index -> retrieve -> train."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "corpus": root / "corpus.jsonl",
        "train": root / "train.jsonl",
        "test": root / "test.jsonl",
        "index": root / "index.json",
        "retrieved_train": root / "retrieved_train.jsonl",
        "retrieved_test": root / "retrieved_test.jsonl",
        "ckpt": root / "model.json",
        "log": root / "train_log.jsonl",
    }
    assert main(["synth", "--out-corpus", str(paths["corpus"]),
                 "--out-train", str(paths["train"]), "--out-test", str(paths["test"]),
                 "--entities", "8", "--relations", "5",
                 "--train-questions", "20", "--test-questions", "8", "--seed", "1"]) == 0
    assert main(["build-index", "--corpus", str(paths["corpus"]),
                 "--out", str(paths["index"])]) == 0
    for mode, out in (("train", "retrieved_train"), ("test", "retrieved_test")):
        assert main(["retrieve", "--index", str(paths["index"]),
                     "--dataset", str(paths["train" if mode == "train" else "test"]),
                     "--out", str(paths[out]), "--mode", mode,
                     "--retrieve-n", "6", "--top-a", "8", "--top-s", "20"]) == 0
    assert main(["train", "--retrieved", str(paths["retrieved_train"]),
                 "--dataset", str(paths["train"]), "--out", str(paths["ckpt"]),
                 "--log", str(paths["log"]), "--mode", "sr2", "--epochs", "1",
                 "--hidden-size", "8", "--embed-dim", "8", "--dropout", "0.0",
                 "--train-sample-k", "6", "--seed", "3"]) == 0
    return paths


def test_synth_regeneration_is_identical(workdir, tmp_path):
    again = tmp_path / "corpus2.jsonl"
    assert main(["synth", "--out-corpus", str(again),
                 "--out-train", str(tmp_path / "tr.jsonl"),
                 "--out-test", str(tmp_path / "te.jsonl"),
                 "--entities", "8", "--relations", "5",
                 "--train-questions", "20", "--test-questions", "8", "--seed", "1"]) == 0
    assert again.read_bytes() == workdir["corpus"].read_bytes()


def test_build_index_rejects_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["build-index", "--corpus", str(empty), "--out", str(tmp_path / "i.json")]) != 0
    assert "error" in capsys.readouterr().err


def test_index_rebuild_is_byte_stable(workdir, tmp_path):
    rebuilt = tmp_path / "index2.json"
    assert main(["build-index", "--corpus", str(workdir["corpus"]), "--out", str(rebuilt)]) == 0
    assert rebuilt.read_bytes() == workdir["index"].read_bytes()


def test_retrieved_output_respects_n_and_modes(workdir):
    train_recs = [json.loads(l) for l in workdir["retrieved_train"].read_text().splitlines()]
    test_recs = [json.loads(l) for l in workdir["retrieved_test"].read_text().splitlines()]
    for rec in train_recs + test_recs:
        assert len(rec["passages"]) <= 6
        ranks = [p["ir_rank"] for p in rec["passages"]]
        assert ranks == sorted(ranks)
    # augmented training queries surface answer-bearing passages first far more often
    train_top_pos = sum(r["passages"][0]["positive"] for r in train_recs) / len(train_recs)
    test_top_pos = sum(r["passages"][0]["positive"] for r in test_recs) / len(test_recs)
    assert train_top_pos > test_top_pos


def test_train_writes_checkpoint_and_log(workdir):
    ckpt = json.loads(workdir["ckpt"].read_text())
    assert set(ckpt) == {"format_version", "params", "extra"}
    assert ckpt["format_version"] == 1
    assert ckpt["extra"]["mode"] == "sr2"
    assert ckpt["extra"]["table"]["kind"] == "inline"
    records = [json.loads(l) for l in workdir["log"].read_text().splitlines()]
    assert all({"step", "mode", "reader_loss", "kl_loss", "entropy"} <= set(r) for r in records)
    assert all("reward" not in r and "rewards" not in r for r in records)  # no policy term in sr2


def test_inline_table_is_the_token_vector_map_sorted_by_token(workdir):
    # synthetic embeddings draw one row per token in sorted order, from the seed
    table = json.loads(workdir["ckpt"].read_text())["extra"]["table"]
    tokens = list(table["vectors"])
    assert tokens == sorted(tokens)
    draw = np.random.default_rng(3).uniform(-0.5, 0.5, size=(len(tokens), 8))
    assert table["vectors"] == {tok: row.tolist() for tok, row in zip(tokens, draw)}


def test_sr_mode_logs_skip_ranker_fields(workdir, tmp_path):
    log = tmp_path / "sr_log.jsonl"
    assert main(["train", "--retrieved", str(workdir["retrieved_train"]),
                 "--dataset", str(workdir["train"]), "--out", str(tmp_path / "sr.json"),
                 "--log", str(log), "--mode", "sr", "--epochs", "1",
                 "--hidden-size", "8", "--embed-dim", "8", "--dropout", "0.0",
                 "--train-sample-k", "6", "--seed", "3"]) == 0
    records = [json.loads(l) for l in log.read_text().splitlines()]
    assert all(set(r) == {"step", "mode", "reader_loss", "grad_norm", "clipped"} for r in records)


def test_train_r3_without_init_pretrains(workdir, tmp_path, caplog):
    import logging
    with caplog.at_level(logging.INFO, logger="rankread.cli"):
        assert main(["train", "--retrieved", str(workdir["retrieved_train"]),
                     "--dataset", str(workdir["train"]), "--out", str(tmp_path / "r3.json"),
                     "--mode", "r3", "--epochs", "1", "--pretrain-epochs", "1",
                     "--hidden-size", "8", "--embed-dim", "8", "--dropout", "0.0",
                     "--train-sample-k", "6", "--seed", "3"]) == 0
    assert any("pretraining" in m for m in caplog.messages)


def test_r3_run_equals_sr2_checkpoint_then_r3_from_init(workdir, tmp_path):
    common = ["--retrieved", str(workdir["retrieved_train"]), "--dataset", str(workdir["train"]),
              "--hidden-size", "8", "--embed-dim", "8", "--dropout", "0.1",
              "--train-sample-k", "6", "--seed", "5"]
    paths = {name: tmp_path / f"{name}.json" for name in ("sr2", "r3_init", "r3")}
    logs = {name: tmp_path / f"{name}.jsonl" for name in paths}
    assert main(["train", *common, "--mode", "sr2", "--epochs", "2",
                 "--out", str(paths["sr2"]), "--log", str(logs["sr2"])]) == 0
    assert main(["train", *common, "--mode", "r3", "--epochs", "1", "--init", str(paths["sr2"]),
                 "--out", str(paths["r3_init"]), "--log", str(logs["r3_init"])]) == 0
    assert main(["train", *common, "--mode", "r3", "--epochs", "1", "--pretrain-epochs", "2",
                 "--out", str(paths["r3"]), "--log", str(logs["r3"])]) == 0
    sr2, r3_init, r3 = (load_checkpoint(paths[name])[0].export_values()
                        for name in ("sr2", "r3_init", "r3"))
    assert r3.keys() == r3_init.keys()
    assert all(np.array_equal(r3[name], r3_init[name]) for name in r3)
    assert not all(np.array_equal(r3[name], sr2[name]) for name in r3)
    # one log across the hand-off: the r3 steps number on from the sr2 steps
    records = {name: [json.loads(l) for l in path.read_text().splitlines()]
               for name, path in logs.items()}
    first_r3 = len(records["sr2"])
    assert records["r3"] == records["sr2"] + [dict(rec, step=rec["step"] + first_r3)
                                              for rec in records["r3_init"]]


def test_train_r3_with_init_checkpoint(workdir, tmp_path):
    log = tmp_path / "r3_log.jsonl"
    assert main(["train", "--retrieved", str(workdir["retrieved_train"]),
                 "--dataset", str(workdir["train"]), "--out", str(tmp_path / "r3b.json"),
                 "--log", str(log), "--init", str(workdir["ckpt"]),
                 "--mode", "r3", "--epochs", "1",
                 "--hidden-size", "8", "--embed-dim", "8", "--dropout", "0.0",
                 "--train-sample-k", "6", "--seed", "3"]) == 0
    records = [json.loads(l) for l in log.read_text().splitlines()]
    assert all(set(r) == {"step", "mode", "reader_loss", "reward", "entropy", "rewards",
                          "grad_norm", "clipped"} for r in records)
    # one epoch counts each kept example's reward once, by its kind
    questions = len(workdir["train"].read_text().splitlines())
    assert 0 < sum(sum(r["rewards"].values()) for r in records) <= questions
    assert all(set(r["rewards"]) == {"exact", "overlap", "miss"} for r in records)


def _train_sr2(workdir, out, *flags):
    assert main(["train", "--retrieved", str(workdir["retrieved_train"]),
                 "--dataset", str(workdir["train"]), "--out", str(out), "--mode", "sr2",
                 "--hidden-size", "8", "--embed-dim", "8", "--train-sample-k", "6", *flags]) == 0
    return json.loads(out.read_text())


def _vectors_file(workdir, path):
    """The workdir checkpoint's inline vectors as an embeddings file."""
    vectors = json.loads(workdir["ckpt"].read_text())["extra"]["table"]["vectors"]
    path.write_text("".join(f"{tok} {' '.join(map(repr, vec))}\n" for tok, vec in vectors.items()))
    return str(path)


@pytest.mark.parametrize("table", ["inline", "file", "file_and_flag"])
def test_init_takes_the_checkpoint_word_vectors(workdir, tmp_path, table):
    # before, --init drew a new synthetic table from --seed and trained the
    # checkpoint's weights on vectors they never saw, and a chain that started
    # from a vectors file went on with synthetic vectors written inline
    if table == "inline":
        flags = []
    else:
        flags = ["--embeddings-path", _vectors_file(workdir, tmp_path / "vectors.txt")]
    a = _train_sr2(workdir, tmp_path / "a.json", "--epochs", "1", "--seed", "1", *flags)
    b = _train_sr2(workdir, tmp_path / "b.json", "--epochs", "0", "--seed", "2",
                   "--init", str(tmp_path / "a.json"), *(flags if table == "file_and_flag" else []))
    assert b["params"] == a["params"]
    assert b["extra"]["table"] == a["extra"]["table"]
    assert a["extra"]["table"]["kind"] == ("inline" if table == "inline" else "file")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("table", ["file", "inline"])
def test_init_with_other_word_vectors_is_one_line_error_naming_both(workdir, tmp_path, capsys,
                                                                    source, table):
    # before, the flag's vectors were silently paired with the checkpoint's weights
    other = _vectors_file(workdir, tmp_path / "other.txt")
    if table == "file":
        ckpt = tmp_path / "a.json"
        vectors = _vectors_file(workdir, tmp_path / "vectors.txt")
        _train_sr2(workdir, ckpt, "--epochs", "0", "--embeddings-path", vectors)
        held = repr(vectors)
    else:
        ckpt, held = workdir["ckpt"], "inline"
    if source == "flag":
        flags = ["--embeddings-path", other]
    else:
        (tmp_path / "run.json").write_text(json.dumps({"embeddings_path": other}))
        flags = ["--config", str(tmp_path / "run.json")]
    out = tmp_path / "out.json"
    assert main(["train", "--init", str(ckpt), "--retrieved", str(workdir["retrieved_train"]),
                 "--dataset", str(workdir["train"]), "--out", str(out), "--mode", "r3",
                 "--hidden-size", "8", "--embed-dim", "8", "--train-sample-k", "6", *flags]) == 1
    assert _error_line(capsys) == (f"error: {ckpt}: embeddings_path {other!r} is not the "
                                   f"checkpoint's word vectors ({held})")
    assert not out.exists()


def test_fixed_seed_reproduces_training_log(workdir, tmp_path):
    logs = []
    for name in ("a", "b"):
        log = tmp_path / f"{name}.jsonl"
        assert main(["train", "--retrieved", str(workdir["retrieved_train"]),
                     "--dataset", str(workdir["train"]), "--out", str(tmp_path / f"{name}.json"),
                     "--log", str(log), "--mode", "sr2", "--epochs", "1",
                     "--hidden-size", "8", "--embed-dim", "8", "--dropout", "0.1",
                     "--train-sample-k", "6", "--seed", "11"]) == 0
        logs.append(log.read_bytes())
    assert logs[0] == logs[1]


def test_evaluate_and_analyze(workdir, tmp_path):
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--checkpoint", str(workdir["ckpt"]),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"f1", "em", "count", "records"}
    assert report["count"] == 8

    analysis_path = tmp_path / "analysis.json"
    assert main(["analyze", "--checkpoint", str(workdir["ckpt"]),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(analysis_path)]) == 0
    analysis = json.loads(analysis_path.read_text())
    assert (analysis["f1"], analysis["em"]) == (report["f1"], report["em"])
    assert analysis["k"] == [1, 3, 5]
    for source in ("ir", "model"):
        vals = [analysis["recall"][source][str(k)] for k in (1, 3, 5)]
        assert vals[0] <= vals[1] <= vals[2]
    assert all(str(k) in analysis["oracle"] for k in (1, 3, 5))


def test_checkpoint_with_optimizer_state_evaluates_the_same(workdir, tmp_path):
    # checkpoints written before the optimizer state was dropped still load
    ckpt = json.loads(workdir["ckpt"].read_text())
    ckpt["optimizer"] = {"t": 3, "m": {"rank.W": [0.5, -0.25]}, "u": {"rank.W": [0.5, 0.25]}}
    old = tmp_path / "with_optimizer.json"
    old.write_text(json.dumps(ckpt))
    reports = []
    for path in (workdir["ckpt"], old):
        out = tmp_path / f"report_{path.stem}.json"
        assert main(["evaluate", "--checkpoint", str(path),
                     "--retrieved", str(workdir["retrieved_test"]),
                     "--dataset", str(workdir["test"]), "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]


def test_evaluate_defaults_to_the_checkpoint_max_span_len(workdir, tmp_path):
    # an untrained model's best spans run long, so the limit shows
    ckpt = tmp_path / "short.json"
    assert main(["train", "--retrieved", str(workdir["retrieved_train"]),
                 "--dataset", str(workdir["train"]), "--out", str(ckpt),
                 "--mode", "sr2", "--epochs", "0", "--max-span-len", "2",
                 "--hidden-size", "8", "--embed-dim", "8", "--seed", "4"]) == 0

    def longest_prediction(*flags):
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--retrieved", str(workdir["retrieved_test"]),
                     "--dataset", str(workdir["test"]), "--out", str(report_path), *flags]) == 0
        records = json.loads(report_path.read_text())["records"]
        return max(len(r["prediction"].split()) for r in records)

    assert longest_prediction() <= 2
    assert longest_prediction("--max-span-len", "15") > 2


def test_retrieve_defaults_are_the_config_defaults(workdir, tmp_path):
    out = tmp_path / "retrieved.jsonl"
    assert main(["retrieve", "--index", str(workdir["index"]), "--dataset", str(workdir["test"]),
                 "--out", str(out)]) == 0
    index = retrieval.load_index(workdir["index"])
    cfg = Config()
    expected = [retrieval.retrieve(index, rec["id"], rec["question"], rec["answers"],
                                   n=cfg.retrieve_n, top_a=cfg.top_a, top_s=cfg.top_s,
                                   k1=cfg.bm25_k1, b=cfg.bm25_b)
                for rec in load_dataset(workdir["test"])]
    assert retrieval.load_retrieved(out) == expected


def test_readme_cli_commands_parse():
    # every command of README's CLI block, with its \ continuations joined
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    commands = [line.strip() for line in block.replace("\\\n", " ").splitlines()
                if line.strip().startswith("rankread ")]
    assert len(commands) == 7
    for command in commands:
        argv = shlex.split(command)[1:]
        assert build_parser().parse_args(argv).command == argv[0]


def test_evaluate_missing_checkpoint_fails(tmp_path, workdir, capsys):
    assert main(["evaluate", "--checkpoint", str(tmp_path / "nope.json"),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(tmp_path / "r.json")]) != 0
    assert "error" in capsys.readouterr().err


def test_evaluate_empty_dataset_fails(tmp_path, workdir, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["evaluate", "--checkpoint", str(workdir["ckpt"]),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(empty), "--out", str(tmp_path / "r.json")]) != 0
    assert "error" in capsys.readouterr().err


def _error_line(capsys):
    """The single stderr line of a failed command (no traceback)."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return lines[0]


def test_checkpoint_with_unknown_config_key_is_one_line_error(workdir, tmp_path, capsys):
    ckpt = json.loads(workdir["ckpt"].read_text())
    ckpt["extra"]["config"]["not_a_key"] = 1
    bad = tmp_path / "stale.json"
    bad.write_text(json.dumps(ckpt))
    assert main(["evaluate", "--checkpoint", str(bad),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(tmp_path / "r.json")]) == 1
    line = _error_line(capsys)
    assert line.startswith(f"error: {bad}: ") and "not_a_key" in line


def test_config_parse_error_names_file_and_line(workdir, tmp_path, capsys):
    # a config file is one JSON object, so the line names the file alone, as a
    # checkpoint's config of the wrong type does
    bad = tmp_path / "bad.json"
    bad.write_text('{"embed_dim": 8,\n "hidden_size": "abc"}\n')
    assert main(["train", "--config", str(bad), "--retrieved", str(workdir["retrieved_train"]),
                 "--dataset", str(workdir["train"]), "--out", str(tmp_path / "m.json")]) == 1
    assert _error_line(capsys) == (f"error: {bad}: TypeError: "
                                   "config hidden_size must be an integer, got 'abc'")


def test_retrieved_line_without_ir_score_is_one_line_error(workdir, tmp_path, capsys):
    lines = workdir["retrieved_test"].read_text().splitlines()
    rec = json.loads(lines[1])
    del rec["passages"][0]["ir_score"]
    lines[1] = json.dumps(rec)
    bad = tmp_path / "retrieved.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--checkpoint", str(workdir["ckpt"]), "--retrieved", str(bad),
                 "--dataset", str(workdir["test"]), "--out", str(tmp_path / "r.json")]) == 1
    line = _error_line(capsys)
    assert line.startswith(f"error: {bad}:2: ") and "ir_score" in line


def test_corpus_line_without_title_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "corpus.jsonl"
    bad.write_text(json.dumps({"id": "d0", "title": "t", "text": "x."}) + "\n"
                   + json.dumps({"id": "d1", "text": "y."}) + "\n")
    assert main(["build-index", "--corpus", str(bad), "--out", str(tmp_path / "i.json")]) == 1
    line = _error_line(capsys)
    assert line.startswith(f"error: {bad}:2: ") and "title" in line


def test_non_json_dataset_line_is_one_line_error(workdir, tmp_path, capsys):
    lines = workdir["test"].read_text().splitlines()
    lines[2] = "not json"
    bad = tmp_path / "test.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--checkpoint", str(workdir["ckpt"]),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(bad), "--out", str(tmp_path / "r.json")]) == 1
    line = _error_line(capsys)
    assert line.startswith(f"error: {bad}:3: ") and "Expecting value" in line


def test_duplicate_question_id_is_one_line_error(workdir, tmp_path, capsys):
    # retrieved sets are found by question id, so a repeated id would give
    # one question the other's passages
    lines = workdir["train"].read_text().splitlines()
    rec = json.loads(lines[3])
    rec["id"] = json.loads(lines[0])["id"]
    lines[3] = json.dumps(rec)
    bad = tmp_path / "train.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["train", "--retrieved", str(workdir["retrieved_train"]),
                 "--dataset", str(bad), "--out", str(tmp_path / "m.json"),
                 "--mode", "sr", "--epochs", "1", "--hidden-size", "8", "--embed-dim", "8",
                 "--train-sample-k", "6"]) == 1
    line = _error_line(capsys)
    assert line == f"error: {bad}:4: ValueError: duplicate question id {rec['id']!r}"


def test_non_json_checkpoint_is_one_line_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("garbage\n")
    assert main(["evaluate", "--checkpoint", str(bad),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(tmp_path / "r.json")]) == 1
    line = _error_line(capsys)
    assert line.startswith(f"error: {bad}: ") and "Expecting value" in line


def test_non_json_index_is_one_line_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("garbage\n")
    assert main(["retrieve", "--index", str(bad), "--dataset", str(workdir["test"]),
                 "--out", str(tmp_path / "r.jsonl")]) == 1
    line = _error_line(capsys)
    assert line.startswith(f"error: {bad}: ") and "Expecting value" in line


@pytest.mark.parametrize("payload, message", [
    ("[1]", "checkpoint must be a JSON object, got list"),
    ('{"format_version": 1}', "checkpoint lacks 'params'"),
    ('{"format_version": 1, "params": [1]}', "TypeError"),
    ('{"format_version": 1, "params": [], "extra": 5}', "lacks config/table metadata"),
    ('{"format_version": 1, "params": [], "extra": {"config": {}, "table": "x"}}', "TypeError"),
    ('{"format_version": 1, "params": [], "extra": {"config": [1], "table": {}}}',
     "argument after ** must be a mapping, not list"),
], ids=["list", "no_params", "bad_entry", "extra_int", "table_str", "config_list"])
def test_malformed_checkpoint_is_one_line_error(workdir, tmp_path, capsys, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    assert main(["evaluate", "--checkpoint", str(bad),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(tmp_path / "r.json")]) == 1
    line = _error_line(capsys)
    assert line.startswith(f"error: {bad}: ") and message in line


_DOC = '{"id": "a", "title": "", "text": "the x"}'


@pytest.mark.parametrize("payload, message", [
    ("[1]", "index must be a JSON object, got list"),
    ('{"format_version": 2}', "index lacks 'docs'"),
    ('{"format_version": 2, "docs": 5}', "TypeError"),
    ('{"format_version": 2, "docs": [%s, %s]}' % (_DOC, _DOC), "duplicate document id: 'a'"),
    ('{"format_version": 2, "docs": [{"id": "a", "title": ""}]}', "TypeError"),
    ('{"format_version": 2, "docs": [{"id": "a", "title": "", "text": 5}]}',
     "TypeError: document text must be a string, got 5"),
    ('{"format_version": 1, "postings": {"the": [["a", 1]]}, "doc_lengths": {"a": 2},'
     ' "docs": [%s]}' % _DOC, "unsupported index version: 1"),
], ids=["list", "no_docs", "docs_not_list", "duplicate_doc_id", "doc_without_text",
        "text_not_str", "version_1"])
def test_malformed_index_is_one_line_error(workdir, tmp_path, capsys, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    assert main(["retrieve", "--index", str(bad), "--dataset", str(workdir["test"]),
                 "--out", str(tmp_path / "r.jsonl")]) == 1
    line = _error_line(capsys)
    assert line.startswith(f"error: {bad}: ") and message in line


def test_index_and_checkpoint_with_a_byte_order_mark_load(workdir, tmp_path):
    # before: "JSONDecodeError: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    marked = {}
    for name in ("index", "ckpt"):
        marked[name] = tmp_path / f"bom_{name}.json"
        marked[name].write_bytes(b"\xef\xbb\xbf" + workdir[name].read_bytes())
    retrieved = tmp_path / "r.jsonl"
    assert main(["retrieve", "--index", str(marked["index"]), "--dataset", str(workdir["test"]),
                 "--out", str(retrieved), "--retrieve-n", "6", "--top-a", "8",
                 "--top-s", "20"]) == 0
    assert retrieved.read_bytes() == workdir["retrieved_test"].read_bytes()
    reports = []
    for ckpt in (workdir["ckpt"], marked["ckpt"]):
        reports.append(tmp_path / f"report{len(reports)}.json")
        assert main(["evaluate", "--checkpoint", str(ckpt), "--retrieved", str(retrieved),
                     "--dataset", str(workdir["test"]), "--out", str(reports[-1])]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


@pytest.mark.parametrize("which", ["config", "checkpoint", "dataset", "retrieved"])
def test_repeated_key_is_one_line_error(workdir, tmp_path, capsys, which):
    # before, json kept the repeated key's last value silently
    out = str(tmp_path / "out.json")
    if which in ("config", "checkpoint"):
        bad = tmp_path / f"{which}.json"
        stored = json.loads(workdir["ckpt"].read_text())
        text = json.dumps(stored["extra"]["config"] if which == "config" else stored)
        key = "hidden_size"
        bad.write_text(text.replace(f'"{key}": ', f'"{key}": 4, "{key}": ', 1))
        where = bad
    else:
        source, key = {"dataset": (workdir["test"], "answers"),
                       "retrieved": (workdir["retrieved_test"], "positive")}[which]
        lines = source.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace(f'"{key}": ', f'"{key}": [], "{key}": ', 1)
        bad = tmp_path / f"{which}.jsonl"
        bad.write_text("".join(lines))
        where = f"{bad}:2"
    argv = {"config": ["train", "--config", str(bad), "--retrieved",
                       str(workdir["retrieved_train"]), "--dataset", str(workdir["train"])],
            "checkpoint": ["evaluate", "--checkpoint", str(bad), "--retrieved",
                           str(workdir["retrieved_test"]), "--dataset", str(workdir["test"])],
            "dataset": ["retrieve", "--index", str(workdir["index"]), "--dataset", str(bad)],
            "retrieved": ["evaluate", "--checkpoint", str(workdir["ckpt"]), "--retrieved",
                          str(bad), "--dataset", str(workdir["test"])]}[which]
    assert main([*argv, "--out", out]) == 1
    assert _error_line(capsys) == f"error: {where}: ValueError: repeated key {key!r}"
    assert not os.path.exists(out)


def _with_bad_byte(source, path):
    """source's text with a byte that is not UTF-8 in its second line."""
    lines = source.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:5] + b"\xff" + lines[1][5:]
    path.write_bytes(b"".join(lines))
    return path


@pytest.mark.parametrize("which", ["dataset", "retrieved", "corpus", "config", "embeddings"])
def test_non_utf8_input_is_one_line_error_naming_file_and_line(workdir, tmp_path, capsys,
                                                               which):
    out = str(tmp_path / "out.json")
    if which == "dataset":
        bad = _with_bad_byte(workdir["test"], tmp_path / "test.jsonl")
        argv = ["retrieve", "--index", str(workdir["index"]), "--dataset", str(bad), "--out", out]
    elif which == "retrieved":
        bad = _with_bad_byte(workdir["retrieved_test"], tmp_path / "retrieved.jsonl")
        argv = ["evaluate", "--checkpoint", str(workdir["ckpt"]), "--retrieved", str(bad),
                "--dataset", str(workdir["test"]), "--out", out]
    elif which == "corpus":
        bad = _with_bad_byte(workdir["corpus"], tmp_path / "corpus.jsonl")
        argv = ["build-index", "--corpus", str(bad), "--out", out]
    else:
        source = tmp_path / "source.txt"
        if which == "config":
            source.write_text('{"embed_dim": 8,\n "hidden_size": 8}\n')
        else:
            source.write_text("".join(f"w{i} " + " ".join(["0.5"] * 16) + "\n" for i in range(3)))
        bad = _with_bad_byte(source, tmp_path / "bad.txt")
        argv = ["train", "--retrieved", str(workdir["retrieved_train"]),
                "--dataset", str(workdir["train"]), "--out", out,
                {"config": "--config", "embeddings": "--embeddings-path"}[which], str(bad)]
    assert main(argv) == 1
    line = _error_line(capsys)
    # a config file is one JSON object: its line names the file, as a checkpoint's does
    where = f"{bad}: UnicodeDecodeError" if which == "config" else f"{bad}:2"
    assert line.startswith(f"error: {where}: ") and "can't decode byte 0xff" in line


@pytest.mark.parametrize("k", ["0", "-1", "1,0"])
def test_analyze_k_below_one_is_one_line_error(workdir, tmp_path, capsys, k):
    assert main(["analyze", "--checkpoint", str(workdir["ckpt"]),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(tmp_path / "a.json"),
                 "--k", k]) == 1
    assert "must be at least 1" in _error_line(capsys)


def test_analyze_repeated_k_is_one_line_error(workdir, tmp_path, capsys):
    # before, --k 3,1,3 printed the top-3 line twice and wrote "k": [3, 1, 3]
    # beside recall and oracle dicts with two keys each
    out = tmp_path / "a.json"
    assert main(["analyze", "--checkpoint", str(workdir["ckpt"]),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(out), "--k", "3,1,3"]) == 1
    assert _error_line(capsys) == "error: top-k cutoffs must not repeat, got [3, 1, 3]"
    assert not out.exists()


@pytest.mark.parametrize("k", ["a", "", "1,,3"])
def test_analyze_k_that_is_not_integers_is_a_usage_error_naming_k(workdir, tmp_path, capsys, k):
    # before, --k a gave "error: invalid literal for int() with base 10: 'a'"
    out = tmp_path / "a.json"
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--checkpoint", str(workdir["ckpt"]),
              "--retrieved", str(workdir["retrieved_test"]),
              "--dataset", str(workdir["test"]), "--out", str(out), "--k", k])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"rankread analyze: error: argument --k: expected comma-separated integers, got {k!r}")
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_out_that_cannot_be_written_is_one_line_error_naming_it(workdir, tmp_path, capsys,
                                                               target):
    # before, the line named the temporary file: 'nodir/i.json.2d5dbfd4.tmp'
    if target == "directory":
        out = tmp_path / "d"
        out.mkdir()
        message = f"[Errno 21] Is a directory: {str(out)!r}"
    else:
        out = tmp_path / "nodir" / "i.json"
        message = f"[Errno 2] No such file or directory: {str(out)!r}"
    assert main(["build-index", "--corpus", str(workdir["corpus"]), "--out", str(out)]) == 1
    assert _error_line(capsys) == f"error: {message}"
    assert [p.name for p in tmp_path.rglob("*")] == (["d"] if target == "directory" else [])


@pytest.mark.parametrize("fault", ["missing", "shape", "extra", "repeated"])
@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_checkpoint_that_does_not_fit_the_model_is_one_line_error_naming_it(
        workdir, tmp_path, capsys, command, fault):
    # before, a missing parameter printed KeyError's quotes, and neither
    # error named the checkpoint
    ckpt = json.loads(workdir["ckpt"].read_text())
    if fault == "missing":
        ckpt["params"] = [rec for rec in ckpt["params"] if rec["name"] != "rank.W"]
        message = "ValueError: checkpoint is missing parameter 'rank.W'"
    elif fault == "extra":
        # before, a parameter the model lacks was dropped silently
        ckpt["params"].append({**ckpt["params"][0], "name": "agg_read.9.fwd.W"})
        message = "ValueError: checkpoint has parameter 'agg_read.9.fwd.W' the model lacks"
    elif fault == "repeated":
        # before, the second, zeroed entry was loaded over the first silently
        rec = next(rec for rec in ckpt["params"] if rec["name"] == "enc.fwd.W")
        ckpt["params"].append({**rec, "values": [0.0] * len(rec["values"])})
        message = "ValueError: checkpoint entry 'enc.fwd.W' repeats"
    else:
        rec = next(rec for rec in ckpt["params"] if rec["name"] == "enc.fwd.W")
        shape = (rec["rows"], rec["cols"])
        rec["cols"] += 1
        rec["values"] += [0.0] * rec["rows"]
        message = (f"ShapeError: parameter 'enc.fwd.W': checkpoint shape "
                   f"{(shape[0], shape[1] + 1)} != model shape {shape}")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(ckpt))
    out = tmp_path / "out.json"
    if command == "evaluate":
        argv = ["evaluate", "--checkpoint", str(bad), "--retrieved", str(workdir["retrieved_test"]),
                "--dataset", str(workdir["test"]), "--out", str(out)]
    else:
        argv = ["train", "--init", str(bad), "--retrieved", str(workdir["retrieved_train"]),
                "--dataset", str(workdir["train"]), "--out", str(out), "--mode", "r3",
                "--hidden-size", "8", "--embed-dim", "8", "--train-sample-k", "6"]
    assert main(argv) == 1
    assert _error_line(capsys) == f"error: {bad}: {message}"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--top-a", "--top-s", "--retrieve-n", "--bm25-k1", "--bm25-b"])
def test_train_rejects_retrieval_flags(flag, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--retrieved", "r", "--dataset", "d", "--out", "o",
                                   flag, "3"])
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_dataset_answers_must_be_a_list_of_strings(workdir, tmp_path, capsys):
    lines = workdir["test"].read_text().splitlines()
    rec = json.loads(lines[1])
    rec["answers"] = rec["answers"][0]  # a bare string would score each letter as a gold
    lines[1] = json.dumps(rec)
    bad = tmp_path / "test.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--checkpoint", str(workdir["ckpt"]),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(bad), "--out", str(tmp_path / "r.json")]) == 1
    line = _error_line(capsys)
    assert line == (f"error: {bad}:2: TypeError: dataset record answers must be a list of strings, "
                    f"got {rec['answers']!r}")


def test_dataset_question_must_be_a_string(workdir, tmp_path, capsys):
    bad = tmp_path / "test.jsonl"
    bad.write_text(json.dumps({"id": "q1", "question": 5, "answers": ["x"]}) + "\n")
    assert main(["retrieve", "--index", str(workdir["index"]), "--dataset", str(bad),
                 "--out", str(tmp_path / "r.jsonl")]) == 1
    line = _error_line(capsys)
    assert line == f"error: {bad}:1: TypeError: dataset record question must be a string, got 5"


def test_dataset_record_missing_a_field_is_one_line_error(workdir, tmp_path, capsys):
    bad = tmp_path / "test.jsonl"
    bad.write_text(json.dumps({"id": "q1", "answers": ["x"]}) + "\n")
    assert main(["retrieve", "--index", str(workdir["index"]), "--dataset", str(bad),
                 "--out", str(tmp_path / "r.jsonl")]) == 1
    line = _error_line(capsys)
    assert line == f"error: {bad}:1: KeyError: 'question'"


def test_corpus_field_that_is_not_a_string_is_one_line_error(tmp_path, capsys):
    # before, such a document was indexed and retrieval failed on it later
    bad = tmp_path / "corpus.jsonl"
    bad.write_text(json.dumps({"id": "d1", "title": "t", "text": 5}) + "\n")
    assert main(["build-index", "--corpus", str(bad), "--out", str(tmp_path / "i.json")]) == 1
    line = _error_line(capsys)
    assert line == f"error: {bad}:1: TypeError: document text must be a string, got 5"


def _edit_first_passage(workdir, path, **fields):
    """A copy of the retrieved test file with fields set on the first passage;
    returns the line number of the edited record."""
    records = [json.loads(l) for l in workdir["retrieved_test"].read_text().splitlines()]
    lineno = next(i for i, rec in enumerate(records, 1) if rec["passages"])
    records[lineno - 1]["passages"][0].update(fields)
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return lineno


def test_retrieved_passage_text_that_is_not_a_string_is_one_line_error(workdir, tmp_path, capsys):
    # before, evaluate ended in an AttributeError traceback from the tokenizer
    bad = tmp_path / "retrieved.jsonl"
    lineno = _edit_first_passage(workdir, bad, text=5)
    assert main(["evaluate", "--checkpoint", str(workdir["ckpt"]), "--retrieved", str(bad),
                 "--dataset", str(workdir["test"]), "--out", str(tmp_path / "r.json")]) == 1
    line = _error_line(capsys)
    assert line == f"error: {bad}:{lineno}: TypeError: retrieved passage text must be a string, got 5"


def test_retrieved_positive_flag_that_is_not_a_bool_is_one_line_error(workdir, tmp_path, capsys):
    # before, analyze counted the string "no" as a positive in its top-k recall
    bad = tmp_path / "retrieved.jsonl"
    lineno = _edit_first_passage(workdir, bad, positive="no")
    assert main(["analyze", "--checkpoint", str(workdir["ckpt"]), "--retrieved", str(bad),
                 "--dataset", str(workdir["test"]), "--out", str(tmp_path / "a.json")]) == 1
    line = _error_line(capsys)
    assert line == f"error: {bad}:{lineno}: TypeError: retrieved passage positive must be a bool, got 'no'"


def test_analyze_counts_questions_without_passages_as_misses(workdir, tmp_path):
    dataset = [json.loads(l) for l in workdir["test"].read_text().splitlines()]
    retrieved = [json.loads(l) for l in workdir["retrieved_test"].read_text().splitlines()]
    by_id = {rec["question_id"]: rec for rec in retrieved}
    # question 0 keeps an entry with zero passages; question 1 has no entry at all
    kept = [by_id[q["id"]] for q in dataset[2:]]
    edited = tmp_path / "retrieved_gaps.jsonl"
    edited.write_text("\n".join(json.dumps(r) for r in
                                [{"question_id": dataset[0]["id"], "passages": []}] + kept) + "\n")
    only_kept = tmp_path / "retrieved_kept.jsonl"
    only_kept.write_text("\n".join(json.dumps(r) for r in kept) + "\n")
    subset = tmp_path / "test_kept.jsonl"
    subset.write_text("\n".join(json.dumps(q) for q in dataset[2:]) + "\n")

    def analyze(retrieved_path, dataset_path, out):
        assert main(["analyze", "--checkpoint", str(workdir["ckpt"]),
                     "--retrieved", str(retrieved_path), "--dataset", str(dataset_path),
                     "--out", str(out)]) == 0
        return json.loads(out.read_text())

    full = analyze(edited, workdir["test"], tmp_path / "full.json")
    part = analyze(only_kept, subset, tmp_path / "part.json")
    n, m = len(dataset), len(dataset) - 2
    for k in ("1", "3", "5"):
        for source in ("ir", "model"):
            hits = round(part["recall"][source][k] * m)
            assert full["recall"][source][k] == hits / n
        for metric in ("f1", "em"):
            assert full["oracle"][k][metric] == pytest.approx(part["oracle"][k][metric] * m / n)


def _edit_retrieved(workdir, which, path, edit):
    """A copy of a retrieved file with edit(records) applied to its records."""
    records = [json.loads(l) for l in workdir[which].read_text().splitlines()]
    edit(records)
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


@pytest.mark.parametrize("command", ["evaluate", "analyze", "train"])
def test_retrieved_question_id_that_is_not_a_string_is_one_line_error(workdir, tmp_path, capsys,
                                                                      command):
    # before, each command ended in a "TypeError: unhashable type" traceback
    which = "retrieved_train" if command == "train" else "retrieved_test"
    bad = tmp_path / "retrieved.jsonl"
    _edit_retrieved(workdir, which, bad, lambda recs: recs[1].update(question_id=["x"]))
    if command == "train":
        args = ["train", "--dataset", str(workdir["train"]), "--mode", "sr", "--epochs", "1",
                "--hidden-size", "8", "--embed-dim", "8", "--train-sample-k", "6"]
    else:
        args = [command, "--checkpoint", str(workdir["ckpt"]), "--dataset", str(workdir["test"])]
    assert main(args + ["--retrieved", str(bad), "--out", str(tmp_path / "out.json")]) == 1
    line = _error_line(capsys)
    assert line == (f"error: {bad}:2: TypeError: "
                    "retrieved set question_id must be a string, got ['x']")


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_retrieved_passage_that_tokenizes_to_nothing_is_one_line_error(workdir, tmp_path, capsys,
                                                                       command):
    # before, the run stopped partway, once it reached the passage, with
    # "embed: empty token sequence", naming no file, line or question
    which = "retrieved_train" if command == "train" else "retrieved_test"
    bad = tmp_path / "retrieved.jsonl"
    _edit_retrieved(workdir, which, bad, lambda recs: recs[1]["passages"][2].update(text=" \t "))
    qid = json.loads(bad.read_text().splitlines()[1])["question_id"]
    if command == "train":
        args = ["train", "--dataset", str(workdir["train"]), "--mode", "sr", "--epochs", "1",
                "--hidden-size", "8", "--embed-dim", "8", "--train-sample-k", "6"]
    else:
        args = [command, "--checkpoint", str(workdir["ckpt"]), "--dataset", str(workdir["test"])]
    assert main(args + ["--retrieved", str(bad), "--out", str(tmp_path / "out.json")]) == 1
    line = _error_line(capsys)
    assert line == f"error: {bad}:2: ValueError: passage 2 of question {qid!r} tokenizes to nothing"


@pytest.mark.parametrize("command", ["evaluate", "train", "retrieve"])
def test_dataset_question_that_tokenizes_to_nothing_is_one_line_error(workdir, tmp_path, capsys,
                                                                      command):
    # before, evaluate and train stopped partway with "embed: empty token
    # sequence", naming no file, line or question
    which = "train" if command == "train" else "test"
    records = [json.loads(l) for l in workdir[which].read_text().splitlines()]
    records[2]["question"] = "   "
    bad = tmp_path / "dataset.jsonl"
    bad.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    if command == "train":
        args = ["train", "--retrieved", str(workdir["retrieved_train"]), "--mode", "sr",
                "--epochs", "1", "--hidden-size", "8", "--embed-dim", "8"]
    elif command == "evaluate":
        args = ["evaluate", "--checkpoint", str(workdir["ckpt"]),
                "--retrieved", str(workdir["retrieved_test"])]
    else:
        args = ["retrieve", "--index", str(workdir["index"])]
    assert main(args + ["--dataset", str(bad), "--out", str(tmp_path / "out.json")]) == 1
    line = _error_line(capsys)
    assert line == (f"error: {bad}:3: ValueError: "
                    f"question {records[2]['id']!r} tokenizes to nothing")


def test_repeated_retrieved_question_id_is_one_line_error(workdir, tmp_path, capsys):
    # before, the last line's passages silently replaced the first's
    bad = tmp_path / "retrieved.jsonl"
    qid = json.loads(workdir["retrieved_test"].read_text().splitlines()[0])["question_id"]
    _edit_retrieved(workdir, "retrieved_test", bad, lambda recs: recs[2].update(question_id=qid))
    assert main(["evaluate", "--checkpoint", str(workdir["ckpt"]), "--retrieved", str(bad),
                 "--dataset", str(workdir["test"]), "--out", str(tmp_path / "r.json")]) == 1
    line = _error_line(capsys)
    assert line == f"error: {bad}:3: ValueError: duplicate question id {qid!r}"


def test_dataset_id_must_be_a_string(workdir, tmp_path, capsys):
    # retrieve writes the id as the retrieved set's question_id, which must
    # be a string to load back
    bad = tmp_path / "test.jsonl"
    bad.write_text(json.dumps({"id": 7, "question": "q", "answers": ["x"]}) + "\n")
    assert main(["retrieve", "--index", str(workdir["index"]), "--dataset", str(bad),
                 "--out", str(tmp_path / "r.jsonl")]) == 1
    line = _error_line(capsys)
    assert line == f"error: {bad}:1: TypeError: dataset record id must be a string, got 7"


@pytest.mark.parametrize("flags, message", [
    (["--retrieve-n", "40"], "retrieve_n must be at most top_s, got 40 > 30"),
    (["--top-s", "5"], "retrieve_n must be at most top_s, got 10 > 5"),
], ids=["retrieve_n", "top_s"])
def test_retrieve_n_above_top_s_stops_before_any_file_is_read(tmp_path, capsys, flags, message):
    # before, retrieve read the index and the dataset, then stopped with
    # "n=40 exceeds top_s=30", naming no setting; the files need not exist
    out = tmp_path / "r.jsonl"
    assert main(["retrieve", "--index", str(tmp_path / "missing.json"),
                 "--dataset", str(tmp_path / "missing.jsonl"), "--out", str(out), *flags]) == 1
    assert _error_line(capsys) == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--learning-rate", "nan"), ("--kl-weight", "inf")])
def test_non_finite_training_setting_is_one_line_error(workdir, tmp_path, capsys, flag, value):
    # before, a nan learning rate wrote a checkpoint of NaN parameters and an
    # infinite kl weight skipped every step
    out = tmp_path / "m.json"
    assert main(["train", "--retrieved", str(workdir["retrieved_train"]),
                 "--dataset", str(workdir["train"]), "--out", str(out), "--mode", "sr2",
                 "--epochs", "1", "--hidden-size", "8", "--embed-dim", "8",
                 "--train-sample-k", "6", flag, value]) == 1
    key = flag[2:].replace("-", "_")
    assert _error_line(capsys) == f"error: {key} must be finite, got {float(value)}"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--hidden-size", "0"], "hidden_size must be at least 2, got 0"),
    (["--embed-dim", "0"], "embed_dim must be at least 1, got 0"),
    (["--epochs", "-1"], "epochs must be at least 0, got -1"),
    (["--mode", "r3", "--max-span-len", "0"], "max_span_len must be at least 1, got 0"),
    (["--seed", "-5"], "seed must be at least 0, got -5"),
    (["--train-sample-k", "0", "--min-negatives", "-1"], "min_negatives must be at least 0, got -1"),
    (["--learning-rate", "-0.01"], "learning_rate must be at least 0, got -0.01"),
    (["--kl-weight", "-1"], "kl_weight must be at least 0, got -1.0"),
    (["--grad-clip", "-5"], "grad_clip must be at least 0, got -5.0"),
], ids=["hidden_size", "embed_dim", "epochs", "max_span_len", "seed", "min_negatives",
        "learning_rate", "kl_weight", "grad_clip"])
def test_out_of_range_training_setting_is_one_line_error(workdir, tmp_path, capsys, flags,
                                                         message):
    # before, a zero width, a negative epoch count or a negative learning
    # rate (gradient ascent) trained and wrote a checkpoint, a negative
    # grad_clip turned clipping off, and r3's span length failed only after
    # the sr2 pretraining
    out = tmp_path / "m.json"
    assert main(["train", "--retrieved", str(workdir["retrieved_train"]),
                 "--dataset", str(workdir["train"]), "--out", str(out), "--mode", "sr2",
                 "--epochs", "1", "--pretrain-epochs", "1", "--hidden-size", "8",
                 "--embed-dim", "8", "--train-sample-k", "6", *flags]) == 1
    assert _error_line(capsys) == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("vector, what", [
    ([float("nan")] * 8, "nan"),
    ([0.5] * 7, "short"),
], ids=["nan", "short"])
def test_bad_inline_embedding_is_one_line_error(workdir, tmp_path, capsys, vector, what):
    # before, a NaN vector evaluated to NaN scores with exit status 0, and a
    # short one failed at lookup with a bare np.stack message
    ckpt = json.loads(workdir["ckpt"].read_text())
    table = ckpt["extra"]["table"]
    assert table["kind"] == "inline" and table["dimension"] == 8
    tok = sorted(table["vectors"])[0]
    table["vectors"][tok] = vector
    bad = tmp_path / f"{what}.json"
    bad.write_text(json.dumps(ckpt))
    report = tmp_path / "r.json"
    assert main(["evaluate", "--checkpoint", str(bad),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(report)]) == 1
    assert _error_line(capsys) == (f"error: {bad}: checkpoint metadata: ValueError: "
                                   f"embedding of {tok!r} must be 8 finite numbers")
    assert not report.exists()


_TABLE_FAULTS = {
    "kind": "ValueError: table kind must be 'file' or 'inline', got 'x'",
    "path_int": "TypeError: table path must be a string, got 0",
    "path_empty": "ValueError: table path must not be empty",
    "dimension_bool": "TypeError: table dimension must be an integer, got True",
    "dimension_3": "ValueError: table dimension 3 is not the model's embed_dim 8",
    "dimension_0": "ValueError: table dimension 0 is not the model's embed_dim 8",
}


@pytest.mark.parametrize("fault", list(_TABLE_FAULTS))
def test_bad_checkpoint_table_entry_is_one_line_error(workdir, tmp_path, capsys, fault):
    # before, a kind of "x" was read as inline, a path of 0 read the vectors
    # from standard input, and a dimension other than embed_dim loaded and then
    # failed in the encoder with a line that did not name the checkpoint
    ckpt = json.loads(workdir["ckpt"].read_text())
    table = ckpt["extra"]["table"]
    if fault == "kind":
        table["kind"] = "x"
    elif fault.startswith("path"):
        ckpt["extra"]["table"] = {"kind": "file", "dimension": 8,
                                  "path": 0 if fault == "path_int" else ""}
    elif fault == "dimension_bool":
        table["dimension"] = True
    else:
        table["dimension"] = int(fault[-1])
        table["vectors"] = {tok: vec[:table["dimension"]] for tok, vec in table["vectors"].items()}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(ckpt))
    report = tmp_path / "r.json"
    # standard input holds one usable vector line, which must not be read
    stdin = tmp_path / "stdin.txt"
    stdin.write_text("x " + " ".join(["1"] * 8) + "\n")
    saved = os.dup(0)
    try:
        with open(stdin) as f:
            os.dup2(f.fileno(), 0)
        status = main(["evaluate", "--checkpoint", str(bad),
                       "--retrieved", str(workdir["retrieved_test"]),
                       "--dataset", str(workdir["test"]), "--out", str(report)])
        assert os.lseek(0, 0, os.SEEK_CUR) == 0
    finally:
        os.dup2(saved, 0)
        os.close(saved)
    assert status == 1
    assert _error_line(capsys) == f"error: {bad}: checkpoint metadata: {_TABLE_FAULTS[fault]}"
    assert not report.exists()


def test_checkpoint_vectors_file_that_cannot_be_read_is_one_line_error_naming_both(
        workdir, tmp_path, capsys, monkeypatch):
    # before, evaluating from another directory than training's printed
    # "error: [Errno 2] No such file or directory: 'vec.txt'"
    (tmp_path / "train").mkdir()
    (tmp_path / "other").mkdir()
    monkeypatch.chdir(tmp_path / "train")
    _vectors_file(workdir, tmp_path / "train" / "vec.txt")
    ckpt = tmp_path / "train" / "a.json"
    _train_sr2(workdir, ckpt, "--epochs", "0", "--embeddings-path", "vec.txt")
    monkeypatch.chdir(tmp_path / "other")
    report = tmp_path / "r.json"
    assert main(["evaluate", "--checkpoint", str(ckpt),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(report)]) == 1
    assert _error_line(capsys) == (f"error: {ckpt}: checkpoint metadata: ValueError: word "
                                   "vectors 'vec.txt' cannot be read: No such file or directory")
    assert not report.exists()


@pytest.mark.parametrize("key, value", [("hidden_size", 4.0), ("seed", 0.5),
                                        ("max_span_len", None), ("hidden_size", None)])
def test_checkpoint_config_of_the_wrong_type_is_one_line_error(workdir, tmp_path, capsys, key,
                                                               value):
    # before, the model was built from the float and evaluate ended in a
    # "'float' object cannot be interpreted as an integer" traceback; a null
    # was taken for the default (max_span_len 15), or for hidden_size ended
    # in a misleading parameter shape error
    ckpt = json.loads(workdir["ckpt"].read_text())
    ckpt["extra"]["config"][key] = value
    bad = tmp_path / "float.json"
    bad.write_text(json.dumps(ckpt))
    report = tmp_path / "r.json"
    assert main(["evaluate", "--checkpoint", str(bad),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(report)]) == 1
    assert _error_line(capsys) == (f"error: {bad}: checkpoint metadata: TypeError: "
                                   f"config {key} must be an integer, got {value}")
    assert not report.exists()


def test_non_finite_checkpoint_value_is_one_line_error(workdir, tmp_path, capsys):
    # before, a checkpoint of NaN parameters evaluated to NaN scores
    ckpt = json.loads(workdir["ckpt"].read_text())
    for rec in ckpt["params"]:
        rec["values"] = [float("nan")] * len(rec["values"])
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(ckpt))
    report = tmp_path / "r.json"
    assert main(["evaluate", "--checkpoint", str(bad),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(report)]) == 1
    name = ckpt["params"][0]["name"]
    assert _error_line(capsys) == (f"error: {bad}: ValueError: checkpoint entry {name!r} "
                                   "has a non-finite value")
    assert not report.exists()


@pytest.mark.parametrize("flags, message", [
    (["--train-questions", "-3"], "train_questions must be at least 0, got -3"),
    (["--test-questions", "-1"], "test_questions must be at least 0, got -1"),
    (["--entities", "0"], "entities must be at least 1, got 0"),
    (["--relations", "0"], "relations must be at least 1, got 0"),
    (["--seed", "-1"], "seed must be at least 0, got -1"),
    # the strong decoy rate is the module constant synth.STRONG_DECOY_RATE, so
    # its old flag is a usage error (these ids name the range check it had)
    pytest.param(["--strong-decoy-rate", "7"], "unrecognized arguments: --strong-decoy-rate 7",
                 id="flags5-strong_decoy_rate must be in [0, 1], got 7.0"),
    pytest.param(["--strong-decoy-rate", "-0.5"], "unrecognized arguments: --strong-decoy-rate -0.5",
                 id="flags6-strong_decoy_rate must be in [0, 1], got -0.5"),
    pytest.param(["--strong-decoy-rate", "nan"], "unrecognized arguments: --strong-decoy-rate nan",
                 id="flags7-strong_decoy_rate must be in [0, 1], got nan"),
])
def test_out_of_range_synth_setting_is_one_line_error(tmp_path, capsys, flags, message):
    # before, -3 train questions wrote 4 "train" questions with test ids, and
    # a negative seed failed inside numpy with a message naming no setting
    outs = [tmp_path / name for name in ("corpus.jsonl", "train.jsonl", "test.jsonl")]
    argv = ["synth", "--out-corpus", str(outs[0]), "--out-train", str(outs[1]),
            "--out-test", str(outs[2]), "--train-questions", "5", "--test-questions", "5", *flags]
    if message.startswith("unrecognized"):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"rankread: error: {message}"
    else:
        assert main(argv) == 1
        assert _error_line(capsys) == f"error: {message}"
    assert list(tmp_path.iterdir()) == []
