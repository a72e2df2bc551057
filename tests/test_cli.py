import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from rankread import retrieval
from rankread import tensor as T
from rankread.cli import build_parser, load_dataset, main
from rankread.config import Config


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
    assert all({"step", "mode", "reader_loss", "kl_loss"} <= set(r) for r in records)
    assert all("reward" not in r for r in records)  # no policy term in sr2 logs


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
    sr2, r3_init, r3 = (T.load_checkpoint(paths[name])[0] for name in ("sr2", "r3_init", "r3"))
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
    assert all("reward" in r for r in records)


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
    values = T.load_checkpoint(workdir["ckpt"])[0]
    ckpt["optimizer"] = T.Adamax({name: T.Tensor(v) for name, v in values.items()}).state_dict()
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
    bad = tmp_path / "bad.cfg"
    bad.write_text("# model\nembed_dim=8\nhidden_size=abc\n")
    assert main(["train", "--config", str(bad), "--retrieved", str(workdir["retrieved_train"]),
                 "--dataset", str(workdir["train"]), "--out", str(tmp_path / "m.json")]) == 1
    line = _error_line(capsys)
    assert line.startswith(f"error: {bad}:3: hidden_size: ") and "'abc'" in line


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
     "AttributeError"),
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
            source.write_text("embed_dim=8\nhidden_size=8\n")
        else:
            source.write_text("".join(f"w{i} " + " ".join(["0.5"] * 16) + "\n" for i in range(3)))
        bad = _with_bad_byte(source, tmp_path / "bad.txt")
        argv = ["train", "--retrieved", str(workdir["retrieved_train"]),
                "--dataset", str(workdir["train"]), "--out", out,
                {"config": "--config", "embeddings": "--embeddings-path"}[which], str(bad)]
    assert main(argv) == 1
    line = _error_line(capsys)
    assert line.startswith(f"error: {bad}:2: ") and "can't decode byte 0xff" in line


@pytest.mark.parametrize("k", ["0", "-1", "1,0"])
def test_analyze_k_below_one_is_one_line_error(workdir, tmp_path, capsys, k):
    assert main(["analyze", "--checkpoint", str(workdir["ckpt"]),
                 "--retrieved", str(workdir["retrieved_test"]),
                 "--dataset", str(workdir["test"]), "--out", str(tmp_path / "a.json"),
                 "--k", k]) == 1
    assert "must be at least 1" in _error_line(capsys)


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


@pytest.mark.parametrize("key, value", [("hidden_size", 4.0), ("seed", 0.5)])
def test_checkpoint_config_of_the_wrong_type_is_one_line_error(workdir, tmp_path, capsys, key,
                                                               value):
    # before, the model was built from the float and evaluate ended in a
    # "'float' object cannot be interpreted as an integer" traceback
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
    (["--strong-decoy-rate", "7"], "strong_decoy_rate must be in [0, 1], got 7.0"),
    (["--strong-decoy-rate", "-0.5"], "strong_decoy_rate must be in [0, 1], got -0.5"),
    (["--strong-decoy-rate", "nan"], "strong_decoy_rate must be in [0, 1], got nan"),
])
def test_out_of_range_synth_setting_is_one_line_error(tmp_path, capsys, flags, message):
    # before, -3 train questions wrote 4 "train" questions with test ids, and
    # a negative seed failed inside numpy with a message naming no setting
    outs = [tmp_path / name for name in ("corpus.jsonl", "train.jsonl", "test.jsonl")]
    assert main(["synth", "--out-corpus", str(outs[0]), "--out-train", str(outs[1]),
                 "--out-test", str(outs[2]), "--train-questions", "5", "--test-questions", "5",
                 *flags]) == 1
    assert _error_line(capsys) == f"error: {message}"
    assert list(tmp_path.iterdir()) == []
