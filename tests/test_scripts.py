import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_synthetic_experiment_writes_the_summary_json(tmp_path):
    out = tmp_path / "summary.json"
    script = _load("run_synthetic_experiment")
    assert script.main(["--seeds", "0", "--sr-epochs", "0", "--sr2-epochs", "0",
                        "--r3-epochs", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"summary", "oracle", "per_seed"}
    assert set(payload["oracle"]) == {"1", "3", "5"}
    assert set(payload["summary"]["em"]) == {"sr", "sr2", "r3"}
    [seed] = payload["per_seed"]
    assert seed["seed"] == 0
    for mode in ("sr", "sr2", "r3"):
        assert 0.0 <= seed[mode]["em"] <= seed[mode]["f1"] <= 100.0


@pytest.mark.parametrize("seeds", ["a", "", "0,x", "-1"])
def test_run_synthetic_experiment_rejects_seeds_that_are_not_integers_at_least_0(capsys, seeds):
    # before, --seeds a ended in a traceback from int()
    script = _load("run_synthetic_experiment")
    with pytest.raises(SystemExit) as info:
        script.main([f"--seeds={seeds}"])
    assert info.value.code == 2
    assert ": error: argument --seeds: " in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("argv, flag", [
    (["--sr-epochs", "-1"], "--sr-epochs"),
    (["--sr2-epochs", "-2"], "--sr2-epochs"),
    (["--r3-epochs", "-1"], "--r3-epochs"),
    (["--seeds", "0,1,0"], "--seeds"),
], ids=["sr_epochs", "sr2_epochs", "r3_epochs", "repeated_seed"])
def test_run_synthetic_experiment_rejects_negative_epochs_and_a_repeated_seed(capsys, argv, flag):
    # before, range(-1) trained nothing and a repeated seed counted twice in the means
    script = _load("run_synthetic_experiment")
    with pytest.raises(SystemExit) as info:
        script.main(argv)
    assert info.value.code == 2
    assert f": error: argument {flag}: " in capsys.readouterr().err.splitlines()[-1]


def _summary(em, recall1, ir1=0.3):
    return {"em": dict(zip(("sr", "sr2", "r3"), em)), "recall1": dict(zip(("sr2", "r3"), recall1)),
            "ir_recall": {1: ir1}}


def _seed(seed, em):
    return {"seed": seed, **{mode: {"em": v} for mode, v in zip(("sr", "sr2", "r3"), em)}}


def test_ensemble_tally_of_made_up_runs_equals_a_hand_count():
    script = _load("run_synthetic_experiment")
    runs = [
        (0, {"summary": _summary((60, 90, 100), (0.9, 1.0)),
             "per_seed": [_seed(0, (50, 80, 100)), _seed(1, (70, 100, 100))]}),
        # sr2 below sr, and sr2's recall at the IR recall
        (1, {"summary": _summary((70, 65, 100), (0.3, 1.0)),
             "per_seed": [_seed(0, (45, 60, 100)), _seed(1, (95, 70, 100))]}),
        # r3's recall below sr2's, and r3 within 5 EM of sr
        (2, {"summary": _summary((96, 97, 99), (0.9, 0.8)),
             "per_seed": [_seed(0, (97, 97, 98)), _seed(1, (95, 97, 100))]}),
    ]
    assert script.tally(runs) == {
        "runs": 3, "passed": 1,
        "failures": {1: ["recall@1 sr2 > ir", "EM sr2 >= sr"],
                     2: ["recall@1 r3 > sr2", "EM r3 - sr >= 5"]},
        "em_range": {0: {"sr": [45, 97], "sr2": [60, 97], "r3": [98, 100]},
                     1: {"sr": [70, 95], "sr2": [70, 100], "r3": [100, 100]}}}


def test_ensemble_on_a_tiny_task_counts_what_its_runs_show(tmp_path):
    from rankread.synth import SyntheticSpec
    script = _load("run_synthetic_experiment")
    spec = SyntheticSpec(entities=6, relations=4, train_questions=12, test_questions=6, seed=3)
    runs = script.ensemble((0, 1), steps=range(3), spec=spec, sr_epochs=1, sr2_epochs=1,
                           r3_epochs=1)
    assert [k for k, _ in runs] == [0, 1, 2]
    assert [result["task"]["config"].learning_rate for _, result in runs] == \
        [0.01, 0.01 * (1 + 2.0 ** -52), 0.01 * (1 + 2 * 2.0 ** -52)]
    passed, em = 0, {}
    for _, result in runs:
        s = result["summary"]
        passed += (s["recall1"]["r3"] > s["recall1"]["sr2"] > s["ir_recall"][1]
                   and s["em"]["r3"] >= s["em"]["sr2"] >= s["em"]["sr"]
                   and s["em"]["r3"] - s["em"]["sr"] >= 5.0)
        for res in result["per_seed"]:
            for mode in ("sr", "sr2", "r3"):
                em.setdefault((res["seed"], mode), []).append(res[mode]["em"])
    counted = script.tally(runs)
    assert counted["passed"] == passed and counted["runs"] == 3
    assert len(counted["failures"]) == 3 - passed
    assert {(seed, mode): tuple(v) for seed, modes in counted["em_range"].items()
            for mode, v in modes.items()} == {key: (min(v), max(v)) for key, v in em.items()}


def _bench_run(seed, side, metrics, fingerprint="f", failed=0):
    return {"workload": "w", "seed": seed, "side": side, "trace": 0, "first": "parent",
            "fingerprint": fingerprint, "inputs_sha256": "i", "quality": {"em": 1.0},
            "correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}


def test_bench_pairs_summary_of_made_up_runs():
    script = _load("bench_pairs")
    parent = {"t": [1.0, 2.0, 3.0, 4.0], "slow": [1.0, 1.0, 1.0, 1.0], "q": [10.0] * 4}
    change = {"t": [0.5, 2.5, 1.0, 3.0], "slow": [1.5, 1.2, 1.0, 1.3], "q": [12.0, 8.0, 12.0, 12.0]}
    def change_metrics(i):
        return {k: v[i] for k, v in change.items()}
    runs = []
    for i, seed in enumerate((7, 8, 9, 10)):
        runs.append(_bench_run(seed, "parent", {k: v[i] for k, v in parent.items()}))
        runs.append(_bench_run(seed, "change", change_metrics(i),
                               fingerprint="g" if seed == 9 else "f", failed=int(seed == 10)))
    runs.append(_bench_run(11, "parent", {"t": 100.0, "slow": 100.0, "q": 0.0}))  # unpaired
    end_to_end = [{"name": "t", "better": "lower", "bound": 0.25},
                  {"name": "slow", "better": "lower", "bound": 0.25},
                  {"name": "q", "better": "higher", "bound": 0.1}]
    [(workload, s)] = script.summarize(runs, end_to_end).items()
    assert workload == "w" and s["pairs"] == 4 and s["seeds"] == [7, 8, 9, 10]
    assert not s["fingerprints_equal"] and s["inputs_equal"] and s["quality_equal"]
    assert s["failed"] == {"parent": 0, "change": 1}
    assert s["attempted"] == {"parent": 40, "change": 40}
    # numpy's linear percentiles of 1, 2, 3, 4 are 1.75 and 3.25
    assert s["t"] == {"parent_median": 2.5, "change_median": 1.75, "parent_iqr": 1.5,
                      "change_wins": 3, "worse_by": -0.3, "bound": 0.25}
    # lower is better, so a larger change median is worse: worse_by > 0; a tie is no win
    assert s["slow"] == {"parent_median": 1.0, "change_median": 1.25, "parent_iqr": 0.0,
                         "change_wins": 0, "worse_by": 0.25, "bound": 0.25}
    assert s["q"] == {"parent_median": 10.0, "change_median": 12.0, "parent_iqr": 0.0,
                      "change_wins": 3, "worse_by": -0.2, "bound": 0.1}
    summary = {"w": s}
    s["t"].update(change_wins=4, parent_iqr=0.5)
    assert script.claim(summary, "w", "t", "lower")["met"] is False  # fewer than 10 pairs
    s["pairs"] = 10
    s["t"]["change_wins"] = 9
    assert script.claim(summary, "w", "t", "lower")["met"] is True
    s["t"]["parent_iqr"] = 1.5
    assert script.claim(summary, "w", "t", "lower")["met"] is False  # gap 0.75 < IQR 1.5
    s["t"].update(change_wins=8, parent_iqr=0.5)
    assert script.claim(summary, "w", "t", "lower")["met"] is False  # 8 wins of 10
    s["slow"]["change_wins"] = 10
    assert script.claim(summary, "w", "slow", "lower")["met"] is False  # worse median
    # a second run of one seed and side would replace the first in the summary
    with pytest.raises(ValueError, match="w trace 0 seed 8: change ran more than once"):
        script.summarize(runs + [_bench_run(8, "change", change_metrics(0))], end_to_end)


def test_bench_pairs_refuses_a_seed_already_in_out(tmp_path, capsys):
    script = _load("bench_pairs")
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"runs": [_bench_run(5, "parent", {})]}))
    with pytest.raises(SystemExit) as info:  # refused before either tree runs
        script.main([str(tmp_path / "none"), str(SCRIPTS.parent), "--workload", "w",
                     "--seeds", "4-6", "--out", str(out)])
    assert info.value.code == 2
    assert "already has w trace 0 runs on seeds [5]" in capsys.readouterr().err


@pytest.mark.parametrize("text, seeds", [("5-7", [5, 6, 7]), ("4", [4])])
def test_bench_pairs_seed_range(text, seeds):
    assert _load("bench_pairs").seed_range(text) == seeds


STUB_RUN = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open("ran", "a") as f:
    f.write(f"{seed}\\n")
if seed in FAIL:
    sys.exit("stub run failed")
machine = {"nproc": 1, "python": "3", "numpy": "2", "blas": {"name": "none"}, "blas_threads": 1}
print(json.dumps({"meta": {"fingerprint": "f", "inputs_sha256": "i", "quality": {},
                           "machine": machine}}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"t": {"value": float(seed)}}}))
"""


def _stub_tree(root, fail=()):
    """A tree whose perfbench/run.py prints a made-up run and notes each seed it
    ran in the file "ran"; it exits 1 on a seed in fail."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN.replace("FAIL", repr(set(fail))))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "t", "better": "lower", "bound": 0.25}]}))
    return root


@pytest.mark.parametrize("flag", [["--claim", "eval_qps"], ["--workload", "x"]],
                         ids=["claim", "workload"])
def test_bench_pairs_checks_claim_and_workload_before_running(tmp_path, capsys, flag):
    # before, an unknown --claim raised KeyError after every pair had run
    trees = [_stub_tree(tmp_path / side) for side in ("parent", "change")]
    out = tmp_path / "bench.json"
    argv = [str(trees[0]), str(trees[1]), "--workload", "w", "--seeds", "1-2",
            "--out", str(out)] + flag
    with pytest.raises(SystemExit) as info:
        _load("bench_pairs").main(argv)
    assert info.value.code == 2
    assert f"error: argument {flag[0]}: {flag[1]!r} is not" in capsys.readouterr().err
    assert not out.exists() and not any((tree / "ran").exists() for tree in trees)


def test_bench_pairs_keeps_the_runs_before_one_that_fails_and_resumes(tmp_path):
    # before, a run that exited non-zero dropped every run already made
    parent, change = _stub_tree(tmp_path / "parent"), _stub_tree(tmp_path / "change", fail={3})
    out = tmp_path / "bench.json"
    script = _load("bench_pairs")
    argv = [str(parent), str(change), "--workload", "w", "--out", str(out), "--claim", "t"]
    with pytest.raises(RuntimeError, match="exited 1"):
        script.main(argv + ["--seeds", "1-3"])
    doc = json.loads(out.read_text())
    assert [(r["seed"], r["side"]) for r in doc["runs"]] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"), (3, "parent")]
    assert doc["summary"]["w"]["pairs"] == 2 and doc["claim"]["pairs"] == 2
    assert script.main(argv + ["--seeds", "4"]) == 0  # the failed seed is skipped, not re-run
    doc = json.loads(out.read_text())
    assert len(doc["runs"]) == 7 and doc["summary"]["w"]["seeds"] == [1, 2, 4]
    assert (change / "ran").read_text().split() == ["1", "2", "3", "4"]
