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
