"""The benchmark's tracer still sees the program.

perfbench/tracing.py wraps the program's functions by name and counts at
their boundaries. A renamed target fails its install; a target the program
no longer calls on a path fires no span there. Both are checked here on toy
inputs, in a fraction of a second.
"""

import importlib.util
from pathlib import Path

from conftest import toy_example, toy_trainer

from rankread import evaluation

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_fire_on_a_training_step_and_a_prediction():
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install(tracing.targets())  # every target must still exist by name
    try:
        trainer = toy_trainer(seed=0)
        example = toy_example()
        tracer.phase = "train.sr2"
        assert trainer._apply_batch([example, toy_example()], "sr2", 0) is not None
        tracer.phase = "eval"
        evaluation.predict_candidates(trainer.model, trainer.table, example.question_tokens,
                                      example.passages, 4)
    finally:
        tracer.uninstall()
    fired = {rec[tracing.NAME] for rec in tracer.spans}
    assert {"matcher.encode_batch", "ranker.score_passages", "reader.span_loss",
            "model.read_each", "model.match_passages", "model.rank",
            "tensor.backward"} <= fired
    assert tracer.counts["tape_nodes.train.sr2"] > 0
    assert tracer.counts["spans_scored.eval"] > 0
