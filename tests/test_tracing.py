"""The benchmark's tracer still sees the program.

perfbench/tracing.py wraps the program's functions by name and counts at
their boundaries. A renamed target fails its install; a target the program
no longer calls on a path fires no span there. Both are checked here on toy
inputs, in a fraction of a second.
"""

import importlib.util
from pathlib import Path

from conftest import toy_example, toy_trainer

from rankread import evaluation, retrieval

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
    # one extraction call scores every passage's spans of at most 4 words
    assert tracer.counts["spans_scored.eval"] == sum(
        sum(min(4, length - i) for i in range(length))
        for length in map(len, example.passage_tokens))


def test_tracer_counts_only_taus_spans_on_an_r3_step():
    # one positive passage, so tau is passage 0; r3 extracts from tau's
    # segment alone, not from the negatives the reader block also holds
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install(tracing.targets())
    try:
        trainer = toy_trainer(seed=0)
        example = toy_example()
        example.spans.pop(1)
        tracer.phase = "train.r3"
        assert trainer._apply_batch([example], "r3", 0) is not None
    finally:
        tracer.uninstall()
    fired = {rec[tracing.NAME] for rec in tracer.spans}
    assert {"ranker.sample_passage", "reader.extract_best_span", "trainer.best_reward"} <= fired
    length, max_len = len(example.passage_tokens[0]), trainer.config.max_span_len
    assert tracer.counts["spans_scored.train.r3"] == sum(min(max_len, length - i)
                                                          for i in range(length))


def test_tracer_counts_equal_hand_counts_over_retrieval():
    # three documents of 2, 1 and 1 sentences, each holding a query term, so
    # top_a=3 pools all four sentences; the first call fills the sentence
    # store, the second reads it
    docs = [retrieval.Document("a", "", "Luzon is the largest island. Manila is on Luzon."),
            retrieval.Document("b", "", "Mindanao is the second largest island."),
            retrieval.Document("c", "", "The Visayas lie between Luzon and Mindanao.")]
    index = retrieval.build_index(docs)
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install(tracing.targets())
    try:
        tracer.phase = "retrieve"
        for _ in range(2):
            rs = retrieval.retrieve(index, "q", "What is the largest island?", ["Luzon"],
                                    n=4, top_a=3, top_s=4, train=True)
            assert len(rs.passages) == 4 and rs.passages[0].positive
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert (counts["bm25.queries"], counts["tfidf.calls"], counts["retrieve.calls"]) == (2, 2, 2)
    assert counts["tfidf.sentences"] == 2 * 4
    # per call: the question, the answer appended to the training query and
    # the answer for the positive flags; the first call also tokenizes the
    # four sentences it stores
    assert counts["tokenize.in_retrieve"] == (3 + 4) + 3
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert metrics["retrieval.sentences_scored"] == 4.0
    assert metrics["text.tokenize_calls_per_query"] == 5.0
