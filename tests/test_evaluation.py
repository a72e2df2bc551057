import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import passage_block, toy_trainer, TOY_QUESTION

from rankread import evaluation as E
from rankread.text import tokenize

GOLDEN = Path(__file__).parent / "data" / "f1_em_golden.json"


# --- normalization and metrics ------------------------------------------------

def test_normalize_answer_rules():
    assert E.normalize_answer("The Luzon.") == "luzon"
    assert E.normalize_answer("  A  large   ISLAND ") == "large island"
    assert E.normalize_answer("U.S.A.") == "usa"


def test_f1_em_golden_file():
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == 20
    for case in cases:
        f1, em = E.f1_em(case["prediction"], case["golds"])
        assert f1 == pytest.approx(case["f1"], abs=1e-12), case["note"]
        assert em == case["em"], case["note"]


def test_f1_em_empty_gold_list():
    assert E.f1_em("anything", []) == (0.0, 0)


@settings(max_examples=200, deadline=None)
@given(st.text("abc ", max_size=8), st.lists(st.text("abc ", max_size=8), min_size=1, max_size=3))
def test_em_implies_f1(pred, golds):
    f1, em = E.f1_em(pred, golds)
    if em == 1:
        assert f1 == 1.0
    assert 0.0 <= f1 <= 1.0


# --- prediction combination -----------------------------------------------------

class FakeCandidate:
    def __init__(self, answer, score, ir_rank=1):
        self.answer = answer
        self.score = score
        self.ir_rank = ir_rank


def test_predict_combination_arithmetic(example):
    # every candidate's score is its span probability times its selection
    # probability, and the selection probabilities form one distribution
    trainer = toy_trainer(seed=0)
    candidates = E.predict_candidates(trainer.model, trainer.table, example.question_tokens,
                                      example.passages, max_span_len=4)
    assert [c.passage_id for c in candidates] == list(range(len(example.passages)))
    for c in candidates:
        assert c.score == pytest.approx(math.exp(c.span_log_prob) * c.policy_prob, rel=1e-12)
    assert sum(c.policy_prob for c in candidates) == pytest.approx(1.0, abs=1e-12)


def test_predict_computes_only_the_probabilities_it_reads(example, monkeypatch):
    # one softmax for the attention of every passage and one for the policy;
    # the reader's spans are scored from the log-softmax of its logits
    from rankread import tensor as T
    calls = []
    softmax = T._softmax
    monkeypatch.setattr(T, "_softmax", lambda s, axis: calls.append(s) or softmax(s, axis))
    trainer = toy_trainer(seed=0)
    E.predict_candidates(trainer.model, trainer.table, example.question_tokens,
                         example.passages, max_span_len=4)
    assert len(calls) == 2


def _record(trainer, passages, max_span_len):
    """evaluate's record of the toy question answered from the given passages."""
    from rankread.retrieval import RetrievedSet
    dataset = [{"id": "toy-0", "question": TOY_QUESTION, "answers": ["blue"]}]
    return E.evaluate(trainer.model, trainer.table, dataset,
                      [RetrievedSet("toy-0", passages)], max_span_len)["records"][0]


def test_predict_on_toy_model(example):
    trainer = toy_trainer(seed=0)
    pred = _record(trainer, example.passages, max_span_len=4)
    assert pred["id"] == "toy-0"
    assert pred["passage_id"] in range(4)
    assert 0.0 < pred["score"] <= 1.0
    best = E.predict_candidates(trainer.model, trainer.table, example.question_tokens,
                                example.passages, max_span_len=4)[pred["passage_id"]]
    assert pred["score"] == pytest.approx(math.exp(best.span_log_prob) * best.policy_prob,
                                          rel=1e-12)


def test_predict_single_passage_wins_regardless_of_policy(example):
    trainer = toy_trainer(seed=0)
    assert _record(trainer, example.passages[:1], max_span_len=4)["passage_id"] == 0


def test_predict_empty_passages_gives_sentinel():
    trainer = toy_trainer(seed=0)
    pred = _record(trainer, [], max_span_len=4)
    assert pred["prediction"] == "" and pred["passage_id"] is None and pred["score"] == 0.0


def _softmax(a):
    e = np.exp(a - a.max())
    return e / e.sum()


def test_predict_matches_brute_force_over_pairs(example):
    """Each passage's candidate is its best (span, passage) pair, and the
    answer is the argmax over all pairs, with each passage's pointer logits
    and softmax computed in plain numpy, one passage at a time, from the read
    stack's output and the six head arrays."""
    from rankread import matcher
    from rankread import tensor as T
    from rankread.text import embed

    trainer = toy_trainer(seed=1)
    model, table = trainer.model, trainer.table
    pred = _record(trainer, example.passages, max_span_len=4)
    candidates = E.predict_candidates(model, table, example.question_tokens, example.passages,
                                      max_span_len=4)
    with T.no_grad():
        q_emb = embed(example.question_tokens, table)
        p_emb, widths = passage_block(example.passage_tokens, table)
        m = model.match_passages(q_emb, p_emb, widths)
        gamma = model.rank(m, widths).probs()
        h_read = matcher.encode_batch([m], [widths], model.agg_read)[0].data
        dist = model.read_each(m, widths)
    w_s, b_s, ws_out, w_e, b_e, we_out = (p.data for p in model.read_heads)
    ends = np.cumsum(widths)
    assert [(s.offset, s.length) for s in dist.segments] == list(zip(ends - widths, widths))
    assert len(candidates) == len(widths)
    best_score, best_answer = -1.0, None
    for i, (candidate, end) in enumerate(zip(candidates, ends)):
        x = h_read[:, end - widths[i]:end]
        start_logits = (ws_out @ np.tanh(w_s @ x + b_s))[0]
        end_logits = (we_out @ np.tanh(w_e @ x + b_e))[0]
        seg = dist.segments[i]
        np.testing.assert_allclose(dist.start_logits.data[seg.offset:end, 0], start_logits,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(dist.end_logits.data[seg.offset:end, 0], end_logits,
                                   rtol=0, atol=1e-12)
        ps, pe = _softmax(start_logits), _softmax(end_logits)
        span_prob, answer = -1.0, None
        for s in range(len(ps)):
            for e in range(s, min(s + 4, len(ps))):
                if ps[s] * pe[e] > span_prob:
                    span_prob, answer = ps[s] * pe[e], " ".join(example.passage_tokens[i][s:e + 1])
        assert candidate.answer == answer
        assert candidate.score == pytest.approx(span_prob * gamma[i], rel=1e-9)
        if span_prob * gamma[i] > best_score:
            best_score, best_answer = span_prob * gamma[i], answer
    assert pred["prediction"] == best_answer
    assert pred["score"] == pytest.approx(best_score, rel=1e-9)


def test_predict_argmax_invariant_to_scaling_policy(example):
    candidates = [FakeCandidate("x", 0.3, 1), FakeCandidate("y", 0.2, 2)]
    base = max(candidates, key=lambda c: (c.score, -c.ir_rank))
    scaled = [FakeCandidate(c.answer, c.score * 7.5, c.ir_rank) for c in candidates]
    assert max(scaled, key=lambda c: (c.score, -c.ir_rank)).answer == base.answer


# --- evaluate ----------------------------------------------------------------------

def _dataset_and_retrieved(example):
    from rankread.retrieval import RetrievedSet
    dataset = [{"id": "toy-0", "question": TOY_QUESTION, "answers": ["blue"]}]
    return dataset, [RetrievedSet("toy-0", example.passages)]


def test_evaluate_bounds_and_records(example):
    trainer = toy_trainer(seed=2)
    dataset, retrieved = _dataset_and_retrieved(example)
    report = E.evaluate(trainer.model, trainer.table, dataset, retrieved,
                        trainer.config.max_span_len)
    assert report["count"] == 1
    assert 0.0 <= report["f1"] <= 1.0
    rec = report["records"][0]
    assert set(rec) == {"id", "prediction", "passage_id", "score", "f1", "em"}
    assert (rec["em"] == 1) <= (rec["f1"] == 1.0)


def test_evaluate_all_exact_and_all_disjoint(example):
    trainer = toy_trainer(seed=2)
    dataset, retrieved = _dataset_and_retrieved(example)
    max_span_len = trainer.config.max_span_len
    exact = E.evaluate(trainer.model, trainer.table,
                       [{"id": "toy-0", "question": TOY_QUESTION,
                         "answers": [_record(trainer, example.passages,
                                             max_span_len)["prediction"]]}],
                       retrieved, max_span_len)
    assert exact["em"] == 1.0 and exact["f1"] == 1.0
    disjoint = E.evaluate(trainer.model, trainer.table,
                          [{"id": "toy-0", "question": TOY_QUESTION, "answers": ["zzzzz"]}],
                          retrieved, max_span_len)
    assert disjoint["em"] == 0.0 and disjoint["f1"] == 0.0


def test_evaluate_order_independent_and_threaded(example):
    trainer = toy_trainer(seed=2)
    dataset, retrieved = _dataset_and_retrieved(example)
    two = dataset + [{"id": "toy-0", "question": TOY_QUESTION, "answers": ["blue"]}]
    max_span_len = trainer.config.max_span_len
    once = E.evaluate(trainer.model, trainer.table, dataset, retrieved, max_span_len)
    twice = E.evaluate(trainer.model, trainer.table, two, retrieved, max_span_len)
    assert twice["records"] == once["records"] * 2
    assert twice["f1"] == once["f1"] and twice["em"] == once["em"]
    # evaluation runs on one thread; the keyword stays for the benchmark's threads=1
    with pytest.raises(ValueError, match="^evaluate runs on one thread, got threads=2$"):
        E.evaluate(trainer.model, trainer.table, two, retrieved, max_span_len, threads=2)


# --- ranker analyses ------------------------------------------------------------------

def test_topk_recall_trivial_cases():
    flags = [[False, True, False], [True, False, False], [False, False, False]]
    recall = E.topk_recall(flags, [1, 2, 3])
    assert recall[1] == pytest.approx(1 / 3)
    assert recall[2] == pytest.approx(2 / 3)
    assert recall[3] == pytest.approx(2 / 3)


def test_topk_recall_k_covers_all_positives():
    flags = [[False, True]] * 4
    assert E.topk_recall(flags, [2])[2] == 1.0


def test_topk_recall_non_decreasing_in_k():
    rng = np.random.default_rng(0)
    flags = [[bool(b) for b in rng.integers(0, 2, size=10)] for _ in range(50)]
    recall = E.topk_recall(flags, list(range(1, 11)))
    vals = [recall[k] for k in range(1, 11)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_oracle_topk_monotone_and_k1_matches_argmax():
    rng = np.random.default_rng(1)
    candidate_lists, gold_lists = [], []
    for q in range(20):
        golds = [f"ans{q}"]
        cands = [FakeCandidate(f"ans{q}" if rng.random() < 0.4 else f"junk{j}",
                               float(rng.random()), j + 1) for j in range(5)]
        candidate_lists.append(cands)
        gold_lists.append(golds)
    table = E.oracle_topk(candidate_lists, gold_lists, [1, 3, 5])
    assert table[1]["em"] <= table[3]["em"] <= table[5]["em"]
    assert table[1]["f1"] <= table[3]["f1"] <= table[5]["f1"]
    # k=1 equals evaluating the single highest-scoring candidate
    manual_em = np.mean([
        E.f1_em(max(cands, key=lambda c: (c.score, -c.ir_rank)).answer, golds)[1]
        for cands, golds in zip(candidate_lists, gold_lists)])
    assert table[1]["em"] == pytest.approx(manual_em)


def test_experiment_ir_recall_is_the_ir_order_over_every_test_question():
    from rankread.experiment import run_experiment
    from rankread.synth import SyntheticSpec

    spec = SyntheticSpec(entities=8, relations=5, train_questions=12, test_questions=8, seed=3)
    result = run_experiment(seeds=(0,), spec=spec, sr_epochs=0, sr2_epochs=0, r3_epochs=0)
    task = result["task"]
    assert len(task["test_retrieved"]) == len(task["test_records"])
    flags = [[p.positive for p in rs.passages] for rs in task["test_retrieved"]]
    assert result["summary"]["ir_recall"] == E.topk_recall(flags, (1, 3, 5))


def test_analyze_oracle_takes_the_rank_passages_order_from_its_candidates(example):
    from dataclasses import replace
    from rankread.retrieval import RetrievedSet

    # one question per passage, with only that passage positive: recall at
    # k = 1..4 then pins the position of every passage in the model's order
    ks = (1, 2, 3, 4)
    dataset, retrieved = [], []
    for i in range(len(example.passages)):
        dataset.append({"id": f"q{i}", "question": TOY_QUESTION, "answers": ["blue"]})
        retrieved.append(RetrievedSet(f"q{i}", [replace(p, positive=j == i)
                                                for j, p in enumerate(example.passages)]))
    for seed in (0, 1, 2):
        trainer = toy_trainer(seed=seed)
        trainer.train([example], "sr2", epochs=1)
        model, table = trainer.model, trainer.table
        ranked = [E.rank_passages(model, table, tokenize(TOY_QUESTION).tokens, rs.passages)
                  for rs in retrieved]
        expected = E.topk_recall([[p.positive for p in order] for order in ranked], ks)
        out = E.analyze(model, table, dataset, retrieved, ks, trainer.config.max_span_len)
        assert out["recall"]["model"] == expected, seed


@pytest.mark.parametrize("ks", [(3, 1, 3), (1, 1)])
def test_analyze_rejects_a_repeated_cutoff(example, ks):
    # before, (3, 1, 3) gave "k": [3, 1, 3] beside recall and oracle dicts
    # with one key per distinct cutoff
    trainer = toy_trainer(seed=0)
    dataset, retrieved = _dataset_and_retrieved(example)
    with pytest.raises(ValueError) as info:
        E.analyze(trainer.model, trainer.table, dataset, retrieved, ks=ks,
                  max_span_len=trainer.config.max_span_len)
    assert str(info.value) == f"top-k cutoffs must not repeat, got {list(ks)}"


def test_analyze_f1_em_equal_evaluate_with_a_question_without_passages(example):
    dataset, retrieved = _dataset_and_retrieved(example)
    dataset = dataset + [{"id": "toy-1", "question": TOY_QUESTION, "answers": ["blue"]},
                         {"id": "toy-2", "question": TOY_QUESTION, "answers": [""]}]
    for seed in (0, 1, 2):
        trainer = toy_trainer(seed=seed)
        max_span_len = trainer.config.max_span_len
        report = E.evaluate(trainer.model, trainer.table, dataset, retrieved, max_span_len)
        out = E.analyze(trainer.model, trainer.table, dataset, retrieved, (1, 3, 5),
                        max_span_len)
        assert (out["f1"], out["em"]) == (report["f1"], report["em"]), seed
        # both questions without passages predict "": a miss for toy-1, and an
        # exact match against toy-2's empty gold, which analyze must count too
        assert [r["em"] for r in report["records"][1:]] == [0, 1]


def test_experiment_runs_one_predict_candidates_pass_per_model_and_question(monkeypatch):
    from rankread.experiment import run_experiment
    from rankread.synth import SyntheticSpec

    calls = {"predict_candidates": [], "rank_passages": []}
    for name, seen in calls.items():
        def counted(model, table, question_tokens, *args, _call=getattr(E, name), _seen=seen):
            _seen.append((model, tuple(question_tokens)))
            return _call(model, table, question_tokens, *args)
        monkeypatch.setattr(E, name, counted)
    spec = SyntheticSpec(entities=8, relations=5, train_questions=12, test_questions=8, seed=3)
    seeds = (0, 1)
    result = run_experiment(seeds=seeds, spec=spec, sr_epochs=0, sr2_epochs=0, r3_epochs=1)
    assert calls["rank_passages"] == []
    questions = sorted(tuple(tokenize(rec["question"]).tokens)
                       for rec in result["task"]["test_records"])
    by_model = {}
    for model, question in calls["predict_candidates"]:
        by_model.setdefault(id(model), []).append(question)
    # the call list holds every model, so no two of them share an id
    assert len(by_model) == 3 * len(seeds)
    assert all(sorted(qs) == questions for qs in by_model.values())
