"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The end-to-end experiment (criteria 7 and 8) trains
three modes over three seeds and is shared through a session fixture.
"""

import ast
import inspect
import time

import numpy as np
import pytest

from conftest import (enumerate_policy_gradient, read_block, sum_all, tfidf_ids, toy_example,
                      toy_trainer)
from test_retrieval import brute_force_bm25, brute_force_tfidf, docs_from

from rankread import evaluation as E
from rankread import ranker, reader, retrieval
from rankread import tensor as T
from rankread import trainer as trainer_mod
from rankread.experiment import run_experiment
from rankread.config import Config
from rankread.model import RankReadModel, load_checkpoint, save_checkpoint
from rankread.text import tokenize


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


@pytest.fixture(scope="session")
def experiment():
    return run_experiment(seeds=(0, 1, 2))


# -- 1. gradient correctness ---------------------------------------------------------


def _random_conforming(rng, op_name):
    r = int(rng.integers(1, 5))
    c = int(rng.integers(1, 5))
    k = int(rng.integers(1, 5))

    def tensor(rows, cols, positive=False):
        data = rng.uniform(0.15, 1.5, size=(rows, cols))
        if not positive:
            data *= rng.choice([-1.0, 1.0], size=(rows, cols))
        return T.Tensor(data, requires_grad=True)

    if op_name == "matmul":
        return (tensor(r, k), tensor(k, c)), {}
    if op_name in ("add", "mul", "sub"):
        return (tensor(r, c), tensor(r, c)), {}
    if op_name == "add_col":
        return (tensor(r, c), tensor(r, 1)), {}
    if op_name == "scale":
        return (tensor(r, c),), {"c": float(rng.uniform(-2, 2))}
    if op_name in ("concat_cols", "concat_rows"):
        n = int(rng.integers(2, 4))
        if op_name == "concat_cols":
            parts = [tensor(r, int(rng.integers(1, 4))) for _ in range(n)]
        else:
            parts = [tensor(int(rng.integers(1, 4)), c) for _ in range(n)]
        return (parts,), {}
    if op_name == "neg_log_softmax_mean":
        sizes = rng.integers(1, 4, size=int(rng.integers(1, 4))).tolist()
        ks = [(end - size + rng.permutation(size)[:int(rng.integers(1, size + 1))]).tolist()
              for size, end in zip(sizes, np.cumsum(sizes))]
        return (tensor(sum(sizes), 1),), {"sizes": sizes, "ks": ks}
    if op_name == "attention":
        n = int(rng.integers(1, 4))
        key_sizes = rng.integers(1, 4, size=n).tolist()
        query_sizes = rng.integers(1, 4, size=n).tolist()
        keys, queries = tensor(r, sum(key_sizes)), tensor(r, sum(query_sizes))
        return (keys, tensor(k, sum(key_sizes)), queries), {"key_sizes": key_sizes,
                                                            "query_sizes": query_sizes}
    if op_name == "take_cols":
        return (tensor(r, c),), {"index": rng.permutation(c)[:int(rng.integers(1, c + 1))].tolist()}
    if op_name == "segment_max":
        widths = rng.integers(1, 4, size=int(rng.integers(1, 4))).tolist()
        return (tensor(r, sum(widths)),), {"widths": widths}
    return (tensor(r, c),), {}


# the helpers through which an op records its node: Tensor._node and the
# module's templates over it
_RECORDERS = {"_node", "_elementwise", "_unary", "_concat"}


def _calls(function, names):
    return any(isinstance(call, ast.Call)
               and getattr(call.func, "id", getattr(call.func, "attr", None)) in names
               for call in ast.walk(function))


def tape_ops():
    """The names of tensor.py's public functions that record a node through a
    recorder, found in its source; bilstm is checked on its own by
    test_tensor::test_fd_lstm."""
    return {node.name for node in ast.parse(inspect.getsource(T)).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and _calls(node, _RECORDERS)} - {"bilstm"}


def test_c01_gradient_correctness():
    started = time.time()
    for op_name in sorted(tape_ops()):
        op = getattr(T, op_name)
        rng = np.random.default_rng(sum(map(ord, op_name)))
        for _ in range(50):
            args, kwargs = _random_conforming(rng, op_name)
            params = [t for a in args for t in (a if isinstance(a, list) else [a])]

            def build():
                out = op(*args, **kwargs)
                return out if out.data.shape == (1, 1) else sum_all(T.mul(out, out))

            err = T.fd_check(build, params)
            assert err < 1e-4, f"{op_name}: fd error {err}"

    # End-to-end losses on small instances (l=2, P<=3, Q=2, N=3). Central
    # differences at h=1e-5 resolve a gradient entry only when it clears the
    # fd noise floor (~1e-11), so the instances use all-positive parameters
    # and inputs: with no cancellation, every parameter the loss touches gets
    # a healthy gradient, and untouched parameters leave the loss bitwise
    # unchanged (fd exactly zero). Three seeds of the family are checked.
    worst_e2e = {}
    for seed in (0, 2, 3):
        cfg = Config(hidden_size=2, embed_dim=2, dropout=0.0,
                     reader_layers=1, ranker_layers=1)
        model = RankReadModel(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        for p in model.parameters().values():
            p.data[...] = rng.uniform(0.15, 0.5, size=p.data.shape)
        q_emb = T.Tensor(rng.uniform(0.2, 1.0, size=(2, 2)))
        p_embs = [T.Tensor(rng.uniform(0.2, 1.0, size=(2, int(rng.integers(2, 4)))))
                  for _ in range(3)]
        p_emb, widths = T.concat_cols(p_embs), [p.data.shape[1] for p in p_embs]
        params = list(model.parameters().values())

        def reader_loss():
            m = model.match_passages(q_emb, p_emb, widths)
            dist = model.read(*read_block(m, widths, [0, 2]))
            return reader.span_loss(dist, [reader.SpanLabel(0, 0, 1)])

        def kl_loss():
            m = model.match_passages(q_emb, p_emb, widths)
            return trainer_mod.kl_rank_loss(model.rank(m, widths), [{0, 1}])

        def log_pi():
            m = model.match_passages(q_emb, p_emb, widths)
            return ranker.log_policy(model.rank(m, widths), [1])

        for name, fn in [("reader", reader_loss), ("kl", kl_loss), ("log_pi", log_pi)]:
            err = T.fd_check(fn, params)
            assert err < 1e-4, f"{name} (seed {seed}): fd error {err}"
            worst_e2e[name] = max(worst_e2e.get(name, 0.0), err)
    elapsed = time.time() - started
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"all op and end-to-end fd checks < 1e-4 in {elapsed:.1f}s "
              f"(e2e worst: {', '.join(f'{k}={v:.2e}' for k, v in worst_e2e.items())})")


def test_c01_reaches_every_op_that_records_a_node():
    # c01 checks tape_ops(), so an op the rule misses goes unchecked: every
    # function that makes a node itself is one of them, bilstm or a recorder,
    # and every recorder exists (a renamed template fails both)
    functions = {node.name: node for node in ast.parse(inspect.getsource(T)).body
                 if isinstance(node, ast.FunctionDef)}
    makes_nodes = {name for name, node in functions.items() if _calls(node, {"_node"})}
    assert makes_nodes <= tape_ops() | _RECORDERS | {"bilstm"}
    assert _RECORDERS - {"_node"} <= functions.keys()
    assert "bilstm" in makes_nodes


# -- 2. distribution normalization ------------------------------------------------


def test_c02_distribution_normalization():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        l = int(rng.integers(1, 5)) * 2
        h_q = T.Tensor(rng.normal(size=(l, rng.integers(1, 6))))
        h_ps = [T.Tensor(rng.normal(size=(l, rng.integers(1, 6)))) for _ in range(rng.integers(1, 5))]
        h_block, widths = T.concat_cols(h_ps), [h.data.shape[1] for h in h_ps]
        # attend's keys with the identity for values: the attended view is G
        q = h_q.data.shape[1]
        keys = T.add_col(T.matmul(T.Tensor(rng.normal(size=(l, l))), h_q),
                         T.Tensor(rng.normal(size=(l, 1))))
        g = T.attention(keys, T.Tensor(np.eye(q)), h_ps[0], [q], [widths[0]])
        pol = ranker.score_passages(h_block, widths, T.Tensor(rng.normal(size=(l, l))),
                                    T.Tensor(rng.normal(size=(l, 1))),
                                    T.Tensor(rng.normal(size=(1, l))), [len(widths)])
        heads = [T.Tensor(rng.normal(size=s)) for s in
                 [(l, l), (l, 1), (1, l), (l, l), (l, 1), (1, l)]]
        dist = reader.span_distributions(h_block, widths, *heads, [len(widths)])
        gamma = pol.probs()
        # the start and end distributions over the whole block, as span_loss
        # normalizes them, and over each passage alone, as extraction does
        block = np.array([T.softmax_cols(logits).data.sum()
                          for logits in (dist.start_logits, dist.end_logits)])
        each = np.exp(reader._log_prob_grids(dist, max(widths))).sum(axis=2)
        sums = np.concatenate([
            g.data.sum(axis=0) - 1.0,
            [gamma.sum() - 1.0],
            block - 1.0,
            each.ravel() - 1.0,
        ])
        worst = max(worst, float(np.abs(sums).max()))
        assert np.all(g.data > 0) and np.all(gamma > 0)
    assert worst < 1e-9
    report(2, f"attention, policy and span distributions sum to 1 (worst |dev| {worst:.1e})")


# -- 3. reward fidelity --------------------------------------------------------------


def test_c03_reward_fidelity():
    assert trainer_mod.reward("luzon", "luzon").value == 2.0
    assert trainer_mod.reward("luzon", "mindanao").value == -1.0
    partial = trainer_mod.reward("new york city", "york city area").value
    assert abs(partial - 2.0 / 3.0) < 1e-12
    rng = np.random.default_rng(3)
    alphabet = list("ab ")
    for _ in range(10_000):
        gold = "".join(rng.choice(alphabet, size=rng.integers(1, 10)))
        pred = "".join(rng.choice(alphabet, size=rng.integers(0, 10)))
        value = trainer_mod.reward(gold or "a", pred).value
        assert value == 2.0 or value == -1.0 or 0.0 < value <= 1.0
    report(3, "exact=2, disjoint=-1, partial F1 = 2/3 within 1e-12; range holds on 10^4 pairs")


# -- 4. REINFORCE unbiasedness ---------------------------------------------------------


def test_c04_reinforce_unbiasedness():
    started = time.time()
    trainer = toy_trainer(seed=17)
    example = toy_example()  # N=4 passages, two positives
    assert len(example.passages) == 4 and len(example.positive_indices()) == 2
    expectation, grads, probs, rewards = enumerate_policy_gradient(trainer, example)
    pos = sorted(probs)
    rng = np.random.default_rng(4)
    draws = 10_000
    counts = dict.fromkeys(pos, 0)
    p_vec = np.array([probs[t] for t in pos])
    for _ in range(draws):
        counts[pos[int(rng.choice(len(pos), p=p_vec))]] += 1
    blocks_checked = 0
    for name, exact in expectation.items():
        mc = sum(counts[t] * grads[t][name] for t in pos) / draws
        var = sum(probs[t] * (grads[t][name] - exact) ** 2 for t in pos)
        se = np.sqrt(var / draws)
        assert np.all(np.abs(mc - exact) <= 3 * se + 1e-12), name
        blocks_checked += 1
    elapsed = time.time() - started
    assert elapsed < 120, f"criterion 4 took {elapsed:.1f}s"
    report(4, f"{draws} draws within 3 SE of the enumerated expectation on "
              f"{blocks_checked} parameter blocks in {elapsed:.1f}s")


# -- 5. retrieval oracle equivalence --------------------------------------------------


def test_c05_retrieval_matches_brute_force():
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(18)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(3, 14))) for _ in range(100)]
    docs = docs_from(texts)
    index = retrieval.build_index(docs)
    for qi in range(12):
        qrng = np.random.default_rng(100 + qi)
        query = list(qrng.choice(vocab, size=qrng.integers(1, 4)))
        assert retrieval.search_bm25(index, query, 100) == brute_force_bm25(docs, query)
    sent_tokens = [tokenize(t).tokens for t in texts]
    for qi in range(12):
        qrng = np.random.default_rng(200 + qi)
        query = list(qrng.choice(vocab, size=3))
        assert retrieval.rank_sentences_tfidf(*tfidf_ids(sent_tokens, query), 100) == \
            brute_force_tfidf(sent_tokens, query)
    report(5, "BM25 and TF-IDF rankings equal brute-force scorers exactly on 100-doc fixtures")


# -- 6. span-extraction oracle ----------------------------------------------------------


def test_c06_span_extraction_oracle():
    rng = np.random.default_rng(6)
    checked = segments = 0
    for case in range(200):
        widths = list(rng.integers(1, 7, size=rng.integers(1, 4)))
        v = int(sum(widths))
        sl = T.Tensor(rng.normal(size=(v, 1)))
        el = T.Tensor(rng.normal(size=(v, 1)))
        segs, off = [], 0
        for w in widths:
            segs.append(reader.Segment(off, int(w)))
            off += int(w)
        dist = reader.SpanDistribution(sl, el, segs, [len(segs)])
        for max_len in (1, 4, 15):
            labels = [label for label, _ in reader.extract_best_span(dist, max_len)]
            # each segment enumerated under its own softmax
            for passage, (label, seg) in enumerate(zip(labels, segs)):
                words = slice(seg.offset, seg.offset + seg.length)
                ps = T.softmax_cols(T.Tensor(sl.data[words])).data[:, 0]
                pe = T.softmax_cols(T.Tensor(el.data[words])).data[:, 0]
                best, best_score = None, -1.0
                for i in range(seg.length):
                    for j in range(i, min(i + max_len, seg.length)):
                        if ps[i] * pe[j] > best_score:
                            best_score = ps[i] * pe[j]
                            best = (passage, i, j)
                assert (label.passage, label.start, label.end) == best
                segments += 1
            checked += 1
    report(6, f"extract_best_span equals exhaustive enumeration on {checked} cases "
              f"({segments} segments)")


# -- 7. synthetic end-to-end ordering ------------------------------------------------------


def test_c07_end_to_end_ordering(experiment):
    s = experiment["summary"]
    em, recall1, ir1 = s["em"], s["recall1"], s["ir_recall"][1]
    assert recall1["r3"] > recall1["sr2"] > ir1, (recall1, ir1)
    assert em["r3"] >= em["sr2"] >= em["sr"], em
    assert em["r3"] - em["sr"] >= 5.0, em
    assert s["elapsed_seconds"] < 900, s["elapsed_seconds"]
    report(7, f"recall@1 r3 {recall1['r3']:.3f} > sr2 {recall1['sr2']:.3f} > ir {ir1:.3f}; "
              f"EM r3 {em['r3']:.1f} >= sr2 {em['sr2']:.1f} >= sr {em['sr']:.1f} "
              f"(gap {em['r3'] - em['sr']:.1f} >= 5) in {s['elapsed_seconds']:.0f}s")


# -- 8. oracle analysis monotonicity ----------------------------------------------------------


def test_c08_oracle_monotonicity(experiment):
    oracle = experiment["oracle"]
    for metric in ("f1", "em"):
        vals = [oracle[k][metric] for k in (1, 3, 5)]
        assert vals[0] <= vals[1] <= vals[2], (metric, vals)
    for res in experiment["per_seed"]:
        for mode in ("sr2", "r3"):
            rec = res[mode]["recall"]
            assert rec[1] <= rec[3] <= rec[5], (mode, rec)
    ir = experiment["summary"]["ir_recall"]
    assert ir[1] <= ir[3] <= ir[5]
    o = {k: (round(oracle[k]["f1"], 1), round(oracle[k]["em"], 1)) for k in (1, 3, 5)}
    report(8, f"oracle top-k F1/EM non-decreasing {o}; recall curves non-decreasing in k")


# -- 9. metric golden file -----------------------------------------------------------------------


def test_c09_metric_golden_file():
    import json
    from pathlib import Path
    cases = json.loads((Path(__file__).parent / "data" / "f1_em_golden.json").read_text())
    assert len(cases) == 20
    for case in cases:
        f1, em = E.f1_em(case["prediction"], case["golds"])
        assert abs(f1 - case["f1"]) < 1e-12, case
        assert em == case["em"], case
    report(9, "f1_em reproduces all 20 golden normalization cases")


# -- 10. determinism and persistence ----------------------------------------------------------------


def test_c10_determinism_and_persistence(tmp_path):
    # (a) bitwise-identical training logs under a fixed seed
    logs = []
    for _ in range(2):
        trainer = toy_trainer(seed=23, dropout=0.2)
        trainer.train([toy_example()], "r3", epochs=4)
        logs.append(trainer.log)
    assert logs[0] == logs[1]

    # (b) checkpoint round-trip is bitwise
    source = toy_trainer(seed=24)
    source.train([toy_example()], "sr2", epochs=2)
    path = tmp_path / "sr2.json"
    save_checkpoint(path, source.model, source.table)
    loaded, _ = load_checkpoint(path)
    for name, p in source.model.parameters().items():
        assert np.array_equal(loaded.parameters()[name].data, p.data), name

    # (c) pretraining hand-off with zero steps predicts identically
    target = toy_trainer(seed=77)
    model, table = load_checkpoint(path, target.config)
    example = toy_example()
    cands_source = E.predict_candidates(source.model, source.table, example.question_tokens,
                                        example.passages, source.config.max_span_len)
    cands_target = E.predict_candidates(model, table, example.question_tokens,
                                        example.passages, target.config.max_span_len)
    assert cands_source == cands_target
    report(10, "fixed-seed logs bitwise equal; checkpoints round-trip; "
               "pretraining hand-off preserves predictions exactly")
