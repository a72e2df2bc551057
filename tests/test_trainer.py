import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (enumerate_policy_gradient, grad_or_zero, make_example, passage_block,
                      read_block, toy_example, toy_trainer)

from rankread import ranker as ranker_mod
from rankread import reader as reader_mod
from rankread import tensor as T
from rankread import trainer as trainer_mod
from rankread.model import load_checkpoint, save_checkpoint
from rankread.ranker import PolicyDistribution
from rankread.retrieval import RetrievedPassage, RetrievedSet
from rankread.text import embed, synthetic_embeddings


# --- reward -------------------------------------------------------------------

def test_reward_exact_match_is_two():
    r = trainer_mod.reward("luzon", "luzon")
    assert (r.value, r.kind) == (2.0, "exact")
    assert trainer_mod.reward("Luzon", "luzon").value == 2.0  # shared lowercasing


def test_reward_disjoint_is_minus_one():
    r = trainer_mod.reward("luzon", "mindanao")
    assert (r.value, r.kind) == (-1.0, "miss")


def test_reward_partial_overlap_is_word_f1():
    r = trainer_mod.reward("new york city", "york city area")
    assert r.kind == "overlap"
    assert r.value == pytest.approx(2 * (2 / 3) * (2 / 3) / (2 / 3 + 2 / 3), abs=1e-12)
    assert r.value == pytest.approx(2 / 3, abs=1e-12)


def test_reward_empty_prediction_is_miss():
    assert trainer_mod.reward("luzon", "").value == -1.0
    assert trainer_mod.reward("luzon", "  !  ").kind == "miss"  # punctuation never overlaps a word


@settings(max_examples=300, deadline=None)
@given(st.text("abcdef ", min_size=1, max_size=12), st.text("abcdef ", min_size=0, max_size=12))
def test_reward_range_property(gold, pred):
    try:
        r = trainer_mod.reward(gold, pred)
    except ValueError:
        return
    assert r.value == 2.0 or r.value == -1.0 or 0.0 < r.value <= 1.0
    assert -1.0 <= r.value <= 2.0 and r.value != 0.0


# --- KL ranker loss --------------------------------------------------------------

def policy_from_gamma(gamma):
    logits = T.Tensor(np.log(np.asarray(gamma)).reshape(-1, 1), requires_grad=True)
    return PolicyDistribution(logits, [len(gamma)])


def test_kl_zero_when_gamma_matches_targets():
    pol = policy_from_gamma([0.5, 0.5])
    assert trainer_mod.kl_rank_loss(pol, [{0, 1}]).item() == pytest.approx(0.0, abs=1e-12)


def test_kl_single_positive_half_mass():
    pol = policy_from_gamma([0.5, 0.5])
    assert trainer_mod.kl_rank_loss(pol, [{0}]).item() == pytest.approx(math.log(2), abs=1e-12)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        gamma = rng.dirichlet(np.ones(4))
        pol = policy_from_gamma(gamma)
        assert trainer_mod.kl_rank_loss(pol, [{0, 2}]).item() >= -1e-12


def test_kl_requires_positive():
    with pytest.raises(ValueError):
        trainer_mod.kl_rank_loss(policy_from_gamma([1.0]), [set()])


def test_kl_gradient_fd():
    logits = T.Tensor(np.random.default_rng(1).normal(size=(4, 1)), requires_grad=True)

    def build():
        pol = PolicyDistribution(logits, [4])
        return trainer_mod.kl_rank_loss(pol, [{1, 3}])

    assert T.fd_check(build, [logits]) < 1e-4


def test_kl_of_a_batch_is_each_questions_own():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(7, 1))
    batch = PolicyDistribution(T.Tensor(data, requires_grad=True), [3, 4])
    kl = trainer_mod.kl_rank_loss(batch, [{0, 2}, {4}])
    assert kl.data[0, 0] == trainer_mod.kl_rank_loss(
        PolicyDistribution(T.Tensor(data[:3]), [3]), [{0, 2}]).item()
    assert kl.data[1, 0] == trainer_mod.kl_rank_loss(
        PolicyDistribution(T.Tensor(data[3:]), [4]), [{1}]).item()


# --- example building --------------------------------------------------------------

def test_build_examples_drops_questions_without_positives():
    dataset = [{"id": "q0", "question": "what is x ?", "answers": ["blue"]},
               {"id": "q1", "question": "what is y ?", "answers": ["red"]}]
    sets = [RetrievedSet("q0", [RetrievedPassage("x is blue .", "d", 1, 1.0, True)]),
            RetrievedSet("q1", [RetrievedPassage("nothing here .", "d", 1, 1.0, False)])]
    examples, dropped = trainer_mod.build_examples(dataset, sets)
    assert [e.question_id for e in examples] == ["q0"]
    assert dropped == 1
    assert examples[0].spans == {0: [(2, 2)]}


def test_localized_spans_verify_against_passage(example):
    for idx, occurrences in example.spans.items():
        for start, end in occurrences:
            assert example.passage_tokens[idx][start:end + 1] == ["blue"]
    assert set(example.positive_indices()) == {0, 1}


def test_subset_sampling_respects_negative_floor():
    rng = np.random.default_rng(0)
    ex = toy_example()
    # shrink k below the passage count to force sampling
    picked = trainer_mod.sample_passage_subset(ex, 3, 2, rng)
    assert len(picked) == 3
    positives = [i for i in picked if ex.spans.get(i)]
    negatives = [i for i in picked if not ex.spans.get(i)]
    assert len(positives) >= 1 and len(negatives) == 2


def test_subset_sampling_takes_all_when_k_covers():
    rng = np.random.default_rng(0)
    ex = toy_example()
    assert trainer_mod.sample_passage_subset(ex, 10, 2, rng) == [0, 1, 2, 3]


# --- training modes -----------------------------------------------------------------

def test_sr_overfits_single_example():
    # single positive with one occurrence: fixed label, smooth descent
    ex = toy_example()
    ex.spans.pop(1)
    trainer = toy_trainer(seed=3, learning_rate=0.02)
    losses = [trainer._apply_batch([ex], "sr", step)["reader_loss"] for step in range(120)]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0] * 0.5


def test_sr_leaves_ranker_head_at_initialization(example):
    trainer = toy_trainer(seed=4)
    ranker_before = {n: p.data.copy() for n, p in trainer.model.parameters().items()
                     if n.startswith(("rank.", "agg_rank."))}
    reader_before = trainer.model.parameters()["read_start.W"].data.copy()
    trainer.train([example], "sr", epochs=3)
    for name, before in ranker_before.items():
        assert np.array_equal(trainer.model.parameters()[name].data, before), name
    assert not np.array_equal(trainer.model.parameters()["read_start.W"].data, reader_before)


def test_one_epoch_touches_each_example_once_shuffled():
    trainer = toy_trainer(seed=5, batch_size=1)
    examples = []
    for i in range(6):
        ex = toy_example()
        ex = trainer_mod.TrainingExample(f"q{i}", ex.question_tokens, ex.answers,
                                         ex.passages, ex.passage_tokens, ex.spans)
        examples.append(ex)
    seen = []
    original = trainer.batch_losses

    def spy(batch, mode):
        seen.extend(example.question_id for example in batch)
        return original(batch, mode)

    trainer.batch_losses = spy
    trainer.train(examples, "sr", epochs=2)
    assert sorted(seen[:6]) == [f"q{i}" for i in range(6)]
    assert sorted(seen[6:]) == [f"q{i}" for i in range(6)]
    assert seen[:6] != [f"q{i}" for i in range(6)]  # the fixed seed shuffles this order


def test_sr2_with_zero_kl_weight_reproduces_sr_bitwise(example):
    t_sr = toy_trainer(seed=6)
    t_sr.train([example], "sr", epochs=3)
    t_kl0 = toy_trainer(seed=6, kl_weight=0.0)
    t_kl0.train([example], "sr2", epochs=3)
    assert [r["reader_loss"] for r in t_sr.log] == [r["reader_loss"] for r in t_kl0.log]
    for name, p in t_sr.model.parameters().items():
        assert np.array_equal(p.data, t_kl0.model.parameters()[name].data), name


def test_sr2_logs_kl_and_reduces_it(example):
    trainer = toy_trainer(seed=7, learning_rate=0.02)
    records = [trainer._apply_batch([example], "sr2", i) for i in range(40)]
    assert "kl_loss" in records[0]
    assert records[-1]["kl_loss"] < records[0]["kl_loss"]


def test_r3_single_positive_always_selects_it():
    ex = toy_example()
    # mark passage 1's occurrence unusable by dropping it: only passage 0 stays positive
    ex.spans.pop(1)
    trainer = toy_trainer(seed=8)
    for step in range(5):
        record = trainer._apply_batch([ex], "r3", step)
        assert record["reward"] is not None
    # with one positive, tau is forced
    _, [report] = trainer.example_losses(ex, "r3")
    assert report["tau"] == 0


def test_r3_step_single_update_combines_both_sources(example):
    trainer = toy_trainer(seed=9)
    t_before = trainer.optimizer.t
    record = trainer._apply_batch([example], "r3", len(trainer.log))
    assert trainer.optimizer.t == t_before + 1
    assert {"step", "mode", "reward", "reader_loss"} <= set(record)
    assert record["mode"] == "r3"


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_gradient_skips_the_step(example, caplog):
    trainer = toy_trainer(seed=9)
    before = trainer.model.export_values()
    build = trainer.batch_losses

    def poisoned(batch, mode):
        loss, reports = build(batch, mode)
        return T.scale(loss, float("inf")), reports

    trainer.batch_losses = poisoned
    assert trainer._apply_batch([example], "r3", 4) is None
    assert trainer.optimizer.t == 0 and trainer.nonfinite_steps == 1 and trainer.log == []
    after = trainer.model.export_values()
    assert all(np.array_equal(before[name], after[name]) for name in before)
    assert "step 4: non-finite gradient norm" in caplog.text
    trainer.batch_losses = build
    assert trainer._apply_batch([example], "r3", 4) is not None
    assert trainer.optimizer.t == 1 and trainer.nonfinite_steps == 1


def _tape_size(root):
    """Tensors reachable from root through their parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _unreached_nodes(monkeypatch, mode):
    """Tape nodes a two-example batch records that its summed loss does not reach,
    with the batch's reports."""
    recorded = []
    node = T.Tensor._node

    def recording(cls, data, parents):
        out = node(data, parents)
        if out.requires_grad:
            recorded.append(out)
        return out

    trainer = toy_trainer(seed=0, dropout=0.3)
    with monkeypatch.context() as m:
        m.setattr(T.Tensor, "_node", classmethod(recording))
        loss, reports = trainer.batch_losses([toy_example(), toy_example()], mode)
    reached = {id(t) for t in T._toposort(loss)}
    return [t for t in recorded if id(t) not in reached], reports


@pytest.mark.parametrize("mode", trainer_mod.MODES)
def test_batch_tape_records_only_what_backward_reads(monkeypatch, mode):
    # the heads emit logits, and a probability is computed off the tape where
    # it is read; the reader takes its passages' columns of M with one gather,
    # so in sr the subset positives it does not read leave no node behind
    unreached, reports = _unreached_nodes(monkeypatch, mode)
    example = toy_example()
    assert any(example.spans.get(i) and i != r["tau"] for r in reports for i in r["subset"])
    assert len(unreached) == 0


@pytest.mark.parametrize("mode", trainer_mod.MODES)
def test_example_without_positive_passage_raises(example, mode):
    example.question_id = "q-none"
    example.spans = {}
    with pytest.raises(ValueError, match="q-none: example has no positive passage"):
        toy_trainer(seed=0).example_losses(example, mode)
    with pytest.raises(ValueError, match="q-none: example has no positive passage"):
        toy_trainer(seed=0).batch_losses([toy_example(), example], mode)


def test_sr2_example_tape_stays_small(example):
    # one tape node per BiLSTM layer, and no reordering or split-and-rejoin
    # between the layers of a stack. The per-step composition recorded 1868
    # nodes for this example, the fused op with per-layer reshuffling 176, one
    # layout through each stack 153, one packed recurrence per stack call
    # whatever the lengths 140 (a node per direction and a concat per layer),
    # one node per layer for both directions 130, one column block per
    # question with gathers in place of per-passage slices 108, one
    # attention node for attention and the attended view 107.
    loss, _ = toy_trainer(seed=0).example_losses(example, "sr2")
    assert _tape_size(loss) <= 107


def _batch_tape_size(batch, mode):
    """Tensors reachable from a toy trainer's batch loss."""
    loss, _ = toy_trainer(seed=0).batch_losses(batch, mode)
    return _tape_size(loss)


def test_sr2_batch_tape_stays_small():
    # a batch is one graph whose questions share each recurrence, the
    # attention node, the fusion, each head and each loss, so its size does
    # not depend on how many questions it holds, in any mode. Four toy sr2
    # examples reached 235 tensors when attention, fusion, heads and losses
    # ran per question (313 with per-passage slices); _mixed_batch() reaches
    # 109 in sr2 and r3 and 82 in sr
    batch = _mixed_batch()
    for mode in trainer_mod.MODES:
        assert _batch_tape_size(batch, mode) == _batch_tape_size(batch[:2], mode), mode


def _mixed_batch():
    """Examples of different question and passage lengths; the first one twice."""
    a = toy_example()
    b = make_example("mix-b", "which colour is the zob ?",
                     ["the zob is red .", "red .", "nobody has ever seen the zob up close here .",
                      "a zob , red and round , sat near the kib .", "zob ."], ["red"])
    c = make_example("mix-c", "what food does the kib eat ?",
                     ["the kib eats corn every day .", "corn .", "the zob eats nothing ."],
                     ["corn"])
    return [a, b, a, c]


def _reference_loss(trainer, example, mode, report):
    """One example's loss built alone with the one-question model passes, from
    the subset, tau and span its batch drew."""
    model, cfg = trainer.model, trainer.config
    subset, tau = report["subset"], report["tau"]
    p_emb, widths = passage_block([example.passage_tokens[i] for i in subset], trainer.table)
    m = model.match_passages(embed(example.question_tokens, trainer.table), p_emb, widths)
    order = [tau] + [i for i in subset if not example.spans.get(i)]
    dist = model.read(*read_block(m, widths, [subset.index(i) for i in order]))
    loss = reader_mod.span_loss(dist, [reader_mod.SpanLabel(0, *report["span"])])
    if mode == "sr2":
        kl = trainer_mod.kl_rank_loss(model.rank(m, widths),
                                      [{subset.index(i) for i in subset if example.spans.get(i)}])
        loss = T.add(loss, T.scale(kl, cfg.kl_weight))
    elif mode == "r3":
        extracted, _ = reader_mod.extract_best_span(replace(dist, segments=dist.segments[:1]),
                                                    cfg.max_span_len)[0]
        answer = " ".join(example.passage_tokens[tau][extracted.start:extracted.end + 1])
        r = trainer_mod.best_reward(example.answers, answer).value
        assert r == report["reward"]
        loss = T.add(loss, T.scale(ranker_mod.log_policy(model.rank(m, widths),
                                                         [subset.index(tau)]), -r))
    return loss


@pytest.mark.parametrize("mode", trainer_mod.MODES)
def test_batch_losses_equal_per_example_losses(mode):
    # one _apply_batch step at learning rate 0 and no clipping leaves the
    # batch's gradients on the parameters
    trainer = toy_trainer(seed=21, train_sample_k=3, min_negatives=1,
                          learning_rate=0.0, grad_clip=1e9)
    batch = _mixed_batch()
    vocab = {tok for ex in batch for toks in [ex.question_tokens] + ex.passage_tokens
             for tok in toks}
    trainer.table = synthetic_embeddings(vocab, trainer.config.embed_dim, seed=5)
    assert len({len(ex.question_tokens) for ex in batch}) == 3
    params = trainer.model.parameters()
    built = trainer.batch_losses
    reports = []

    def keep_reports(b, m):
        loss, batch_reports = built(b, m)
        reports.extend(batch_reports)
        return loss, batch_reports

    trainer.batch_losses = keep_reports
    record = trainer._apply_batch(batch, mode, 0)
    assert [len(r["subset"]) < len(ex.passages) for ex, r in zip(batch, reports)] == \
        [True, True, True, False]
    batched = {name: grad_or_zero(p) for name, p in params.items()}

    summed = 0.0
    grads = {name: np.zeros_like(p.data) for name, p in params.items()}
    for example, report in zip(batch, reports):
        trainer.model.zero_grads()
        loss = _reference_loss(trainer, example, mode, report)
        T.backward(loss)
        assert abs(loss.item() - report["loss"]) <= 1e-10
        summed += loss.item()
        for name, p in params.items():
            grads[name] += grad_or_zero(p)
    assert abs(sum(r["loss"] for r in reports) - summed) <= 1e-10
    assert record["reader_loss"] == pytest.approx(
        np.mean([r["reader_loss"] for r in reports]), abs=1e-12)
    for name in params:
        assert np.max(np.abs(batched[name] - grads[name])) <= 1e-10, name
    touched = [name for name in params if np.any(batched[name])]
    assert any(name.startswith("agg_rank.") for name in touched) == (mode != "sr")


def test_step_record_reports_a_fired_clip(example):
    trainer = toy_trainer(seed=9, grad_clip=1e-6)
    record = trainer._apply_batch([example, example], "r3", 0)
    assert record["clipped"] is True and record["grad_norm"] > 1e-6
    left = np.concatenate([p.grad.ravel() for p in trainer.model.parameters().values()])
    assert np.linalg.norm(left) == pytest.approx(1e-6, rel=1e-9)


def test_step_record_reports_the_unclipped_gradient_norm(example):
    trainer = toy_trainer(seed=9, grad_clip=1e6)
    record = trainer._apply_batch([example, example], "sr2", 0)
    assert record["clipped"] is False
    left = np.concatenate([p.grad.ravel() for p in trainer.model.parameters().values()])
    assert record["grad_norm"] == pytest.approx(np.linalg.norm(left), rel=1e-12)


@pytest.mark.parametrize("mode", ["sr2", "r3"])
def test_step_record_reports_the_mean_policy_entropy(mode):
    # read off the tape from the batch's logits: each question's entropy of
    # its own softmax, against a numpy reference, averaged over the batch
    trainer = toy_trainer(seed=31, train_sample_k=4, min_negatives=1)
    batch = _mixed_batch()
    vocab = {tok for ex in batch for toks in [ex.question_tokens] + ex.passage_tokens
             for tok in toks}
    trainer.table = synthetic_embeddings(vocab, trainer.config.embed_dim, seed=5)
    built = trainer.batch_losses
    policies = []

    def keep_policy(b, m):
        rank_batch = trainer.model.rank_batch
        trainer.model.rank_batch = lambda *args: policies.append(rank_batch(*args)) or policies[-1]
        try:
            return built(b, m)
        finally:
            del trainer.model.rank_batch

    trainer.batch_losses = keep_policy
    record = trainer._apply_batch(batch, mode, 0)
    [policy] = policies
    logits, expected = policy.logits.data[:, 0], []
    for lo, hi in zip(np.cumsum([0] + policy.questions[:-1]), np.cumsum(policy.questions)):
        p = np.exp(logits[lo:hi] - logits[lo:hi].max())
        p /= p.sum()
        expected.append(-float(np.sum(p * np.log(p))))
    assert policy.questions == [4, 4, 4, 3]
    assert record["entropy"] == pytest.approx(np.mean(expected), rel=1e-12)


def test_r3_step_record_counts_rewards_by_kind():
    trainer = toy_trainer(seed=32)
    kinds = []
    reward = trainer_mod.best_reward

    def spy(golds, predicted):
        kinds.append(reward(golds, predicted).kind)
        return reward(golds, predicted)

    trainer_mod.best_reward, saved = spy, trainer_mod.best_reward
    try:
        records = [trainer._apply_batch(_mixed_batch(), "r3", step) for step in range(3)]
    finally:
        trainer_mod.best_reward = saved
    for i, record in enumerate(records):
        step_kinds = kinds[4 * i:4 * i + 4]
        assert record["rewards"] == {kind: step_kinds.count(kind)
                                     for kind in ("exact", "overlap", "miss")}


@pytest.mark.parametrize("mode", trainer_mod.MODES)
def test_attention_bias_gets_no_gradient_beyond_rounding(mode):
    # the attention softmax runs over question words and b_g adds the same
    # score to every question word of a passage word, so no output depends
    # on it; taken over the passage axis instead, b_g would get a gradient
    trainer = toy_trainer(seed=33, dropout=0.2, train_sample_k=3, min_negatives=1,
                          learning_rate=0.0)
    trainer._apply_batch(_mixed_batch(), mode, 0)
    grads = {name: grad_or_zero(p) for name, p in trainer.model.parameters().items()}
    largest = max(float(np.abs(g).max()) for name, g in grads.items() if name != "attn.b")
    assert largest > 0
    assert float(np.abs(grads["attn.b"]).max()) <= 1e-12 * largest


def test_step_index_counts_batches_without_a_record(example, caplog):
    trainer = toy_trainer(seed=9)
    build = trainer.batch_losses
    calls = []

    def poisoned_first(batch, mode):
        loss, reports = build(batch, mode)
        if not calls:
            loss = T.scale(loss, float("inf"))
        calls.append(mode)
        return loss, reports

    trainer.batch_losses = poisoned_first
    with np.errstate(invalid="ignore"):
        trainer.train([example], "r3", epochs=2)
    assert trainer.batches == 2 and trainer.nonfinite_steps == 1
    assert "step 0: non-finite gradient norm" in caplog.text
    assert [record["step"] for record in trainer.log] == [1]


def test_training_determinism_same_seed_same_log(example):
    logs = []
    for _ in range(2):
        trainer = toy_trainer(seed=10)
        trainer.train([example], "r3", epochs=3)
        logs.append(trainer.log)
    assert logs[0] == logs[1]


def test_reinforce_estimator_matches_enumeration(example):
    trainer = toy_trainer(seed=11)
    expectation, grads, probs, rewards = enumerate_policy_gradient(trainer, example)
    pos = sorted(probs)
    rng = np.random.default_rng(2024)
    draws = 4000
    counts = {tau: 0 for tau in pos}
    p_vec = np.array([probs[tau] for tau in pos])
    for _ in range(draws):
        counts[pos[int(rng.choice(len(pos), p=p_vec))]] += 1
    for name, exact in expectation.items():
        mc = sum(counts[tau] * grads[tau][name] for tau in pos) / draws
        var = sum(probs[tau] * (grads[tau][name] - exact) ** 2 for tau in pos)
        se = np.sqrt(var / draws)
        assert np.all(np.abs(mc - exact) <= 3 * se + 1e-12), name


# --- pretraining hand-off --------------------------------------------------------------

def test_pretrain_init_roundtrip(tmp_path, example):
    source = toy_trainer(seed=12)
    source.train([example], "sr2", epochs=2)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, source.model, source.table)

    target = toy_trainer(seed=99)
    model, _ = load_checkpoint(path, target.config)
    for name, p in source.model.parameters().items():
        assert np.array_equal(p.data, model.parameters()[name].data)


def test_pretrain_init_rejects_missing_parameter(tmp_path, example):
    source = toy_trainer(seed=13)
    source.model.params.pop("rank.W")
    path = tmp_path / "partial.json"
    save_checkpoint(path, source.model, source.table)
    target = toy_trainer(seed=14)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path, target.config)
    assert str(info.value) == f"{path}: ValueError: checkpoint is missing parameter 'rank.W'"


def test_pretrain_init_rejects_a_parameter_the_model_lacks(tmp_path):
    # before, a three-layer reader's checkpoint loaded into a two-layer
    # model, and agg_read.2.* was dropped silently
    source = toy_trainer(seed=13, reader_layers=3)
    path = tmp_path / "deep.json"
    save_checkpoint(path, source.model, source.table)
    target = toy_trainer(seed=14, reader_layers=2)
    before = target.model.export_values()
    with pytest.raises(ValueError) as info:
        load_checkpoint(path, target.config)
    assert str(info.value) == (
        f"{path}: ValueError: checkpoint has parameter 'agg_read.2.fwd.W' the model lacks")
    # load_checkpoint builds its own model; a model loaded into by hand keeps its values
    with pytest.raises(ValueError):
        target.model.load_values(source.model.export_values())
    for name, value in target.model.export_values().items():
        assert np.array_equal(value, before[name]), name


def test_pretrain_init_rejects_shape_mismatch(tmp_path):
    source = toy_trainer(seed=15)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, source.model, source.table)
    target = toy_trainer(seed=16, hidden_size=8)
    before = target.model.export_values()
    with pytest.raises(ValueError) as info:
        load_checkpoint(path, target.config)
    assert str(info.value).startswith(f"{path}: ShapeError: parameter 'enc.")
    # load_checkpoint builds its own model; a model loaded into by hand keeps its values
    with pytest.raises(T.ShapeError):
        target.model.load_values(source.model.export_values())
    _assert_values_bitwise_equal(target.model, before)

    # a checkpoint that fits but for one late parameter copies nothing either
    source.model.params["rank.W"] = T.Tensor(np.zeros((1, 1)))
    save_checkpoint(path, source.model, source.table)
    target = toy_trainer(seed=16)
    before = target.model.export_values()
    with pytest.raises(ValueError) as info:
        load_checkpoint(path, target.config)
    assert str(info.value) == (f"{path}: ShapeError: parameter 'rank.W': "
                               "checkpoint shape (1, 1) != model shape (6, 6)")
    with pytest.raises(T.ShapeError):
        target.model.load_values(source.model.export_values())
    _assert_values_bitwise_equal(target.model, before)


def _assert_values_bitwise_equal(model, values):
    assert list(model.parameters()) == list(values)
    for name, p in model.parameters().items():
        assert p.data.tobytes() == values[name].tobytes(), name


def test_sr2_then_r3_hands_off_to_a_fresh_trainer(example):
    # the hand-off equals sr2 in Trainer(seed), then r3 from a copy of those
    # weights in a new Trainer(seed + 1000), as the experiment defines it
    seed = 4
    pipeline = toy_trainer(seed=seed, dropout=0.2)
    sr2_values, r3 = trainer_mod.train_sr2_then_r3(
        pipeline.model, pipeline.table, pipeline.config, [example], seed, 2, 3)

    sr2 = toy_trainer(seed=seed, dropout=0.2)
    sr2.train([example], "sr2", epochs=2)
    copy = toy_trainer(seed=seed + 1000, dropout=0.2)
    copy.model.load_values(sr2.model.export_values())
    copy.train([example], "r3", epochs=3)

    for name, p in sr2.model.parameters().items():
        assert np.array_equal(sr2_values[name], p.data), name
    for name, p in copy.model.parameters().items():
        assert np.array_equal(r3.model.parameters()[name].data, p.data), name
    assert r3.log == [dict(rec, step=i) for i, rec in enumerate(sr2.log + copy.log)]
    assert r3.batches == 5 and r3.optimizer.t == 3


@pytest.mark.parametrize("mode", ["sr", "r3"])
def test_after_backward_only_parameters_hold_gradients(example, mode):
    trainer = toy_trainer(seed=4)
    total, _ = trainer.batch_losses([example, example], mode)
    T.backward(total)
    graph = T._toposort(total)
    assert [t for t in graph if t._backward is not None and t.grad is not None] == []
    reached = {id(t) for t in graph}
    for name, p in trainer.model.parameters().items():
        assert (p.grad is not None) == (id(p) in reached), name
    assert any(p.grad is None for p in trainer.model.parameters().values()) == (mode == "sr")
