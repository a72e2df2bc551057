import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import enumerate_policy_gradient, toy_example, toy_trainer

from rankread import tensor as T
from rankread import trainer as trainer_mod
from rankread.ranker import PolicyDistribution
from rankread.retrieval import RetrievedPassage, RetrievedSet


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
    return PolicyDistribution(logits, T.softmax_cols(logits), list(range(len(gamma))))


def test_kl_zero_when_gamma_matches_targets():
    pol = policy_from_gamma([0.5, 0.5])
    assert trainer_mod.kl_rank_loss(pol, {0, 1}).item() == pytest.approx(0.0, abs=1e-12)


def test_kl_single_positive_half_mass():
    pol = policy_from_gamma([0.5, 0.5])
    assert trainer_mod.kl_rank_loss(pol, {0}).item() == pytest.approx(math.log(2), abs=1e-12)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        gamma = rng.dirichlet(np.ones(4))
        pol = policy_from_gamma(gamma)
        assert trainer_mod.kl_rank_loss(pol, {0, 2}).item() >= -1e-12


def test_kl_requires_positive():
    with pytest.raises(ValueError):
        trainer_mod.kl_rank_loss(policy_from_gamma([1.0]), set())


def test_kl_gradient_fd():
    logits = T.Tensor(np.random.default_rng(1).normal(size=(4, 1)), requires_grad=True)

    def build():
        pol = PolicyDistribution(logits, T.softmax_cols(logits), [0, 1, 2, 3])
        return trainer_mod.kl_rank_loss(pol, {1, 3})

    assert T.fd_check(build, [logits]) < 1e-4


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
    original = trainer.example_losses

    def spy(example, mode):
        seen.append(example.question_id)
        return original(example, mode)

    trainer.example_losses = spy
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
    report = trainer.example_losses(ex, "r3")
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
    build = trainer.example_losses

    def poisoned(ex, mode):
        report = build(ex, mode)
        report["loss"] = T.scale(report["loss"], float("inf"))
        return report

    trainer.example_losses = poisoned
    assert trainer._apply_batch([example], "r3", 4) is None
    assert trainer.optimizer.t == 0 and trainer.nonfinite_steps == 1 and trainer.log == []
    after = trainer.model.export_values()
    assert all(np.array_equal(before[name], after[name]) for name in before)
    assert "step 4: non-finite gradient norm" in caplog.text
    trainer.example_losses = build
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


@pytest.mark.parametrize("mode", trainer_mod.MODES)
def test_example_without_positive_passage_raises(example, mode):
    example.question_id = "q-none"
    example.spans = {}
    with pytest.raises(ValueError, match="q-none: example has no positive passage"):
        toy_trainer(seed=0).example_losses(example, mode)


def test_sr2_example_tape_stays_small(example):
    # one tape node per LSTM direction, layer and length group, and no
    # reordering or split-and-rejoin between the layers of a stack. The
    # per-step composition recorded 1868 nodes for this example, the fused op
    # with per-layer reshuffling 176, one layout through each stack 153.
    report = toy_trainer(seed=0).example_losses(example, "sr2")
    assert _tape_size(report["loss"]) < 160


def test_step_index_counts_batches_without_a_record(example, caplog):
    trainer = toy_trainer(seed=9)
    build = trainer.example_losses
    calls = []

    def poisoned_first(ex, mode):
        report = build(ex, mode)
        if not calls:
            report["loss"] = T.scale(report["loss"], float("inf"))
        calls.append(mode)
        return report

    trainer.example_losses = poisoned_first
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

def test_pretrain_init_roundtrip_and_reset(tmp_path, example):
    source = toy_trainer(seed=12)
    source.train([example], "sr2", epochs=2)
    path = tmp_path / "ckpt.json"
    T.save_checkpoint(path, source.model.parameters(), optimizer=source.optimizer,
                      extra={"mode": "sr2"})

    target = toy_trainer(seed=99)
    extra = trainer_mod.pretrain_init(target.model, path, target.optimizer)
    assert extra == {"mode": "sr2"}
    assert target.optimizer.t == 0
    for name, p in source.model.parameters().items():
        assert np.array_equal(p.data, target.model.parameters()[name].data)


def test_pretrain_init_rejects_missing_parameter(tmp_path, example):
    source = toy_trainer(seed=13)
    params = dict(source.model.parameters())
    params.pop("rank.W")
    path = tmp_path / "partial.json"
    T.save_checkpoint(path, params)
    target = toy_trainer(seed=14)
    with pytest.raises(KeyError, match="rank.W"):
        trainer_mod.pretrain_init(target.model, path)


def test_pretrain_init_rejects_shape_mismatch(tmp_path):
    source = toy_trainer(seed=15)
    path = tmp_path / "ckpt.json"
    T.save_checkpoint(path, source.model.parameters())
    target = toy_trainer(seed=16, hidden_size=8)
    with pytest.raises(T.ShapeError, match="enc"):
        trainer_mod.pretrain_init(target.model, path)


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
