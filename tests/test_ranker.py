import math

import numpy as np
import pytest

from conftest import conditional_positive_probs

from rankread import ranker
from rankread import tensor as T


def random_policy(seed, n, l=4):
    rng = np.random.default_rng(seed)
    h_ranks = [T.Tensor(rng.normal(size=(l, rng.integers(2, 6)))) for _ in range(n)]
    w_c = T.Tensor(rng.normal(size=(l, l)))
    b_c = T.Tensor(rng.normal(size=(l, 1)))
    w_out = T.Tensor(rng.normal(size=(1, l)))
    return (ranker.score_passages(*_block(h_ranks), w_c, b_c, w_out, [n]), h_ranks,
            (w_c, b_c, w_out))


def _block(h_ranks):
    """The passages side by side, and their widths."""
    return T.concat_cols(h_ranks), [h.data.shape[1] for h in h_ranks]


def test_identical_passages_give_uniform_gamma():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(4, 5))
    pol, _, _ = random_policy(0, 1)
    h_ranks = [T.Tensor(h.copy()) for _ in range(4)]
    w_c = T.Tensor(rng.normal(size=(4, 4)))
    b_c = T.Tensor(rng.normal(size=(4, 1)))
    w_out = T.Tensor(rng.normal(size=(1, 4)))
    pol = ranker.score_passages(*_block(h_ranks), w_c, b_c, w_out, [4])
    assert np.allclose(pol.probs(), 0.25, atol=1e-12)


def test_single_passage_gamma_is_one():
    pol, _, _ = random_policy(1, 1)
    assert pol.probs().shape == (1,)
    assert pol.probs()[0] == pytest.approx(1.0)


def test_empty_input_rejected():
    with pytest.raises(T.ShapeError):
        ranker.score_passages(T.Tensor(np.zeros((4, 0))), [], None, None, None, [0])


def test_tiny_instance_matches_hand_computation():
    # l=2, N=2, fixed weights; oracle applies max-pool, tanh, softmax by hand.
    h1 = T.Tensor([[0.1, 0.4], [-0.2, 0.3]])
    h2 = T.Tensor([[0.0, -0.1], [0.5, 0.2]])
    w_c = T.Tensor([[1.0, -1.0], [0.5, 2.0]])
    b_c = T.Tensor([[0.1], [-0.3]])
    w_out = T.Tensor([[2.0, 1.0]])
    pol = ranker.score_passages(*_block([h1, h2]), w_c, b_c, w_out, [2])

    u1 = [max(0.1, 0.4), max(-0.2, 0.3)]
    u2 = [max(0.0, -0.1), max(0.5, 0.2)]
    c1 = [math.tanh(1.0 * u1[0] - 1.0 * u1[1] + 0.1), math.tanh(0.5 * u1[0] + 2.0 * u1[1] - 0.3)]
    c2 = [math.tanh(1.0 * u2[0] - 1.0 * u2[1] + 0.1), math.tanh(0.5 * u2[0] + 2.0 * u2[1] - 0.3)]
    s1 = 2.0 * c1[0] + 1.0 * c1[1]
    s2 = 2.0 * c2[0] + 1.0 * c2[1]
    z = math.exp(s1) + math.exp(s2)
    assert pol.probs()[0] == pytest.approx(math.exp(s1) / z, abs=1e-9)
    assert pol.probs()[1] == pytest.approx(math.exp(s2) / z, abs=1e-9)


def test_gamma_sums_to_one_and_positive():
    for seed in range(30):
        pol, _, _ = random_policy(seed, int(np.random.default_rng(seed).integers(1, 8)))
        assert np.all(pol.probs() > 0)
        assert pol.probs().sum() == pytest.approx(1.0, abs=1e-9)


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    l, n = 4, 5
    h_ranks = [T.Tensor(rng.normal(size=(l, rng.integers(2, 6)))) for _ in range(n)]
    w_c = T.Tensor(rng.normal(size=(l, l)))
    b_c = T.Tensor(rng.normal(size=(l, 1)))
    w_out = T.Tensor(rng.normal(size=(1, l)))
    base = ranker.score_passages(*_block(h_ranks), w_c, b_c, w_out, [n]).probs()
    perm = rng.permutation(n)
    permuted = ranker.score_passages(*_block([h_ranks[i] for i in perm]), w_c, b_c,
                                     w_out, [n]).probs()
    assert np.allclose(permuted, base[perm], atol=1e-9)


def test_sampling_single_positive_always_selected():
    pol, _, _ = random_policy(6, 4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert ranker.sample_passage(pol, {2}, rng) == 2


def test_sampling_frequencies_match_conditional_law():
    # gamma [0.2, 0.3, 0.5], positives {0, 2}: conditional probs 2/7 and 5/7.
    logits = T.Tensor(np.log([[0.2], [0.3], [0.5]]))
    pol = ranker.PolicyDistribution(logits, [3])
    rng = np.random.default_rng(123)
    draws = 100_000
    hits = sum(1 for _ in range(draws) if ranker.sample_passage(pol, {0, 2}, rng) == 0)
    p = 2.0 / 7.0
    sigma = math.sqrt(p * (1 - p) / draws)
    assert abs(hits / draws - p) < 3 * sigma
    # chi-square goodness of fit against the conditional law (df=1, alpha=0.01)
    expected = np.array([p * draws, (1 - p) * draws])
    observed = np.array([hits, draws - hits])
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < 6.635


def test_sampling_uniform_over_all_positives():
    logits = T.Tensor(np.zeros((4, 1)))
    pol = ranker.PolicyDistribution(logits, [4])
    cond = conditional_positive_probs(pol, {0, 1, 2, 3})
    assert all(v == pytest.approx(0.25) for v in cond.values())


def test_sampling_requires_positives_in_train_mode():
    pol, _, _ = random_policy(7, 3)
    with pytest.raises(ValueError, match="positive"):
        ranker.sample_passage(pol, set(), np.random.default_rng(0))


def test_log_policy_values():
    logits = T.Tensor(np.log([[0.5], [0.5]]))
    pol = ranker.PolicyDistribution(logits, [2])
    assert ranker.log_policy(pol, [0]).item() == pytest.approx(math.log(0.5), abs=1e-12)
    sure = ranker.PolicyDistribution(T.Tensor([[100.0], [-100.0]]), [2])
    assert ranker.log_policy(sure, [0]).item() == pytest.approx(0.0, abs=1e-12)


def test_log_policy_gradient_is_onehot_minus_gamma():
    logits = T.Tensor([[0.4], [-0.3], [1.1]], requires_grad=True)
    pol = ranker.PolicyDistribution(logits, [3])
    T.backward(ranker.log_policy(pol, [2]))
    onehot = np.array([[0.0], [0.0], [1.0]])
    assert np.allclose(logits.grad, onehot - pol.probs()[:, None], atol=1e-12)



def test_a_batch_policy_normalizes_each_question_over_its_own_rows():
    # probabilities, log-policies and entropies of a three-question policy
    # are each question's own, bit for bit
    rng = np.random.default_rng(14)
    questions = [2, 3, 1]
    data = rng.normal(size=(6, 1)) * 3
    batch = ranker.PolicyDistribution(T.Tensor(data, requires_grad=True), questions)
    starts = np.cumsum([0] + questions[:-1])
    alone = [ranker.PolicyDistribution(T.Tensor(data[lo:lo + n], requires_grad=True), [n])
             for lo, n in zip(starts, questions)]
    assert np.array_equal(batch.probs(), np.concatenate([pol.probs() for pol in alone]))
    for own, pol in zip(batch.per_question(), alone):
        assert np.array_equal(own.probs(), pol.probs())
    assert batch.entropies() == [pol.entropies()[0] for pol in alone]
    positions = [1, 3, 5]
    log_pi = ranker.log_policy(batch, positions)
    assert log_pi.data.shape == (3, 1)
    for i, (pol, lo) in enumerate(zip(alone, starts)):
        assert log_pi.data[i, 0] == ranker.log_policy(pol, [positions[i] - lo]).item()


def test_policy_entropy_is_log_n_when_uniform_and_zero_when_sure():
    uniform = ranker.PolicyDistribution(T.Tensor(np.zeros((5, 1))), [2, 3])
    assert uniform.entropies() == pytest.approx([math.log(2), math.log(3)], rel=1e-12)
    sure = ranker.PolicyDistribution(T.Tensor([[800.0], [-800.0]]), [2])
    assert sure.entropies() == [0.0]
