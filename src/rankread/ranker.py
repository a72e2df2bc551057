"""Passage selection policy: scores matched passages and samples among positives."""

from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass
class PolicyDistribution:
    logits: T.Tensor  # (N, 1), pre-softmax scores
    gamma: T.Tensor   # (N, 1), selection probabilities
    passage_ids: list

    def probs(self):
        return self.gamma.data[:, 0]

    def index_of(self, passage_id):
        return self.passage_ids.index(passage_id)


def score_passages(h_ranks, w_c, b_c, w_c_out, passage_ids=None):
    """Turn per-passage rank representations into a selection distribution.

    u_i = row-wise max pool of h_ranks[i]; c = tanh(w_c [u_1 | ... | u_N] + b_c);
    gamma = softmax(w_c_out c). The heads act per column, so N is free to vary.
    """
    if not h_ranks:
        raise T.ShapeError("score_passages: need at least one passage")
    pooled = T.concat_cols([T.row_max(h) for h in h_ranks])
    c = T.tanh(T.add_col(T.matmul(w_c, pooled), b_c))
    logits = T.transpose(T.matmul(w_c_out, c))
    gamma = T.softmax_cols(logits)
    if passage_ids is None:
        passage_ids = list(range(len(h_ranks)))
    return PolicyDistribution(logits, gamma, list(passage_ids))


def sample_passage(policy, positives, rng):
    """Draw one passage id from gamma restricted to the positive ids and
    renormalized (the law of rejection-sampling gamma until a positive comes up)."""
    pos = [pid for pid in policy.passage_ids if pid in positives]
    if not pos:
        raise ValueError("sample_passage: no positive passage to sample from")
    probs = policy.probs()
    weights = np.array([probs[policy.index_of(pid)] for pid in pos])
    weights = weights / weights.sum()
    return pos[int(rng.choice(len(pos), p=weights))]


def conditional_positive_probs(policy, positives):
    """gamma restricted to the positive ids, renormalized; keyed by passage id."""
    probs = policy.probs()
    pos = [pid for pid in policy.passage_ids if pid in positives]
    mass = sum(probs[policy.index_of(pid)] for pid in pos)
    return {pid: probs[policy.index_of(pid)] / mass for pid in pos}


def log_policy(policy, passage_id):
    """log of the selection probability for one passage, as a tensor."""
    return T.scale(T.neg_log_softmax_pick(policy.logits, policy.index_of(passage_id)), -1.0)
