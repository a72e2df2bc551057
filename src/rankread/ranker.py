"""Passage selection policy: scores matched passages and samples among positives."""

from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass
class PolicyDistribution:
    logits: T.Tensor  # (N, 1), pre-softmax scores
    passage_ids: list

    def probs(self):
        with T.no_grad():
            return T.softmax_cols(self.logits).data[:, 0]

    def index_of(self, passage_id):
        return self.passage_ids.index(passage_id)


def logit_head(x, w, b, w_out):
    """The (N, 1) logits w_out tanh(w x + b) of x's N columns, transposed: the
    ranker's head and each of the reader's pointer heads."""
    c = T.tanh(T.add_col(T.matmul(w, x), b))
    return T.transpose(T.matmul(w_out, c))


def score_passages(h_rank, widths, w_c, b_c, w_c_out, passage_ids=None):
    """Turn a block of rank representations into a selection distribution.

    h_rank holds the N passages side by side, widths wide. u_i = row-wise
    max pool of passage i's columns; c = tanh(w_c [u_1 | ... | u_N] + b_c);
    the logits are w_c_out c and gamma = softmax(w_c_out c), computed by
    `probs`. The heads act per column, so N is free to vary.
    """
    if not widths:
        raise T.ShapeError("score_passages: need at least one passage")
    logits = logit_head(T.segment_max(h_rank, widths), w_c, b_c, w_c_out)
    if passage_ids is None:
        passage_ids = list(range(len(widths)))
    return PolicyDistribution(logits, list(passage_ids))


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


def log_policy(policy, passage_id):
    """log of the selection probability for one passage, as a tensor."""
    return T.scale(T.neg_log_softmax_pick(policy.logits, policy.index_of(passage_id)), -1.0)
