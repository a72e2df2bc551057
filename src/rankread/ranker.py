"""Passage selection policy: scores matched passages and samples among positives."""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import tensor as T


@dataclass
class PolicyDistribution:
    logits: T.Tensor  # (N, 1), pre-softmax scores, one row per passage position
    questions: list  # rows per question, consecutive

    def _rows(self):
        """Each question's logits, as a (rows, 1) array."""
        return [self.logits.data[end - n:end]
                for n, end in zip(self.questions, accumulate(self.questions))]

    def probs(self):
        """gamma: each question's softmax over its own rows, side by side."""
        return np.concatenate([T._softmax(rows, 0)[:, 0] for rows in self._rows()])

    def entropies(self):
        """Each question's policy entropy in nats, from a log-softmax of its rows."""
        out = []
        for rows in self._rows():
            z = rows[:, 0] - rows.max()
            log_p = z - np.log(np.exp(z).sum())
            out.append(-float((np.exp(log_p) * log_p).sum()))
        return out


def logit_head(x, w, b, w_out):
    """The (N, 1) logits w_out tanh(w x + b) of x's N columns, transposed: the
    ranker's head and each of the reader's pointer heads."""
    c = T.tanh(T.add_col(T.matmul(w, x), b))
    return T.transpose(T.matmul(w_out, c))


def score_passages(h_rank, widths, w_c, b_c, w_c_out, questions):
    """Turn a block of rank representations into a selection distribution
    over the passages' positions in the block.

    h_rank holds the N passages side by side, widths wide. u_i = row-wise
    max pool of passage i's columns; c = tanh(w_c [u_1 | ... | u_N] + b_c);
    the logits are w_c_out c and gamma = softmax(w_c_out c), taken per
    question (questions counts each one's passages) by `probs`. The heads
    act per column, so N is free to vary.
    """
    if not widths:
        raise T.ShapeError("score_passages: need at least one passage")
    return PolicyDistribution(logit_head(T.segment_max(h_rank, widths), w_c, b_c, w_c_out),
                              questions)


def sample_passage(gamma, positives, rng):
    """Draw one passage position from gamma restricted to the positive
    positions and renormalized (the law of rejection-sampling gamma until a
    positive comes up). gamma is one question's probabilities, a slice of
    `PolicyDistribution.probs`, and the positives index into it."""
    pos = sorted(positives)
    if not pos:
        raise ValueError("sample_passage: no positive passage to sample from")
    weights = gamma[pos]
    weights = weights / weights.sum()
    return pos[int(rng.choice(len(pos), p=weights))]


def log_policy(policy, positions):
    """log of each question's selection probability of the passage at its
    position (positions[i] is question i's), as an (n, 1) tensor."""
    return T.scale(T.neg_log_softmax_mean(policy.logits, policy.questions,
                                          [[p] for p in positions]), -1.0)
