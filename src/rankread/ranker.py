"""Passage selection policy: scores matched passages and samples among positives."""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import tensor as T


@dataclass
class PolicyDistribution:
    logits: T.Tensor  # (1, N) row of pre-softmax scores, one entry per passage position
    questions: list  # positions per question, consecutive

    def _segments(self):
        """Each question's logits, as a 1-D array."""
        row = self.logits.data[0]
        return [row[end - n:end] for n, end in zip(self.questions, accumulate(self.questions))]

    def probs(self):
        """gamma: each question's softmax over its own positions, side by side."""
        return np.concatenate([T._softmax(seg, 0) for seg in self._segments()])

    def entropies(self):
        """Each question's policy entropy in nats, from a log-softmax of its logits."""
        out = []
        for seg in self._segments():
            z = seg - seg.max()
            log_p = z - np.log(np.exp(z).sum())
            out.append(-float((np.exp(log_p) * log_p).sum()))
        return out


def logit_head(x, w, b, w_out):
    """The (1, N) row of logits w_out tanh(w x + b) of x's N columns: the
    ranker's head and each of the reader's pointer heads."""
    return T.matmul(w_out, T.tanh(T.add_col(T.matmul(w, x), b)))


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

