"""Passage selection policy: scores matched passages and samples among positives."""

from dataclasses import dataclass

from . import tensor as T


@dataclass
class PolicyDistribution:
    logits: T.Tensor  # (N, 1), pre-softmax scores, one row per passage position

    def probs(self):
        with T.no_grad():
            return T.softmax_cols(self.logits).data[:, 0]


def logit_head(x, w, b, w_out):
    """The (N, 1) logits w_out tanh(w x + b) of x's N columns, transposed: the
    ranker's head and each of the reader's pointer heads."""
    c = T.tanh(T.add_col(T.matmul(w, x), b))
    return T.transpose(T.matmul(w_out, c))


def score_passages(h_rank, widths, w_c, b_c, w_c_out):
    """Turn a block of rank representations into a selection distribution
    over the passages' positions in the block.

    h_rank holds the N passages side by side, widths wide. u_i = row-wise
    max pool of passage i's columns; c = tanh(w_c [u_1 | ... | u_N] + b_c);
    the logits are w_c_out c and gamma = softmax(w_c_out c), computed by
    `probs`. The heads act per column, so N is free to vary.
    """
    if not widths:
        raise T.ShapeError("score_passages: need at least one passage")
    return PolicyDistribution(logit_head(T.segment_max(h_rank, widths), w_c, b_c, w_c_out))


def sample_passage(policy, positives, rng):
    """Draw one passage position from gamma restricted to the positive
    positions and renormalized (the law of rejection-sampling gamma until a
    positive comes up)."""
    pos = sorted(positives)
    if not pos:
        raise ValueError("sample_passage: no positive passage to sample from")
    weights = policy.probs()[pos]
    weights = weights / weights.sum()
    return pos[int(rng.choice(len(pos), p=weights))]


def log_policy(policy, position):
    """log of the selection probability of the passage at one position, as a tensor."""
    return T.scale(T.neg_log_softmax_mean(policy.logits, [position]), -1.0)
