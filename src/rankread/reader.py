"""Span reader: start/end logits over concatenated passage words."""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import tensor as T
from .ranker import logit_head


@dataclass(frozen=True)
class SpanLabel:
    passage: int  # position of the passage's segment in the distribution
    start: int  # token offsets within the passage, end inclusive
    end: int


@dataclass
class Segment:
    offset: int  # position of the passage's first word on the concatenated axis
    length: int


@dataclass
class SpanDistribution:
    start_logits: T.Tensor  # (V, 1); softmax runs over all V concatenated words
    end_logits: T.Tensor
    segments: list    # one Segment per passage position, in order

    def global_index(self, label):
        if not 0 <= label.passage < len(self.segments):
            raise KeyError(f"passage {label.passage} not in this distribution")
        seg = self.segments[label.passage]
        if not (0 <= label.start <= label.end < seg.length):
            raise ValueError(
                f"span [{label.start}, {label.end}] outside passage "
                f"{label.passage} of length {seg.length}")
        return seg.offset + label.start, seg.offset + label.end


def span_distributions(h_read, widths, w_s, b_s, ws_out, w_e, b_e, we_out):
    """Start/end logits over the words of a block of passages, widths wide, in
    order; segment i is the passage at position i.

    The softmax runs over the full concatenated axis, so probability mass is
    shared between the first passage and any appended negatives.
    """
    if not widths:
        raise T.ShapeError("span_distributions: need at least one passage")
    segments = [Segment(end - w, w) for w, end in zip(widths, accumulate(widths))]
    return SpanDistribution(logit_head(h_read, w_s, b_s, ws_out),
                            logit_head(h_read, w_e, b_e, we_out), segments)


def span_loss(dist, label):
    """-log p_start(label) - log p_end(label), fused with the softmax."""
    gs, ge = dist.global_index(label)
    return T.add(T.neg_log_softmax_mean(dist.start_logits, [gs]),
                 T.neg_log_softmax_mean(dist.end_logits, [ge]))


def _log_softmax(logits):
    a = logits.data[:, 0]
    m = a.max()
    return a - (m + np.log(np.exp(a - m).sum()))


def extract_best_span(dist, max_len):
    """Best (start, end) pair by log p_start + log p_end within one passage segment.

    Spans never cross segment boundaries and cover at most max_len tokens.
    The label names its passage by the segment's position in dist.segments.
    Scores come from the log-softmax of the logits, so a span keeps a finite
    score when its probabilities underflow. Ties break toward the smaller
    start, then the smaller end. Returns the label and the span's log-prob.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    ls = _log_softmax(dist.start_logits)
    le = _log_softmax(dist.end_logits)
    best, best_score = None, -np.inf
    for passage, seg in enumerate(dist.segments):
        lo, length = seg.offset, seg.length
        width = min(max_len, length)
        # scores[i, k] is the span starting at token i and ending at i + k
        ends = np.arange(length)[:, None] + np.arange(width)[None, :]
        inside = ends < length
        scores = ls[lo:lo + length, None] + le[lo + np.minimum(ends, length - 1)]
        scores[~inside] = -np.inf
        flat = int(scores.argmax())  # row-major: first hit has the smallest start, then end
        if best is None or scores.flat[flat] > best_score:
            i, k = divmod(flat, width)
            best, best_score = SpanLabel(passage, i, i + k), float(scores.flat[flat])
    if best is None:
        raise ValueError("extract_best_span: no candidate span")
    return best, best_score
