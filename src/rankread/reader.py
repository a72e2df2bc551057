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
    start_logits: T.Tensor  # (1, V) rows; span_loss's softmax runs over all of a question's
    end_logits: T.Tensor    # words, extract_best_span's over each segment's own words
    segments: list    # one Segment per passage position, in order
    questions: list  # segments per question, consecutive

    def global_index(self, label):
        if not 0 <= label.passage < len(self.segments):
            raise KeyError(f"passage {label.passage} not in this distribution")
        seg = self.segments[label.passage]
        if not (0 <= label.start <= label.end < seg.length):
            raise ValueError(
                f"span [{label.start}, {label.end}] outside passage "
                f"{label.passage} of length {seg.length}")
        return seg.offset + label.start, seg.offset + label.end


def span_distributions(h_read, widths, w_s, b_s, ws_out, w_e, b_e, we_out, questions):
    """Start/end logits over the words of a block of passages, widths wide, in
    order; segment i is the passage at position i, and questions counts each
    question's passages.

    span_loss's softmax runs over all of a question's words, so probability
    mass is shared between its first passage and any appended negatives.
    """
    if not widths:
        raise T.ShapeError("span_distributions: need at least one passage")
    segments = [Segment(end - w, w) for w, end in zip(widths, accumulate(widths))]
    return SpanDistribution(logit_head(h_read, w_s, b_s, ws_out),
                            logit_head(h_read, w_e, b_e, we_out), segments, questions)


def span_loss(dist, labels):
    """Each question's -log p_start(label) - log p_end(label), fused with the
    softmax over the question's words, as an (n, 1) tensor; labels[i] names
    one of question i's passages."""
    sizes, starts, ends = [], [], []
    first = 0
    for count, label in zip(dist.questions, labels, strict=True):
        gs, ge = dist.global_index(label)
        if not first <= label.passage < first + count:
            raise KeyError(f"passage {label.passage} is not one of question {len(sizes)}'s")
        sizes.append(sum(seg.length for seg in dist.segments[first:first + count]))
        starts.append([gs])
        ends.append([ge])
        first += count
    return T.add(T.neg_log_softmax_mean(dist.start_logits, sizes, starts),
                 T.neg_log_softmax_mean(dist.end_logits, sizes, ends))


def _log_prob_grids(dist, width):
    """(2, P, width) grids of each segment's start and end word log-probs
    under a log-softmax over that segment's own words, -inf past its end.

    The masked sum adds each row's words as one contiguous run, which gives
    the bits of that segment's own 1-D sum; a sum over the zero-padded row,
    or over a strided one, rounds differently."""
    offsets, lengths = np.array([(seg.offset, seg.length) for seg in dist.segments]).T
    cols = np.arange(width)
    valid = cols < lengths[:, None]
    a = np.concatenate([dist.start_logits.data, dist.end_logits.data])  # (2, V)
    index = np.minimum(offsets[:, None] + cols, a.shape[1] - 1)
    # take, unlike a[:, index], gives C order
    a = np.where(valid, np.take(a, index, axis=1), -np.inf)
    m = a.max(axis=-1, keepdims=True)
    total = np.add.reduce(np.exp(a - m), axis=-1, keepdims=True, where=valid)
    return a - (m + np.log(total))


def extract_best_span(dist, max_len):
    """Best (start, end) pair by log p_start + log p_end within each passage segment.

    Returns one (label, log-prob) per segment, in segment order; the label
    names its passage by the segment's position in dist.segments. Spans never
    cross segment boundaries and cover at most max_len tokens. Scores come
    from each segment's own log-softmax of the logits, so a segment's spans
    do not depend on the others in dist, and a span keeps a finite score when
    its probabilities underflow. Ties break toward the smaller start, then the
    smaller end.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    longest = max(seg.length for seg in dist.segments)
    width = min(max_len, longest)
    # scores[p, i, k] is segment p's span starting at token i and ending at
    # i + k; the grids run width - 1 words past the longest segment, all -inf
    ls, le = _log_prob_grids(dist, longest + width - 1)
    ends = np.arange(longest)[:, None] + np.arange(width)
    scores = (ls[:, :longest, None] + le[:, ends]).reshape(len(dist.segments), -1)
    flat = scores.argmax(axis=1)  # row-major: first hit has the smallest start, then end
    best = scores[np.arange(len(flat)), flat].tolist()
    starts, extra = np.divmod(flat, width)
    return [(SpanLabel(p, i, i + k), score)
            for p, (i, k, score) in enumerate(zip(starts.tolist(), extra.tolist(), best))]
