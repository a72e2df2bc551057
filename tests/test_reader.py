import math
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from rankread import reader
from rankread import tensor as T

from conftest import softmax_row


def make_heads(seed, l):
    rng = np.random.default_rng(seed)
    return tuple(T.Tensor(rng.normal(size=s)) for s in
                 [(l, l), (l, 1), (1, l), (l, l), (l, 1), (1, l)])


def make_dist(seed, widths, l=4):
    rng = np.random.default_rng(seed)
    h_reads = [T.Tensor(rng.normal(size=(l, w))) for w in widths]
    return reader.span_distributions(T.concat_cols(h_reads), widths, *make_heads(seed + 1, l),
                                     [len(widths)])


def test_single_one_word_passage():
    dist = make_dist(0, [1])
    assert dist.start_logits.data.shape == (1, 1)
    assert softmax_row(dist.start_logits).data[0, 0] == pytest.approx(1.0)
    assert softmax_row(dist.end_logits).data[0, 0] == pytest.approx(1.0)


def test_two_identical_passages_symmetric():
    rng = np.random.default_rng(1)
    h = rng.normal(size=(4, 3))
    heads = make_heads(2, 4)
    dist = reader.span_distributions(T.Tensor(np.hstack([h, h])), [3, 3], *heads, [2])
    ps, pe = softmax_row(dist.start_logits).data, softmax_row(dist.end_logits).data
    assert np.allclose(ps[:3], ps[3:], atol=1e-12)
    assert np.allclose(pe[:3], pe[3:], atol=1e-12)


def _pointer_reference(h_cat, w, b, w_out):
    """Scalar-loop recomputation of one pointer head."""
    l, v = h_cat.shape
    logits = np.zeros(v)
    for col in range(v):
        f = [math.tanh(sum(w[r, k] * h_cat[k, col] for k in range(l)) + b[r, 0]) for r in range(l)]
        logits[col] = sum(w_out[0, r] * f[r] for r in range(l))
    e = np.exp(logits - logits.max())
    return e / e.sum()


def test_span_distributions_match_scalar_loop_reference():
    rng = np.random.default_rng(3)
    l = 4
    h_reads = [T.Tensor(rng.normal(size=(l, w))) for w in (3, 2)]
    heads = make_heads(4, l)
    dist = reader.span_distributions(T.concat_cols(h_reads), [3, 2], *heads, [2])
    h_cat = np.concatenate([h.data for h in h_reads], axis=1)
    ws, bs, ws_out, we, be, we_out = heads
    assert np.allclose(softmax_row(dist.start_logits).data[:, 0],
                       _pointer_reference(h_cat, ws.data, bs.data, ws_out.data), atol=1e-12)
    assert np.allclose(softmax_row(dist.end_logits).data[:, 0],
                       _pointer_reference(h_cat, we.data, be.data, we_out.data), atol=1e-12)


def test_distributions_sum_to_one():
    for seed in range(25):
        widths = list(np.random.default_rng(seed).integers(1, 5, size=3))
        dist = make_dist(seed, widths)
        assert softmax_row(dist.start_logits).data.sum() == pytest.approx(1.0, abs=1e-9)
        assert softmax_row(dist.end_logits).data.sum() == pytest.approx(1.0, abs=1e-9)


def test_span_loss_zero_when_mass_on_label():
    logits = T.Tensor([[50.0, -50.0, -50.0]])
    dist = reader.SpanDistribution(logits, logits, [reader.Segment(0, 3)], [1])
    loss = reader.span_loss(dist, [reader.SpanLabel(0, 0, 0)])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_span_loss_half_half_is_two_log_two():
    logits = T.Tensor([[0.0, 0.0]])
    dist = reader.SpanDistribution(logits, logits, [reader.Segment(0, 2)], [1])
    loss = reader.span_loss(dist, [reader.SpanLabel(0, 1, 1)])
    assert loss.item() == pytest.approx(2 * math.log(2), abs=1e-12)


def test_span_loss_rejects_label_outside_segment():
    dist = make_dist(5, [3, 2])
    with pytest.raises(ValueError, match="outside"):
        reader.span_loss(dist, [reader.SpanLabel(1, 0, 3)])


@pytest.mark.parametrize("passage", [-1, 2])
def test_span_loss_rejects_a_passage_outside_the_distribution(passage):
    dist = make_dist(5, [3, 2])
    with pytest.raises(KeyError, match=f"passage {passage} not in this distribution"):
        reader.span_loss(dist, [reader.SpanLabel(passage, 0, 0)])


def test_span_loss_gradient_fd():
    rng = np.random.default_rng(6)
    l = 3
    heads = [T.Tensor(rng.normal(size=s), requires_grad=True) for s in
             [(l, l), (l, 1), (1, l), (l, l), (l, 1), (1, l)]]
    h_reads_data = [rng.normal(size=(l, 3)), rng.normal(size=(l, 2))]

    def build():
        dist = reader.span_distributions(T.Tensor(np.hstack(h_reads_data)), [3, 2], *heads, [2])
        return reader.span_loss(dist, [reader.SpanLabel(0, 1, 2)])

    assert T.fd_check(build, heads) < 1e-4


def _uniform_dist(widths):
    v = sum(widths)
    logits = T.Tensor(np.zeros((1, v)))
    segs, off = [], 0
    for w in widths:
        segs.append(reader.Segment(off, w))
        off += w
    return reader.SpanDistribution(logits, logits, segs, [len(segs)])


def _own(dist, passage):
    """Segment passage of dist as a distribution of its own: its logits alone,
    so span_loss normalizes over its words only."""
    seg = dist.segments[passage]
    words = slice(seg.offset, seg.offset + seg.length)
    return reader.SpanDistribution(T.Tensor(dist.start_logits.data[:, words]),
                                   T.Tensor(dist.end_logits.data[:, words]),
                                   [reader.Segment(0, seg.length)], [1])


def test_extract_concentrated_mass():
    sl = np.full((1, 5), -30.0)
    el = np.full((1, 5), -30.0)
    sl[0, 2] = 5.0
    el[0, 3] = 5.0
    dist = reader.SpanDistribution(T.Tensor(sl), T.Tensor(el), [reader.Segment(0, 5)], [1])
    label, _ = reader.extract_best_span(dist, 4)[0]
    assert (label.start, label.end) == (2, 3)


def test_extract_uniform_ties_to_first_position():
    spans = reader.extract_best_span(_uniform_dist([3, 2]), 4)
    assert [(label.passage, label.start, label.end) for label, _ in spans] == \
        [(0, 0, 0), (1, 0, 0)]


def _brute_force_best(dist, max_len):
    """Each segment's best (passage, start, end) by p_start * p_end under a
    softmax over that segment's own words."""
    bests = []
    for passage in range(len(dist.segments)):
        own = _own(dist, passage)
        ps = softmax_row(own.start_logits).data[:, 0]
        pe = softmax_row(own.end_logits).data[:, 0]
        best, best_score = None, -1.0
        for i in range(len(ps)):
            for j in range(i, min(i + max_len, len(ps))):
                if ps[i] * pe[j] > best_score:
                    best_score = ps[i] * pe[j]
                    best = (passage, i, j)
        bests.append(best)
    return bests


@pytest.mark.parametrize("max_len", [1, 4, 15])
def test_extract_matches_exhaustive_enumeration(max_len):
    for seed in range(30):
        widths = list(np.random.default_rng(seed).integers(1, 6, size=3))
        dist = make_dist(seed + 100, widths)
        labels = [label for label, _ in reader.extract_best_span(dist, max_len)]
        assert [(label.passage, label.start, label.end) for label in labels] == \
            _brute_force_best(dist, max_len)
        assert all(label.end - label.start < max_len for label in labels)


def test_extract_restricted_to_one_passage():
    # r3 extracts from a one-segment view of a block: the best span of
    # passage 1, with the label and score the whole block's call gives it,
    # bit for bit, under passage 1's own log-softmax
    for seed in range(10):
        dist = make_dist(seed + 300, [3, 4, 2])
        one = replace(dist, segments=dist.segments[1:2])
        [(label, logp)] = reader.extract_best_span(one, 3)
        assert label.passage == 0
        assert _brute_force_best(one, 3) == [(0, label.start, label.end)]
        whole, whole_logp = reader.extract_best_span(dist, 3)[1]
        assert (label, logp) == (replace(whole, passage=0), whole_logp)
        loss = reader.span_loss(_own(dist, 1), [label])
        assert math.exp(-loss.item()) == pytest.approx(math.exp(logp), rel=1e-12)


def test_exp_of_loss_at_argmax_equals_span_probability():
    for seed in range(10):
        dist = make_dist(seed + 200, [3, 2, 4])
        for passage, (label, logp) in enumerate(reader.extract_best_span(dist, 4)):
            loss = reader.span_loss(_own(dist, passage), [replace(label, passage=0)])
            assert math.exp(-loss.item()) == pytest.approx(math.exp(logp), rel=1e-12)


def test_extract_scores_in_log_space_when_probabilities_underflow():
    # p_start * p_end underflows to 0 for every span, so a product score
    # cannot tell the spans apart; the log-space score still finds (4, 4)
    sl = np.zeros((1, 6))
    el = np.zeros((1, 6))
    sl[0, 4] = 1001.0
    el[0, 1] = 1000.0
    dist = reader.SpanDistribution(T.Tensor(sl), T.Tensor(el), [reader.Segment(0, 6)], [1])
    label, logp = reader.extract_best_span(dist, 3)[0]
    assert (label.start, label.end) == (4, 4)
    assert logp == pytest.approx(-1000.0, abs=1e-9)


def _log_softmax(a):
    m = a.max()
    return a - (m + np.log(np.exp(a - m).sum()))


def reference_best_spans(dist, max_len):
    """extract_best_span as a loop with one span grid per segment, as it ran
    before it scored every segment in one array pass, frozen as the
    bit-for-bit reference. A segment's log-probs come from a log-softmax over
    its own words."""
    starts, ends = dist.start_logits.data[0], dist.end_logits.data[0]
    spans = []
    for passage, seg in enumerate(dist.segments):
        lo, length = seg.offset, seg.length
        ls, le = _log_softmax(starts[lo:lo + length]), _log_softmax(ends[lo:lo + length])
        width = min(max_len, length)
        # scores[i, k] is the span starting at token i and ending at i + k
        last = np.arange(length)[:, None] + np.arange(width)[None, :]
        scores = ls[:, None] + le[np.minimum(last, length - 1)]
        scores[last >= length] = -np.inf
        flat = int(scores.argmax())
        i, k = divmod(flat, width)
        spans.append((reader.SpanLabel(passage, i, i + k), float(scores.flat[flat])))
    return spans


@pytest.mark.parametrize("max_len", [1, 4, 15])
def test_extract_equals_the_frozen_loop_over_segments_bit_for_bit(max_len):
    # one-token segments, uniform logits (every span of a segment ties), then
    # 60 random ragged blocks of 1-20 segments; a third of them have segments
    # of up to 150 words, where a sum over a zero-padded or strided row rounds
    # differently from the segment's own sum. Each block is read whole and as
    # one one-segment view per segment, as r3 reads tau's segment
    rng = np.random.default_rng(29)
    cases = [([1], None), ([1, 1, 1], None), ([3, 2], 0.0), ([1, 5, 1], 0.0), ([7] * 4, None)]
    for _ in range(60):
        longest = 150 if rng.random() < 1 / 3 else 20
        cases.append((rng.integers(1, longest + 1, size=rng.integers(1, 21)).tolist(), None))
    for widths, fill in cases:
        v = sum(widths)
        logits = (rng.normal(size=(2, 1, v)) * rng.uniform(0.1, 30) if fill is None
                  else np.full((2, 1, v), fill))
        segments = [reader.Segment(end - w, w) for w, end in zip(widths, accumulate(widths))]
        dist = reader.SpanDistribution(T.Tensor(logits[0]), T.Tensor(logits[1]), segments,
                                       [len(segments)])
        expected = reference_best_spans(dist, max_len)
        assert reader.extract_best_span(dist, max_len) == expected, widths
        views = [reader.extract_best_span(replace(dist, segments=[seg], questions=[1]), max_len)
                 for seg in segments]
        assert views == [[(replace(label, passage=0), score)] for label, score in expected], widths


def test_span_loss_of_a_batch_normalizes_each_question_over_its_own_words():
    # two questions, of two passages and of one: each row of the loss is the
    # question's own span_loss, bit for bit, and a label must name one of
    # its own question's passages
    dist = replace(make_dist(400, [3, 2, 4]), questions=[2, 1])
    loss = reader.span_loss(dist, [reader.SpanLabel(0, 1, 2), reader.SpanLabel(2, 0, 3)])
    assert loss.data.shape == (2, 1)
    for row, (first, words, label) in enumerate([(0, slice(0, 5), reader.SpanLabel(0, 1, 2)),
                                                 (2, slice(5, 9), reader.SpanLabel(0, 0, 3))]):
        segments = [reader.Segment(seg.offset - words.start, seg.length)
                    for seg in dist.segments[first:first + 2 - row]]
        own = reader.SpanDistribution(T.Tensor(dist.start_logits.data[:, words]),
                                      T.Tensor(dist.end_logits.data[:, words]), segments,
                                      [len(segments)])
        assert loss.data[row, 0] == reader.span_loss(own, [label]).item()
    with pytest.raises(KeyError, match="passage 2 is not one of question 0's"):
        reader.span_loss(dist, [reader.SpanLabel(2, 0, 0), reader.SpanLabel(2, 0, 0)])
    with pytest.raises(ValueError):
        reader.span_loss(dist, [reader.SpanLabel(0, 0, 0)])  # one label per question
