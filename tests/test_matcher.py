import numpy as np
import pytest

from rankread import matcher
from rankread import tensor as T

from conftest import cols, rows, sigmoid, softmax_row, sum_all


def make_bilstm(seed, in_dim, out_dim, scale=0.2):
    rng = np.random.default_rng(seed)
    return matcher.init_bilstm(rng, in_dim, out_dim, {}, "enc", init_scale=scale)


def make_stack(seed, in_dim, out_dim, depth):
    rng = np.random.default_rng(seed)
    return [matcher.init_bilstm(rng, in_dim if k == 0 else out_dim, out_dim, {}, f"agg.{k}", 0.5)
            for k in range(depth)]


def encode(seq, params):
    return encode_each([seq], [params])[0]


def encode_each(seqs, layers):
    """encode_batch with every sequence a block of its own."""
    return matcher.encode_batch(seqs, [[s.data.shape[1]] for s in seqs], layers)


def test_output_dim_must_be_even():
    with pytest.raises(ValueError, match="even"):
        make_bilstm(0, 3, 5)


def test_encode_single_column():
    p = make_bilstm(1, 3, 4)
    out = encode(T.Tensor(np.random.default_rng(0).normal(size=(3, 1))), p)
    assert out.data.shape == (4, 1)
    assert np.isfinite(out.data).all()


def test_encode_rejects_empty_sequence():
    p = make_bilstm(1, 3, 4)
    with pytest.raises(T.ShapeError, match="empty"):
        encode(T.Tensor(np.zeros((3, 0))), p)


def test_zero_parameters_give_zero_output():
    p = make_bilstm(2, 3, 4)
    for d in (p.fwd, p.bwd):
        d.W.data[...] = 0.0
        d.U.data[...] = 0.0
        d.b.data[...] = 0.0
    out = encode(T.Tensor(np.random.default_rng(1).normal(size=(3, 6))), p)
    assert np.array_equal(out.data, np.zeros((4, 6)))


def test_reversal_symmetry_with_swapped_directions():
    # Swapping the two direction parameter sets and reversing the input
    # reverses the output columns, with the two row halves exchanged.
    p = make_bilstm(3, 3, 6)
    swapped = matcher.BiLstm(p.bwd, p.fwd, p.in_dim)
    x = np.random.default_rng(2).normal(size=(3, 5))
    out = encode(T.Tensor(x), p).data
    out_swapped = encode(T.Tensor(x[:, ::-1].copy()), swapped).data
    h = p.fwd.U.data.shape[1]
    reassembled = np.vstack([out_swapped[h:, ::-1], out_swapped[:h, ::-1]])
    assert np.allclose(out, reassembled, atol=1e-12)


def test_batched_encode_matches_sequential():
    p = make_bilstm(4, 3, 6)
    rng = np.random.default_rng(3)
    seqs = [T.Tensor(rng.normal(size=(3, t))) for t in (4, 7, 4, 2, 7, 7)]
    batched = encode_each(seqs, [p])
    for s, b in zip(seqs, batched):
        single = encode(T.Tensor(s.data.copy()), p)
        assert np.allclose(b.data, single.data, atol=1e-12)


def test_batched_encode_gradients_match_sequential():
    p = make_bilstm(5, 2, 4)
    params = [p.fwd.W, p.fwd.U, p.fwd.b, p.bwd.W, p.bwd.U, p.bwd.b]
    rng = np.random.default_rng(4)
    data = [rng.normal(size=(2, t)) for t in (3, 3, 5)]

    def loss_from(encoder_fn):
        T.zero_grads(params)
        outs = encoder_fn()
        loss = sum_all(T.tanh(T.concat_cols(outs)))
        T.backward(loss)
        return [q.grad.copy() for q in params]

    g_batched = loss_from(lambda: encode_each([T.Tensor(d) for d in data], [p]))
    g_single = loss_from(lambda: [encode(T.Tensor(d), p) for d in data])
    for a, b in zip(g_batched, g_single):
        assert np.allclose(a, b, atol=1e-12)


def _lstm_steps(direction, blocks, n):
    """Composite reference: one LSTM direction over (4h, n) input blocks, one
    tape node per gate op and step (the path `tensor.bilstm` replaced)."""
    h = direction.U.data.shape[1]
    state_h = T.Tensor(np.zeros((h, n)))
    state_c = T.Tensor(np.zeros((h, n)))
    outs = []
    for pre_t in blocks:
        z = T.add(pre_t, T.matmul(direction.U, state_h))
        i = sigmoid(rows(z, 0, h))
        f = sigmoid(rows(z, h, 2 * h))
        o = sigmoid(rows(z, 2 * h, 3 * h))
        g = T.tanh(rows(z, 3 * h, 4 * h))
        state_c = T.add(T.mul(f, state_c), T.mul(i, g))
        state_h = T.mul(o, T.tanh(state_c))
        outs.append(state_h)
    return outs


def _reference_direction(direction, x, n, reverse):
    """One direction over n same-length sequences side by side (column
    j*steps + t is sequence j at step t), through the composite path."""
    steps = x.data.shape[1] // n
    pre = T.add_col(T.matmul(direction.W, x), direction.b)
    blocks = [T.concat_cols([cols(pre, j * steps + t, j * steps + t + 1) for j in range(n)])
              for t in range(steps)]
    if reverse:
        blocks.reverse()
    outs = _lstm_steps(direction, blocks, n)
    if reverse:
        outs.reverse()
    return T.concat_cols([cols(outs[t], j, j + 1) for j in range(n) for t in range(steps)])


def _reference_encode_batch(seqs, layers):
    """encode_batch for n same-length sequences through the composite path."""
    n, steps = len(seqs), seqs[0].data.shape[1]
    x = T.concat_cols(seqs)
    for p in layers:
        x = T.concat_rows([_reference_direction(p.fwd, x, n, False),
                           _reference_direction(p.bwd, x, n, True)])
    return [cols(x, k * steps, (k + 1) * steps) for k in range(n)]


def _bilstm_params(p):
    return [p.fwd.W, p.fwd.U, p.fwd.b, p.bwd.W, p.bwd.U, p.bwd.b]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("steps", [1, 4])
def test_fused_encode_matches_composite_reference(n, steps):
    # a two-layer stack: forward bit for bit; gradients to 1e-10 (BPTT sums
    # in another order)
    layers = make_stack(20 + n + steps, 3, 6, 2)
    params = [q for p in layers for q in _bilstm_params(p)]
    rng = np.random.default_rng(30 + n * steps)
    data = [rng.normal(size=(3, steps)) for _ in range(n)]
    weights = rng.normal(size=(6, steps * n))

    def run(encoder):
        T.zero_grads(params)
        seqs = [T.Tensor(d, requires_grad=True) for d in data]
        outs = encoder(seqs, layers)
        T.backward(sum_all(T.mul(T.tanh(T.concat_cols(outs)), T.Tensor(weights))))
        return [o.data for o in outs], [q.grad.copy() for q in params] + [s.grad for s in seqs]

    fused_out, fused_grads = run(encode_each)
    ref_out, ref_grads = run(_reference_encode_batch)
    for a, b in zip(fused_out, ref_out):
        assert np.array_equal(a, b)
    for a, b in zip(fused_grads, ref_grads):
        assert np.abs(a - b).max() < 1e-10


@pytest.mark.parametrize("reverse", [False, True])
def test_fused_direction_matches_composite_reference(reverse):
    # one op call against both composite references: its output bit for bit,
    # and the gradients of a loss on the rows of one direction (the backward
    # one if reverse) to 1e-10, with none reaching the other direction
    p = make_bilstm(40, 2, 8, scale=0.5)
    fwd, bwd = p.fwd, p.bwd
    params = _bilstm_params(p)
    n, steps = 3, 4
    rng = np.random.default_rng(41)
    x = T.Tensor(rng.normal(size=(2, steps * n)))
    weights = T.Tensor(rng.normal(size=(4, steps * n)))
    i0 = 4 if reverse else 0

    def run(layer_fn):
        T.zero_grads(params)
        out = layer_fn()
        T.backward(sum_all(T.mul(rows(out, i0, i0 + 4), weights)))
        return out.data, [np.zeros_like(q.data) if q.grad is None else q.grad.copy()
                          for q in params]

    fused, g_fused = run(lambda: T.bilstm(T.add_col(T.matmul(fwd.W, x), fwd.b),
                                          T.add_col(T.matmul(bwd.W, x), bwd.b),
                                          fwd.U, bwd.U, [steps] * n))
    ref, g_ref = run(lambda: T.concat_rows([_reference_direction(fwd, x, n, False),
                                            _reference_direction(bwd, x, n, True)]))
    assert np.array_equal(fused, ref)
    for a, b in zip(g_fused, g_ref):
        assert np.abs(a - b).max() < 1e-10
    other = g_fused[:3] if reverse else g_fused[3:]
    assert all(not g.any() for g in other)
    assert all(g.any() for g in (g_fused[3:] if reverse else g_fused[:3]))


@pytest.mark.parametrize("depth", [2, 3])
def test_stack_over_ragged_batch_matches_each_sequence_alone(depth):
    # one packed pass of the whole stack over the ragged batch equals
    # running every sequence through the stack on its own. Not bit for bit:
    # BLAS multiplies a single column (gemv) and several columns (gemm) with
    # different rounding, which moves outputs by a few 1e-18 here.
    layers = make_stack(50 + depth, 3, 4, depth)
    params = [q for p in layers for q in _bilstm_params(p)]
    rng = np.random.default_rng(60 + depth)
    data = [rng.normal(size=(3, t)) for t in (4, 1, 4, 6, 1, 4, 2)]
    weights = [rng.normal(size=(4, d.shape[1])) for d in data]

    def run(encoder):
        T.zero_grads(params)
        seqs = [T.Tensor(d, requires_grad=True) for d in data]
        outs = encoder(seqs)
        loss = sum_all(T.concat_cols([T.mul(T.tanh(o), T.Tensor(w)) for o, w in zip(outs, weights)]))
        T.backward(loss)
        return [o.data for o in outs], [q.grad.copy() for q in params] + [s.grad for s in seqs]

    batched_out, batched_grads = run(lambda seqs: encode_each(seqs, layers))
    alone_out, alone_grads = run(lambda seqs: [encode_each([s], layers)[0] for s in seqs])
    for a, b in zip(batched_out, alone_out):
        assert np.abs(a - b).max() < 1e-15
    for a, b in zip(batched_grads, alone_grads):
        assert np.abs(a - b).max() < 1e-12


def test_stack_over_shuffled_lengths_matches_each_sequence_alone():
    # inputs in no sorted order, each length repeated: the packed stack puts
    # them longest first and back, and every sequence keeps its own arithmetic
    layers = make_stack(55, 3, 4, 3)
    params = [q for p in layers for q in _bilstm_params(p)]
    rng = np.random.default_rng(65)
    lengths = [2, 5, 1, 3, 5, 2, 1, 3]
    data = [rng.normal(size=(3, t)) for t in rng.permutation(lengths)]
    weights = [rng.normal(size=(4, d.shape[1])) for d in data]

    def run(encoder):
        T.zero_grads(params)
        seqs = [T.Tensor(d, requires_grad=True) for d in data]
        outs = encoder(seqs)
        loss = sum_all(T.concat_cols([T.mul(T.tanh(o), T.Tensor(w)) for o, w in zip(outs, weights)]))
        T.backward(loss)
        return [o.data for o in outs], [q.grad.copy() for q in params] + [s.grad for s in seqs]

    packed_out, packed_grads = run(lambda seqs: encode_each(seqs, layers))
    alone_out, alone_grads = run(lambda seqs: [encode_each([s], layers)[0] for s in seqs])
    for d, a, b in zip(data, packed_out, alone_out):
        assert a.shape == (4, d.shape[1])
        assert np.abs(a - b).max() < 1e-15
    for a, b in zip(packed_grads, alone_grads):
        assert np.abs(a - b).max() < 1e-12


def test_stack_call_makes_one_recurrence_per_direction_and_layer(monkeypatch):
    # one op call per layer runs both directions
    calls = []
    bilstm = T.bilstm

    def counting_bilstm(pre_f, pre_b, U_f, U_b, lengths):
        calls.append(list(lengths))
        return bilstm(pre_f, pre_b, U_f, U_b, lengths)

    monkeypatch.setattr(matcher.T, "bilstm", counting_bilstm)
    rng = np.random.default_rng(66)
    seqs = [T.Tensor(rng.normal(size=(3, t))) for t in (4, 1, 6, 4, 2, 7, 1)]
    encode_each(seqs, make_stack(56, 3, 4, 3))
    assert calls == [[7, 6, 4, 4, 2, 1, 1]] * 3


@pytest.mark.parametrize("widths", [[[3, 1, 4], [2], [4, 4]], [[4, 4], [4], [4, 4, 4]]])
def test_blocks_encode_as_their_sequences_do_bit_for_bit(widths):
    # blocks of sequences side by side give each sequence's columns the
    # outputs and gradients of encoding the sequences one block each; the
    # same packed layout, so the same bits
    layers = make_stack(80, 3, 4, 2)
    params = [q for p in layers for q in _bilstm_params(p)]
    rng = np.random.default_rng(81)
    data = [rng.normal(size=(3, sum(ws))) for ws in widths]
    weights = [rng.normal(size=(4, d.shape[1])) for d in data]

    def run(encoder):
        T.zero_grads(params)
        blocks = [T.Tensor(d, requires_grad=True) for d in data]
        outs = encoder(blocks)
        T.backward(sum_all(T.concat_cols([T.mul(T.tanh(o), T.Tensor(w))
                                            for o, w in zip(outs, weights)])))
        return [o.data for o in outs], [q.grad for q in params] + [b.grad for b in blocks]

    def per_sequence(blocks):
        seqs = [T.Tensor(b.data[:, end - w:end].copy()) for b, ws in zip(blocks, widths)
                for w, end in zip(ws, np.cumsum(ws))]
        outs = iter(encode_each(seqs, layers))
        return [T.concat_cols([next(outs) for _ in ws]) for ws in widths]

    block_out, block_grads = run(lambda blocks: matcher.encode_batch(blocks, widths, layers))
    seq_out, seq_grads = run(per_sequence)
    for a, b in zip(block_out, seq_out):
        assert np.array_equal(a, b)
    for a, b in zip(block_grads[:len(params)], seq_grads):
        assert np.array_equal(a, b)
    assert all(g.shape == d.shape for g, d in zip(block_grads[len(params):], data))


@pytest.mark.parametrize("widths, gathers", [
    ([[4, 4], [4]], 2),           # sorted: none in, one out per block
    ([[4]], 0),                   # one sorted block is the stack's output itself
    ([[2, 4], [4]], 3),           # one gather in, one out per block
])
def test_stack_call_gathers_once_in_and_once_per_block_out(monkeypatch, widths, gathers):
    calls = []
    take_cols = T.take_cols

    def counting(a, index):
        calls.append(len(index))
        return take_cols(a, index)

    monkeypatch.setattr(matcher.T, "take_cols", counting)
    rng = np.random.default_rng(82)
    blocks = [T.Tensor(rng.normal(size=(3, sum(ws)))) for ws in widths]
    outs = matcher.encode_batch(blocks, widths, make_stack(83, 3, 4, 2))
    assert len(calls) == gathers
    assert [o.data.shape for o in outs] == [(4, sum(ws)) for ws in widths]


def test_encode_rejects_widths_that_do_not_cut_the_block():
    with pytest.raises(T.ShapeError, match="^encode: widths sum to 5, block has 6 columns$"):
        matcher.encode_batch([T.Tensor(np.zeros((3, 6)))], [[2, 3]], make_stack(84, 3, 4, 1))


def test_encode_rejects_a_call_with_no_blocks():
    with pytest.raises(T.ShapeError, match="^concat_cols: empty input$"):
        matcher.encode_batch([], [], make_stack(85, 3, 4, 1))


def test_encode_rejects_wrong_input_rows():
    with pytest.raises(T.ShapeError, match="expects 3"):
        encode_each([T.Tensor(np.zeros((2, 4)))], make_stack(72, 3, 4, 2))


def _attention_weights(h_q, h_p, w_g, b_g, q_sizes, p_sizes):
    """attend's weights G, padded to (max q_size, P): the attention op over
    attend's keys with the identity for each question's values."""
    keys = T.add_col(T.matmul(w_g, h_q), b_g)
    eye = np.eye(max(q_sizes))[:, np.concatenate([np.arange(q) for q in q_sizes])]
    return T.attention(keys, T.Tensor(eye), h_p, q_sizes, p_sizes).data


def test_attend_single_question_word_gives_all_ones():
    # one question word takes all the weight, so its view is that word
    rng = np.random.default_rng(5)
    l = 4
    h_q, h_p = T.Tensor(rng.normal(size=(l, 1))), T.Tensor(rng.normal(size=(l, 6)))
    w_g, b_g = T.Tensor(rng.normal(size=(l, l))), T.Tensor(rng.normal(size=(l, 1)))
    assert np.array_equal(_attention_weights(h_q, h_p, w_g, b_g, [1], [6]), np.ones((1, 6)))
    g = matcher.attend(h_q, h_p, w_g, b_g, [1], [6])
    assert np.array_equal(g.data, np.repeat(h_q.data, 6, axis=1))


def test_attend_identical_question_columns_give_uniform_attention():
    rng = np.random.default_rng(6)
    l, q_len = 4, 3
    col = rng.normal(size=(l, 1))
    h_q, h_p = T.Tensor(np.repeat(col, q_len, axis=1)), T.Tensor(rng.normal(size=(l, 5)))
    w_g, b_g = T.Tensor(rng.normal(size=(l, l))), T.Tensor(rng.normal(size=(l, 1)))
    assert np.allclose(_attention_weights(h_q, h_p, w_g, b_g, [q_len], [5]), 1.0 / q_len,
                       atol=1e-12)
    g = matcher.attend(h_q, h_p, w_g, b_g, [q_len], [5])
    assert np.allclose(g.data, np.repeat(col, 5, axis=1), atol=1e-12)


def test_attend_columns_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(100):
        l, n = int(rng.integers(1, 5)) * 2, int(rng.integers(1, 4))
        q_sizes = rng.integers(1, 6, size=n).tolist()
        p_sizes = rng.integers(1, 6, size=n).tolist()
        weights = _attention_weights(
            T.Tensor(rng.normal(size=(l, sum(q_sizes)))),
            T.Tensor(rng.normal(size=(l, sum(p_sizes)))),
            T.Tensor(rng.normal(size=(l, l))), T.Tensor(rng.normal(size=(l, 1))),
            q_sizes, p_sizes)
        assert np.allclose(weights.sum(axis=0), 1.0, atol=1e-9)
        # no weight on a row past a question's own words
        q_of_col = np.repeat(q_sizes, p_sizes)
        assert not np.any(weights[np.arange(max(q_sizes))[:, None] >= q_of_col])


def _attend_reference(hq, hp, wg, bg):
    """h_q G with G the softmax over question words of (w_g h_q + b_g)^T h_p,
    one passage word at a time."""
    keys = wg @ hq + bg
    out = np.zeros((hq.shape[0], hp.shape[1]))
    for j in range(hp.shape[1]):
        scores = keys.T @ hp[:, j]
        weights = np.exp(scores - scores.max())
        out[:, j] = hq @ (weights / weights.sum())
    return out


def test_attend_over_a_batch_equals_each_question_alone():
    rng = np.random.default_rng(7)
    for _ in range(50):
        l, n = int(rng.integers(1, 5)) * 2, int(rng.integers(1, 5))
        q_sizes = rng.integers(1, 6, size=n).tolist()
        p_sizes = rng.integers(1, 6, size=n).tolist()
        hq, hp = rng.normal(size=(l, sum(q_sizes))), rng.normal(size=(l, sum(p_sizes)))
        wg, bg = rng.normal(size=(l, l)), rng.normal(size=(l, 1))
        g = matcher.attend(T.Tensor(hq), T.Tensor(hp), T.Tensor(wg), T.Tensor(bg),
                           q_sizes, p_sizes)
        q_ends, p_ends = np.cumsum(q_sizes), np.cumsum(p_sizes)
        for q0, q1, p0, p1 in zip(q_ends - q_sizes, q_ends, p_ends - p_sizes, p_ends):
            want = _attend_reference(hq[:, q0:q1], hp[:, p0:p1], wg, bg)
            assert np.allclose(g.data[:, p0:p1], want, rtol=1e-12, atol=1e-12)
        # b_g shifts all of a passage word's scores alike
        shifted = matcher.attend(T.Tensor(hq), T.Tensor(hp), T.Tensor(wg),
                                 T.Tensor(bg + rng.normal(size=(l, 1))), q_sizes, p_sizes)
        assert np.allclose(shifted.data, g.data, rtol=1e-9, atol=1e-12)


def _match_reference(hp, hbar, wm):
    """Scalar-loop recomputation of the fusion stage."""
    stack = np.vstack([hp, hbar, hp * hbar, hp - hbar])
    out = np.zeros((wm.shape[0], hp.shape[1]))
    for r in range(wm.shape[0]):
        for b in range(hp.shape[1]):
            acc = sum(wm[r, k] * stack[k, b] for k in range(stack.shape[0]))
            out[r, b] = max(acc, 0.0)
    return out


def test_match_agrees_with_scalar_loop_reference():
    rng = np.random.default_rng(8)
    l, p_len = 3, 4
    hp = rng.normal(size=(l, p_len))
    hbar = rng.normal(size=(l, p_len))
    wm = rng.normal(size=(2 * l, 4 * l))
    got = matcher.match(T.Tensor(hp), T.Tensor(hbar), T.Tensor(wm))
    assert np.allclose(got.data, _match_reference(hp, hbar, wm), atol=1e-12)
    assert (got.data >= 0).all()


def test_match_zero_weights_give_zero():
    rng = np.random.default_rng(9)
    got = matcher.match(T.Tensor(rng.normal(size=(2, 3))), T.Tensor(rng.normal(size=(2, 3))),
                        T.Tensor(np.zeros((4, 8))))
    assert np.array_equal(got.data, np.zeros((4, 3)))


def test_aggregate_one_layer_equals_single_encode():
    p = make_bilstm(10, 6, 4)
    m = T.Tensor(np.random.default_rng(10).normal(size=(6, 5)))
    assert np.array_equal(encode(m, p).data, _reference_encode_batch([m], [p])[0].data)


def test_fd_through_attend_match_aggregate():
    rng = np.random.default_rng(11)
    l = 4
    registry = {}
    enc = matcher.init_bilstm(rng, 3, l, registry, "enc")
    agg = matcher.init_bilstm(rng, 2 * l, l, registry, "agg")
    registry["wg"] = T.parameter(rng, l, l)
    registry["bg"] = T.parameter(rng, l, 1)
    registry["wm"] = T.parameter(rng, 2 * l, 4 * l)
    # two questions in one call: question 0 has 2 words and 3 passage words,
    # question 1 has 1 and 2
    q_emb = T.Tensor(rng.normal(size=(3, 3)))
    p_emb = T.Tensor(rng.normal(size=(3, 5)))

    def build():
        h_q, h_p = matcher.encode_batch([q_emb, p_emb], [[2, 1], [3, 2]], [enc])
        g = matcher.attend(h_q, h_p, registry["wg"], registry["bg"], [2, 1], [3, 2])
        m = matcher.match(h_p, g, registry["wm"])
        h = encode(m, agg)
        return sum_all(T.tanh(h))

    assert T.fd_check(build, list(registry.values())) < 1e-4


def test_dropout_mask_scales_and_disables():
    rng = np.random.default_rng(12)
    mask = matcher.dropout_mask(rng, (50, 50), 0.4)
    vals = np.unique(mask)
    assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.6, 12)}
    # keep rate is roughly 60%
    assert 0.5 < (mask > 0).mean() < 0.7


def _small_model(seed=0):
    from rankread.config import Config
    from rankread.model import RankReadModel
    model = RankReadModel(Config(hidden_size=4, embed_dim=3, dropout=0.0), seed=seed)
    rng = np.random.default_rng(seed + 50)
    q_emb = T.Tensor(rng.normal(size=(3, 3)))
    p_emb = T.concat_cols([T.Tensor(rng.normal(size=(3, 4))) for _ in range(3)])
    return model, q_emb, p_emb


WIDTHS = [4, 4, 4]


def _model_outputs(model, q_emb, p_emb):
    m = model.match_passages(q_emb, p_emb, WIDTHS)
    gamma = model.rank(m, WIDTHS).probs()
    start = softmax_row(model.read(m, WIDTHS).start_logits).data.copy()
    return gamma, start


def test_head_parameter_separation_forward():
    # perturbing reader aggregation weights leaves the policy bitwise unchanged,
    # and vice versa; perturbing the shared fusion weights changes both
    model, q_emb, p_embs = _small_model()
    gamma0, start0 = _model_outputs(model, q_emb, p_embs)

    model.params["agg_read.0.fwd.W"].data += 0.05
    gamma1, start1 = _model_outputs(model, q_emb, p_embs)
    assert np.array_equal(gamma1, gamma0)
    assert not np.array_equal(start1, start0)

    model, q_emb, p_embs = _small_model()
    model.params["agg_rank.0.fwd.W"].data += 0.05
    gamma2, start2 = _model_outputs(model, q_emb, p_embs)
    assert not np.array_equal(gamma2, gamma0)
    assert np.array_equal(start2, start0)

    model, q_emb, p_embs = _small_model()
    model.params["match.W"].data += 0.05
    gamma3, start3 = _model_outputs(model, q_emb, p_embs)
    assert not np.array_equal(gamma3, gamma0)
    assert not np.array_equal(start3, start0)


def test_head_parameter_separation_gradients():
    from rankread import reader as reader_mod

    model, q_emb, p_embs = _small_model(seed=1)
    m = model.match_passages(q_emb, p_embs, WIDTHS)
    policy = model.rank(m, WIDTHS)
    T.backward(T.neg_log_softmax_mean(policy.logits, policy.questions, [[1]]))
    for name, p in model.parameters().items():
        if name.startswith(("agg_read.", "read_")):
            assert p.grad is None, name

    model, q_emb, p_embs = _small_model(seed=1)
    m = model.match_passages(q_emb, p_embs, WIDTHS)
    dist = model.read(m, WIDTHS)
    T.backward(reader_mod.span_loss(dist, [reader_mod.SpanLabel(0, 1, 2)]))
    for name, p in model.parameters().items():
        if name.startswith(("agg_rank.", "rank.")):
            assert p.grad is None, name
    assert float(np.abs(model.params["match.W"].grad).sum()) > 0
