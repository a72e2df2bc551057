import json
import math
import zlib

import numpy as np
import pytest

from rankread import tensor as T
from rankread.model import load_checkpoint, save_checkpoint

from conftest import cols, rows, sigmoid, sum_all, toy_trainer


RNG = None


@pytest.fixture(autouse=True)
def _own_rng(request):
    # each test draws from its own generator, seeded from its own name, so
    # adding, removing or reordering tests changes no other test's data
    global RNG
    RNG = np.random.default_rng(zlib.crc32(request.node.name.encode()))


def rand_tensor(rows, cols, requires_grad=True, lo=-1.0, hi=1.0):
    return T.Tensor(RNG.uniform(lo, hi, size=(rows, cols)), requires_grad=requires_grad)


# --- forward identities ------------------------------------------------------

def test_softmax_uniform_logits():
    z = T.Tensor([[0.0], [0.0], [0.0]])
    y = T.softmax_cols(z)
    assert np.allclose(y.data, 1.0 / 3.0)


def test_matmul_identity():
    a = rand_tensor(2, 5, requires_grad=False)
    eye = T.Tensor(np.eye(2))
    assert np.array_equal(T.matmul(eye, a).data, a.data)


def test_relu_forward_and_backward():
    x = T.Tensor([[-1.0, 2.0]], requires_grad=True)
    y = T.relu(x)
    assert np.array_equal(y.data, [[0.0, 2.0]])
    T.backward(sum_all(y))
    assert np.array_equal(x.grad, [[0.0, 1.0]])


def test_bilinear_grads():
    w = T.Tensor([[1.0, 2.0]], requires_grad=True)
    x = T.Tensor([[3.0, 4.0]])
    loss = sum_all(T.mul(w, x))
    T.backward(loss)
    assert np.array_equal(w.grad, [[3.0, 4.0]])


def test_neg_log_softmax_pick_grad_is_softmax_minus_onehot():
    z = T.Tensor([[0.3], [-1.2], [0.7]], requires_grad=True)
    loss = T.neg_log_softmax_mean(z, [3], [[1]])
    T.backward(loss)
    soft = np.exp(z.data) / np.exp(z.data).sum()
    expected = soft.copy()
    expected[1, 0] -= 1.0
    assert np.allclose(z.grad, expected, atol=1e-12)
    # value matches the naive composition
    assert loss.item() == pytest.approx(-math.log(soft[1, 0]))


def test_softmax_columns_sum_to_one_and_positive():
    for _ in range(100):
        a = rand_tensor(RNG.integers(1, 7), RNG.integers(1, 7), lo=-8, hi=8)
        y = T.softmax_cols(a)
        assert np.all(y.data > 0)
        assert np.allclose(y.data.sum(axis=0), 1.0, atol=1e-9)


def test_shape_mismatch_names_op_and_shapes():
    a = rand_tensor(2, 3)
    b = rand_tensor(4, 5)
    with pytest.raises(T.ShapeError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
        T.matmul(a, b)


@pytest.mark.parametrize("op, operands, line", [
    ("add", ((2, 3), (3, 2)), "add: shapes (2, 3) vs (3, 2) differ"),
    ("sub", ((2, 3), (2, 4)), "sub: shapes (2, 3) vs (2, 4) differ"),
    ("mul", ((1, 3), (2, 3)), "mul: shapes (1, 3) vs (2, 3) differ"),
    ("concat_cols", ([(2, 3), (2, 1), (4, 1)],), "concat_cols: row counts differ (2 vs 4)"),
    ("concat_rows", ([(2, 3), (1, 3), (1, 5)],), "concat_rows: column counts differ (3 vs 5)"),
    ("concat_cols", ([],), "concat_cols: empty input"),
    ("concat_rows", ([],), "concat_rows: empty input"),
], ids=["add", "sub", "mul", "concat_cols", "concat_rows", "concat_cols-empty", "concat_rows-empty"])
def test_templated_op_shape_error_line(op, operands, line):
    # the exact lines the elementwise and concat templates must keep
    def build(spec):
        return [build(s) for s in spec] if isinstance(spec, list) else T.Tensor(np.zeros(spec))

    with pytest.raises(T.ShapeError) as excinfo:
        getattr(T, op)(*map(build, operands))
    assert str(excinfo.value) == line


def test_backward_rejects_non_scalar_loss():
    a = rand_tensor(2, 2)
    with pytest.raises(T.ShapeError, match="scalar"):
        T.backward(T.relu(a))


def test_unused_parameter_gets_exactly_zero_grad():
    # no gradient reaches it, so it holds none, which Adamax and fd_check read as zero
    used = rand_tensor(2, 2)
    unused = rand_tensor(3, 1)
    T.backward(sum_all(T.tanh(used)))
    assert unused.grad is None
    assert T.fd_check(lambda: sum_all(T.tanh(used)), [unused]) == 0.0


def test_determinism_bitwise():
    def build(seed):
        rng = np.random.default_rng(seed)
        a = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(3, 2)))
        return T.softmax_cols(T.matmul(T.tanh(a), b)).data
    assert np.array_equal(build(11), build(11))


# --- finite-difference checks -----------------------------------------------

def _fd_single_op(op, *shapes, **kwargs):
    seed = sum(map(ord, op.__name__)) + 131 * sum(r * 7 + c for r, c in shapes)
    rng = np.random.default_rng(seed)
    params = [
        T.Tensor(rng.uniform(-2.0, -0.2, size=s) * rng.choice([-1.0, 1.0], size=s),
                 requires_grad=True)
        for s in shapes
    ]
    # keep relu/segment_max inputs away from their kinks
    for p in params:
        p.data[np.abs(p.data) < 0.05] = 0.21

    def build():
        out = op(*params, **kwargs)
        return sum_all(T.mul(out, out)) if out.data.shape != (1, 1) else out

    return T.fd_check(build, params)


UNARY_OPS = [T.tanh, T.relu, sigmoid]


@pytest.mark.parametrize("op", UNARY_OPS)
def test_fd_unary_ops(op):
    rng = np.random.default_rng(3)
    for _ in range(10):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        assert _fd_single_op(op, shape) < 1e-4


def test_fd_binary_and_structural_ops():
    assert _fd_single_op(T.matmul, (3, 4), (4, 2)) < 1e-4
    assert _fd_single_op(T.add, (3, 3), (3, 3)) < 1e-4
    assert _fd_single_op(T.sub, (2, 4), (2, 4)) < 1e-4
    assert _fd_single_op(T.mul, (3, 2), (3, 2)) < 1e-4
    assert _fd_single_op(T.add_col, (3, 4), (3, 1)) < 1e-4
    assert _fd_single_op(T.softmax_cols, (4, 3)) < 1e-4
    assert _fd_single_op(T.transpose, (2, 5)) < 1e-4
    assert _fd_single_op(T.segment_max, (3, 7), widths=[2, 1, 4]) < 1e-4
    assert _fd_single_op(T.take_cols, (3, 5), index=[4, 0, 2]) < 1e-4
    assert _fd_single_op(cols, (3, 5), j0=1, j1=4) < 1e-4
    assert _fd_single_op(rows, (5, 2), i0=0, i1=3) < 1e-4
    assert _fd_single_op(T.neg_log_softmax_mean, (5, 1), sizes=[5], ks=[[2]]) < 1e-4
    assert _fd_single_op(T.neg_log_softmax_mean, (5, 1), sizes=[5], ks=[[3, 0, 2]]) < 1e-4
    assert _fd_single_op(T.neg_log_softmax_mean, (7, 1), sizes=[2, 4, 1],
                         ks=[[1], [5, 2, 3], [6]]) < 1e-4
    assert _fd_single_op(T.attention, (3, 5), (2, 5), (3, 4), key_sizes=[5],
                         query_sizes=[4]) < 1e-4
    assert _fd_single_op(T.attention, (3, 6), (2, 6), (3, 7), key_sizes=[1, 3, 2],
                         query_sizes=[2, 4, 1]) < 1e-4
    assert _fd_single_op(T.scale, (2, 3), c=-1.7) < 1e-4


# --- gathers and fused reductions: the bits of the compositions they replace ---

def _row_max(a):
    """Row-wise max of a as one (rows, 1) node, its gradient routed to the
    first argmax: the per-passage op segment_max replaced."""
    idx = a.data.argmax(axis=1)
    r = np.arange(a.data.shape[0])
    out = T.Tensor._node(a.data[r, idx].reshape(-1, 1), (a,))
    if out.requires_grad:
        def bw(g):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[r, idx] += g[:, 0]
        out._backward = bw
    return out


def _two_paths(build_new, build_old, shape):
    """Output and upstream gradients of two builds over the same input,
    which feeds a matmul after the op and a second consumer besides it."""
    data = RNG.normal(size=shape)
    w = T.Tensor(RNG.normal(size=(3, shape[0])), requires_grad=True)
    results = []
    for build in (build_new, build_old):
        w.grad = None
        x = T.Tensor(data, requires_grad=True)
        a = T.tanh(x)
        out = build(a)
        T.backward(T.add(sum_all(T.mul(T.matmul(w, out), T.matmul(w, out))), sum_all(a)))
        results.append((out.data, x.grad, w.grad))
    return results


def test_take_cols_equals_its_slices_bit_for_bit():
    # the reference is the product with the one-hot columns of index: each
    # entry of its value and of its gradient is one product by 1 plus zeros,
    # so it is exact, and it shares no code with take_cols
    for _ in range(50):
        cols = int(RNG.integers(1, 9))
        index = RNG.permutation(cols)[:int(RNG.integers(1, cols + 1))].tolist()
        new, old = _two_paths(
            lambda a: T.take_cols(a, index),
            lambda a: T.matmul(a, T.Tensor(np.eye(cols)[:, index])), (4, cols))
        assert new[0].flags.c_contiguous
        for x, y in zip(new, old):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("index, line", [
    ([0, 2, 0], "take_cols: a column is taken twice"),
    ([3], "take_cols: index out of range for (2, 3)"),
    ([-1], "take_cols: index out of range for (2, 3)"),
])
def test_take_cols_rejects_a_repeat_and_a_column_outside(index, line):
    # a repeated column's gradient would be added once, not once per take
    with pytest.raises(T.ShapeError) as excinfo:
        T.take_cols(rand_tensor(2, 3), index)
    assert str(excinfo.value) == line


def test_segment_max_equals_row_max_per_segment_bit_for_bit():
    for _ in range(50):
        widths = RNG.integers(1, 5, size=int(RNG.integers(1, 6))).tolist()
        # few distinct values, so rows hold ties and the first argmax decides
        data = RNG.integers(-2, 3, size=(4, sum(widths))).astype(float)
        ends = np.cumsum(widths)
        new, old = (
            [out.data, x.grad] for out, x in (
                _segment_paths(data, lambda a: T.segment_max(a, widths)),
                _segment_paths(data, lambda a: T.concat_cols(
                    [_row_max(cols(a, e - w, e)) for w, e in zip(widths, ends)]))))
        assert new[0].flags.c_contiguous
        for x, y in zip(new, old):
            assert np.array_equal(x, y)


def _segment_paths(data, build):
    x = T.Tensor(data, requires_grad=True)
    out = build(x)
    T.backward(sum_all(T.mul(out, T.Tensor(np.arange(out.data.size).reshape(out.data.shape)))))
    return out, x


@pytest.mark.parametrize("widths", [[], [2, 0, 2], [2, 3]])
def test_segment_max_rejects_widths_that_do_not_cut_the_columns(widths):
    with pytest.raises(T.ShapeError, match="segment_max: widths"):
        T.segment_max(rand_tensor(2, 4), widths)


def test_fused_mean_of_picks_equals_the_picks_added_in_order_bit_for_bit():
    # the backward adds the picks' gradients in forward order, as the
    # composition's backward does; another order changes the bits
    for _ in range(500):
        n = int(RNG.integers(2, 9))
        ks = sorted(RNG.permutation(n)[:int(RNG.integers(1, n + 1))].tolist())

        def composite(a):
            total = None
            for k in ks:
                pick = T.neg_log_softmax_mean(a, [n], [[k]])
                total = pick if total is None else T.add(total, pick)
            return T.scale(total, 1.0 / len(ks))

        data = RNG.normal(size=(n, 2)) * 3
        w = T.Tensor(RNG.normal(size=(1, 2)), requires_grad=True)
        results = []
        for build in (lambda a: T.neg_log_softmax_mean(a, [n], [ks]), composite):
            x = T.Tensor(data, requires_grad=True)
            w.grad = None
            loss = build(T.transpose(T.matmul(w, T.transpose(x))))
            T.backward(T.scale(loss, 1.7))
            results.append((loss.data, x.grad, w.grad))
        for a, b in zip(*results):
            assert np.array_equal(a, b)


def test_neg_log_softmax_mean_rejects_bad_input():
    with pytest.raises(T.ShapeError, match="column vector"):
        T.neg_log_softmax_mean(rand_tensor(3, 2), [3], [[0]])
    for ks in ([[]], [[3]], [[-1]]):
        with pytest.raises(T.ShapeError, match="out of range"):
            T.neg_log_softmax_mean(rand_tensor(3, 1), [3], ks)
    # a pick must lie in its own segment
    with pytest.raises(T.ShapeError, match="out of range"):
        T.neg_log_softmax_mean(rand_tensor(3, 1), [1, 2], [[0], [0]])
    for sizes in ([], [2], [1, 0, 2], [2, 2]):
        with pytest.raises(T.ShapeError, match="do not cut"):
            T.neg_log_softmax_mean(rand_tensor(3, 1), sizes, [[0]] * len(sizes))
    with pytest.raises(T.ShapeError, match="into 2 segments"):
        T.neg_log_softmax_mean(rand_tensor(3, 1), [3], [[0], [1]])


def test_segmented_neg_log_softmax_mean_equals_each_segment_alone_bit_for_bit():
    # every segment's value and gradient are those of the same op over that
    # segment's rows alone: the segments share a node, not their arithmetic
    for _ in range(200):
        sizes = RNG.integers(1, 6, size=int(RNG.integers(1, 5))).tolist()
        ends = np.cumsum(sizes)
        ks = [sorted(RNG.choice(np.arange(end - size, end), size=int(RNG.integers(1, size + 1)),
                                replace=False).tolist()) for size, end in zip(sizes, ends)]
        data = RNG.normal(size=(sum(sizes), 1)) * 4
        g = RNG.normal(size=(len(sizes), 1))
        a = T.Tensor(data, requires_grad=True)
        out = T.neg_log_softmax_mean(a, sizes, ks)
        out._backward(g)
        for i, (size, end) in enumerate(zip(sizes, ends)):
            alone = T.Tensor(data[end - size:end], requires_grad=True)
            one = T.neg_log_softmax_mean(alone, [size], [[k - (end - size) for k in ks[i]]])
            one._backward(g[i:i + 1])
            assert one.data[0, 0] == out.data[i, 0]
            assert np.array_equal(alone.grad, a.grad[end - size:end])


def test_neg_log_softmax_mean_equals_a_brute_force_log_softmax():
    for _ in range(100):
        sizes = RNG.integers(1, 6, size=int(RNG.integers(1, 5))).tolist()
        ends = np.cumsum(sizes)
        ks = [RNG.integers(end - size, end, size=int(RNG.integers(1, 4))).tolist()
              for size, end in zip(sizes, ends)]
        data = RNG.normal(size=(sum(sizes), 1)) * 4
        got = T.neg_log_softmax_mean(T.Tensor(data), sizes, ks).data[:, 0]
        for i, (size, end) in enumerate(zip(sizes, ends)):
            seg = data[end - size:end, 0]
            log_p = seg - math.log(sum(math.exp(x) for x in seg))
            want = -sum(log_p[k - (end - size)] for k in ks[i]) / len(ks[i])
            assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


def _attention_composite(keys, values, queries, key_sizes, query_sizes):
    """T.attention from per-question transpose, matmul, softmax_cols and matmul."""
    outs = []
    for k0, k1, p0, p1 in zip(np.cumsum([0] + key_sizes), np.cumsum(key_sizes),
                              np.cumsum([0] + query_sizes), np.cumsum(query_sizes)):
        weights = T.softmax_cols(T.matmul(T.transpose(cols(keys, k0, k1)), cols(queries, p0, p1)))
        outs.append(T.matmul(cols(values, k0, k1), weights))
    return T.concat_cols(outs)


@pytest.mark.parametrize("key_sizes, query_sizes", [
    ([4], [6]), ([1], [3]), ([3, 1, 5], [7, 2, 4]), ([2, 2], [3, 3]), ([1, 6], [5, 1])])
def test_attention_matches_the_per_question_composite(key_sizes, query_sizes):
    # one question takes the composite's arithmetic, bit for bit; several
    # stacked in padded blocks agree to rounding, values and gradients
    l, r = 4, 3
    data = [RNG.normal(size=(l, sum(key_sizes))), RNG.normal(size=(r, sum(key_sizes))),
            RNG.normal(size=(l, sum(query_sizes)))]
    upstream = RNG.normal(size=(r, sum(query_sizes)))
    results = []
    for op in (T.attention, _attention_composite):
        inputs = [T.Tensor(d, requires_grad=True) for d in data]
        out = op(*inputs, key_sizes, query_sizes)
        T.backward(sum_all(T.mul(out, T.Tensor(upstream))))
        results.append([out.data] + [t.grad for t in inputs])
    for got, want in zip(*results):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-13)
    if len(key_sizes) == 1:
        assert np.array_equal(results[0][0], results[1][0])


def test_attention_weights_are_each_questions_own_softmax():
    # with values of ones, every output column is the sum of its question's
    # attention weights; a padded key that took weight would show here
    key_sizes, query_sizes = [1, 4, 2], [3, 2, 5]
    keys = T.Tensor(RNG.normal(size=(3, 7)) * 5)
    queries = T.Tensor(RNG.normal(size=(3, 10)) * 5)
    sums = T.attention(keys, T.Tensor(np.ones((1, 7))), queries, key_sizes, query_sizes)
    assert np.allclose(sums.data, 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shapes, key_sizes, query_sizes", [
    (((3, 4), (2, 4), (3, 5)), [2, 1], [3, 2]),
    (((3, 4), (2, 4), (3, 5)), [2, 2], [3, 1]),
    (((3, 4), (2, 4), (3, 5)), [2, 2], [5]),
    (((3, 4), (2, 4), (3, 5)), [4, 0], [4, 1]),
    (((3, 4), (2, 3), (3, 5)), [4], [5]),
    (((3, 4), (2, 4), (2, 5)), [4], [5]),
    (((3, 4), (2, 4), (3, 5)), [], []),
])
def test_attention_rejects_sizes_that_do_not_cut_its_inputs(shapes, key_sizes, query_sizes):
    with pytest.raises(T.ShapeError, match="attention: keys"):
        T.attention(*(T.Tensor(np.zeros(s)) for s in shapes), key_sizes, query_sizes)


@pytest.mark.parametrize("reverse", [False, True])
def test_fd_lstm(reverse):
    # pre_f and pre_b are (4h, sum(lengths)), U_f and U_b (4h, h): h=2, two
    # sequences of three steps, then one of four, then ragged lengths with 1,
    # the maximum and a repeat. The loss reads the rows of one direction (the
    # backward one if reverse) and all four inputs are checked, so the other
    # direction's gradients must come out zero.
    def bilstm_rows(pre_f, pre_b, U_f, U_b, lengths):
        out = T.bilstm(pre_f, pre_b, U_f, U_b, lengths)
        return rows(out, 2, 4) if reverse else rows(out, 0, 2)

    assert _fd_single_op(bilstm_rows, (8, 6), (8, 6), (8, 2), (8, 2), lengths=[3, 3]) < 1e-4
    assert _fd_single_op(bilstm_rows, (8, 4), (8, 4), (8, 2), (8, 2), lengths=[4]) < 1e-4
    assert _fd_single_op(bilstm_rows, (8, 14), (8, 14), (8, 2), (8, 2), lengths=[5, 5, 3, 1]) < 1e-4


def _bilstm(pre, U, lengths, pre_b=None, U_b=None):
    """bilstm with the backward direction's inputs shaped like the forward's
    unless given."""
    pre_b = rand_tensor(*pre.data.shape) if pre_b is None else pre_b
    U_b = rand_tensor(*U.data.shape) if U_b is None else U_b
    return T.bilstm(pre, pre_b, U, U_b, lengths)


def test_lstm_rejects_bad_shapes():
    with pytest.raises(T.ShapeError, match="lstm"):
        _bilstm(rand_tensor(6, 4), rand_tensor(8, 2), [2, 2])
    with pytest.raises(T.ShapeError, match="lengths sum to 3, input has 4 columns"):
        _bilstm(rand_tensor(8, 4), rand_tensor(8, 2), [2, 1])
    with pytest.raises(T.ShapeError, match="non-increasing"):
        _bilstm(rand_tensor(8, 4), rand_tensor(8, 2), [1, 3])
    with pytest.raises(T.ShapeError, match="positive"):
        _bilstm(rand_tensor(8, 4), rand_tensor(8, 2), [4, 0])
    with pytest.raises(T.ShapeError, match="positive"):
        _bilstm(rand_tensor(8, 4), rand_tensor(8, 2), [])
    with pytest.raises(T.ShapeError, match=r"inputs \(8, 4\), \(8, 3\)"):
        _bilstm(rand_tensor(8, 4), rand_tensor(8, 2), [2, 2], pre_b=rand_tensor(8, 3))
    with pytest.raises(T.ShapeError, match=r"recurrent \(8, 2\), \(8, 1\)"):
        _bilstm(rand_tensor(8, 4), rand_tensor(8, 2), [2, 2], U_b=rand_tensor(8, 1))


def reference_bilstm(pre_f, pre_b, U_f, U_b, lengths, g):
    """The op's step loop as it was before its stores went step-major, frozen
    as an oracle: (rows, 2n, max_len) blocks, the state in (h, 2n) buffers,
    and the state entering each step rebuilt from shifted copies in the
    backward. Arrays in, the output and the four input gradients for the
    output gradient g out."""
    h = U_f.shape[1]
    cols = pre_f.shape[1]
    n, steps = len(lengths), lengths[0]
    active = [sum(length > t for length in lengths) for t in range(steps)]
    spans = [(n - active[steps - 1 - i], n + active[i]) for i in range(steps)]
    mask = None if lengths[-1] == steps else np.arange(steps) < np.array(lengths)[:, None]

    def views(b):
        return b[:, n:], b[:, n - 1::-1, ::-1]

    def blocked(a_f, a_b):
        b = np.zeros((a_f.shape[0], 2 * n, steps))
        for view, a in zip(views(b), (a_f, a_b)):
            if mask is None:
                view[...] = a.reshape(a.shape[0], n, steps)
            else:
                view[:, mask] = a
        return b

    def packed(view):
        a = np.ascontiguousarray(view)
        return a.reshape(a.shape[0], cols) if mask is None else a[:, mask]

    pre3 = blocked(pre_f, pre_b)
    hs = np.zeros((h, 2 * n, steps))
    acts = np.zeros((4 * h, 2 * n, steps))
    cells = np.zeros((h, 2 * n, steps))
    tanh_c = np.zeros((h, 2 * n, steps))
    h_t = np.zeros((h, 2 * n))
    c_t = np.zeros((h, 2 * n))
    for i, (lo, hi) in enumerate(spans):
        z = np.empty((4 * h, hi - lo))
        np.matmul(U_b, h_t[:, lo:n], out=z[:, :n - lo])
        np.matmul(U_f, h_t[:, n:hi], out=z[:, n - lo:])
        z += pre3[:, lo:hi, i]
        a = np.empty_like(z)
        a[:3 * h] = 0.5 * (np.tanh(0.5 * z[:3 * h]) + 1.0)
        a[3 * h:] = np.tanh(z[3 * h:])
        c = a[h:2 * h] * c_t[:, lo:hi] + a[:h] * a[3 * h:]
        tc = np.tanh(c)
        c_t[:, lo:hi] = c
        np.multiply(a[2 * h:3 * h], tc, out=h_t[:, lo:hi])
        hs[:, lo:hi, i] = h_t[:, lo:hi]
        acts[:, lo:hi, i] = a
        cells[:, lo:hi, i] = c
        tanh_c[:, lo:hi, i] = tc
    out = np.concatenate([packed(v) for v in views(hs)])

    h_in = np.zeros_like(hs)
    c_in = np.zeros_like(cells)
    h_in[:, :, 1:] = hs[:, :, :-1]
    c_in[:, :, 1:] = cells[:, :, :-1]
    i, f, o, gg = acts[:h], acts[h:2 * h], acts[2 * h:3 * h], acts[3 * h:]
    factor = np.concatenate((gg * i * (1.0 - i), c_in * f * (1.0 - f),
                             tanh_c * o * (1.0 - o), i * (1.0 - gg * gg)))
    dc_dh = o * (1.0 - tanh_c * tanh_c)
    g3 = blocked(g[:h], g[h:])
    dpre = np.zeros_like(acts)
    dh_next = np.zeros((h, 2 * n))
    dc_next = np.zeros((h, 2 * n))
    for t in range(steps - 1, -1, -1):
        lo, hi = spans[t]
        dh = g3[:, lo:hi, t] + dh_next[:, lo:hi]
        dc = dh * dc_dh[:, lo:hi, t] + dc_next[:, lo:hi]
        dz = factor[:, lo:hi, t] * np.concatenate((dc, dc, dh, dc))
        dpre[:, lo:hi, t] = dz
        np.multiply(dc, f[:, lo:hi, t], out=dc_next[:, lo:hi])
        np.matmul(U_b.T, dz[:, :n - lo], out=dh_next[:, lo:n])
        np.matmul(U_f.T, dz[:, n - lo:], out=dh_next[:, n:hi])
    dpres = [packed(dp) for dp in views(dpre)]
    dUs = [dp @ packed(hp).T for dp, hp in zip(dpres, views(h_in))]
    return out, dpres[0], dpres[1], dUs[0], dUs[1]


@pytest.mark.parametrize("h", [1, 4, 7, 8])
def test_bilstm_equals_the_frozen_step_loop_bit_for_bit(h):
    # one sequence, one step, uniform lengths, ragged lengths whose last
    # steps have one active column (BLAS's gemv path), then 25 random sets of
    # 1-39 sequences of 1-14 steps, uniform or ragged
    cases = [[1], [6], [1] * 5, [3] * 4, [7, 3], [4, 2, 2, 1], [9, 9, 5, 5, 2]]
    for _ in range(25):
        n, longest = int(RNG.integers(1, 40)), int(RNG.integers(1, 15))
        ragged = RNG.random() < 0.5
        cases.append(sorted(RNG.integers(1, longest + 1, size=n).tolist(), reverse=True)
                     if ragged else [longest] * n)
    for lengths in cases:
        cols = sum(lengths)
        ins = [T.Tensor(RNG.normal(size=s), requires_grad=True)
               for s in ((4 * h, cols), (4 * h, cols), (4 * h, h), (4 * h, h))]
        g = RNG.normal(size=(2 * h, cols))
        expected = reference_bilstm(*(t.data for t in ins), lengths, g)
        out = T.bilstm(*ins, lengths)
        T.backward(sum_all(T.mul(out, T.Tensor(g))))  # the gradient reaching out is g
        with T.no_grad():
            bare = T.bilstm(*ins, lengths)
        got = [out.data] + [t.grad for t in ins]
        for a, b in zip(got, expected):
            assert np.array_equal(a, b), lengths
        assert np.array_equal(bare.data, expected[0]), lengths


@pytest.mark.parametrize("lengths", [[4, 4], [5, 5, 3, 1], [1]])
def test_bilstm_without_a_tape_gives_the_recording_output_and_no_node(lengths):
    # under no_grad the op stores its hidden states and cells, which are its
    # state, but no gate activations; its output must be the recording
    # path's bit for bit, and it must record nothing
    rng = np.random.default_rng(sum(lengths))
    cols = sum(lengths)
    ins = [T.Tensor(rng.normal(size=s), requires_grad=True)
           for s in ((8, cols), (8, cols), (8, 2), (8, 2))]
    recorded = T.bilstm(*ins, lengths)
    with T.no_grad():
        bare = T.bilstm(*ins, lengths)
    assert recorded.requires_grad and recorded._backward is not None
    assert not bare.requires_grad and bare._parents == () and bare._backward is None
    assert bare.data.shape == (4, cols)
    assert np.array_equal(bare.data, recorded.data)


def test_fd_concat_ops():
    rng = np.random.default_rng(5)
    xs = [T.Tensor(rng.normal(size=(3, w)), requires_grad=True) for w in (1, 2, 3)]
    err = T.fd_check(lambda: sum_all(T.tanh(T.concat_cols(xs))), xs)
    assert err < 1e-4
    ys = [T.Tensor(rng.normal(size=(h, 2)), requires_grad=True) for h in (2, 1, 3)]
    err = T.fd_check(lambda: sum_all(T.tanh(T.concat_rows(ys))), ys)
    assert err < 1e-4


def test_fd_linear_loss_is_near_exact():
    w = rand_tensor(3, 2)
    x = rand_tensor(3, 2, requires_grad=False)
    err = T.fd_check(lambda: sum_all(T.mul(w, x)), [w])
    assert err < 1e-10


def test_fd_three_layer_composite():
    rng = np.random.default_rng(13)
    w1 = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w2 = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    w3 = T.Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    x = T.Tensor(rng.normal(size=(3, 5)))

    def build():
        h1 = T.tanh(T.matmul(w1, x))
        h2 = sigmoid(T.matmul(w2, h1))
        return sum_all(T.matmul(w3, h2))

    assert T.fd_check(build, [w1, w2, w3]) < 1e-4


def test_fd_rejects_nondeterministic_builder():
    rng = np.random.default_rng(0)
    w = rand_tensor(2, 2)
    with pytest.raises(ValueError, match="deterministic"):
        T.fd_check(lambda: sum_all(T.mul(w, T.Tensor(rng.normal(size=(2, 2))))), [w])


def _assert_own_grad_arrays(root):
    grads = [t.grad for t in T._toposort(root) if t.grad is not None]
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


def test_shared_subgraph_accumulates():
    # loss = sum(x*x) + sum(x): d/dx = 2x + 1
    x = T.Tensor([[1.5, -0.5]], requires_grad=True)
    loss = T.add(sum_all(T.mul(x, x)), sum_all(x))
    T.backward(loss)
    assert np.allclose(x.grad, 2 * x.data + 1)
    # the same fan-out through an intermediate u = tanh(x), which hands its
    # gradient 2u + 1 on to x and keeps none
    T.zero_grads([x])
    u = T.tanh(x)
    loss = T.add(sum_all(T.mul(u, u)), sum_all(u))
    T.backward(loss)
    assert u.grad is None
    assert np.allclose(x.grad, (2 * u.data + 1) * (1 - u.data ** 2))
    _assert_own_grad_arrays(loss)


def test_backward_through_a_shared_intermediate_adds_each_loss_once():
    # u = tanh(x) is shared by two losses; each backward() sends only its own
    # loss's gradient through u
    x = T.Tensor([[0.4, -1.3]], requires_grad=True)
    u = T.tanh(x)
    T.backward(sum_all(u))
    first = x.grad.copy()
    T.backward(sum_all(T.mul(u, u)))
    y = T.Tensor(x.data, requires_grad=True)
    T.backward(sum_all(T.mul(T.tanh(y), T.tanh(y))))
    assert np.array_equal(x.grad, first + y.grad)
    assert np.allclose(x.grad, (1 + 2 * u.data) * (1 - u.data ** 2), rtol=0, atol=1e-15)
    assert u.grad is None


def test_backward_twice_on_one_loss_doubles_the_gradient():
    x = T.Tensor([[0.4, -1.3], [2.0, 0.1]], requires_grad=True)
    # x's one consumer t feeds three, one of them a slice that adds into part
    # of t's gradient; x gets one contribution per pass, so the sum is exact
    t = T.tanh(x)
    loss = sum_all(T.mul(sigmoid(t), T.add(t, T.concat_cols([cols(t, 1, 2)] * 2))))
    T.backward(loss)
    once = x.grad.copy()
    T.backward(loss)
    assert np.array_equal(x.grad, 2 * once)
    assert loss.grad is None


# (op on the intermediates u = 2x and v = -1.5y, d loss/du and d loss/dv given
# d loss/d out = c) for ops whose backward hands its parents g or a view of it
_FAN_OUT = {
    "add_same": (lambda u, v: T.add(u, u), lambda c: (2 * c, None)),
    "add": (lambda u, v: T.add(u, v), lambda c: (c, c)),
    "sub": (lambda u, v: T.sub(u, v), lambda c: (c, -c)),
    "concat_cols": (lambda u, v: T.concat_cols([u, v, u]),
                    lambda c: (c[:, :2] + c[:, 4:], c[:, 2:4])),
    "concat_rows": (lambda u, v: T.concat_rows([v, u]), lambda c: (c[3:], c[:3])),
    "transpose": (lambda u, v: T.transpose(u), lambda c: (c.T, None)),
}


@pytest.mark.parametrize("case", sorted(_FAN_OUT))
def test_fan_out_grads_are_exact_and_share_no_array(case):
    op, expected = _FAN_OUT[case]
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    y = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    z = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    u, v = T.scale(x, 2.0), T.scale(y, -1.5)
    out = op(u, v)
    c = rng.normal(size=out.data.shape)
    d = rng.normal(size=(3, 2))
    # u's second consumer w = u + z runs its backward first and hands u and z
    # one gradient; were it not copied, u's share from out would land in z's
    w = T.add(u, z)
    loss = T.add(sum_all(T.mul(w, T.Tensor(d))), sum_all(T.mul(out, T.Tensor(c))))
    T.backward(loss)
    du, dv = expected(c)
    assert all(t.grad is None for t in (out, w, u, v))
    assert np.array_equal(z.grad, d)
    assert np.allclose(x.grad, 2 * (du + d), rtol=0, atol=1e-15)
    if dv is None:
        assert y.grad is None
    else:
        assert np.allclose(y.grad, -1.5 * dv, rtol=0, atol=1e-15)
    _assert_own_grad_arrays(loss)


# --- Adamax -------------------------------------------------------------------

def test_adamax_zero_gradient_leaves_params_unchanged():
    p = rand_tensor(2, 2)
    before = p.data.copy()
    opt = T.Adamax({"p": p}, lr=0.01)
    p.grad = np.zeros_like(p.data)
    opt.step()
    assert np.array_equal(p.data, before)


def test_adamax_first_step_matches_hand_applied_recurrence():
    p = T.Tensor([[1.0, -2.0]], requires_grad=True)
    g = np.array([[0.5, -0.25]])
    p.grad = g.copy()
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    opt = T.Adamax({"p": p}, lr=lr, beta1=b1, beta2=b2, eps=eps)
    expected = p.data - (lr / (1 - b1)) * ((1 - b1) * g) / (np.abs(g) + eps)
    opt.step()
    assert np.allclose(p.data, expected, atol=1e-15)


def test_adamax_infnorm_accumulator_decays_only_by_rule():
    p = T.Tensor([[1.0]], requires_grad=True)
    opt = T.Adamax({"p": p}, lr=0.0)  # lr 0 isolates the state recurrence
    p.grad = np.full_like(p.data, 0.5)
    opt.step()
    assert opt.u["p"][0, 0] == pytest.approx(0.5)
    opt.step()
    # second identical step: max(b2*0.5, 0.5) = 0.5
    assert opt.u["p"][0, 0] == pytest.approx(0.5)
    p.grad = np.zeros_like(p.data)
    opt.step()
    # now only the decay branch applies
    assert opt.u["p"][0, 0] == pytest.approx(0.999 * 0.5)


def test_adamax_rejects_state_shape_mismatch():
    p = rand_tensor(2, 2)
    opt = T.Adamax({"p": p})
    opt.m["p"] = np.zeros((3, 3))
    p.grad = np.ones_like(p.data)
    with pytest.raises(T.ShapeError, match="p"):
        opt.step()


def test_clip_global_norm():
    a = T.Tensor([[3.0]], requires_grad=True)
    b = T.Tensor([[4.0]], requires_grad=True)
    a.grad = np.full_like(a.data, 3.0)
    b.grad = np.full_like(b.data, 4.0)
    norm = T.clip_global_norm([a, b], 1.0)
    assert norm == pytest.approx(5.0)
    assert a.grad[0, 0] == pytest.approx(0.6)
    assert b.grad[0, 0] == pytest.approx(0.8)


def test_adamax_reads_a_missing_gradient_as_zero():
    # a parameter no gradient reached steps bitwise as with a zero gradient
    rng = np.random.default_rng(4)
    data, g = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    runs = []
    for second in (None, np.zeros((3, 2))):
        p = T.Tensor(data.copy(), requires_grad=True)
        opt = T.Adamax({"p": p}, lr=0.01)
        p.grad = g.copy()
        opt.step()
        p.grad = second
        opt.step()
        runs.append((p.data, opt.m["p"], opt.u["p"]))
    for missing, zero in zip(*runs):
        assert np.array_equal(missing, zero)


def test_concat_cols_of_one_tensor_is_that_tensor():
    x = rand_tensor(3, 2)
    assert T.concat_cols([x]) is x


def test_no_grad_records_nothing_nests_and_restores_after_an_exception():
    x = T.Tensor([[0.5, -1.5]], requires_grad=True)
    with T.no_grad():
        y = T.tanh(x)
        with T.no_grad():
            pass
        z = T.mul(x, x)  # the inner block's exit keeps the outer block's state
    for out in (y, z):
        assert not out.requires_grad and out._parents == () and out._backward is None
    assert np.array_equal(y.data, np.tanh(x.data))
    with pytest.raises(RuntimeError, match="inside"):
        with T.no_grad():
            raise RuntimeError("inside")
    w = T.tanh(x)
    assert w.requires_grad and w._parents == (x,)
    T.backward(sum_all(w))
    assert np.array_equal(x.grad, 1.0 - w.data * w.data)


# --- checkpoints ---------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(21)
    source = toy_trainer(seed=21)
    params = source.model.parameters()
    opt = T.Adamax(params, lr=0.01)
    for p in params.values():
        p.grad = rng.normal(size=p.data.shape)
    opt.step()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, source.model, source.table)
    model, table = load_checkpoint(path)
    for name, p in params.items():
        assert np.array_equal(model.parameters()[name].data, p.data)
    assert model.config == source.config
    assert table.tokens() == sorted(source.table.tokens())
    assert all(np.array_equal(table.lookup(tok), source.table.lookup(tok)) for tok in table.tokens())


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99, "params": []}')
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_checkpoint_rejects_a_non_finite_value(tmp_path, value):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({"format_version": 1, "params": [
        {"name": "w", "rows": 1, "cols": 2, "values": [1.0, 2.0]},
        {"name": "b", "rows": 2, "cols": 1, "values": [0.5, value]}]}))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == (f"{path}: ValueError: checkpoint entry 'b' has a "
                               "non-finite value")
