"""Reverse-mode autodiff over 2-D matrices, with an Adamax optimizer.

Every value in the model is a Tensor: a (rows, cols) float array and a grad,
None until a gradient reaches it. Ops build an implicit tape; backward() walks
it in reverse topological order, after which only leaves (tensors no op made)
hold a grad. Gradients are checked against central finite differences via
fd_check().
"""

import math
from contextlib import contextmanager
from itertools import accumulate

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an op's rule."""


_recording = True  # False inside no_grad()


@contextmanager
def no_grad():
    """Suspend tape recording; forward values only. Restores the previous
    state on exit, so blocks nest."""
    global _recording
    prev, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D matrices, got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @classmethod
    def _node(cls, data, parents):
        """Internal constructor for op outputs; prunes constant subgraphs."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._backward = None
        if _recording and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
        else:
            out.requires_grad = False
            out._parents = ()
        return out

    def item(self):
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(rng, rows, cols, scale=0.1):
    """Trainable tensor with entries uniform in [-scale, scale]."""
    return Tensor(rng.uniform(-scale, scale, size=(rows, cols)), requires_grad=True)


def _accumulate(t, g):
    """Add g into t.grad. The first gradient to reach t is stored as a copy,
    since g may be the consumer's own gradient or a view of it."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _ensure_grad(t):
    # for the ops that add into part of the buffer
    if t.grad is None:
        t.grad = np.zeros_like(t.data)


# ---------------------------------------------------------------------------
# Ops. Each records a closure that accumulates into its parents' grads.
# ---------------------------------------------------------------------------

def matmul(a, b):
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: shapes {a.data.shape} x {b.data.shape} do not conform")
    out = Tensor._node(a.data @ b.data, (a, b))
    if out.requires_grad:
        def bw(g):
            if a.requires_grad:
                _accumulate(a, g @ b.data.T)
            if b.requires_grad:
                _accumulate(b, a.data.T @ g)
        out._backward = bw
    return out


def _elementwise(name, ufunc, a, b, local_a, local_b):
    """Same-shape elementwise op: value ufunc(a, b), with local gradients
    local_a and local_b (arrays or constants) for a and b."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name}: shapes {a.data.shape} vs {b.data.shape} differ")
    out = Tensor._node(ufunc(a.data, b.data), (a, b))
    if out.requires_grad:
        def bw(g):
            if a.requires_grad:
                _accumulate(a, g * local_a)
            if b.requires_grad:
                _accumulate(b, g * local_b)
        out._backward = bw
    return out


def add(a, b):
    return _elementwise("add", np.add, a, b, 1.0, 1.0)


def sub(a, b):
    return _elementwise("sub", np.subtract, a, b, 1.0, -1.0)


def mul(a, b):
    return _elementwise("mul", np.multiply, a, b, b.data, a.data)


def add_col(a, v):
    """Broadcast a (rows, 1) column across every column of a (rows, cols) matrix."""
    if v.data.shape != (a.data.shape[0], 1):
        raise ShapeError(f"add_col: column {v.data.shape} does not broadcast over {a.data.shape}")
    out = Tensor._node(a.data + v.data, (a, v))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, g)
            _accumulate(v, g.sum(axis=1, keepdims=True))
        out._backward = bw
    return out


def _unary(a, value, local):
    out = Tensor._node(value, (a,))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, g * local)
        out._backward = bw
    return out


def tanh(a):
    y = np.tanh(a.data)
    return _unary(a, y, 1.0 - y * y)


def relu(a):
    y = np.maximum(a.data, 0.0)
    return _unary(a, y, (a.data > 0).astype(a.data.dtype))


def scale(a, c):
    """Multiply by a Python constant."""
    c = float(c)
    return _unary(a, a.data * c, c)


def _softmax(s, axis):
    """Softmax of an array along axis, max-subtracted for stability."""
    e = np.exp(s - s.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cols(a):
    """Column-wise softmax, max-subtracted for stability."""
    y = _softmax(a.data, 0)
    out = Tensor._node(y, (a,))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, y * (g - (g * y).sum(axis=0, keepdims=True)))
        out._backward = bw
    return out


def transpose(a):
    out = Tensor._node(a.data.T.copy(), (a,))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, g.T)
        out._backward = bw
    return out


def _concat(name, tensors, axis):
    """Stack matrices along axis 1 (side by side) or 0 (vertically). One
    tensor is returned as it is, with no new node."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError(f"{name}: empty input")
    if len(tensors) == 1:
        return tensors[0]
    size = tensors[0].data.shape[1 - axis]
    for t in tensors:
        if t.data.shape[1 - axis] != size:
            raise ShapeError(f"{name}: {('column', 'row')[axis]} counts differ "
                             f"({size} vs {t.data.shape[1 - axis]})")
    out = Tensor._node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        widths = [t.data.shape[axis] for t in tensors]
        def bw(g):
            j = 0
            for t, w in zip(tensors, widths):
                _accumulate(t, g[:, j:j + w] if axis else g[j:j + w])
                j += w
        out._backward = bw
    return out


def concat_cols(tensors):
    """[A | B | ...]"""
    return _concat("concat_cols", tensors, 1)


def concat_rows(tensors):
    """[A; B; ...]"""
    return _concat("concat_rows", tensors, 0)


def take_cols(a, index):
    """Columns index of a, in that order, as one node: a column gather.

    np.take's copy is C-ordered like every other op's output (a[:, index]
    would be F-ordered, and a matmul operand's order can change its
    rounding). A column is taken once at most: the backward adds each
    output column's gradient into its source column once.
    """
    index = np.asarray(index, dtype=np.intp)
    cols = a.data.shape[1]
    if index.ndim != 1 or (index.size and (index.min() < 0 or index.max() >= cols)):
        raise ShapeError(f"take_cols: index out of range for {a.data.shape}")
    if index.size and np.bincount(index).max() > 1:
        raise ShapeError("take_cols: a column is taken twice")
    out = Tensor._node(np.take(a.data, index, axis=1), (a,))
    if out.requires_grad:
        def bw(g):
            _ensure_grad(a)
            a.grad[:, index] += g
        out._backward = bw
    return out


def segment_max(a, widths):
    """Row-wise max over each segment of a's columns (max pooling), cut into
    consecutive segments of the given widths: (rows, len(widths)). The
    gradient routes to each segment's first argmax."""
    widths = list(widths)
    if not widths or min(widths) < 1 or sum(widths) != a.data.shape[1]:
        raise ShapeError(f"segment_max: widths {widths} do not cut {a.data.shape[1]} columns")
    idx = np.stack([a.data[:, end - w:end].argmax(axis=1) + (end - w)
                    for w, end in zip(widths, accumulate(widths))], axis=1)
    rows = np.arange(a.data.shape[0])[:, None]
    out = Tensor._node(a.data[rows, idx], (a,))
    if out.requires_grad:
        def bw(g):
            _ensure_grad(a)
            a.grad[rows, idx] += g
        out._backward = bw
    return out


def neg_log_softmax_mean(a, sizes, ks):
    """Per segment of a column vector, the mean over its picks of
    -log(softmax(segment)[k]), as one fused node; fusing keeps -log(prob)
    exact when a probability underflows.

    a is cut into consecutive segments of the given sizes, and ks[i] lists
    segment i's picks as rows of a inside it. Returns the (len(sizes), 1)
    column of the segments' means. Each segment's picks are added in the
    order of ks[i], then scaled by 1/len(ks[i]), and the backward adds their
    gradients into a.grad in the same order: the bits of the picks added
    one by one, and of one pick for one k.
    """
    sizes, ks = list(sizes), [list(k) for k in ks]
    if a.data.shape[1] != 1:
        raise ShapeError(f"neg_log_softmax: expected a column vector, got {a.data.shape}")
    if not sizes or min(sizes) < 1 or sum(sizes) != a.data.shape[0] or len(ks) != len(sizes):
        raise ShapeError(f"neg_log_softmax: sizes {sizes} do not cut {a.data.shape[0]} rows "
                         f"into {len(ks)} segments")
    ends = list(accumulate(sizes))
    if not all(k and all(end - size <= j < end for j in k)
               for k, size, end in zip(ks, sizes, ends)):
        raise ShapeError(f"neg_log_softmax: indices {ks} out of range for segments {sizes}")
    n, col = len(sizes), a.data[:, 0]
    starts = np.array(ends) - sizes
    seg = np.repeat(np.arange(n), sizes)
    m = np.maximum.reduceat(col, starts)
    lse = m + np.log(np.add.reduceat(np.exp(col - m[seg]), starts))
    counts = np.array([len(k) for k in ks])
    c = 1.0 / counts
    owner = np.repeat(np.arange(n), counts)
    picks = np.array([j for k in ks for j in k])
    out = Tensor._node(
        (np.bincount(owner, weights=lse[owner] - col[picks], minlength=n) * c)[:, None], (a,))
    if out.requires_grad:
        soft = np.exp(col - lse[seg])
        # the r-th pick of every segment that has one: its owner and its row
        rank = np.arange(len(picks)) - np.repeat(np.cumsum(counts) - counts, counts)
        def bw(g):
            gk = g[:, 0] * c
            step = (gk[seg] * soft)[:, None]
            for r in range(counts.max()):
                if r == 0:
                    _accumulate(a, step)
                else:
                    live = (counts > r)[seg]
                    np.add(a.grad, step, out=a.grad, where=live[:, None])
                at = rank == r
                a.grad[picks[at], 0] -= gk[owner[at]]
        out._backward = bw
    return out


def attention(keys, values, queries, key_sizes, query_sizes):
    """Each question's queries attend over its own keys, as one tape node.

    Question i owns key_sizes[i] consecutive columns of keys (l, K) and of
    values (r, K), and query_sizes[i] consecutive columns of queries (l, P).
    Column j of the (r, P) output is question i's values weighted by
    softmax_k(keys_k . queries_j), the softmax over its own keys: with
    question i's blocks written k_i, v_i and q_i, its output block is
    v_i softmax_cols(k_i^T q_i).

    Each input is cut into zero-padded, C-ordered (n, rows, width) blocks,
    one per question (`_blocks`). Whatever n is, each product is one
    np.matmul over the blocks and the softmax one pass over their axis 1; a
    padded key scores -inf, so it takes no weight, and a padded query column
    is dropped. The backward is hand-written over the same blocks. One
    question gets the bits of transpose, matmul, softmax_cols and matmul.
    """
    key_sizes, query_sizes = list(key_sizes), list(query_sizes)
    (l, k), n = keys.data.shape, len(key_sizes)
    if (values.data.shape[1] != k or queries.data.shape[0] != l or not n
            or len(query_sizes) != n or min(key_sizes + query_sizes) < 1
            or sum(key_sizes) != k or sum(query_sizes) != queries.data.shape[1]):
        raise ShapeError(f"attention: keys {keys.data.shape}, values {values.data.shape} and "
                         f"queries {queries.data.shape} are not cut by key sizes {key_sizes} "
                         f"and query sizes {query_sizes}")
    k3 = np.ascontiguousarray(_blocks(keys.data, key_sizes).transpose(0, 2, 1))
    v3, q3 = _blocks(values.data, key_sizes), _blocks(queries.data, query_sizes)
    s = np.matmul(k3, q3)
    for i, size in enumerate(key_sizes):
        if size < s.shape[1]:  # a block's padded keys score -inf
            s[i, size:] = -np.inf
    w3 = _softmax(s, 1)
    out = Tensor._node(_joined(np.matmul(v3, w3), query_sizes), (keys, values, queries))
    if out.requires_grad:
        def bw(g):
            g3 = _blocks(g, query_sizes)
            if values.requires_grad:
                _accumulate(values, _joined(np.matmul(g3, w3.transpose(0, 2, 1)), key_sizes))
            dw = np.matmul(v3.transpose(0, 2, 1), g3)
            ds = w3 * (dw - (dw * w3).sum(axis=1, keepdims=True))
            if keys.requires_grad:
                dk = np.matmul(ds, q3.transpose(0, 2, 1))
                _accumulate(keys, _joined(dk.transpose(0, 2, 1), key_sizes))
            if queries.requires_grad:
                _accumulate(queries, _joined(np.matmul(k3.transpose(0, 2, 1), ds), query_sizes))
        out._backward = bw
    return out


def _blocks(a, sizes):
    """(n, rows, max(sizes)) blocks of a's (rows, sum(sizes)) columns: block i
    holds the sizes[i] columns of slice i, then zeros. A lone block is a view
    of a itself, not a padded copy, so no block may be written into."""
    if len(sizes) == 1:
        return a[None]
    out = np.zeros((len(sizes), a.shape[0], max(sizes)))
    for block, size, end in zip(out, sizes, accumulate(sizes)):
        block[:, :size] = a[:, end - size:end]
    return out


def _joined(blocks, sizes):
    """The inverse of _blocks: the first sizes[i] columns of block i, side by
    side. A lone block is its own columns, so it is returned as a view."""
    if len(sizes) == 1:
        return blocks[0]
    return np.concatenate([block[:, :size] for block, size in zip(blocks, sizes)], axis=1)


def bilstm(pre_f, pre_b, U_f, U_b, lengths):
    """Both directions of an LSTM layer over sequences of any lengths, as a
    single tape node.

    pre_f and pre_b are the forward and backward (4h, sum(lengths)) input
    projections W x + b with the sequences side by side: sequence j's columns
    follow sequence j-1's, in step order. lengths must be positive and
    non-increasing. U_f and U_b are the (4h, h) recurrent matrices and gate
    rows are [i, f, o, g]. Returns [h_fwd; h_bwd], the (2h, sum(lengths))
    hidden states in the same column order; the backward direction runs each
    sequence from its last step to its first.

    The step loop works on step-major (max_len, rows, 2n) blocks with zeros
    past each sequence's end. Forward sequence j sits in column n+j, backward
    sequence j in column n-1-j with its steps reversed, so block step i holds
    forward step i and backward step max_len-1-i. With active[t] =
    #(lengths > t), the sequences that take iteration i, as in a packed
    sequence, are the one contiguous column range [n - active[max_len-1-i],
    n + active[i]), and every gate, cell and store op runs once per iteration
    for both directions. The hidden states and cells are stored with one
    extra zero step in front, so step i of each store is the state entering
    block step i: a sequence that has not started reads zeros and one that
    has finished is never read again, so no padded position is computed and
    each sequence's arithmetic is its own.

    Each direction keeps its own recurrent matmul over exactly its own
    columns, so every product has the shape a single-direction loop gives it
    (one active column still takes BLAS's gemv path) and the same bits; a
    stacked or block-diagonal product would round differently. The forward
    matches the composite reference in tests/test_matcher.py, one tape node
    per gate op and step, bit for bit; the backward is hand-written BPTT over
    the same columns, reading the entering state from the stores and
    recomputing tanh(c) from the cells. Gate activations are stored only when
    the op records a node.
    """
    h = U_f.data.shape[1]
    rows, cols = pre_f.data.shape
    if (U_f.data.shape != (4 * h, h) or U_b.data.shape != U_f.data.shape or rows != 4 * h
            or pre_b.data.shape != pre_f.data.shape):
        raise ShapeError(f"bilstm: inputs {pre_f.data.shape}, {pre_b.data.shape} and recurrent "
                         f"{U_f.data.shape}, {U_b.data.shape} need shapes (4h, sum(lengths)) "
                         "and (4h, h)")
    # plain Python on the lengths: numpy's per-call cost would outweigh it
    lengths = list(lengths)
    if not lengths or min(lengths) < 1:
        raise ShapeError(f"bilstm: sequence lengths must be positive, got {lengths}")
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise ShapeError(f"bilstm: sequence lengths must be non-increasing, got {lengths}")
    if sum(lengths) != cols:
        raise ShapeError(f"bilstm: lengths sum to {sum(lengths)}, input has {cols} columns")
    n, steps = len(lengths), lengths[0]
    ends = [0] * steps  # ends[t]: how many sequences take their last step at t
    for length in lengths:
        ends[length - 1] += 1
    active = list(accumulate(reversed(ends)))[::-1]  # active[t]: how many are longer than t
    spans = [(n - active[steps - 1 - i], n + active[i]) for i in range(steps)]
    mask = None if lengths[-1] == steps else np.arange(steps) < np.array(lengths)[:, None]

    def views(b):  # each direction's (rows, n, steps) view of a step-major block, in input order
        b = b.transpose(1, 2, 0)
        return b[:, n:], b[:, n - 1::-1, ::-1]

    def blocked(a_f, a_b):
        b = np.zeros((steps, a_f.shape[0], 2 * n))
        for view, a in zip(views(b), (a_f, a_b)):
            if mask is None:
                view[...] = a.reshape(a.shape[0], n, steps)
            else:
                view[:, mask] = a
        return b

    def packed(view):
        # copied to one direction's own contiguous block first: the memory
        # order of the U gradient's gemm operands decides its rounding
        a = np.ascontiguousarray(view)
        return a.reshape(a.shape[0], cols) if mask is None else a[:, mask]

    out = Tensor._node(None, (pre_f, pre_b, U_f, U_b))  # data comes after the loop
    record = out.requires_grad
    pre3 = blocked(pre_f.data, pre_b.data)
    hs = np.zeros((steps + 1, h, 2 * n))  # [i]: the state entering block step i
    cells = np.zeros_like(hs)
    if record:  # zeros past each sequence's end, which the backward reads
        acts = np.zeros((steps, 4 * h, 2 * n))  # gate activations i, f, o, g
    for i, (lo, hi) in enumerate(spans):
        z = np.empty((4 * h, hi - lo))
        np.matmul(U_b.data, hs[i, :, lo:n], out=z[:, :n - lo])
        np.matmul(U_f.data, hs[i, :, n:hi], out=z[:, n - lo:])
        z += pre3[i, :, lo:hi]
        # one tanh for all four gates; the sigmoid rows take the overflow-safe
        # form 0.5 * (tanh(0.5 z) + 1), in place
        sig = z[:3 * h]
        sig *= 0.5
        a = np.tanh(z, out=z)
        sig += 1.0
        sig *= 0.5
        c = a[h:2 * h] * cells[i, :, lo:hi]
        c += a[:h] * a[3 * h:]
        cells[i + 1, :, lo:hi] = c
        np.multiply(a[2 * h:3 * h], np.tanh(c), out=hs[i + 1, :, lo:hi])
        if record:
            acts[i, :, lo:hi] = a
    out.data = np.concatenate([packed(v) for v in views(hs[1:])])
    if record:
        def bw(g):
            i, f, o, gg = acts[:, :h], acts[:, h:2 * h], acts[:, 2 * h:3 * h], acts[:, 3 * h:]
            tanh_c = np.tanh(cells[1:])
            # dz = factor * (dc for rows i, f, g; dh for rows o)
            factor = np.concatenate((gg * i * (1.0 - i), cells[:-1] * f * (1.0 - f),
                                     tanh_c * o * (1.0 - o), i * (1.0 - gg * gg)), axis=1)
            dc_dh = o * (1.0 - tanh_c * tanh_c)
            g3 = blocked(g[:h], g[h:])
            dpre = np.zeros_like(acts)
            dh_next = np.zeros((h, 2 * n))  # gradient reaching the state entering a step
            dc_next = np.zeros((h, 2 * n))
            for t in range(steps - 1, -1, -1):
                lo, hi = spans[t]
                dh = g3[t, :, lo:hi] + dh_next[:, lo:hi]
                dc = dh * dc_dh[t, :, lo:hi] + dc_next[:, lo:hi]
                dz = factor[t, :, lo:hi] * np.concatenate((dc, dc, dh, dc))
                dpre[t, :, lo:hi] = dz
                np.multiply(dc, f[t, :, lo:hi], out=dc_next[:, lo:hi])
                np.matmul(U_b.data.T, dz[:, :n - lo], out=dh_next[:, lo:n])
                np.matmul(U_f.data.T, dz[:, n - lo:], out=dh_next[:, n:hi])
            for pre, U, dp, hp in zip((pre_f, pre_b), (U_f, U_b), views(dpre), views(hs[:-1])):
                dp = packed(dp)
                _accumulate(pre, dp)
                if U.requires_grad:
                    _accumulate(U, dp @ packed(hp).T)
        out._backward = bw
    return out


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Add d(loss)/d(t) into .grad for every leaf t reachable from loss.

    Each op output's gradient is taken off it before its backward runs, so a
    later backward() through the same nodes sends down only its own gradient,
    and batch accumulation is repeated backward() without zero_grads().
    """
    if loss.data.shape != (1, 1):
        raise ShapeError(f"backward: loss must be a 1x1 scalar, got {loss.data.shape}")
    order = _toposort(loss)
    _accumulate(loss, np.ones((1, 1)))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            g, node.grad = node.grad, None
            node._backward(g)


def zero_grads(params):
    for p in params:
        p.grad = None


def clip_global_norm(params, max_norm):
    """Scale all grads in place so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def fd_check(loss_builder, params, h=1e-5):
    """Max relative error between backward() grads and central differences.

    loss_builder must rebuild the loss from scratch (the tape is not reusable)
    and must be deterministic; two evaluations are compared to detect otherwise.
    Error per entry is |analytic - fd| / max(1e-8, |fd|).
    """
    if loss_builder().item() != loss_builder().item():
        raise ValueError("fd_check: loss_builder is not deterministic")
    zero_grads(params)
    backward(loss_builder())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        rows, cols = p.data.shape
        for i in range(rows):
            for j in range(cols):
                orig = p.data[i, j]
                p.data[i, j] = orig + h
                fp = loss_builder().item()
                p.data[i, j] = orig - h
                fm = loss_builder().item()
                p.data[i, j] = orig
                fd = (fp - fm) / (2.0 * h)
                rel = abs(ga[i, j] - fd) / max(1e-8, abs(fd))
                if rel > worst:
                    worst = rel
    return worst


# ---------------------------------------------------------------------------
# Adamax
# ---------------------------------------------------------------------------

class Adamax:
    """Adamax: Adam with an infinity-norm second moment.

    m <- b1*m + (1-b1)*g ; u <- max(b2*u, |g|) ; p -= lr/(1-b1^t) * m/(u+eps)
    """

    def __init__(self, params, lr=0.002, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.u = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self):
        self.t += 1
        correction = 1.0 - self.beta1 ** self.t
        for name, p in self.params.items():
            g = 0.0 if p.grad is None else p.grad  # no gradient reached p
            if np.shape(g) not in ((), p.data.shape) or self.m[name].shape != p.data.shape:
                raise ShapeError(f"adamax: shape mismatch for parameter {name!r}")
            m = self.m[name]
            u = self.u[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            np.maximum(self.beta2 * u, np.abs(g), out=u)
            p.data -= (self.lr / correction) * m / (u + self.eps)
