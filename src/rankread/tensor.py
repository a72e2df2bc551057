"""Reverse-mode autodiff over 2-D matrices, with an Adamax optimizer.

Every value in the model is a Tensor: a (rows, cols) float array and a grad,
None until a gradient reaches it. Ops build an implicit tape; backward() walks
it in reverse topological order, after which only leaves (tensors no op made)
hold a grad. Gradients are checked against central finite differences via
fd_check().

A training step keeps its memory for the next. The recorded BiLSTM takes its
large arrays from one module-level free list of flat buffers (`_take`): its
input blocks go back when its forward ends, its backward's blocks when that
backward ends, and its stores only when the node is freed, since a second
backward through the node reads them. Each parameter of an Adamax has a
gradient home, an array kept from step to step: the next backward writes the
parameter's gradient there, so a caller that keeps a gradient past the next
step must copy it.
"""

import math
from bisect import bisect_left, insort
from contextlib import contextmanager
from itertools import accumulate
from types import MappingProxyType

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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_home")

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
        self._home = None  # the gradient array an Adamax gives its parameters

    @classmethod
    def _node(cls, data, parents):
        """Internal constructor for op outputs; prunes constant subgraphs."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._backward = None
        out._home = None
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


def _accumulate(t, g, owned=False):
    """Add g into t.grad.

    The first gradient to reach t becomes its grad. A parameter of an Adamax
    has a gradient home, an array it keeps from step to step: g is copied
    there, so the next backward that reaches t writes over this one, and a
    caller that keeps a parameter's gradient past the next step must copy it.
    A g of another shape than the home is a ShapeError, since the copy would
    broadcast it. Any other tensor stores a copy of g, since g may be the consumer's own
    gradient or a view of it, unless owned says that g is the backward's
    own, an array it has just made or the gradient backward() took off its
    node, and that it keeps no other reference to it: never a view of a
    pooled buffer (`_take`). An owned g is stored as it is only when it is
    C-ordered, since a gradient's memory order decides how later products
    and sums over it round.
    """
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif t._home is not None:
        if g.shape != t._home.shape:
            raise ShapeError(f"gradient of shape {g.shape} for a parameter of shape "
                             f"{t._home.shape}")
        t._home[...] = g
        t.grad = t._home
    else:
        t.grad = g if owned and g.flags.c_contiguous else g.copy()


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
                _accumulate(a, g @ b.data.T, owned=True)
            if b.requires_grad:
                _accumulate(b, a.data.T @ g, owned=True)
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
                _accumulate(a, g * local_a, owned=True)
            if b.requires_grad:
                _accumulate(b, g * local_b, owned=True)
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
            _accumulate(v, g.sum(axis=1, keepdims=True), owned=True)
            _accumulate(a, g, owned=True)  # add_col's gradient passes through as it is
        out._backward = bw
    return out


def _unary(a, value, local):
    out = Tensor._node(value, (a,))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, g * local, owned=True)
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
    """Per segment of a row vector, the mean over its picks of
    -log(softmax(segment)[k]), as one fused node; fusing keeps -log(prob)
    exact when a probability underflows.

    a is cut into consecutive segments of the given sizes, and ks[i] lists
    segment i's picks as entries of a inside it. Returns the (len(sizes), 1)
    column of the segments' means. Each segment's picks are added in the
    order of ks[i], then scaled by 1/len(ks[i]), and the backward adds their
    gradients into a.grad in the same order: the bits of the picks added
    one by one, and of one pick for one k.
    """
    sizes, ks = list(sizes), [list(k) for k in ks]
    if a.data.shape[0] != 1:
        raise ShapeError(f"neg_log_softmax: expected a row vector, got {a.data.shape}")
    if not sizes or min(sizes) < 1 or sum(sizes) != a.data.shape[1] or len(ks) != len(sizes):
        raise ShapeError(f"neg_log_softmax: sizes {sizes} do not cut {a.data.shape[1]} entries "
                         f"into {len(ks)} segments")
    ends = list(accumulate(sizes))
    if not all(k and all(end - size <= j < end for j in k)
               for k, size, end in zip(ks, sizes, ends)):
        raise ShapeError(f"neg_log_softmax: indices {ks} out of range for segments {sizes}")
    n, row = len(sizes), a.data[0]
    starts = np.array(ends) - sizes
    seg = np.repeat(np.arange(n), sizes)
    m = np.maximum.reduceat(row, starts)
    lse = m + np.log(np.add.reduceat(np.exp(row - m[seg]), starts))
    counts = np.array([len(k) for k in ks])
    c = 1.0 / counts
    owner = np.repeat(np.arange(n), counts)
    picks = np.array([j for k in ks for j in k])
    out = Tensor._node(
        (np.bincount(owner, weights=lse[owner] - row[picks], minlength=n) * c)[:, None], (a,))
    if out.requires_grad:
        soft = np.exp(row - lse[seg])
        # the r-th pick of every segment that has one: its owner and its entry
        rank = np.arange(len(picks)) - np.repeat(np.cumsum(counts) - counts, counts)
        def bw(g):
            gk = g[:, 0] * c
            step = (gk[seg] * soft)[None]
            for r in range(counts.max()):
                if r == 0:
                    _accumulate(a, step)
                else:
                    live = (counts > r)[seg]
                    np.add(a.grad, step, out=a.grad, where=live[None])
                at = rank == r
                a.grad[0, picks[at]] -= gk[owner[at]]
        out._backward = bw
    return out


def attention(keys, values, queries, key_sizes, query_sizes):
    """Each question's queries attend over its own keys, as one tape node.

    Question i owns key_sizes[i] consecutive columns of keys (l, K) and of
    values (r, K), and query_sizes[i] consecutive columns of queries (l, P).
    Column j of the (r, P) output is question i's values weighted by
    softmax_k(keys_k . queries_j), the softmax over its own keys: with
    question i's blocks written k_i, v_i and q_i, its output block is
    v_i softmax(k_i^T q_i), the softmax taken down each column.

    Each input is cut into zero-padded, C-ordered (n, rows, width) blocks,
    one per question (`_blocks`). Whatever n is, each product is one
    np.matmul over the blocks and the softmax one pass over their axis 1; a
    padded key scores -inf, so it takes no weight, and a padded query column
    is dropped. The backward is hand-written over the same blocks. One
    question gets the bits of transpose, matmul, a column softmax and matmul
    as separate nodes (the composite in tests/test_tensor.py).
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


# ---------------------------------------------------------------------------
# Workspace: flat float64 buffers that outlive a training step
# ---------------------------------------------------------------------------

_free = []  # free flat buffers, smallest first


def _take(*shape):
    """An uninitialized C-ordered array of shape, a view of the smallest free
    buffer that holds it. When none does, the largest free buffer is dropped
    for a new one of the size asked, so there are never more buffers than
    were once in use together. A taken array stays out of the free list
    until _give hands it back; one never given back is simply freed with
    its last reference."""
    size = math.prod(shape)
    i = bisect_left(_free, size, key=len)
    if i < len(_free):
        buf = _free.pop(i)
    else:
        if _free:
            del _free[-1]
        buf = np.empty(size)
    return buf[:size].reshape(shape)


def _give(*arrays):
    """Return arrays made by _take to the free list. None may be read after."""
    for a in arrays:
        insort(_free, a.base, key=len)


class _Lease:
    """Arrays made by _take that go back to the free list when this is freed:
    a tape node's closure holds it, so the arrays live as long as the node."""

    __slots__ = ("arrays",)

    def __init__(self, *arrays):
        self.arrays = arrays

    def __del__(self):
        _give(*self.arrays)


# A bilstm block step with at most this many idle columns runs its elementwise
# ops over the whole row block; of 0, 8, 16, 32, 64 and every step, 32 read
# best at the benchmark's hidden-16 shapes in scripts/bilstm_time.py, and
# every step read slower at hidden 300 (see bilstm's docstring)
FULL_WIDTH_IDLE = 32


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

    The step loop works on step-major (max_len, rows, 2n) blocks. Forward
    sequence j sits in column n+j, backward sequence j in column n-1-j with
    its steps reversed, so block step i holds forward step i and backward
    step max_len-1-i. With active[t] = #(lengths > t), the sequences that
    take iteration i, as in a packed sequence, are the one contiguous column
    range [n - active[max_len-1-i], n + active[i]), and every gate, cell and
    store op runs once per iteration for both directions. The hidden states
    and cells are stored with one extra zero step in front, so step i of each
    store is the state entering block step i: a sequence that has not started
    reads zeros and one that has finished is never read again, so no padded
    position is computed and each sequence's arithmetic is its own.

    Each direction keeps its own recurrent matmul over exactly its own
    columns, so every product has the shape a single-direction loop gives it
    (one active column still takes BLAS's gemv path) and the same bits; a
    stacked or block-diagonal product would round differently. The forward
    matches the composite reference in tests/test_matcher.py, one tape node
    per gate op and step, bit for bit; the backward is hand-written BPTT over
    the same columns, reading the entering state from the stores and
    recomputing tanh(c) from the cells.

    A block step with at most FULL_WIDTH_IDLE idle columns (sequences not
    running at that step) is a full-width step: its elementwise ops run over
    the whole contiguous (rows, 2n) step block, with z in the gate
    activations (in the input block when nothing is recorded) and c and h in
    place in the stores, its recurrent products go to one (4h, 2n) buffer,
    and its BPTT step writes dz in place in the gradient block. A step with
    more idle columns runs every op on its own column range alone. A column
    slice of a step-major block is a strided view that numpy walks one row
    at a time, so the range costs a fixed amount per row, and the full width
    costs its idle columns: in scripts/bilstm_time.py, running every step
    full width read 1.20 and 1.25 times the forward time of this rule at
    hidden 300 on 50 and 300 ragged sequences, where every step idles more
    than 32 columns. Either way both matmuls keep their exact column ranges
    and operand orientation, so BLAS rounds as on the step's own columns.

    A full-width step computes on what its idle columns hold. So when there
    is one and the lengths differ, the input block and the output gradient's
    block are zeros outside the sequences; the stores start as zeros in the
    ragged case, since the other steps leave their idle columns unwritten;
    and a column of the product buffer holds 0 until its sequence first
    runs. A backward sequence that has not started then keeps an exactly
    zero state (z = 0 gives gates 0.5, 0.5, 0.5, 0, so c = h = 0), and a
    finished forward sequence carries finite values, from its last product,
    that neither the output gather nor the U-gradient gather reads. In the
    BPTT, the state gradient of a forward sequence that has not yet reached
    its last step stays exactly +0.

    When the op records a node, its blocks come from the workspace (`_take`),
    so a training step reuses the memory of the one before. The input blocks
    go back when the forward ends. The stores (states, cells and the gate
    activations, which only a recorded node keeps) go back when the node is
    freed, since every backward through it reads them. The backward's blocks
    go back when that backward ends. Under no_grad every block is a new
    array, and the stores are zero-filled.
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
    gates, state = (steps, rows, 2 * n), (steps, h, 2 * n)
    wide = [hi - lo + FULL_WIDTH_IDLE >= 2 * n for lo, hi in spans]
    any_wide = any(wide)
    zero_idle = mask is not None and any_wide  # a full-width step reads idle columns

    def views(b):  # each direction's (rows, n, steps) view of a step-major block, in input order
        b = b.transpose(1, 2, 0)
        return b[:, n:], b[:, n - 1::-1, ::-1]

    def blocked(a_f, a_b, b):
        # fills b's columns in the spans, and zeros the others when a
        # full-width step reads them
        if zero_idle:
            b.fill(0.0)
        for view, a in zip(views(b), (a_f, a_b)):
            if mask is None:
                view[...] = a.reshape(a.shape[0], n, steps)
            else:
                view[:, mask] = a
        return b

    def packed(view):
        # copied to one direction's own contiguous block first: the memory
        # order of the U gradient's gemm operands decides its rounding
        a = np.array(view, order="C")
        return a.reshape(a.shape[0], cols) if mask is None else a[:, mask]

    def activate(z):
        # one tanh for all four gates; the sigmoid rows take the overflow-safe
        # form 0.5 * (tanh(0.5 z) + 1), in place
        sig = z[:3 * h]
        sig *= 0.5
        np.tanh(z, out=z)
        sig += 1.0
        sig *= 0.5
        return z

    out = Tensor._node(None, (pre_f, pre_b, U_f, U_b))  # data comes after the loop
    record = out.requires_grad
    if record:
        pre3, acts = blocked(pre_f.data, pre_b.data, _take(*gates)), _take(*gates)
        hs, cells = _take(steps + 1, h, 2 * n), _take(steps + 1, h, 2 * n)
        # a store's positions the loop does not write: the entering zeros, and
        # the idle columns of the other steps, which full-width steps and the
        # backward's elementwise ops read
        for a in (hs, cells, acts) if mask is not None else (hs[0], cells[0]):
            a.fill(0.0)
    else:
        pre3 = blocked(pre_f.data, pre_b.data, np.empty(gates))
        hs = np.zeros((steps + 1, h, 2 * n))  # [i]: the state entering block step i
        cells = np.zeros_like(hs)
    if any_wide:
        # the full-width steps' recurrent products: a backward column holds 0
        # until its sequence starts, a finished forward column its last product
        u, ig = np.zeros((rows, 2 * n)), np.empty((h, 2 * n))
    for i, (lo, hi) in enumerate(spans):
        z = u[:, lo:hi] if wide[i] else np.empty((4 * h, hi - lo))
        np.matmul(U_b.data, hs[i, :, lo:n], out=z[:, :n - lo])
        np.matmul(U_f.data, hs[i, :, n:hi], out=z[:, n - lo:])
        if wide[i]:
            a = activate(np.add(u, pre3[i], out=acts[i] if record else pre3[i]))
            c = np.multiply(a[h:2 * h], cells[i], out=cells[i + 1])
            c += np.multiply(a[:h], a[3 * h:], out=ig)
            np.multiply(a[2 * h:3 * h], np.tanh(c, out=ig), out=hs[i + 1])
            continue
        z += pre3[i, :, lo:hi]
        a = activate(z)
        c = a[h:2 * h] * cells[i, :, lo:hi]
        c += a[:h] * a[3 * h:]
        cells[i + 1, :, lo:hi] = c
        np.multiply(a[2 * h:3 * h], np.tanh(c), out=hs[i + 1, :, lo:hi])
        if record:
            acts[i, :, lo:hi] = a
    out.data = np.concatenate([packed(v) for v in views(hs[1:])])
    if record:
        _give(pre3)
        stores = _Lease(hs, cells, acts)

        def bw(g):
            hs, cells, acts = stores.arrays
            i, f, o, gg = acts[:, :h], acts[:, h:2 * h], acts[:, 2 * h:3 * h], acts[:, 3 * h:]
            tanh_c = np.tanh(cells[1:], out=_take(*state))
            # dz = factor * (dc for rows i, f, g; dh for rows o), each block
            # written in place with dc_dh's buffer as scratch; step t's dz then
            # takes factor[t]'s place, so factor ends as the gradient of pre
            factor, dc_dh = _take(*gates), _take(*state)
            for block, (x, y, gate) in zip(np.split(factor, 4, axis=1),
                                            ((gg, i, i), (cells[:-1], f, f), (tanh_c, o, o))):
                np.subtract(1.0, gate, out=dc_dh)
                np.multiply(x, y, out=block)
                block *= dc_dh
            np.multiply(gg, gg, out=dc_dh)
            np.subtract(1.0, dc_dh, out=dc_dh)
            np.multiply(i, dc_dh, out=factor[:, 3 * h:])
            np.multiply(tanh_c, tanh_c, out=dc_dh)
            np.subtract(1.0, dc_dh, out=dc_dh)
            dc_dh *= o
            g3 = blocked(g[:h], g[h:], tanh_c)  # tanh(c) is read no more
            dh_next = np.zeros((h, 2 * n))  # gradient reaching the state entering a step
            dc_next = np.zeros((h, 2 * n))
            if any_wide:
                dh_wide, dc_wide = np.empty((h, 2 * n)), np.empty((h, 2 * n))
                factor4 = factor.reshape(steps, 4, h, 2 * n)
            for t in range(steps - 1, -1, -1):
                lo, hi = spans[t]
                if wide[t]:
                    dh = np.add(g3[t], dh_next, out=dh_wide)
                    dc = np.multiply(dh, dc_dh[t], out=dc_wide)
                    dc += dc_next
                    factor4[t, :2] *= dc
                    factor4[t, 2] *= dh
                    factor4[t, 3] *= dc
                    np.multiply(dc, f[t], out=dc_next)
                    dz = factor[t, :, lo:hi]
                else:
                    dh = g3[t, :, lo:hi] + dh_next[:, lo:hi]
                    dc = dh * dc_dh[t, :, lo:hi] + dc_next[:, lo:hi]
                    dz = factor[t, :, lo:hi] * np.concatenate((dc, dc, dh, dc))
                    factor[t, :, lo:hi] = dz
                    np.multiply(dc, f[t, :, lo:hi], out=dc_next[:, lo:hi])
                np.matmul(U_b.data.T, dz[:, :n - lo], out=dh_next[:, lo:n])
                np.matmul(U_f.data.T, dz[:, n - lo:], out=dh_next[:, n:hi])
            for pre, U, dp, hp in zip((pre_f, pre_b), (U_f, U_b), views(factor), views(hs[:-1])):
                dp = packed(dp)
                _accumulate(pre, dp, owned=True)
                if U.requires_grad:
                    _accumulate(U, dp @ packed(hp).T, owned=True)
            _give(tanh_c, factor, dc_dh)
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

    The parameters' values, their gradients, m and u are views of four flat
    vectors, one slice per parameter in the order given: building the
    optimizer moves each parameter's values into its slice, and makes its
    gradient slice the parameter's home (`_accumulate`). A parameter's grad
    stays None until a gradient reaches it; the home is reused by every
    backward after that, so a caller that keeps a gradient past the next
    step must copy it. A second Adamax over the same parameters moves them
    again, and the first may not step after that. step() is one pass over
    the flat vectors, with two workspace buffers (`_take`) as scratch; a
    parameter no gradient reached steps as with a zero gradient. The m and u
    mappings are read-only: their entries are the views, so state is
    restored by writing into them, and replacing an entry is a TypeError.
    """

    def __init__(self, params, lr=0.002, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        sizes = [p.data.size for p in self.params.values()]
        self._data, self._grad, self._m, self._u = (np.zeros(sum(sizes)) for _ in range(4))
        m_views, u_views, self._slots = {}, {}, []
        for (name, p), end, size in zip(self.params.items(), accumulate(sizes), sizes):
            data, home, m, u = (v[end - size:end].reshape(p.data.shape)
                                for v in (self._data, self._grad, self._m, self._u))
            data[...] = p.data
            p.data, p._home = data, home
            m_views[name], u_views[name] = m, u
            self._slots.append((name, p, data, home))
        self.m, self.u = MappingProxyType(m_views), MappingProxyType(u_views)

    def step(self):
        for name, p, data, home in self._slots:
            if p.data is not data or p._home is not home:
                raise ShapeError(f"adamax: parameter {name!r} is no longer in this optimizer's "
                                 "vectors")
            if p.grad is None:  # no gradient reached p
                home.fill(0.0)
            elif p.grad is not home:
                if p.grad.shape != data.shape:
                    raise ShapeError(f"adamax: shape mismatch for parameter {name!r}")
                home[...] = p.grad
        self.t += 1
        correction = 1.0 - self.beta1 ** self.t
        g, m, u = self._grad, self._m, self._u
        step, denom = _take(g.size), _take(g.size)
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=step)
        u *= self.beta2
        np.maximum(u, np.abs(g, out=step), out=u)
        np.multiply(self.lr / correction, m, out=step)
        step /= np.add(u, self.eps, out=denom)
        self._data -= step
        _give(step, denom)
