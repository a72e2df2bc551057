"""Reverse-mode autodiff over 2-D matrices, with an Adamax optimizer.

Every value in the model is a Tensor: a (rows, cols) float array and a grad,
None until a gradient reaches it. Ops build an implicit tape; backward() walks
it in reverse topological order, after which only leaves (tensors no op made)
hold a grad. Gradients are checked against central finite differences via
fd_check().
"""

import json
import math
from contextlib import contextmanager
from itertools import accumulate

import numpy as np

from .files import atomic_write, one_line_errors, read_versioned_json


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


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} vs {b.data.shape} differ")
    out = Tensor._node(a.data + b.data, (a, b))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, g)
            _accumulate(b, g)
        out._backward = bw
    return out


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


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.data.shape} vs {b.data.shape} differ")
    out = Tensor._node(a.data * b.data, (a, b))
    if out.requires_grad:
        def bw(g):
            if a.requires_grad:
                _accumulate(a, g * b.data)
            if b.requires_grad:
                _accumulate(b, g * a.data)
        out._backward = bw
    return out


def sub(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: shapes {a.data.shape} vs {b.data.shape} differ")
    out = Tensor._node(a.data - b.data, (a, b))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, g)
            _accumulate(b, -g)
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


def _sigmoid(x):
    return 0.5 * (np.tanh(0.5 * x) + 1.0)  # tanh form is overflow-safe for any sign


def scale(a, c):
    """Multiply by a Python constant."""
    c = float(c)
    return _unary(a, a.data * c, c)


def softmax_cols(a):
    """Column-wise softmax, max-subtracted for stability."""
    z = a.data - a.data.max(axis=0, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=0, keepdims=True)
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


def concat_cols(tensors):
    """Stack matrices side by side: [A | B | ...]. One tensor is returned as
    it is, with no new node."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat_cols: empty input")
    if len(tensors) == 1:
        return tensors[0]
    rows = tensors[0].data.shape[0]
    for t in tensors:
        if t.data.shape[0] != rows:
            raise ShapeError(f"concat_cols: row counts differ ({rows} vs {t.data.shape[0]})")
    out = Tensor._node(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors))
    if out.requires_grad:
        widths = [t.data.shape[1] for t in tensors]
        def bw(g):
            j = 0
            for t, w in zip(tensors, widths):
                _accumulate(t, g[:, j:j + w])
                j += w
        out._backward = bw
    return out


def concat_rows(tensors):
    """Stack matrices vertically: [A; B; ...]."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat_rows: empty input")
    cols = tensors[0].data.shape[1]
    for t in tensors:
        if t.data.shape[1] != cols:
            raise ShapeError(f"concat_rows: column counts differ ({cols} vs {t.data.shape[1]})")
    out = Tensor._node(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors))
    if out.requires_grad:
        heights = [t.data.shape[0] for t in tensors]
        def bw(g):
            i = 0
            for t, h in zip(tensors, heights):
                _accumulate(t, g[i:i + h, :])
                i += h
        out._backward = bw
    return out


def slice_cols(a, j0, j1):
    out = Tensor._node(a.data[:, j0:j1].copy(), (a,))
    if out.requires_grad:
        def bw(g):
            _ensure_grad(a)
            a.grad[:, j0:j1] += g
        out._backward = bw
    return out


def row_max(a):
    """Row-wise max over columns (max pooling); grad routes to the first argmax."""
    idx = a.data.argmax(axis=1)
    y = a.data[np.arange(a.data.shape[0]), idx].reshape(-1, 1)
    out = Tensor._node(y, (a,))
    if out.requires_grad:
        def bw(g):
            _ensure_grad(a)
            a.grad[np.arange(a.data.shape[0]), idx] += g[:, 0]
        out._backward = bw
    return out


def sum_all(a):
    out = Tensor._node(np.array([[a.data.sum()]], dtype=a.data.dtype), (a,))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, np.full_like(a.data, g[0, 0]))
        out._backward = bw
    return out


def neg_log_softmax_pick(a, k):
    """-log(softmax(a)[k]) for a column vector a, computed as one fused op.

    Fusing keeps -log(prob) exact when the picked probability underflows.
    """
    if a.data.shape[1] != 1:
        raise ShapeError(f"neg_log_softmax_pick: expected a column vector, got {a.data.shape}")
    if not 0 <= k < a.data.shape[0]:
        raise ShapeError(f"neg_log_softmax_pick: index {k} out of range for {a.data.shape}")
    m = a.data.max()
    lse = m + math.log(np.exp(a.data - m).sum())
    out = Tensor._node(np.array([[lse - a.data[k, 0]]], dtype=a.data.dtype), (a,))
    if out.requires_grad:
        soft = np.exp(a.data - lse)
        def bw(g):
            _accumulate(a, g[0, 0] * soft)
            a.grad[k, 0] -= g[0, 0]
        out._backward = bw
    return out


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

    The step loop works on (rows, 2n, max_len) blocks with zeros past each
    sequence's end. Forward sequence j sits in column n+j, backward
    sequence j in column n-1-j with its steps reversed, so block step i holds
    forward step i and backward step max_len-1-i. With active[t] =
    #(lengths > t), the sequences that take iteration i, as in a packed
    sequence, are the one contiguous column range [n - active[max_len-1-i],
    n + active[i]), and every gate, cell and store op runs once per iteration
    for both directions. The state, forward and backward, sits in
    zero-initialised (h, 2n) buffers: a sequence that has not started reads
    zeros and one that has finished is never read again, so no padded
    position is computed and each sequence's arithmetic is its own.

    Each direction keeps its own recurrent matmul over exactly its own
    columns, so every product has the shape a single-direction loop gives it
    (one active column still takes BLAS's gemv path) and the same bits; a
    stacked or block-diagonal product would round differently. The forward
    matches the composite reference in tests/test_matcher.py, one tape node
    per gate op and step, bit for bit; the backward is hand-written BPTT over
    the same columns.
    Gate activations and cells are stored only when the op records a node.
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

    def views(b):  # each direction's (rows, n, steps) view of a block, in input order
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
        # copied to one direction's own contiguous block first: the memory
        # order of the U gradient's gemm operands decides its rounding
        a = np.ascontiguousarray(view)
        return a.reshape(a.shape[0], cols) if mask is None else a[:, mask]

    out = Tensor._node(None, (pre_f, pre_b, U_f, U_b))  # data comes after the loop
    record = out.requires_grad
    pre3 = blocked(pre_f.data, pre_b.data)
    hs = np.zeros((h, 2 * n, steps))
    if record:  # zeros past each sequence's end, which the backward reads
        acts = np.zeros((4 * h, 2 * n, steps))  # gate activations i, f, o, g
        cells = np.zeros((h, 2 * n, steps))
        tanh_c = np.zeros((h, 2 * n, steps))
    h_t = np.zeros((h, 2 * n))  # state; iteration i uses columns spans[i]
    c_t = np.zeros((h, 2 * n))
    for i, (lo, hi) in enumerate(spans):
        z = np.empty((4 * h, hi - lo))
        np.matmul(U_b.data, h_t[:, lo:n], out=z[:, :n - lo])
        np.matmul(U_f.data, h_t[:, n:hi], out=z[:, n - lo:])
        z += pre3[:, lo:hi, i]
        a = np.empty_like(z)
        a[:3 * h] = _sigmoid(z[:3 * h])
        a[3 * h:] = np.tanh(z[3 * h:])
        c = a[h:2 * h] * c_t[:, lo:hi] + a[:h] * a[3 * h:]
        tc = np.tanh(c)
        c_t[:, lo:hi] = c
        np.multiply(a[2 * h:3 * h], tc, out=h_t[:, lo:hi])
        hs[:, lo:hi, i] = h_t[:, lo:hi]
        if record:
            acts[:, lo:hi, i] = a
            cells[:, lo:hi, i] = c
            tanh_c[:, lo:hi, i] = tc
    out.data = np.concatenate([packed(v) for v in views(hs)])
    if record:
        def bw(g):
            # state entering each block step: the previous step's, zero at a
            # sequence's start since the blocks are zero past its end
            h_in = np.zeros_like(hs)
            c_in = np.zeros_like(cells)
            h_in[:, :, 1:] = hs[:, :, :-1]
            c_in[:, :, 1:] = cells[:, :, :-1]
            i, f, o, gg = acts[:h], acts[h:2 * h], acts[2 * h:3 * h], acts[3 * h:]
            # dz = factor * (dc for rows i, f, g; dh for rows o)
            factor = np.concatenate((gg * i * (1.0 - i), c_in * f * (1.0 - f),
                                     tanh_c * o * (1.0 - o), i * (1.0 - gg * gg)))
            dc_dh = o * (1.0 - tanh_c * tanh_c)
            g3 = blocked(g[:h], g[h:])
            dpre = np.zeros_like(acts)
            dh_next = np.zeros((h, 2 * n))  # gradient reaching the state entering a step
            dc_next = np.zeros((h, 2 * n))
            for t in range(steps - 1, -1, -1):
                lo, hi = spans[t]
                dh = g3[:, lo:hi, t] + dh_next[:, lo:hi]
                dc = dh * dc_dh[:, lo:hi, t] + dc_next[:, lo:hi]
                dz = factor[:, lo:hi, t] * np.concatenate((dc, dc, dh, dc))
                dpre[:, lo:hi, t] = dz
                np.multiply(dc, f[:, lo:hi, t], out=dc_next[:, lo:hi])
                np.matmul(U_b.data.T, dz[:, :n - lo], out=dh_next[:, lo:n])
                np.matmul(U_f.data.T, dz[:, n - lo:], out=dh_next[:, n:hi])
            for pre, U, dp, hp in zip((pre_f, pre_b), (U_f, U_b), views(dpre), views(h_in)):
                dp = packed(dp)
                _accumulate(pre, dp)
                if U.requires_grad:
                    _accumulate(U, dp @ packed(hp).T)
        out._backward = bw
    return out


OPS = {
    "matmul": matmul,
    "add": add,
    "add_col": add_col,
    "mul": mul,
    "sub": sub,
    "tanh": tanh,
    "relu": relu,
    "scale": scale,
    "softmax_cols": softmax_cols,
    "transpose": transpose,
    "concat_cols": concat_cols,
    "concat_rows": concat_rows,
    "slice_cols": slice_cols,
    "row_max": row_max,
    "sum": sum_all,
    "neg_log_softmax_pick": neg_log_softmax_pick,
}


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

    def reset(self):
        self.t = 0
        for n in self.m:
            self.m[n][...] = 0.0
            self.u[n][...] = 0.0

    def state_dict(self):
        return {
            "t": self.t,
            "m": {n: a.ravel().tolist() for n, a in self.m.items()},
            "u": {n: a.ravel().tolist() for n, a in self.u.items()},
        }


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(path, params, optimizer=None, extra=None):
    """Write parameters (and optionally optimizer state) to a JSON file.

    Floats serialize via repr, so a save/load round-trip is bit-exact.
    """
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "params": [
            {
                "name": name,
                "rows": p.data.shape[0],
                "cols": p.data.shape[1],
                "values": p.data.ravel().tolist(),
            }
            for name, p in params.items()
        ],
    }
    if optimizer is not None:
        payload["optimizer"] = optimizer.state_dict()
    if extra is not None:
        payload["extra"] = extra
    with atomic_write(path) as f:
        json.dump(payload, f)


def load_checkpoint(path):
    """Return ({name: ndarray}, optimizer_state_or_None, extra_or_None)."""
    payload = read_versioned_json(path, "checkpoint", CHECKPOINT_VERSION, ("params",))
    values = {}
    with one_line_errors(path):
        for rec in payload["params"]:
            arr = np.array(rec["values"], dtype=np.float64)
            if arr.size != rec["rows"] * rec["cols"]:
                raise ValueError(f"checkpoint entry {rec['name']!r} has inconsistent size")
            if not np.isfinite(arr).all():
                raise ValueError(f"checkpoint entry {rec['name']!r} has a non-finite value")
            values[rec["name"]] = arr.reshape(rec["rows"], rec["cols"])
    return values, payload.get("optimizer"), payload.get("extra")
