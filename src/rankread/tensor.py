"""Reverse-mode autodiff over 2-D matrices, with an Adamax optimizer.

Every value in the model is a Tensor: a (rows, cols) float array plus an
optional gradient buffer. Ops build an implicit tape; backward() walks it
in reverse topological order. Gradients are checked against central finite
differences via fd_check().
"""

import json
import math
import threading
from contextlib import contextmanager

import numpy as np

from .files import atomic_write, read_versioned_json


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an op's rule."""


_grad_state = threading.local()  # per-thread so concurrent readers don't race


def _grad_enabled():
    return getattr(_grad_state, "enabled", True)


@contextmanager
def no_grad():
    """Suspend tape recording on this thread; forward values only."""
    prev = _grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


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
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents = ()
        self._backward = None

    @classmethod
    def _node(cls, data, parents):
        """Internal constructor for op outputs; prunes constant subgraphs."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._backward = None
        if any(p.requires_grad for p in parents) and _grad_enabled():
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

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

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


def sigmoid(a):
    y = _sigmoid(a.data)
    return _unary(a, y, y * (1.0 - y))


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
    """Stack matrices side by side: [A | B | ...]."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat_cols: empty input")
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


def slice_rows(a, i0, i1):
    out = Tensor._node(a.data[i0:i1, :].copy(), (a,))
    if out.requires_grad:
        def bw(g):
            _ensure_grad(a)
            a.grad[i0:i1, :] += g
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


def lstm(pre, U, n, reverse=False):
    """One LSTM direction over n equal-length sequences, as a single tape node.

    pre is the (4h, n*steps) input projection W x + b with the sequences side
    by side: column j*steps + t holds sequence j at step t. U is the (4h, h)
    recurrent matrix and gate rows are [i, f, o, g]. Returns the (h, n*steps)
    hidden states in the same column order; reverse runs each sequence from
    its last step to its first. The step loop works on (rows, n, steps) views.
    The forward matches the per-step composition of matmul, add, sigmoid, tanh
    and mul bit for bit; the backward is hand-written BPTT.
    """
    h = U.data.shape[1]
    rows, cols = pre.data.shape
    if U.data.shape != (4 * h, h) or rows != 4 * h:
        raise ShapeError(f"lstm: input {pre.data.shape} and recurrent {U.data.shape} "
                         "need shapes (4h, n*steps) and (4h, h)")
    if n < 1 or cols % n:
        raise ShapeError(f"lstm: {cols} columns do not split into {n} equal-length sequences")
    steps = cols // n
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    pre3 = pre.data.reshape(rows, n, steps)
    acts = np.empty((4 * h, n, steps))  # gate activations i, f, o, g
    cells = np.empty((h, n, steps))
    tanh_c = np.empty((h, n, steps))
    hs = np.empty((h, n, steps))
    h_t = np.zeros((h, n))
    c_t = np.zeros((h, n))
    for t in order:
        z = pre3[:, :, t] + U.data @ h_t
        a = np.empty_like(z)
        a[:3 * h] = _sigmoid(z[:3 * h])
        a[3 * h:] = np.tanh(z[3 * h:])
        c_t = a[h:2 * h] * c_t + a[:h] * a[3 * h:]
        tc = np.tanh(c_t)
        h_t = a[2 * h:3 * h] * tc
        acts[:, :, t] = a
        cells[:, :, t] = c_t
        tanh_c[:, :, t] = tc
        hs[:, :, t] = h_t
    out = Tensor._node(hs.reshape(h, cols), (pre, U))
    if out.requires_grad:
        def bw(g):
            # state entering each step: the neighbouring step's, zero at the start
            h_in = np.zeros_like(hs)
            c_in = np.zeros_like(cells)
            if reverse:
                h_in[:, :, :-1] = hs[:, :, 1:]
                c_in[:, :, :-1] = cells[:, :, 1:]
            else:
                h_in[:, :, 1:] = hs[:, :, :-1]
                c_in[:, :, 1:] = cells[:, :, :-1]
            i, f, o, gg = acts[:h], acts[h:2 * h], acts[2 * h:3 * h], acts[3 * h:]
            # dz = factor * (dc for rows i, f, g; dh for rows o)
            factor = np.concatenate((gg * i * (1.0 - i), c_in * f * (1.0 - f),
                                     tanh_c * o * (1.0 - o), i * (1.0 - gg * gg)))
            dc_dh = o * (1.0 - tanh_c * tanh_c)
            g3 = g.reshape(h, n, steps)
            dpre = np.empty_like(acts)
            dh_next = np.zeros((h, n))
            dc_next = np.zeros((h, n))
            for t in reversed(order):
                dh = g3[:, :, t] + dh_next
                dc = dh * dc_dh[:, :, t] + dc_next
                dz = factor[:, :, t] * np.concatenate((dc, dc, dh, dc))
                dpre[:, :, t] = dz
                dc_next = dc * f[:, :, t]
                dh_next = U.data.T @ dz
            dpre = dpre.reshape(rows, cols)
            _accumulate(pre, dpre)
            if U.requires_grad:
                _accumulate(U, dpre @ h_in.reshape(h, cols).T)
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
    "sigmoid": sigmoid,
    "scale": scale,
    "softmax_cols": softmax_cols,
    "transpose": transpose,
    "concat_cols": concat_cols,
    "concat_rows": concat_rows,
    "slice_cols": slice_cols,
    "slice_rows": slice_rows,
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
    """Accumulate d(loss)/d(t) into .grad for every tensor reachable from loss.

    Parameters keep their grad buffers across calls, so batch accumulation is
    just repeated backward() without zeroing in between.
    """
    if loss.data.shape != (1, 1):
        raise ShapeError(f"backward: loss must be a 1x1 scalar, got {loss.data.shape}")
    order = _toposort(loss)
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(params):
    for p in params:
        p.zero_grad()


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
    analytic = [p.grad.copy() for p in params]
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

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        self.t += 1
        correction = 1.0 - self.beta1 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                raise ShapeError(f"adamax: parameter {name!r} has no gradient buffer")
            if g.shape != p.data.shape or self.m[name].shape != p.data.shape:
                raise ShapeError(f"adamax: shape mismatch for parameter {name!r}")
            m = self.m[name]
            u = self.u[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            np.maximum(self.beta2 * u, np.abs(g), out=u)
            p.data -= (lr / correction) * m / (u + self.eps)

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

    def load_state_dict(self, state):
        self.t = int(state["t"])
        for n, p in self.params.items():
            for key, store in (("m", self.m), ("u", self.u)):
                vals = np.array(state[key][n], dtype=p.data.dtype)
                if vals.size != p.data.size:
                    raise ShapeError(f"adamax: state size mismatch for parameter {n!r}")
                store[n] = vals.reshape(p.data.shape)


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
    try:
        for rec in payload["params"]:
            arr = np.array(rec["values"], dtype=np.float64)
            if arr.size != rec["rows"] * rec["cols"]:
                raise ValueError(f"checkpoint entry {rec['name']!r} has inconsistent size")
            values[rec["name"]] = arr.reshape(rec["rows"], rec["cols"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None
    return values, payload.get("optimizer"), payload.get("extra")
