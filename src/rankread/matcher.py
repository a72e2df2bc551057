"""Question-passage matching: BiLSTM encoders, attention, fusion, aggregation.

The matching representation M for each passage is shared by the ranking and
reading heads; only the aggregation BiLSTM stacks on top of M differ (one
layer for ranking, three for reading, separate parameters).

Sequences sit in matrices column-per-token. The batched entry points run
several same-length sequences through one recurrence, one column per
sequence, which is exact column-parallel math (verified against the
single-sequence path in tests).
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass
class LstmDirection:
    W: T.Tensor  # input weights, (4h, in_dim); gate row order [i, f, o, g]
    U: T.Tensor  # recurrent weights, (4h, h)
    b: T.Tensor  # bias, (4h, 1); forget rows start at 1.0


@dataclass
class BiLstm:
    fwd: LstmDirection
    bwd: LstmDirection
    in_dim: int
    hidden: int  # per direction; concatenated output has 2*hidden rows


def init_bilstm(rng, in_dim, out_dim, registry, prefix, init_scale=0.1):
    """Create a BiLSTM whose concatenated output has out_dim rows (must be even)."""
    if out_dim % 2 != 0:
        raise ValueError(f"BiLSTM output dimension must be even, got {out_dim}")
    h = out_dim // 2
    dirs = []
    for tag in ("fwd", "bwd"):
        W = T.parameter(rng, 4 * h, in_dim, scale=init_scale)
        U = T.parameter(rng, 4 * h, h, scale=init_scale)
        b = T.Tensor(np.zeros((4 * h, 1)), requires_grad=True)
        b.data[h:2 * h, 0] = 1.0  # forget-gate bias
        registry[f"{prefix}.{tag}.W"] = W
        registry[f"{prefix}.{tag}.U"] = U
        registry[f"{prefix}.{tag}.b"] = b
        dirs.append(LstmDirection(W, U, b))
    return BiLstm(dirs[0], dirs[1], in_dim, h)


def _lstm_steps(direction, blocks, n):
    """Run one LSTM direction over time blocks, each (in_dim, n), n sequences wide."""
    h = direction.U.data.shape[1]
    state_h = T.Tensor(np.zeros((h, n)))
    state_c = T.Tensor(np.zeros((h, n)))
    outs = []
    for pre_t in blocks:
        z = T.add(pre_t, T.matmul(direction.U, state_h))
        i = T.sigmoid(T.slice_rows(z, 0, h))
        f = T.sigmoid(T.slice_rows(z, h, 2 * h))
        o = T.sigmoid(T.slice_rows(z, 2 * h, 3 * h))
        g = T.tanh(T.slice_rows(z, 3 * h, 4 * h))
        state_c = T.add(T.mul(f, state_c), T.mul(i, g))
        state_h = T.mul(o, T.tanh(state_c))
        outs.append(state_h)
    return outs


def _run_group(seq_tm, params, steps, n):
    """Encode n same-length sequences given their time-major stack (in_dim, steps*n)."""
    halves = []
    for direction, reverse in ((params.fwd, False), (params.bwd, True)):
        pre = T.add_col(T.matmul(direction.W, seq_tm), direction.b)
        blocks = [T.slice_cols(pre, t * n, (t + 1) * n) for t in range(steps)]
        if reverse:
            blocks.reverse()
        outs = _lstm_steps(direction, blocks, n)
        if reverse:
            outs.reverse()
        halves.append(T.concat_cols(outs))
    return T.concat_rows(halves)  # (2h, steps*n), time-major


def _time_major_perm(steps, n):
    # column (seq i, time t) moves from i*steps + t to t*n + i
    perm = np.empty(steps * n, dtype=np.intp)
    for i in range(n):
        for t in range(steps):
            perm[t * n + i] = i * steps + t
    return perm


def encode_batch(seqs, params):
    """Encode a list of (in_dim, T_i) tensors; returns one (2h, T_i) tensor each.

    Same-length sequences share one recurrence. Output order matches input.
    """
    if not seqs:
        return []
    for s in seqs:
        if s.data.shape[1] == 0:
            raise T.ShapeError("encode: empty sequence")
        if s.data.shape[0] != params.in_dim:
            raise T.ShapeError(
                f"encode: input has {s.data.shape[0]} rows, BiLSTM expects {params.in_dim}")
    groups = {}
    for idx, s in enumerate(seqs):
        groups.setdefault(s.data.shape[1], []).append(idx)
    results = [None] * len(seqs)
    for steps, indices in groups.items():
        n = len(indices)
        perm = _time_major_perm(steps, n)
        members = [seqs[i] for i in indices]
        if any(m.requires_grad or m._parents for m in members):
            seq_tm = T.permute_cols(T.concat_cols(members), perm)
        else:
            stacked = np.concatenate([m.data for m in members], axis=1)
            seq_tm = T.Tensor(stacked[:, perm])
        out_tm = _run_group(seq_tm, params, steps, n)
        out_pm = T.permute_cols(out_tm, np.argsort(perm, kind="stable"))
        for slot, idx in enumerate(indices):
            results[idx] = T.slice_cols(out_pm, slot * steps, (slot + 1) * steps)
    return results


def encode_stack(seqs, layers):
    """Run a stack of BiLSTM layers over a batch of sequences."""
    outs = seqs
    for layer in layers:
        outs = encode_batch(outs, layer)
    return outs


def attend(h_q, h_p, w_g, b_g):
    """Attention over question words for each passage word.

    G = column softmax of (w_g h_q + b_g x 1_Q)^T h_p; each column sums to 1.
    """
    a = T.add_col(T.matmul(w_g, h_q), b_g)
    return T.softmax_cols(T.matmul(T.transpose(a), h_p))


def match(h_p, h_q, g, w_m):
    """Fuse passage and question views into the shared representation M.

    M = relu(w_m [h_p; h_q g; h_p * h_q g; h_p - h_q g]), shape (2l, P).
    """
    h_qbar = T.matmul(h_q, g)
    stacked = T.concat_rows([h_p, h_qbar, T.mul(h_p, h_qbar), T.sub(h_p, h_qbar)])
    return T.relu(T.matmul(w_m, stacked))


def dropout_mask(rng, shape, p):
    """Inverted-dropout mask tensor: entries 0 or 1/(1-p)."""
    return T.Tensor((rng.random(shape) >= p) / (1.0 - p))
