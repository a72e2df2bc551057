"""Question-passage matching: BiLSTM encoders, attention, fusion, aggregation.

The matching representation M for each passage is shared by the ranking and
reading heads; only the aggregation BiLSTM stacks on top of M differ (one
layer for ranking, three for reading, separate parameters).

Sequences sit in matrices column-per-token, and a question's passages sit
side by side in one block, each passage's columns in step order; a batch's
questions, and its passage blocks, sit side by side in turn, so its
embeddings, encodings and M are one tensor each, with the widths alongside.
`encode_batch` takes a stack call's blocks, gathers all their sequences once
into the longest-first order, laid side by side, which is the one layout
every layer of the stack and `tensor.bilstm` use. So the whole call runs
through each layer as one recurrence, both directions in one step loop,
whatever the lengths, and is gathered back per block only after the last
layer. At each step only the sequences that are still running take it, so a
sequence's output equals encoding it alone up to BLAS rounding (checked in
tests). Each layer is one `tensor.bilstm` tape node for both directions:
each direction's input projection W x + b is one matmul over all steps, and
the step loop with its hand-written backward lives inside the op. Attention
is one `tensor.attention` node over every question of a call, and fusion
acts per column, so it runs once over all of them.
"""

from dataclasses import dataclass
from itertools import accumulate

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
    return BiLstm(dirs[0], dirs[1], in_dim)


def _bilstm(x, params, lengths):
    """One BiLSTM layer over sequences side by side, lengths non-increasing."""
    f, b = params.fwd, params.bwd
    return T.bilstm(T.add_col(T.matmul(f.W, x), f.b), T.add_col(T.matmul(b.W, x), b.b),
                    f.U, b.U, lengths)


def encode_batch(blocks, widths, layers):
    """Run a stack of BiLSTM layers over blocks of sequences; one output block each.

    Block k is an (in_dim, sum(widths[k])) tensor holding sequences of the
    given widths side by side, and its output is the (2h, sum(widths[k]))
    block of their hidden states in the same columns. The blocks are
    concatenated once and gathered once into the stable longest-first
    order of all their sequences (not at all when the order is already
    sorted), go through every layer of the stack together, one
    `tensor.bilstm` call per layer, and each block's output is gathered back
    with one node.
    """
    in_dim = layers[0].in_dim
    for block, ws in zip(blocks, widths):
        if not ws or min(ws) < 1:
            raise T.ShapeError("encode: empty sequence")
        if block.data.shape[0] != in_dim:
            raise T.ShapeError(
                f"encode: input has {block.data.shape[0]} rows, BiLSTM expects {in_dim}")
        if sum(ws) != block.data.shape[1]:
            raise T.ShapeError(
                f"encode: widths sum to {sum(ws)}, block has {block.data.shape[1]} columns")
    lengths = np.array([w for ws in widths for w in ws])
    order = np.argsort(-lengths, kind="stable")
    ordered = lengths[order]
    x = T.concat_cols(blocks)
    cols = x.data.shape[1]
    # column j of the sorted layout is column source[j] of x
    source = np.arange(cols) + np.repeat(
        (np.cumsum(lengths) - lengths)[order] - (np.cumsum(ordered) - ordered), ordered)
    is_sorted = bool((np.diff(lengths) <= 0).all())
    if not is_sorted:
        x = T.take_cols(x, source)
    for layer in layers:
        x = _bilstm(x, layer, ordered.tolist())
    if len(blocks) == 1 and is_sorted:
        return [x]
    position = np.empty_like(source)
    position[source] = np.arange(cols)
    ends = accumulate(block.data.shape[1] for block in blocks)
    return [T.take_cols(x, position[end - block.data.shape[1]:end])
            for block, end in zip(blocks, ends)]


def attend(h_q, h_p, w_g, b_g, q_sizes, p_sizes):
    """The attended question view h_q G of every passage word, (l, P).

    Question i owns q_sizes[i] consecutive columns of h_q and p_sizes[i] of
    h_p. Its G = column softmax of (w_g h_q + b_g x 1_Q)^T h_p over its own
    question words, so each column sums to 1. b_g shifts all of a passage
    word's scores alike, so the softmax, and every output, does not depend
    on it: no gradient reaches it beyond rounding.
    """
    return T.attention(T.add_col(T.matmul(w_g, h_q), b_g), h_q, h_p, q_sizes, p_sizes)


def match(h_p, h_qbar, w_m):
    """Fuse passage and question views into the shared representation M.

    M = relu(w_m [h_p; h_qbar; h_p * h_qbar; h_p - h_qbar]), shape (2l, P),
    with h_qbar = h_q G from `attend`. Every op acts per column.
    """
    stacked = T.concat_rows([h_p, h_qbar, T.mul(h_p, h_qbar), T.sub(h_p, h_qbar)])
    return T.relu(T.matmul(w_m, stacked))


def dropout_mask(rng, shape, p):
    """Inverted-dropout mask array: entries 0 or 1/(1-p)."""
    return (rng.random(shape) >= p) / (1.0 - p)
