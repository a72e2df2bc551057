"""The full ranker-reader model: one shared matcher, two heads, one registry."""

import numpy as np

from . import matcher, ranker, reader
from . import tensor as T

INIT_SCALE = 0.1  # parameters start uniform in [-INIT_SCALE, INIT_SCALE]


class RankReadModel:
    """Owns every trainable tensor and the per-example forward passes.

    config is the run Config; it is validated here.
    """

    def __init__(self, config, seed=0):
        self.config = config.validate()
        rng = np.random.default_rng(seed)
        l, d, sc = config.hidden_size, config.embed_dim, INIT_SCALE
        self.params = {}

        self.encoder = matcher.init_bilstm(rng, d, l, self.params, "enc", sc)
        self.w_g = self._add("attn.W", T.parameter(rng, l, l, sc))
        self.b_g = self._add("attn.b", T.parameter(rng, l, 1, sc))
        self.w_m = self._add("match.W", T.parameter(rng, 2 * l, 4 * l, sc))

        self.agg_rank = self._agg_stack(rng, "agg_rank", config.ranker_layers, l, sc)
        self.agg_read = self._agg_stack(rng, "agg_read", config.reader_layers, l, sc)

        self.w_c = self._add("rank.W", T.parameter(rng, l, l, sc))
        self.b_c = self._add("rank.b", T.parameter(rng, l, 1, sc))
        self.w_c_out = self._add("rank.w", T.parameter(rng, 1, l, sc))
        for tag in ("start", "end"):
            self._add(f"read_{tag}.W", T.parameter(rng, l, l, sc))
            self._add(f"read_{tag}.b", T.parameter(rng, l, 1, sc))
            self._add(f"read_{tag}.w", T.parameter(rng, 1, l, sc))

    def _add(self, name, tensor):
        self.params[name] = tensor
        return tensor

    def _agg_stack(self, rng, prefix, layers, l, sc):
        stack = []
        for i in range(layers):
            in_dim = 2 * l if i == 0 else l
            stack.append(matcher.init_bilstm(rng, in_dim, l, self.params, f"{prefix}.{i}", sc))
        return stack

    # -- parameter plumbing -------------------------------------------------

    def parameters(self):
        return self.params

    def zero_grads(self):
        T.zero_grads(self.params.values())

    def export_values(self):
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_values(self, values):
        for name, p in self.params.items():
            if name not in values:
                raise KeyError(f"checkpoint is missing parameter {name!r}")
            arr = np.asarray(values[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise T.ShapeError(
                    f"parameter {name!r}: checkpoint shape {arr.shape} != model shape {p.data.shape}")
            p.data[...] = arr

    # -- forward passes -----------------------------------------------------

    def match_passages(self, q_emb, p_embs, train=False, rng=None):
        """Shared matching representations M, one (2l, P_i) tensor per passage."""
        if not p_embs:
            raise T.ShapeError("match_passages: no passages")
        drop = self.config.dropout if train else 0.0
        encoded = matcher.encode_batch([q_emb] + list(p_embs), [self.encoder])
        h_q, h_ps = encoded[0], encoded[1:]
        if drop > 0:
            h_q = T.mul(h_q, matcher.dropout_mask(rng, h_q.data.shape, drop))
        h_p_all = T.concat_cols(h_ps) if len(h_ps) > 1 else h_ps[0]
        if drop > 0:
            h_p_all = T.mul(h_p_all, matcher.dropout_mask(rng, h_p_all.data.shape, drop))
        g_all = matcher.attend(h_q, h_p_all, self.w_g, self.b_g)
        m_all = matcher.match(h_p_all, h_q, g_all, self.w_m)
        if drop > 0:
            m_all = T.mul(m_all, matcher.dropout_mask(rng, m_all.data.shape, drop))
        ms = []
        offset = 0
        for h in h_ps:
            width = h.data.shape[1]
            ms.append(T.slice_cols(m_all, offset, offset + width))
            offset += width
        return ms

    def rank(self, ms, passage_ids=None):
        """Selection policy over the given matching representations."""
        h_ranks = matcher.encode_batch(ms, self.agg_rank)
        return ranker.score_passages(h_ranks, self.w_c, self.b_c, self.w_c_out, passage_ids)

    def read(self, ms, passage_ids):
        """Span distributions over the given passages concatenated in order."""
        h_reads = matcher.encode_batch(ms, self.agg_read)
        return reader.span_distributions(
            h_reads, passage_ids,
            self.params["read_start.W"], self.params["read_start.b"], self.params["read_start.w"],
            self.params["read_end.W"], self.params["read_end.b"], self.params["read_end.w"])

    def read_each(self, ms, passage_ids):
        """One single-segment span distribution per passage (inference form)."""
        h_reads = matcher.encode_batch(ms, self.agg_read)
        return [
            reader.span_distributions(
                [h], [pid],
                self.params["read_start.W"], self.params["read_start.b"], self.params["read_start.w"],
                self.params["read_end.W"], self.params["read_end.b"], self.params["read_end.w"])
            for h, pid in zip(h_reads, passage_ids)
        ]
