"""The full ranker-reader model: one shared matcher, two heads, one registry."""

from itertools import accumulate

import numpy as np

from . import matcher, ranker, reader
from . import tensor as T

INIT_SCALE = 0.1  # parameters start uniform in [-INIT_SCALE, INIT_SCALE]


class RankReadModel:
    """Owns every trainable tensor and the forward passes.

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
    #
    # The *_batch methods run a batch of questions as one graph: one encoder
    # pass over every question and passage, and one pass of each aggregation
    # stack over every matching representation, so the sequences of all the
    # questions share each recurrence. Attention, fusion and the
    # heads act per question. match_passages, rank, read and read_each are the
    # one-question forms.

    def dropout_masks(self, q_emb, p_embs, rng):
        """One question's inverted-dropout masks for the encoded question, the
        encoded passages and M, drawn in that order; None with dropout off.
        Their shapes follow from the embeddings, so they can be drawn before
        the forward pass."""
        drop = self.config.dropout
        if drop == 0:
            return None
        l = self.config.hidden_size
        words = sum(p.data.shape[1] for p in p_embs)
        return [matcher.dropout_mask(rng, shape, drop)
                for shape in ((l, q_emb.data.shape[1]), (l, words), (2 * l, words))]

    def match_batch(self, q_embs, p_emb_lists, masks=None):
        """Shared matching representations M: per question, one (2l, P_i)
        tensor per passage. masks[i] is question i's dropout_masks (or None)."""
        if not all(p_emb_lists):
            raise T.ShapeError("match_passages: no passages")
        encoded = matcher.encode_batch(
            list(q_embs) + [p for p_embs in p_emb_lists for p in p_embs], [self.encoder])
        h_p_lists = _split(encoded[len(q_embs):], p_emb_lists)
        masks = masks or [None] * len(q_embs)
        return [self._match(h_q, h_ps, m) for h_q, h_ps, m in zip(encoded, h_p_lists, masks)]

    def _match(self, h_q, h_ps, masks):
        h_p_all = T.concat_cols(h_ps)
        if masks is not None:
            h_q = T.mul(h_q, masks[0])
            h_p_all = T.mul(h_p_all, masks[1])
        g_all = matcher.attend(h_q, h_p_all, self.w_g, self.b_g)
        m_all = matcher.match(h_p_all, h_q, g_all, self.w_m)
        if masks is not None:
            m_all = T.mul(m_all, masks[2])
        return matcher.split_cols(m_all, [h.data.shape[1] for h in h_ps])

    def rank_batch(self, m_lists, passage_id_lists):
        """One selection policy per question over its matching representations."""
        h_ranks = matcher.encode_batch([m for ms in m_lists for m in ms], self.agg_rank)
        return [ranker.score_passages(h, self.w_c, self.b_c, self.w_c_out, ids)
                for h, ids in zip(_split(h_ranks, m_lists), passage_id_lists)]

    def read_batch(self, m_lists, passage_id_lists):
        """One span distribution per question over its passages concatenated in order."""
        h_reads = matcher.encode_batch([m for ms in m_lists for m in ms], self.agg_read)
        heads = [self.params[f"read_{tag}.{name}"]
                 for tag in ("start", "end") for name in ("W", "b", "w")]
        return [reader.span_distributions(h, ids, *heads)
                for h, ids in zip(_split(h_reads, m_lists), passage_id_lists)]

    def match_passages(self, q_emb, p_embs):
        return self.match_batch([q_emb], [p_embs])[0]

    def rank(self, ms, passage_ids=None):
        return self.rank_batch([ms], [passage_ids])[0]

    def read(self, ms, passage_ids):
        return self.read_batch([ms], [passage_ids])[0]

    def read_each(self, ms, passage_ids):
        """One single-segment span distribution per passage (inference form)."""
        return self.read_batch([[m] for m in ms], [[pid] for pid in passage_ids])


def _split(flat, lists):
    """flat cut into consecutive pieces, as long as the lists in lists."""
    ends = accumulate(len(part) for part in lists)
    return [flat[end - len(part):end] for part, end in zip(lists, ends)]
