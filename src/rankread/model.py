"""The full ranker-reader model: one shared matcher, two heads, one registry,
and the checkpoint file that holds it with its config and word vectors."""

from dataclasses import asdict

import numpy as np

from . import matcher, ranker, reader
from . import tensor as T
from .config import Config
from .files import check_fields, one_line_errors, read_versioned_json, write_json
from .text import EmbeddingTable, load_embeddings

INIT_SCALE = 0.1  # parameters start uniform in [-INIT_SCALE, INIT_SCALE]
CHECKPOINT_FORMAT = 1


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
        self.read_heads = [self._add(f"read_{tag}.{name}", T.parameter(rng, *shape, sc))
                           for tag in ("start", "end")
                           for name, shape in (("W", (l, l)), ("b", (l, 1)), ("w", (1, l)))]

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
        """Copy a checkpoint's arrays into the parameters. Every name and shape
        is checked first, so a load that fails leaves the model as it was."""
        for name in values:
            if name not in self.params:
                raise ValueError(f"checkpoint has parameter {name!r} the model lacks")
        arrays = {}
        for name, p in self.params.items():
            if name not in values:
                raise ValueError(f"checkpoint is missing parameter {name!r}")
            arr = np.asarray(values[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise T.ShapeError(
                    f"parameter {name!r}: checkpoint shape {arr.shape} != model shape {p.data.shape}")
            arrays[name] = arr
        for name, arr in arrays.items():
            self.params[name].data[...] = arr

    # -- forward passes -----------------------------------------------------
    #
    # A question's passages are one block: their embeddings side by side in
    # one (d, P) tensor, with the passage widths alongside, and a batch's
    # blocks sit side by side in turn, so M and each stack's output are one
    # tensor for the whole batch. The *_batch methods run a batch of
    # questions as one graph whose node count does not grow with the
    # questions: one encoder pass over every question and passage, one
    # attention node, and fusion, each aggregation stack and each head once
    # over all their columns. A policy's rows and a span distribution's
    # segments follow the passages' positions, question after question, and
    # their `questions` field counts each question's passages; the caller
    # maps positions back to its own passages. match_passages, rank, read and
    # read_each are the batch-of-one forms; read_each, the inference form,
    # runs the read stack and each pointer head once over the question's
    # block under no_grad. Training's span_loss normalizes over each
    # question's whole block; extract_best_span normalizes over each passage
    # alone.

    def dropout_masks(self, q_emb, p_emb, rng):
        """One question's inverted-dropout masks for the encoded question, the
        encoded passages and M, drawn in that order; None with dropout off.
        Their shapes follow from the embeddings, so they can be drawn before
        the forward pass."""
        drop = self.config.dropout
        if drop == 0:
            return None
        l, words = self.config.hidden_size, p_emb.data.shape[1]
        return [matcher.dropout_mask(rng, shape, drop)
                for shape in ((l, q_emb.data.shape[1]), (l, words), (2 * l, words))]

    def match_batch(self, q_embs, p_embs, widths, masks=None):
        """The shared representation M of a batch: the (2l, P) tensor of
        question i's passage block p_embs[i], whose passages are widths[i]
        wide, after question i-1's. masks[i] is question i's dropout_masks;
        with dropout off, masks is None or holds None for each question."""
        if not all(widths):
            raise T.ShapeError("match_passages: no passages")
        q_sizes = [q.data.shape[1] for q in q_embs]
        h_q, h_p = matcher.encode_batch([T.concat_cols(q_embs), T.concat_cols(p_embs)],
                                        [q_sizes, [w for ws in widths for w in ws]],
                                        [self.encoder])
        dropout = masks is not None and masks[0] is not None
        if dropout:
            h_q = T.mul(h_q, _side_by_side([q for q, _, _ in masks]))
            h_p = T.mul(h_p, _side_by_side([p for _, p, _ in masks]))
        g = matcher.attend(h_q, h_p, self.w_g, self.b_g, q_sizes, [sum(ws) for ws in widths])
        m = matcher.match(h_p, g, self.w_m)
        return T.mul(m, _side_by_side([mm for _, _, mm in masks])) if dropout else m

    def rank_batch(self, m, widths):
        """The selection policy of a batch over the passages of M, question
        i's widths[i] after question i-1's."""
        flat = [w for ws in widths for w in ws]
        [h_rank] = matcher.encode_batch([m], [flat], self.agg_rank)
        return ranker.score_passages(h_rank, flat, self.w_c, self.b_c, self.w_c_out,
                                     questions=[len(ws) for ws in widths])

    def read_batch(self, m, widths):
        """The span distribution of a batch over the passages of M, question
        i's widths[i] after question i-1's."""
        flat = [w for ws in widths for w in ws]
        [h_read] = matcher.encode_batch([m], [flat], self.agg_read)
        return reader.span_distributions(h_read, flat, *self.read_heads,
                                         questions=[len(ws) for ws in widths])

    def match_passages(self, q_emb, p_emb, widths):
        return self.match_batch([q_emb], [p_emb], [widths])

    def rank(self, m, widths):
        return self.rank_batch(m, [widths])

    def read(self, m, widths):
        return self.read_batch(m, [widths])

    def read_each(self, m, widths):
        """The question's span distribution for inference: under no_grad, one
        pass of the read stack and of each pointer head over the block."""
        with T.no_grad():
            return self.read_batch(m, [widths])


def _side_by_side(masks):
    """Dropout masks joined column-wise into one fixed tensor."""
    return T.Tensor(np.concatenate([m.data for m in masks], axis=1))


# -- checkpoints ------------------------------------------------------------

def save_checkpoint(path, model, table):
    """Write one versioned JSON object: "params", one {name, rows, cols, values}
    entry per parameter, and "extra", the run's mode, config and word vectors.
    A table read from a file is stored by its path, any other one inline by
    token. Floats serialize via repr, so a round-trip is bit-exact."""
    if table.path:
        vectors = {"kind": "file", "path": table.path, "dimension": table.dimension}
    else:
        vectors = {"kind": "inline", "dimension": table.dimension,
                   "vectors": {tok: table.lookup(tok).tolist() for tok in sorted(table.tokens())}}
    write_json(path, {
        "format_version": CHECKPOINT_FORMAT,
        "params": [{"name": name, "rows": p.data.shape[0], "cols": p.data.shape[1],
                    "values": p.data.ravel().tolist()} for name, p in model.params.items()],
        "extra": {"mode": model.config.mode, "config": asdict(model.config), "table": vectors},
    })


def load_checkpoint(path, config=None):
    """(model, table) from a checkpoint: the model is built from config, or from
    the checkpoint's own (parsed and checked either way) when config is None.
    config's embeddings_path, when set, must be the table's file. Errors are one
    line naming path; an "optimizer" entry, which older checkpoints carry, is ignored."""
    payload = read_versioned_json(path, "checkpoint", CHECKPOINT_FORMAT, ("params",))
    values = {}
    with one_line_errors(path):
        for rec in payload["params"]:
            name = rec["name"]
            if name in values:
                raise ValueError(f"checkpoint entry {name!r} repeats")
            arr = np.array(rec["values"], dtype=np.float64)
            if arr.size != rec["rows"] * rec["cols"]:
                raise ValueError(f"checkpoint entry {name!r} has inconsistent size")
            if not np.isfinite(arr).all():
                raise ValueError(f"checkpoint entry {name!r} has a non-finite value")
            values[name] = arr.reshape(rec["rows"], rec["cols"])
    extra = payload.get("extra")
    if not isinstance(extra, dict) or "config" not in extra or "table" not in extra:
        raise ValueError(f"{path}: checkpoint lacks config/table metadata")
    with one_line_errors(f"{path}: checkpoint metadata"):
        own = Config(**extra["config"]).validate()
        table = _embedding_table(extra["table"])
    config = own if config is None else config
    if config.embeddings_path not in ("", table.path):
        held = repr(table.path) if table.path else "inline"
        raise ValueError(f"{path}: embeddings_path {config.embeddings_path!r} is not the "
                         f"checkpoint's word vectors ({held})")
    model = RankReadModel(config, seed=config.seed)
    with one_line_errors(path):
        model.load_values(values)
    with one_line_errors(f"{path}: checkpoint metadata"):
        if table.dimension != config.embed_dim:
            raise ValueError(f"table dimension {table.dimension} is not the model's "
                             f"embed_dim {config.embed_dim}")
    return model, table


def _embedding_table(payload):
    """The table a checkpoint's table entry describes. A file table's path is
    read as stored, so a relative one is relative to the working directory."""
    kind = payload["kind"]
    if kind not in ("file", "inline"):
        raise ValueError(f"table kind must be 'file' or 'inline', got {kind!r}")
    dimension = check_fields("table", payload, {"dimension": int})["dimension"]
    if kind == "file":
        if not check_fields("table", payload, {"path": str})["path"]:
            raise ValueError("table path must not be empty")
        try:
            return load_embeddings(payload["path"], dimension)
        except OSError as exc:
            raise ValueError(f"word vectors {payload['path']!r} cannot be read: "
                             f"{exc.strerror or exc}") from None
    vectors = {}
    for tok, vec in payload["vectors"].items():
        arr = np.array(vec, dtype=np.float64)
        if arr.shape != (dimension,) or not np.isfinite(arr).all():
            raise ValueError(f"embedding of {tok!r} must be {dimension} finite numbers")
        vectors[tok] = arr
    return EmbeddingTable(dimension, vectors)
