"""In-memory span tracer that wraps the program's public functions from outside.

`Tracer.install()` replaces each traced function or method with a wrapper in
every `rankread` module that holds a reference to it (modules that did
`from .text import tokenize` keep their own binding, so each one is patched).
A wrapper appends one span record `[name, start, end, parent, ctx, phase]`
and may run a counting hook before or after the call, outside the timed
interval. Spans stay in memory until `write_spans()` at the end of the run.
"""

import json
import sys
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, CTX, PHASE = range(6)


def _graph_size(root):
    """Nodes reachable from a loss tensor through its parents (the tape)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _spans_scored(dist, max_len, restrict_to=None):
    """(start, end) pairs `extract_best_span` visits for one distribution."""
    total = 0
    for seg in dist.segments:
        if restrict_to is not None and seg.passage_id != restrict_to:
            continue
        total += sum(min(max_len, seg.length - i) for i in range(seg.length))
    return total


class Tracer:
    """Records spans and counts at the boundaries of the program's layers.

    `ctx` (the current step or question id) and `phase` (setup, retrieve,
    train.sr, train.sr2, train.r3, eval, analyze) are set by the benchmark
    loop and stamped on every span.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.ctx = None
        self.phase = None
        self._patched = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.ctx, self.phase]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets):
        """targets: (owner, attribute, span name, before hook, after hook).

        Module-level functions are replaced in every loaded `rankread` module
        that refers to the same function object; methods on their class.
        """
        modules = [m for n, m in sys.modules.items()
                   if n == "rankread" or n.startswith("rankread.")]
        for owner, attr, name, before, after in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, before, after)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._patched.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """Total self time per span name: duration minus direct children."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        totals = Counter()
        for i, rec in enumerate(self.spans):
            totals[rec[NAME]] += rec[END] - rec[START] - child[i]
        return totals

    def covered_seconds(self):
        """Wall time inside a root span (no two roots overlap: one thread)."""
        return sum(rec[END] - rec[START] for rec in self.spans if rec[PARENT] < 0)

    def write_spans(self, path):
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


# -- counting hooks -----------------------------------------------------------

def _count_search(tr, args, kwargs):
    index, query = args[0], args[1]
    tokens = query.tokens if hasattr(query, "tokens") else query
    tr.counts["bm25.queries"] += 1
    tr.counts["bm25.postings"] += sum(len(index.postings.get(t, ())) for t in tokens)


def _count_tfidf(tr, args, kwargs):
    tr.counts["tfidf.calls"] += 1
    tr.counts["tfidf.sentences"] += len(args[0])


def _count_tokenize(tr, args, kwargs):
    tr.counts[f"tokenize.{tr.phase}"] += 1
    if tr.counts["inside.retrieve"]:
        tr.counts["tokenize.in_retrieve"] += 1


def _enter_retrieve(tr, args, kwargs):
    tr.counts["inside.retrieve"] += 1


def _leave_retrieve(tr, args, kwargs, result):
    tr.counts["inside.retrieve"] -= 1
    tr.counts["retrieve.calls"] += 1
    tr.counts["retrieve.positive"] += any(p.positive for p in result.passages)


def _count_encode(tr, args, kwargs):
    lengths = {s.data.shape[1] for s in args[0]}
    tr.counts[f"recurrences.{tr.phase}"] += len(lengths)
    tr.counts[f"lstm_steps.{tr.phase}"] += 2 * sum(lengths)  # two directions


def _count_match(tr, args, kwargs):
    tr.counts[f"match_calls.{tr.phase}"] += 1


def _count_example(tr, args, kwargs, result):
    tr.counts[f"examples.{tr.phase}"] += 1
    if result is None:
        tr.counts["skipped"] += 1


def _count_backward(tr, args, kwargs):
    tr.counts[f"tape_nodes.{tr.phase}"] += _graph_size(args[0])
    tr.counts[f"backward.{tr.phase}"] += 1


def _count_clip(tr, args, kwargs, result):
    tr.counts["clip.calls"] += 1
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    tr.counts["clip.fired"] += result > max_norm > 0


def _count_reward(tr, args, kwargs, result):
    tr.counts["reward.calls"] += 1
    tr.counts[f"reward.{result.kind}"] += 1


def _count_spans(tr, args, kwargs):
    dist, max_len = args[0], args[1] if len(args) > 1 else kwargs["max_len"]
    restrict = args[2] if len(args) > 2 else kwargs.get("restrict_to")
    tr.counts[f"spans_scored.{tr.phase}"] += _spans_scored(dist, max_len, restrict)


def _count_evaluated(tr, args, kwargs):
    tr.counts[f"questions.{tr.phase}"] += len(args[2])


def targets():
    """The layer boundaries the traced run records (owner, attr, span, hooks)."""
    from rankread import (evaluation, matcher, model, ranker, reader, retrieval,
                          synth, tensor, text, trainer)
    return [
        (synth, "generate", "synth.generate", None, None),
        (retrieval, "build_index", "retrieval.build_index", None, None),
        (retrieval, "save_index", "retrieval.save_index", None, None),
        (retrieval, "load_index", "retrieval.load_index", None, None),
        (retrieval, "retrieve", "retrieval.retrieve", _enter_retrieve, _leave_retrieve),
        (retrieval, "search_bm25", "retrieval.search_bm25", _count_search, None),
        (retrieval, "split_sentences", "retrieval.split_sentences", None, None),
        (retrieval, "rank_sentences_tfidf", "retrieval.rank_sentences_tfidf", _count_tfidf, None),
        (text, "tokenize", "text.tokenize", _count_tokenize, None),
        (text, "embed", "text.embed", None, None),
        (text, "synthetic_embeddings", "text.synthetic_embeddings", None, None),
        (model.RankReadModel, "match_passages", "model.match_passages", _count_match, None),
        (model.RankReadModel, "rank", "model.rank", None, None),
        (model.RankReadModel, "read", "model.read", None, None),
        (model.RankReadModel, "read_each", "model.read_each", None, None),
        (matcher, "encode_batch", "matcher.encode_batch", _count_encode, None),
        (matcher, "attend", "matcher.attend", None, None),
        (matcher, "match", "matcher.match", None, None),
        (ranker, "score_passages", "ranker.score_passages", None, None),
        (ranker, "sample_passage", "ranker.sample_passage", None, None),
        (reader, "span_loss", "reader.span_loss", None, None),
        (reader, "extract_best_span", "reader.extract_best_span", _count_spans, None),
        (trainer, "build_examples", "trainer.build_examples", None, None),
        (trainer, "best_reward", "trainer.best_reward", None, _count_reward),
        (trainer.Trainer, "train", "trainer.train", None, None),
        (trainer.Trainer, "example_losses", "trainer.example_losses", None, _count_example),
        (tensor, "backward", "tensor.backward", _count_backward, None),
        (tensor, "clip_global_norm", "tensor.clip_global_norm", None, _count_clip),
        (tensor.Adamax, "step", "tensor.adamax_step", None, None),
        (evaluation, "evaluate", "evaluation.evaluate", _count_evaluated, None),
        (evaluation, "predict_candidates", "evaluation.predict_candidates", None, None),
        (evaluation, "rank_passages", "evaluation.rank_passages", None, None),
        (evaluation, "f1_em", "evaluation.f1_em", None, None),
        (evaluation, "topk_recall", "evaluation.topk_recall", None, None),
        (evaluation, "oracle_topk", "evaluation.oracle_topk", None, None),
    ]


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, wall):
    """Per-layer self times (`<span>_s`), counts and ratios of one traced pass."""
    c = tracer.counts
    out = {f"{name}_s": seconds for name, seconds in tracer.self_times().items()}
    for _, _, name, _, _ in targets():
        out.setdefault(f"{name}_s", 0.0)
    questions = c["questions.eval"]
    out.update({
        "retrieval.bm25_postings_scanned": _ratio(c["bm25.postings"], c["bm25.queries"]),
        "retrieval.sentences_scored": _ratio(c["tfidf.sentences"], c["tfidf.calls"]),
        "retrieval.positive_share": _ratio(c["retrieve.positive"], c["retrieve.calls"]),
        "text.tokenize_calls_per_query": _ratio(c["tokenize.in_retrieve"], c["retrieve.calls"]),
        "text.tokenize_calls_per_question":
            _ratio(c["tokenize.eval"] + c["tokenize.analyze"], questions),
        "matcher.recurrences_per_question": _ratio(c["recurrences.eval"], questions),
        "matcher.lstm_steps_per_question": _ratio(c["lstm_steps.eval"], questions),
        "reader.spans_scored": _ratio(c["spans_scored.eval"], questions),
        "evaluation.match_calls_per_question":
            _ratio(c["match_calls.eval"] + c["match_calls.analyze"], questions),
        "trainer.steps": c["clip.calls"],
        "trainer.skipped_examples": c["skipped"],
        "tensor.clip_fired_share": _ratio(c["clip.fired"], c["clip.calls"]),
        "trace.coverage": _ratio(tracer.covered_seconds(), wall),
        "trace.spans": len(tracer.spans),
    })
    for kind in ("exact", "overlap", "miss"):
        out[f"trainer.reward_{kind}_share"] = _ratio(c[f"reward.{kind}"], c["reward.calls"])
    for mode in ("sr", "sr2", "r3"):
        examples = c[f"examples.train.{mode}"]
        out[f"matcher.recurrences_per_example.{mode}"] = _ratio(c[f"recurrences.train.{mode}"],
                                                                examples)
        out[f"matcher.lstm_steps_per_example.{mode}"] = _ratio(c[f"lstm_steps.train.{mode}"],
                                                               examples)
        out[f"tensor.tape_nodes_per_example.{mode}"] = _ratio(c[f"tape_nodes.train.{mode}"],
                                                              c[f"backward.train.{mode}"])
    return out
