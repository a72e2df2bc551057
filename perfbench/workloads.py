"""The benchmark's workloads and the phases every run goes through.

A run is one process and one caller: each retrieval, training step and
question starts after the previous one ends (a closed loop with one client),
as in the batch pipeline the program implements. Work is fixed by the
workload, the seed and `--seconds` (which scales the number of rounds,
questions and queries against REFERENCE_SECONDS), never by the clock, so a
run does the same arithmetic on every commit and machine and its
determinism fingerprint can be compared.
"""

import gc
import hashlib
import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import checks
from rankread import evaluation, retrieval, synth, text, trainer as trainer_mod
from rankread.experiment import default_config
from rankread.model import RankReadModel

REFERENCE_SECONDS = 25
SETUP_REPEATS = 3  # odd, so the median is one of the samples
BM25_CHECKS = 16   # queries compared with the brute-force scorer per run
PROBE_REF_S = 0.6e-3  # probe() on a quiet CPU of the reference host (2 vCPU Xeon, 2.1 GHz)
PROBE_WORDS = [f"w{i:05d}" for i in range(3000)]
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


@dataclass(frozen=True)
class Workload:
    name: str
    entities: int             # documents = entities x 10 relations
    train_questions: int
    test_questions: int
    rounds: int               # at REFERENCE_SECONDS; one step per mode per round
    warmup_steps: int         # sr2 steps before r3 starts from the sr2 weights
    batch_size: int
    eval_questions: int       # test questions evaluated and analysed, over all rounds
    timed_queries: int        # stream queries spread over the rounds
    model_questions: int = 0  # train questions retrieved for examples; 0 = all
    max_fillers: int = 0      # filler words per sentence, 0..max_fillers
    test_passages: int = 10
    round_trip: bool = False  # save_index/load_index in set-up


WORKLOADS = {w.name: w for w in (
    # The shipped SyntheticSpec(): every passage is ten tokens, so encode_batch
    # runs one recurrence per length group and the time goes to the tape.
    Workload("synth_short", entities=40, train_questions=300, test_questions=100,
             rounds=48, warmup_steps=12, batch_size=4, eval_questions=100, timed_queries=400),
    # Same generator with filler words: passage lengths vary, encode_batch
    # splits into many recurrences, and 20-passage evaluation weighs more.
    Workload("synth_ragged", entities=40, train_questions=120, test_questions=48,
             rounds=12, warmup_steps=4, batch_size=2, eval_questions=40, timed_queries=192,
             max_fillers=12, test_passages=20),
    # A large corpus: index build, an index file round trip, and a stream of
    # train-mode and test-mode queries dominate; the model phase is small.
    Workload("retrieval_large", entities=400, train_questions=750, test_questions=750,
             rounds=12, warmup_steps=2, batch_size=4, eval_questions=96, timed_queries=400,
             model_questions=64, round_trip=True),
)}


# -- inputs ---------------------------------------------------------------------

def _filler_words(rng, taken, count=60):
    # letters synth never coins words from, and never a word the task uses,
    # so fillers change no query, answer or retrieval label
    words = []
    while len(words) < count:
        w = "".join(rng.choice(list("cjhwxyq")) + rng.choice(list("aeiou")) for _ in range(2))
        if w not in taken and w not in words:
            words.append(w)
    return words


def _add_fillers(documents, vocab, max_fillers, rng):
    """Insert 0..max_fillers filler words inside every sentence."""
    fillers = _filler_words(rng, vocab)
    out = []
    for doc in documents:
        sentences = []
        for sent in retrieval.split_sentences(doc.text):
            words = sent.split()
            at = int(rng.integers(1, len(words)))  # after the capitalised first word
            k = int(rng.integers(0, max_fillers + 1))
            words[at:at] = [fillers[i] for i in rng.integers(0, len(fillers), k)]
            sentences.append(" ".join(words))
        out.append(retrieval.Document(doc.id, doc.title, " ".join(sentences)))
    return out, vocab | set(fillers)


def make_inputs(w, seed):
    """Corpus, train and test questions, and vocabulary for one seed."""
    spec = synth.SyntheticSpec(entities=w.entities, train_questions=w.train_questions,
                               test_questions=w.test_questions, seed=seed)
    docs, train, test, vocab = synth.generate(spec)
    if w.max_fillers:
        docs, vocab = _add_fillers(docs, vocab, w.max_fillers, np.random.default_rng(seed + 7))
    return docs, train, test, vocab


def inputs_digest(docs, train, test):
    h = hashlib.sha256()
    for d in docs:
        h.update(f"{d.id}\t{d.title}\t{d.text}\n".encode())
    for r in train + test:
        h.update(f"{r['id']}\t{r['question']}\t{r['answers']}\n".encode())
    return h.hexdigest()


# -- statistics -----------------------------------------------------------------

def tail(samples):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it."""
    n = len(samples)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(samples, p))
    return 50.0, float(np.percentile(samples, 50.0))


def latency_metrics(prefix, samples):
    """q/s from the total, p50 and tail in ms, plus how the tail was taken."""
    p, value = tail(samples)
    metrics = {f"{prefix}_q_per_s": len(samples) / sum(samples),
               f"{prefix}_q_p50_ms": 1000.0 * statistics.median(samples),
               f"{prefix}_q_tail_ms": 1000.0 * value}
    return metrics, {"tail_percentile": p, "samples": len(samples)}


# -- timing ---------------------------------------------------------------------

def probe():
    """Fixed work shaped like the program's; returns seconds (about 1 ms).

    Small-array numpy steps, like the model's tape, then a word count into a
    dict of a few thousand strings, like tokenizing and indexing.
    """
    a = np.full((8, 8), 0.5)
    counts = {}
    t0 = time.perf_counter()
    for _ in range(150):
        a = np.tanh(a @ a * 0.1 + a)
    for w in PROBE_WORDS:
        counts[w] = counts.get(w, 0) + 1
    return time.perf_counter() - t0


def clock(fn, *args, **kwargs):
    """(result, reference seconds, wall seconds) of one call.

    On a shared host each CPU runs 50-75% slower while its hyperthread
    sibling is busy, for anything from a tenth of a second to minutes, so
    one piece of code can take 1.6 times as long from one run to the next.
    A fixed probe slows by the same factor. The call is bracketed by two
    probes, and its wall time is scaled by PROBE_REF_S over their mean: the
    time it would take on a quiet CPU of the reference host. The probes are
    not part of either time.
    """
    before = probe()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    return out, wall * 2.0 * PROBE_REF_S / (before + probe()), wall


# -- the run --------------------------------------------------------------------

class Run:
    """One pass over a workload: set-up, then the timed rounds.

    Every round takes one training step in each mode, evaluates and analyses
    a slice of the test questions, rebuilds the index and runs a slice of
    the query stream. Interleaving spreads each metric's samples over the
    whole run. Every timed call goes through `clock`, so a slow CPU does not
    show as a slow program. Samples are (reference s, wall s) pairs; the
    metrics use the first, and the wall-clock figures go in the metadata.
    `tracer` is None for the untraced pass; otherwise the pass sets its
    phase and ctx so spans and counts are attributed.
    """

    def __init__(self, w, seed, seconds, out_dir, tracer=None):
        self.w, self.seed, self.out_dir, self.tracer = w, seed, out_dir, tracer
        scale = seconds / REFERENCE_SECONDS
        self.rounds = max(2, round(w.rounds * scale))
        self.warmup = max(1, round(w.warmup_steps * scale))
        self.eval_questions = min(w.test_questions, max(2, round(w.eval_questions * scale)))
        self.timed_queries = round(w.timed_queries * scale)
        self.cfg = default_config().with_overrides({"batch_size": w.batch_size})
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.metrics = {}
        self.meta = {}
        self.build_s = []
        self.retrieve_s = []
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin(self, i):
        """Run on the i-th allowed CPU, round-robin.

        Pinning keeps a call and the probes around it on one CPU; rotating
        per round gives each metric a share of every CPU.
        """
        os.sched_setaffinity(0, {self.cpus[i % len(self.cpus)]})

    def unpin(self):
        os.sched_setaffinity(0, self.cpus)

    # bookkeeping

    def _set(self, phase, ctx=None):
        if self.tracer is not None:
            self.tracer.phase, self.tracer.ctx = phase, ctx

    def _ctx(self, ctx):
        if self.tracer is not None:
            self.tracer.ctx = ctx

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    @staticmethod
    def _clock(into, fn, *args, **kwargs):
        """Call fn through `clock`, appending its (reference s, wall s) to into."""
        out, ref, wall = clock(fn, *args, **kwargs)
        into.append((ref, wall))
        return out

    def _build(self, docs, into):
        index = self._clock(into, retrieval.build_index, docs)
        self.check(index.doc_count == len(docs), "build_index")
        return index

    def _retrieve(self, index, rec, train, into):
        self._ctx(rec["id"])
        n = self.cfg.retrieve_n if train else self.w.test_passages
        rs = self._clock(into, retrieval.retrieve, index, rec["id"], rec["question"],
                         rec["answers"], n=n, top_a=self.cfg.top_a, top_s=self.cfg.top_s,
                         train=train, k1=self.cfg.bm25_k1, b=self.cfg.bm25_b)
        self.check(checks.retrieved_ok(rs, n), f"retrieve {rec['id']}")
        return rs

    # set-up

    def setup(self):
        """Inputs, index, embeddings, retrieval and examples.

        Returns the task and the set-up time as (reference s, wall s): the
        sum over its calls, each timed through `clock`.
        """
        w = self.w
        self._set("setup", "setup")
        parts = []
        docs, train, test, vocab = self._clock(parts, make_inputs, w, self.seed)
        index = self._build(docs, parts)
        if w.round_trip:
            path = os.path.join(self.out_dir, f"index-{w.name}-{os.getpid()}.json")
            try:
                self._clock(parts, retrieval.save_index, index, path)
                loaded = self._clock(parts, retrieval.load_index, path)
            finally:
                if os.path.exists(path):
                    os.remove(path)
            self.check(loaded.postings == index.postings
                       and loaded.doc_lengths == index.doc_lengths, "index round trip")
            index = loaded
        table = self._clock(parts, text.synthetic_embeddings, vocab, self.cfg.embed_dim,
                            seed=self.seed)
        model_train = train[: w.model_questions or len(train)]
        eval_test = test[: self.eval_questions]
        train_rs = [self._retrieve(index, rec, True, parts) for rec in model_train]
        test_rs = [self._retrieve(index, rec, False, parts) for rec in eval_test]
        self._ctx("setup")
        examples, _ = self._clock(parts, trainer_mod.build_examples, model_train, train_rs)
        # the query stream takes the questions the model does not use, then
        # all of them again, alternating train and test mode
        stream = _interleave(train[len(model_train):], test[len(eval_test):])
        while len(stream) < self.timed_queries:
            stream += _interleave(train, test)
        task = {"docs": docs, "train": train, "test": test, "index": index, "table": table,
                "examples": examples, "eval": list(zip(eval_test, test_rs)),
                "stream": stream[: self.timed_queries]}
        self._set(None)
        return task, tuple(sum(col) for col in zip(*parts))

    # timed rounds

    def _model(self, init=None):
        model = RankReadModel(self.cfg.model_config(), seed=self.seed)
        if init is not None:
            model.load_values(init.export_values())
        return model

    def _trainer(self, task, mode, init):
        model = self._model(init)
        tr = trainer_mod.Trainer(model, task["table"], self.cfg,
                                 seed=self.seed + 1000 * (mode == "r3"))
        return {"mode": mode, "model": model, "trainer": tr, "steps": 0, "seconds": [],
                "log": []}

    def _step(self, task, job, order, into):
        mode, tr, bs = job["mode"], job["trainer"], self.cfg.batch_size
        step = job["steps"]
        job["steps"] += 1
        chunk = [task["examples"][order[(step * bs + j) % len(order)]] for j in range(bs)]
        self._set(f"train.{mode}", f"{mode}:{step}")
        before = len(tr.log)
        self._clock(into, tr.train, chunk, mode, 1)
        record = tr.log[-1] if len(tr.log) > before else None
        self.check(checks.step_ok(record), f"{mode} step {step}")
        if record is not None:
            job["log"].append(record)

    def _evaluate(self, task, model, rec, rs, out):
        self._set("eval", rec["id"])
        max_len = self.cfg.max_span_len
        report = self._clock(out["eval_s"], evaluation.evaluate, model, task["table"], [rec],
                             [rs], max_len, threads=1)
        row = report["records"][0]
        self.check(checks.prediction_ok(row, rs.passages, max_len), f"predict {rec['id']}")
        out["records"].append(row)

    def _analyze(self, task, model, rec, rs, out):
        """Ranker order (for recall@k) and candidates (for the oracle) of one question."""
        self._set("analyze", rec["id"])
        table, max_len = task["table"], self.cfg.max_span_len

        def analyze():
            q_tokens = text.tokenize(rec["question"]).tokens
            return (evaluation.rank_passages(model, table, q_tokens, rs.passages),
                    evaluation.predict_candidates(model, table, q_tokens, rs.passages, max_len))

        ranked, cands = self._clock(out["analyze_s"], analyze)
        self.check(checks.candidates_ok(cands, rs.passages, max_len), f"candidates {rec['id']}")
        out["flags"].append([p.positive for p in ranked])
        out["candidates"].append(cands)

    def timed(self, task):
        """sr2 warm-up, then the rounds; fills self.metrics and the meta."""
        order = np.random.default_rng(self.seed + 1).permutation(len(task["examples"]))
        sr = self._trainer(task, "sr", None)
        sr2 = self._trainer(task, "sr2", None)
        gc.collect()
        self.pin(0)
        for _ in range(self.warmup):
            self._step(task, sr2, order, [])
        # r3 starts from the warmed-up sr2 weights; evaluation and analysis
        # use that same snapshot, so their arithmetic does not depend on the
        # interleaving
        r3 = self._trainer(task, "r3", sr2["model"])
        frozen = self._model(sr2["model"])
        out = {"eval_s": [], "records": [], "analyze_s": [], "flags": [], "candidates": []}
        questions, stream = task["eval"], task["stream"]
        for r in range(self.rounds):
            self.pin(r)
            self._set("setup", f"round {r}")
            # a full collection owed by the previous round's steps would
            # otherwise land inside some of the builds: about 1 in 3 on
            # synth_ragged, each adding about 30% to its build
            gc.collect()
            self._build(task["docs"], self.build_s)
            for job in (sr, sr2, r3):
                self._step(task, job, order, job["seconds"])
            for rec, rs in _share(questions, r, self.rounds):
                self._evaluate(task, frozen, rec, rs, out)
                self._analyze(task, frozen, rec, rs, out)
            for rec, is_train in _share(stream, r, self.rounds):
                self._set("retrieve")
                self._retrieve(task["index"], rec, is_train, self.retrieve_s)
        self._set("analyze", "summary")

        def summarize():
            return (evaluation.topk_recall(out["flags"], (1, 3, 5)),
                    evaluation.oracle_topk(out["candidates"],
                                           [q["answers"] for q, _ in questions], (1, 3, 5)))

        summary_s = []
        recall, oracle = self._clock(summary_s, summarize)
        self.unpin()
        self._set(None)

        def metrics(k):
            """The timing metrics from sample column k: 0 reference, 1 wall."""
            col = lambda samples: [x[k] for x in samples]  # noqa: E731
            m = {f"train_{job['mode']}_ex_per_s":
                 len(job["seconds"]) * self.cfg.batch_size / sum(col(job["seconds"]))
                 for job in (sr, sr2, r3)}
            m.update(latency_metrics("eval", col(out["eval_s"]))[0])
            m["analyze_q_per_s"] = len(out["analyze_s"]) / (sum(col(out["analyze_s"]))
                                                            + summary_s[0][k])
            m.update(latency_metrics("retrieve", col(self.retrieve_s))[0])
            m["index_build_s"] = statistics.median(col(self.build_s))
            return m

        self.metrics.update(metrics(0))
        self.meta["wall_metrics"] = metrics(1)
        eval_meta = latency_metrics("eval", [x[0] for x in out["eval_s"]])[1]
        retrieve_meta = latency_metrics("retrieve", [x[0] for x in self.retrieve_s])[1]
        records, last = out["records"], r3["log"][-8:]
        self.meta["quality"] = {
            "model": "sr2 after the warm-up steps (r3's starting point)",
            "test_em": 100.0 * sum(r["em"] for r in records) / len(records),
            "test_f1": 100.0 * sum(r["f1"] for r in records) / len(records),
            "recall_at_k": {str(k): v for k, v in recall.items()},
            "oracle_topk": {str(k): v for k, v in oracle.items()},
            "r3_reader_loss_final": sum(r["reader_loss"] for r in last) / max(len(last), 1),
        }
        self.meta["latency"] = {"eval": eval_meta, "retrieve": retrieve_meta,
                                "index_builds": len(self.build_s), "cpus": self.cpus}
        self.meta["schedule"] = {"rounds": self.rounds, "sr2_warmup_steps": self.warmup,
                                 "batch_size": self.cfg.batch_size,
                                 "eval_questions": len(records),
                                 "train_examples": len(task["examples"])}
        self.meta["fingerprint"] = fingerprint(
            [job["model"] for job in (sr, sr2, r3)], sr["log"] + sr2["log"] + r3["log"])

    def bm25_sample(self, task):
        """Compare a seeded sample of queries with the brute-force scorer."""
        brute = checks.BruteBM25(task["docs"])
        rng = np.random.default_rng(self.seed + 2)
        records = task["train"] + task["test"]
        for i in rng.choice(len(records), size=min(BM25_CHECKS, len(records)),
                            replace=False):
            rec = records[int(i)]
            is_train = int(i) < len(task["train"])
            query = retrieval.make_training_query(
                text.tokenize(rec["question"]).tokens, rec["answers"], is_train)
            self.check(checks.bm25_ok(brute, task["index"], query, self.cfg.top_a),
                       f"bm25 {rec['id']}")


def _interleave(train, test):
    pairs = [(rec, True) for rec in train[len(test):]] + [(rec, False) for rec in test[len(train):]]
    return [pair for a, b in zip(train, test) for pair in ((a, True), (b, False))] + pairs


def _share(items, r, rounds):
    """Round r's contiguous slice when items are spread evenly over the rounds."""
    return items[r * len(items) // rounds:(r + 1) * len(items) // rounds]


def fingerprint(models, log):
    """Digests of the final parameters and of the per-step loss sequence."""
    params = hashlib.sha256()
    for model in models:
        for name in sorted(model.params):
            params.update(name.encode())
            params.update(np.ascontiguousarray(model.params[name].data).tobytes())
    losses = hashlib.sha256()
    for rec in log:
        losses.update(repr([rec.get(k) for k in ("step", "mode", "reader_loss", "kl_loss",
                                                 "reward")]).encode())
    return {"params_sha256": params.hexdigest(), "losses_sha256": losses.hexdigest(),
            "steps": len(log)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
