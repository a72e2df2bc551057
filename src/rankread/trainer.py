"""Training: the joint policy-gradient + supervised loop and its two
supervised baselines (reader-only, and reader plus a KL-trained ranker)."""

import logging
import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from . import ranker as ranker_mod
from . import reader as reader_mod
from . import tensor as T
from .config import MODES
from .evaluation import token_f1
from .text import embed, find_token_spans, tokenize

log = logging.getLogger(__name__)


REWARD_KINDS = ("exact", "overlap", "miss")


@dataclass
class RewardValue:
    value: float
    kind: str  # one of REWARD_KINDS


def reward(gold, predicted):
    """2 for an exact token match, token F1 for partial overlap, -1 for none."""
    gold_tokens = tokenize(gold).tokens
    pred_tokens = tokenize(predicted).tokens
    if not pred_tokens:
        return RewardValue(-1.0, "miss")
    if pred_tokens == gold_tokens:
        return RewardValue(2.0, "exact")
    f1 = token_f1(pred_tokens, gold_tokens)
    if f1 == 0.0:
        return RewardValue(-1.0, "miss")
    return RewardValue(f1, "overlap")


def best_reward(golds, predicted):
    return max((reward(g, predicted) for g in golds), key=lambda r: r.value)


@dataclass
class TrainingExample:
    question_id: str
    question_tokens: list
    answers: list
    passages: list            # RetrievedPassage, top-N order
    passage_tokens: list      # tokenized passages, aligned
    spans: dict               # passage index -> [(start, end)] answer occurrences

    def positive_indices(self):
        return [i for i in range(len(self.passages)) if self.spans.get(i)]


def localize_spans(passage_tokens, answer_token_lists):
    """All token-level occurrences of any answer in one passage."""
    spans = []
    for ans in answer_token_lists:
        spans.extend(find_token_spans(passage_tokens, ans))
    return sorted(set(spans))


def build_examples(dataset, retrieved_sets):
    """Join questions with their retrieved passages and localize answer spans.

    Questions with no passages, or whose passages contain no answer
    occurrence, are dropped and counted.
    """
    by_id = {rs.question_id: rs for rs in retrieved_sets}
    examples = []
    dropped = 0
    for rec in dataset:
        rs = by_id.get(rec["id"])
        if rs is None or not rs.passages:
            dropped += 1
            continue
        answer_tokens = [tokenize(a).tokens for a in rec["answers"]]
        p_tokens = [tokenize(p.text).tokens for p in rs.passages]
        spans = {}
        for i, toks in enumerate(p_tokens):
            occ = localize_spans(toks, answer_tokens)
            if occ:
                spans[i] = occ
        if not spans:
            dropped += 1
            continue
        examples.append(TrainingExample(
            rec["id"], tokenize(rec["question"]).tokens, list(rec["answers"]),
            rs.passages, p_tokens, spans))
    if dropped:
        log.info("dropped %d questions without usable passages", dropped)
    return examples, dropped


def kl_rank_loss(policy, positives):
    """Each question's KL(y || gamma), where y is uniform over the passages at
    its positive positions (positives[i] are question i's), as an (n, 1) tensor.

    Expands to mean(-log gamma over positives) - log(#positives); zero exactly
    when gamma matches y on its support.
    """
    rows = [sorted(p) for p in positives]
    if not all(rows):
        raise ValueError("kl_rank_loss: no positive passage")
    return T.add(T.neg_log_softmax_mean(policy.logits, policy.questions, rows),
                 T.Tensor([[-np.log(len(r))] for r in rows]))


def sample_passage_subset(example, k, min_negatives, rng):
    """Pick at most k passage indices: as many positives as possible, but
    leaving room for min_negatives negatives when they exist."""
    all_idx = list(range(len(example.passages)))
    if len(all_idx) <= k:
        return all_idx
    pos = example.positive_indices()
    neg = [i for i in all_idx if i not in example.spans]
    n_pos = min(len(pos), max(1, k - min_negatives))
    n_neg = min(len(neg), k - n_pos)
    n_pos = min(len(pos), k - n_neg)
    chosen = []
    if n_pos:
        chosen.extend(rng.choice(len(pos), size=n_pos, replace=False).tolist())
        chosen = [pos[i] for i in chosen]
    if n_neg:
        picks = rng.choice(len(neg), size=n_neg, replace=False).tolist()
        chosen.extend(neg[i] for i in picks)
    return sorted(chosen)


class Trainer:
    """Runs epochs over training examples in any of the three modes.

    One optimizer step per batch: the batch's examples are built into one
    graph and their summed loss gets one backward pass. The rng draws of a
    batch come in a fixed order. First, for each example in batch order, its
    passage subset (sample_passage_subset) and then its dropout masks, none
    of which depend on the forward pass. Then, after the batched ranking
    pass, for each example in batch order, tau (sample_passage in r3, a
    uniform pick among the subset's positives in sr and sr2) and then the
    index of the answer occurrence in tau.

    Word vectors are looked up per batch, for the sampled passages only, so
    the trainer's memory does not grow with the training set.

    The per-step log records are kept on .log; each carries the gradient
    norm before clipping and whether clipping fired, sr2 and r3 records the
    batch's mean policy entropy, and r3 records its rewards counted by
    kind. A batch whose gradient norm is not finite takes no step; its
    record, {"step", "mode", "nonfinite": True}, goes on .skipped, beside
    .log, and .nonfinite_steps counts them. .batches counts every batch
    train() ran, logged or skipped, and is the step index of the next one.
    """

    def __init__(self, model, table, config, seed=0):
        self.model = model
        self.table = table
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.optimizer = T.Adamax(model.parameters(), lr=config.learning_rate)
        self.log = []
        self.skipped = []
        self.batches = 0

    @property
    def nonfinite_steps(self):
        return len(self.skipped)

    # -- a batch's losses -------------------------------------------------------

    def batch_losses(self, batch, mode):
        """Build the differentiable loss of a batch as one graph.

        Returns (loss, reports): the (1, 1) sum of the examples' losses, and
        one report per example, in batch order: its 'loss' and the other
        logged floats, and the draws it used ('subset', 'tau', 'span'). An
        example without a positive passage in its subset is a ValueError
        naming it: build_examples drops those.
        """
        if mode not in MODES:
            raise ValueError(f"unknown training mode: {mode!r}")
        cfg, rng, model = self.config, self.rng, self.model
        subsets, positives, widths, q_embs, p_embs, masks = [], [], [], [], [], []
        for example in batch:
            subset = sample_passage_subset(example, cfg.train_sample_k, cfg.min_negatives, rng)
            pos = [row for row, i in enumerate(subset) if example.spans.get(i)]
            if not pos:
                raise ValueError(f"{example.question_id}: example has no positive passage")
            q_emb = embed(example.question_tokens, self.table)
            p_emb = embed([tok for i in subset for tok in example.passage_tokens[i]], self.table)
            subsets.append(subset)
            positives.append(pos)
            widths.append([len(example.passage_tokens[i]) for i in subset])
            q_embs.append(q_emb)
            p_embs.append(p_emb)
            masks.append(model.dropout_masks(q_emb, p_emb, rng))
        m = model.match_batch(q_embs, p_embs, widths, masks)
        policy = model.rank_batch(m, widths) if mode != "sr" else None

        # the policy's rows and M's passages run question after question:
        # example i's start at first_row[i]; subset[row] is its passage at row
        first_row = list(accumulate((len(ws) for ws in widths), initial=0))
        taus, spans, read_widths, read_cols = [], [], [], []
        col = 0
        # r3 samples tau from its question's slice of gamma
        gamma = policy.probs() if mode == "r3" else None
        for example, subset, pos, ws, row0 in zip(batch, subsets, positives, widths, first_row):
            row = (ranker_mod.sample_passage(gamma[row0:row0 + len(ws)], pos, rng)
                   if mode == "r3" else pos[int(rng.integers(len(pos)))])
            occurrences = example.spans[subset[row]]
            spans.append(occurrences[int(rng.integers(len(occurrences)))]
                         if len(occurrences) > 1 else occurrences[0])
            taus.append(row)
            # the reader reads tau, then the negatives: their columns of M
            order = [row] + [r for r, i in enumerate(subset) if not example.spans.get(i)]
            starts = list(accumulate(ws, initial=col))
            read_widths.append([ws[r] for r in order])
            read_cols.extend(c for r in order for c in range(starts[r], starts[r + 1]))
            col = starts[-1]
        dist = model.read_batch(T.take_cols(m, read_cols), read_widths)
        # each example's tau is the first segment of its read block
        firsts = list(accumulate((len(ws) for ws in read_widths[:-1]), initial=0))
        reader_loss = reader_mod.span_loss(
            dist, [reader_mod.SpanLabel(f, *span) for f, span in zip(firsts, spans)])
        reports = [{"reader_loss": float(v), "subset": subset, "tau": subset[row], "span": span}
                   for v, subset, row, span in zip(reader_loss.data[:, 0], subsets, taus, spans)]
        loss = reader_loss
        if mode != "sr":
            for report, entropy in zip(reports, policy.entropies()):
                report["entropy"] = entropy
        if mode == "sr2":
            kl = kl_rank_loss(policy, [[row0 + p for p in pos]
                                       for row0, pos in zip(first_row, positives)])
            loss = T.add(loss, T.scale(kl, cfg.kl_weight))
            for report, v in zip(reports, kl.data[:, 0]):
                report["kl_loss"] = float(v)
        elif mode == "r3":
            # the answer inference would extract from each tau's segment alone
            extracted = reader_mod.extract_best_span(
                replace(dist, segments=[dist.segments[f] for f in firsts],
                        questions=[1] * len(firsts)),
                cfg.max_span_len)
            rewards = []
            for example, report, (label, _) in zip(batch, reports, extracted):
                answer_text = " ".join(
                    example.passage_tokens[report["tau"]][label.start:label.end + 1])
                r = best_reward(example.answers, answer_text)
                report["reward"], report["reward_kind"] = r.value, r.kind
                rewards.append([r.value])
            # REINFORCE: reward times -log gamma(tau)
            nll = T.neg_log_softmax_mean(policy.logits, policy.questions,
                                         [[row0 + row] for row0, row in zip(first_row, taus)])
            loss = T.add(loss, T.mul(T.Tensor(rewards), nll))
        for report, v in zip(reports, loss.data[:, 0]):
            report["loss"] = float(v)
        return T.matmul(T.Tensor(np.ones((1, len(batch)))), loss), reports

    def example_losses(self, example, mode):
        """batch_losses of a batch of one: (loss, [report])."""
        return self.batch_losses([example], mode)

    # -- steps and epochs ------------------------------------------------------

    def _apply_batch(self, batch, mode, step_index):
        self.model.zero_grads()
        loss, reports = self.batch_losses(batch, mode)
        T.backward(loss)
        grad_clip = self.config.grad_clip
        norm = T.clip_global_norm(self.model.parameters().values(), grad_clip)
        if not math.isfinite(norm):
            self.skipped.append({"step": step_index, "mode": mode, "nonfinite": True})
            log.warning("step %d: non-finite gradient norm, optimizer step skipped", step_index)
            return None
        self.optimizer.step()
        record = {"step": step_index, "mode": mode,
                  "reader_loss": sum(r["reader_loss"] for r in reports) / len(batch)}
        for key in ("reward", "kl_loss", "entropy"):
            if key in reports[0]:
                record[key] = sum(r[key] for r in reports) / len(batch)
        if mode == "r3":
            record["rewards"] = {kind: sum(r["reward_kind"] == kind for r in reports)
                                 for kind in REWARD_KINDS}
        record["grad_norm"] = norm
        record["clipped"] = norm > grad_clip > 0
        self.log.append(record)
        return record

    def train(self, examples, mode, epochs):
        """Shuffled epochs; one optimizer step per batch of examples."""
        batch = self.config.batch_size
        for _ in range(epochs):
            order = self.rng.permutation(len(examples))
            for lo in range(0, len(order), batch):
                chunk = [examples[i] for i in order[lo:lo + batch]]
                self._apply_batch(chunk, mode, self.batches)
                self.batches += 1


def train_sr2_then_r3(model, table, config, examples, seed, sr2_epochs, r3_epochs):
    """sr2 in a Trainer seeded `seed`, then r3 on the same model in a new Trainer
    seeded `seed + 1000`: a fresh optimizer and an rng sr2 did not draw from, so
    r3 after a checkpoint's sr2 weights with sr2_epochs=0 is the same run. The r3
    trainer carries on the sr2 log, skipped records and step index; it is returned
    with the sr2 weights."""
    sr2 = Trainer(model, table, config, seed=seed)
    sr2.train(examples, "sr2", sr2_epochs)
    sr2_values = model.export_values()
    r3 = Trainer(model, table, config, seed=seed + 1000)
    r3.log, r3.skipped, r3.batches = sr2.log, sr2.skipped, sr2.batches
    r3.train(examples, "r3", r3_epochs)
    return sr2_values, r3
