"""Training: the joint policy-gradient + supervised loop and its two
supervised baselines (reader-only, and reader plus a KL-trained ranker)."""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import ranker as ranker_mod
from . import reader as reader_mod
from . import tensor as T
from .evaluation import token_f1
from .text import embed, find_token_spans, tokenize

log = logging.getLogger(__name__)

MODES = ("sr", "sr2", "r3")


@dataclass
class RewardValue:
    value: float
    kind: str  # exact | overlap | miss


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


def kl_rank_loss(policy, positive_ids):
    """KL(y || gamma) where y is uniform over the positive passages.

    Expands to mean(-log gamma over positives) - log(#positives); zero exactly
    when gamma matches y on its support.
    """
    rows = [i for i, pid in enumerate(policy.passage_ids) if pid in positive_ids]
    if not rows:
        raise ValueError("kl_rank_loss: no positive passage")
    total = None
    for r in rows:
        pick = T.neg_log_softmax_pick(policy.logits, r)
        total = pick if total is None else T.add(total, pick)
    mean_neg_log = T.scale(total, 1.0 / len(rows))
    return T.add(mean_neg_log, T.Tensor([[-np.log(len(rows))]]))


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


def pretrain_init(model, checkpoint_path, optimizer=None):
    """Copy checkpointed parameters into the model and reset optimizer state."""
    values, _, extra = T.load_checkpoint(checkpoint_path)
    model.load_values(values)
    if optimizer is not None:
        optimizer.reset()
    return extra


class Trainer:
    """Runs epochs over training examples in any of the three modes.

    One optimizer step per batch; gradients accumulate across the batch's
    examples. The per-step log records are kept on .log. A batch whose
    gradient norm is not finite takes no step and logs no record; it is
    counted on .nonfinite_steps. .batches counts every batch train() ran,
    logged or not, and is the step index of the next one.
    """

    def __init__(self, model, table, config, seed=0):
        self.model = model
        self.table = table
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.optimizer = T.Adamax(model.parameters(), lr=config.learning_rate)
        self.log = []
        self.nonfinite_steps = 0
        self.batches = 0
        self._embed_cache = {}

    # -- embeddings (fixed; cached per question id) --------------------------

    def _embeddings(self, example):
        cached = self._embed_cache.get(example.question_id)
        if cached is None:
            q_emb = embed(example.question_tokens, self.table)
            p_embs = [embed(toks, self.table) for toks in example.passage_tokens]
            cached = (q_emb, p_embs)
            self._embed_cache[example.question_id] = cached
        return cached

    # -- one example's losses -------------------------------------------------

    def example_losses(self, example, mode):
        """Build the differentiable loss for one example; returns a report dict
        with 'loss' (tensor) and logged floats. An example without a positive
        passage is a ValueError: build_examples drops those."""
        if mode not in MODES:
            raise ValueError(f"unknown training mode: {mode!r}")
        cfg = self.config
        rng = self.rng
        q_emb, p_embs = self._embeddings(example)
        subset = sample_passage_subset(example, cfg.train_sample_k, cfg.min_negatives, rng)
        pos_ids = [i for i in subset if example.spans.get(i)]
        neg_ids = [i for i in subset if not example.spans.get(i)]
        if not pos_ids:
            raise ValueError(f"{example.question_id}: example has no positive passage")
        ms = self.model.match_passages(
            q_emb, [p_embs[i] for i in subset],
            train=cfg.dropout > 0, rng=rng)
        ms_by_id = dict(zip(subset, ms))

        policy = None
        if mode in ("sr2", "r3"):
            policy = self.model.rank(ms, subset)

        if mode == "r3":
            tau = ranker_mod.sample_passage(policy, set(pos_ids), rng)
        else:
            tau = pos_ids[int(rng.integers(len(pos_ids)))]

        order = [tau] + neg_ids
        dist = self.model.read([ms_by_id[i] for i in order], order)
        occurrences = example.spans[tau]
        start, end = occurrences[int(rng.integers(len(occurrences)))] \
            if len(occurrences) > 1 else occurrences[0]
        label = reader_mod.SpanLabel(tau, start, end)
        reader_loss = reader_mod.span_loss(dist, label)
        report = {"reader_loss": reader_loss.item(), "tau": tau}
        loss = reader_loss

        if mode == "sr2":
            kl = kl_rank_loss(policy, set(pos_ids))
            loss = T.add(loss, T.scale(kl, cfg.kl_weight))
            report["kl_loss"] = kl.item()
        elif mode == "r3":
            extracted, _ = reader_mod.extract_best_span(dist, cfg.max_span_len, restrict_to=tau)
            answer_text = " ".join(
                example.passage_tokens[tau][extracted.start:extracted.end + 1])
            r = best_reward(example.answers, answer_text).value
            log_pi = ranker_mod.log_policy(policy, tau)
            loss = T.add(loss, T.scale(log_pi, -r))
            report["reward"] = r
        report["loss"] = loss
        return report

    # -- steps and epochs ------------------------------------------------------

    def _apply_batch(self, batch, mode, step_index):
        self.model.zero_grads()
        sums = {"reader_loss": 0.0, "kl_loss": 0.0, "reward": 0.0}
        seen = {"kl_loss": False, "reward": False}
        for example in batch:
            report = self.example_losses(example, mode)
            T.backward(report["loss"])
            sums["reader_loss"] += report["reader_loss"]
            for key in ("kl_loss", "reward"):
                if key in report:
                    sums[key] += report[key]
                    seen[key] = True
        norm = T.clip_global_norm(self.model.parameters().values(), self.config.grad_clip)
        if not math.isfinite(norm):
            self.nonfinite_steps += 1
            log.warning("step %d: non-finite gradient norm, optimizer step skipped", step_index)
            return None
        self.optimizer.step()
        record = {"step": step_index, "mode": mode,
                  "reader_loss": sums["reader_loss"] / len(batch)}
        if seen["reward"]:
            record["reward"] = sums["reward"] / len(batch)
        if seen["kl_loss"]:
            record["kl_loss"] = sums["kl_loss"] / len(batch)
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
    trainer carries on the sr2 log, counters and step index; it is returned with
    the sr2 weights."""
    sr2 = Trainer(model, table, config, seed=seed)
    sr2.train(examples, "sr2", sr2_epochs)
    sr2_values = model.export_values()
    r3 = Trainer(model, table, config, seed=seed + 1000)
    r3.log, r3.nonfinite_steps, r3.batches = sr2.log, sr2.nonfinite_steps, sr2.batches
    r3.train(examples, "r3", r3_epochs)
    return sr2_values, r3
