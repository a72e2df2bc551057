"""Prediction combination, answer-string metrics, and ranker analyses."""

import re
import string
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import reader as reader_mod
from . import tensor as T
from .text import embed, tokenize

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(s):
    """Lowercase, strip punctuation and articles, collapse whitespace."""
    s = s.lower().translate(_PUNCT_TABLE)
    s = _ARTICLES.sub(" ", s)
    return " ".join(s.split())


def token_f1(pred_tokens, gold_tokens):
    """Token-multiset F1 between two token lists; 0 when they share no token."""
    num_same = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(pred_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def f1_em(prediction, golds):
    """Max token-overlap F1 and exact-match over the gold answers.

    When either normalized side is empty, both metrics reduce to string
    equality so that EM = 1 always implies F1 = 1.
    """
    if not golds:
        return 0.0, 0
    pred = normalize_answer(prediction)
    best_f1, best_em = 0.0, 0
    for gold in golds:
        g = normalize_answer(gold)
        em = int(pred == g)
        f1 = token_f1(pred.split(), g.split()) if pred and g else float(em)
        best_f1 = max(best_f1, f1)
        best_em = max(best_em, em)
    return best_f1, best_em


@dataclass
class Candidate:
    answer: str
    passage_id: int
    ir_rank: int
    score: float          # exp(span log-prob) * policy prob
    span_log_prob: float
    policy_prob: float


@dataclass
class Prediction:
    question_id: str
    answer: str
    passage_id: object
    score: float
    span_log_prob: float
    policy_prob: float


def predict_candidates(model, table, question_tokens, passages, max_span_len):
    """One extracted answer per passage, scored by span probability times the
    selection probability over the full candidate set."""
    if not passages:
        return []
    q_emb = embed(question_tokens, table)
    p_tokens = [tokenize(p.text).tokens for p in passages]
    with T.no_grad():
        ms = model.match_passages(q_emb, [embed(t, table) for t in p_tokens])
        policy = model.rank(ms)
        dists = model.read_each(ms, list(range(len(passages))))
    gamma = policy.probs()
    candidates = []
    for i, (dist, passage) in enumerate(zip(dists, passages)):
        label, log_prob = reader_mod.extract_best_span(dist, max_span_len)
        answer = " ".join(p_tokens[i][label.start:label.end + 1])
        candidates.append(Candidate(
            answer, i, passage.ir_rank,
            float(np.exp(log_prob) * gamma[i]), log_prob, float(gamma[i])))
    return candidates


def _best(question_id, candidates):
    if not candidates:
        return Prediction(question_id, "", None, 0.0, float("-inf"), 0.0)
    best = max(candidates, key=lambda c: (c.score, -c.ir_rank))
    return Prediction(question_id, best.answer, best.passage_id,
                      best.score, best.span_log_prob, best.policy_prob)


def predict(model, table, question_id, question_tokens, passages, max_span_len=15):
    """Answer with the highest combined score; ties go to the lower IR rank."""
    return _best(question_id, predict_candidates(model, table, question_tokens, passages,
                                                 max_span_len))


def _answer(model, table, rec, passages, max_span_len):
    """One dataset record's candidates and its evaluation record."""
    candidates = predict_candidates(model, table, tokenize(rec["question"]).tokens,
                                    passages, max_span_len)
    pred = _best(rec["id"], candidates)
    f1, em = f1_em(pred.answer, rec["answers"])
    return candidates, {"id": rec["id"], "prediction": pred.answer,
                        "passage_id": pred.passage_id, "score": pred.score, "f1": f1, "em": em}


def _mean_f1_em(records):
    n = max(len(records), 1)
    return {"f1": sum(r["f1"] for r in records) / n, "em": sum(r["em"] for r in records) / n}


def evaluate(model, table, dataset, retrieved_sets, max_span_len=15, threads=1):
    """Mean F1/EM over the dataset plus one record per question."""
    by_id = {rs.question_id: rs.passages for rs in retrieved_sets}

    def one(rec):
        return _answer(model, table, rec, by_id.get(rec["id"], []), max_span_len)[1]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(one, dataset))
    else:
        records = [one(rec) for rec in dataset]
    return {**_mean_f1_em(records), "count": len(records), "records": records}


def rank_passages(model, table, question_tokens, passages):
    """Passage order under the trained selector, descending probability;
    probability ties keep IR order."""
    q_emb = embed(question_tokens, table)
    with T.no_grad():
        ms = model.match_passages(q_emb, [embed(tokenize(p.text).tokens, table)
                                          for p in passages])
        gamma = model.rank(ms).probs()
    order = sorted(range(len(passages)), key=lambda i: (-gamma[i], passages[i].ir_rank))
    return [passages[i] for i in order]


def topk_recall(flag_rankings, ks):
    """Fraction of questions with a positive passage in the top k, per k.

    flag_rankings holds one list of positive flags per question, already in
    ranked order.
    """
    out = {}
    n = max(len(flag_rankings), 1)
    for k in ks:
        hits = sum(1 for flags in flag_rankings if any(flags[:k]))
        out[k] = hits / n
    return out


def oracle_topk(candidate_lists, gold_lists, ks):
    """F1/EM of the best answer among each question's k highest-scoring
    candidates: the ceiling reachable by re-ranking alone."""
    out = {}
    n = max(len(candidate_lists), 1)
    for k in ks:
        f1_total, em_total = 0.0, 0.0
        for candidates, golds in zip(candidate_lists, gold_lists):
            top = sorted(candidates, key=lambda c: (-c.score, c.ir_rank))[:k]
            scores = [f1_em(c.answer, golds) for c in top]
            f1_total += max((s[0] for s in scores), default=0.0)
            em_total += max((s[1] for s in scores), default=0)
        out[k] = {"f1": f1_total / n, "em": em_total / n}
    return out


def analyze(model, table, dataset, retrieved_sets, ks=(1, 3, 5), max_span_len=15):
    """Mean F1/EM (as evaluate gives them), top-k recall of the IR order and of
    the model's order, and the re-ranking ceiling, over every question of the
    dataset, from one predict_candidates pass per question.

    The model's order sorts the candidates by selection probability, ties in
    IR order, as rank_passages does. A question with no retrieved passages
    counts as a miss at every k and as a zero oracle row.
    """
    if any(k < 1 for k in ks):
        raise ValueError(f"top-k cutoffs must be at least 1, got {list(ks)}")
    by_id = {rs.question_id: rs.passages for rs in retrieved_sets}
    records, ir_flags, model_flags, candidate_lists = [], [], [], []
    for rec in dataset:
        passages = by_id.get(rec["id"], [])
        candidates, record = _answer(model, table, rec, passages, max_span_len)
        records.append(record)
        candidate_lists.append(candidates)
        ir_flags.append([p.positive for p in passages])
        model_flags.append([passages[c.passage_id].positive for c in
                            sorted(candidates, key=lambda c: (-c.policy_prob, c.ir_rank))])
    return {**_mean_f1_em(records), "k": list(ks),
            "recall": {"ir": topk_recall(ir_flags, ks), "model": topk_recall(model_flags, ks)},
            "oracle": oracle_topk(candidate_lists, [rec["answers"] for rec in dataset], ks)}
