"""Output checks. Each returns True when the output is correct.

The functions bind the program's helpers at import time, before the tracer
wraps them, so checking never adds spans or counts to a traced run.
"""

import math
from collections import Counter

from rankread.retrieval import BM25_B, BM25_K1, search_bm25
from rankread.text import tokenize


def step_ok(record):
    """A training step logged a record and every loss in it is finite."""
    if record is None:
        return False
    return all(math.isfinite(record[k]) for k in ("reader_loss", "kl_loss", "reward")
               if k in record)


def is_span_of(answer, passage_tokens, max_len):
    """The answer is a contiguous run of at most max_len passage tokens."""
    words = answer.split()
    if not 1 <= len(words) <= max_len:
        return False
    n = len(words)
    return any(passage_tokens[i:i + n] == words for i in range(len(passage_tokens) - n + 1))


def prediction_ok(record, passages, max_len):
    """`evaluate` picked a passage and extracted a span of it."""
    pid = record["passage_id"]
    if pid is None or not 0 <= pid < len(passages):
        return False
    return is_span_of(record["prediction"], tokenize(passages[pid].text).tokens, max_len)


def candidates_ok(candidates, passages, max_len):
    """One span per passage, and the policy probabilities sum to 1 (1e-9)."""
    if len(candidates) != len(passages):
        return False
    for c in candidates:
        if not is_span_of(c.answer, tokenize(passages[c.passage_id].text).tokens, max_len):
            return False
    return abs(sum(c.policy_prob for c in candidates) - 1.0) <= 1e-9


def retrieved_ok(retrieved, n):
    """ir_rank runs 1..k for k <= n, with no two passages of equal tokens."""
    passages = retrieved.passages
    if len(passages) > n or [p.ir_rank for p in passages] != list(range(1, len(passages) + 1)):
        return False
    keys = {" ".join(tokenize(p.text).tokens) for p in passages}
    return len(keys) == len(passages)


class BruteBM25:
    """Okapi BM25 by scanning every document: the reference for search_bm25."""

    def __init__(self, documents):
        self.tf = {}
        self.lengths = {}
        for doc in documents:
            tokens = tokenize(f"{doc.title} {doc.text}").tokens
            self.tf[doc.id] = Counter(tokens)
            self.lengths[doc.id] = len(tokens)
        self.avg_length = sum(self.lengths.values()) / len(self.lengths)

    def search(self, query_tokens, top_a, k1=BM25_K1, b=BM25_B):
        n = len(self.tf)
        df = {t: sum(1 for tf in self.tf.values() if t in tf) for t in set(query_tokens)}
        scores = {}
        for doc_id, tf in self.tf.items():
            score, hit = 0.0, False
            for term in query_tokens:
                if tf[term]:
                    idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
                    norm = tf[term] + k1 * (1.0 - b + b * self.lengths[doc_id] / self.avg_length)
                    score += idf * tf[term] * (k1 + 1.0) / norm
                    hit = True
            if hit:
                scores[doc_id] = score
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:top_a]


def bm25_ok(brute, index, query_tokens, top_a):
    """search_bm25 returns the brute-force ranking, scores equal to 1e-9."""
    got = search_bm25(index, query_tokens, top_a)
    want = brute.search(query_tokens, top_a)
    return len(got) == len(want) and all(
        g[0] == w[0] and math.isclose(g[1], w[1], rel_tol=1e-9, abs_tol=1e-12)
        for g, w in zip(got, want))
