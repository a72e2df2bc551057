"""Sentence-level retrieval: inverted index, BM25 article search, TF-IDF
sentence ranking, and the question -> top-N passage pipeline."""

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, asdict
from itertools import accumulate, chain, repeat

import numpy as np

from .files import (check_fields, one_line_errors, read_jsonl, read_versioned_json, write_json,
                    write_jsonl)
from .text import find_token_spans, tokenize

BM25_K1 = 1.2
BM25_B = 0.75

INDEX_VERSION = 2

_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "rev", "sr", "jr", "st", "mt",
    "etc", "vs", "eg", "ie", "cf", "fig", "no", "vol", "inc", "co", "corp", "approx",
}

# a whole run of . ! ? (the lookbehind keeps a match from starting inside a
# run, and the scan linear; it runs after the first mark, so the engine can
# skip ahead to a mark), any closing quotes or brackets, then whitespace;
# group 1 is the character after it, which may open the next sentence
_SENTENCE_END = re.compile(r"[.!?](?<![.!?][.!?])[.!?]*[\"')\]]*(?=\s+(\S))")


@dataclass
class Document:
    id: str
    title: str
    text: str

    def __post_init__(self):
        check_fields("document", self)


@dataclass
class RetrievedPassage:
    text: str
    doc_id: str
    ir_rank: int
    ir_score: float
    positive: bool


@dataclass
class RetrievedSet:
    question_id: str
    passages: list


class InvertedIndex:
    """Postings and document lengths derived from a document store.

    The index file holds only the documents; `load_index` derives the rest
    with `build_index`, which indexes the documents in id order, so postings
    lists and doc_lengths follow that order. Two caches fill on first use: per
    term and (k1, b), the document positions and BM25 weights `search_bm25`
    adds up; per document, the sentence store `retrieve` reads. The store
    holds tokens as ids, fixed when the index is made: a term's id is its
    rank in the postings' term order.
    """

    def __init__(self, postings, doc_lengths, docs):
        self.postings = postings          # token -> [(doc_id, tf)], sorted by doc id
        self.doc_lengths = doc_lengths    # doc_id -> token count, in id order
        self.docs = docs                  # doc_id -> Document
        self.doc_count = len(doc_lengths)
        self.avg_doc_length = (sum(doc_lengths.values()) / self.doc_count) if doc_lengths else 0.0
        self.doc_ids = list(doc_lengths)      # a document's position is its rank in id order
        self._position = {d: i for i, d in enumerate(self.doc_ids)}
        self.length_array = np.array([doc_lengths[d] for d in self.doc_ids], dtype=float)
        self._term_weights = {}
        self._sentences = {}
        self._vocabulary = {term: i for i, term in enumerate(postings)}

    def term_weights(self, term, k1, b):
        """(document positions, BM25 weights) of term's postings under k1 and b,
        the positions a slice when they are consecutive; None when absent."""
        key = (term, k1, b)
        cached = self._term_weights.get(key)
        if cached is None:
            plist = self.postings.get(term)
            if not plist:
                return None
            pos = np.array([self._position[d] for d, _ in plist], dtype=np.intp)
            tf = np.array([count for _, count in plist], dtype=float)
            denom = tf + k1 * (1.0 - b + b * self.length_array[pos] / self.avg_doc_length)
            weights = bm25_idf(self, term) * tf * (k1 + 1.0) / denom
            if pos[-1] - pos[0] + 1 == pos.size:
                # a run of consecutive documents, as for a term every document
                # holds: a slice reads and writes the same scores, with no gather
                pos = slice(int(pos[0]), int(pos[-1]) + 1)
            cached = (pos, weights)
            self._term_weights[key] = cached
        return cached

    def sentences(self, doc_id):
        """(texts, ids, lengths) of a document's sentences, split and tokenized
        on first use: the sentence texts, their tokens' ids end to end (int32;
        a sentence token is always a postings term) and each sentence's token count."""
        store = self._sentences.get(doc_id)
        if store is None:
            texts = split_sentences(self.docs[doc_id].text)
            token_lists = [tokenize(sent).tokens for sent in texts]
            lengths = list(map(len, token_lists))
            ids = np.fromiter(map(self._vocabulary.__getitem__, chain.from_iterable(token_lists)),
                              dtype=np.int32, count=sum(lengths))
            store = self._sentences[doc_id] = (texts, ids, lengths)
        return store

    def token_ids(self, tokens):
        """The tokens' ids, -1 for one the corpus lacks."""
        return [self._vocabulary.get(tok, -1) for tok in tokens]


def build_index(corpus):
    """Index a stream of Documents. The first pass stores them and rejects a
    repeated id or an empty corpus; the second tokenizes them in id order, so
    each term's postings list is appended already sorted, and rejects a
    document that tokenizes to nothing (the first such in id order)."""
    docs = {}
    for doc in corpus:
        if doc.id in docs:
            raise ValueError(f"duplicate document id: {doc.id!r}")
        docs[doc.id] = doc
    if not docs:
        raise ValueError("empty corpus")
    postings = defaultdict(list)
    doc_lengths = {}
    for doc_id in sorted(docs):
        doc = docs[doc_id]
        tokens = tokenize(f"{doc.title} {doc.text}").tokens
        if not tokens:
            raise ValueError(f"document {doc_id!r} tokenizes to nothing")
        doc_lengths[doc_id] = len(tokens)
        for tok, tf in Counter(tokens).items():
            postings[tok].append((doc_id, tf))
    postings.default_factory = None  # from here on a missing term is absent, as in a dict
    return InvertedIndex(postings, doc_lengths, docs)


def save_index(index, path):
    """Write the documents in id order; load_index rebuilds the postings from them."""
    write_json(path, {"format_version": INDEX_VERSION,
                      "docs": [asdict(index.docs[d]) for d in index.doc_ids]})


def load_index(path):
    payload = read_versioned_json(path, "index", INDEX_VERSION, ("docs",))
    with one_line_errors(path):
        return build_index(Document(**rec) for rec in payload["docs"])


def bm25_idf(index, term):
    df = len(index.postings.get(term, ()))
    return math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))


def search_bm25(index, query_tokens, top_a, k1=BM25_K1, b=BM25_B):
    """Okapi BM25 over the index; descending score, ties by ascending doc id.

    Query tokens count with multiplicity. Only documents containing at least
    one query term are returned, at most top_a of them.
    """
    if top_a < 1:
        raise ValueError("top_a must be at least 1")
    if not 0.0 <= k1 < math.inf:
        raise ValueError(f"k1 must be finite and at least 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must be in [0, 1], got {b}")
    scores = np.zeros(index.doc_count)
    hit = np.zeros(index.doc_count, dtype=bool)
    # term by term in query order, with the float operations of a loop over
    # each term's postings, so every score is bitwise the same as that loop's
    for term in query_tokens:
        cached = index.term_weights(term, k1, b)
        if cached is None:
            continue
        pos, weights = cached
        scores[pos] += weights
        hit[pos] = True
    found = np.flatnonzero(hit)
    neg = -scores[found]
    if top_a < found.size:
        # only documents scoring at least the top_a-th best score can rank;
        # every tie at that score stays, for lexsort to order by id
        keep = neg <= np.partition(neg, top_a - 1)[top_a - 1]
        found, neg = found[keep], neg[keep]
    top = found[np.lexsort((found, neg))][:top_a]
    return [(index.doc_ids[i], score) for i, score in zip(top.tolist(), scores[top].tolist())]


def split_sentences(text):
    """Split at . ! ? followed by whitespace and an uppercase or opening
    character; a known-abbreviation dot never splits."""
    sents = []
    start = 0
    for m in _SENTENCE_END.finditer(text):
        after = m.group(1)
        if (after.isupper() or after in "\"'([") and not _abbreviation_before(text, m.start()):
            sents.append(text[start:m.end()].strip())
            start = m.start(1)
    tail = text[start:].strip()
    return sents + [tail] if tail else sents


def _abbreviation_before(text, dot_pos):
    """Whether the dot at dot_pos ends a known abbreviation: the letters
    before it ("etc"), or the single letters before it each followed by a
    dot, with the dots dropped ("e.g" is "eg")."""
    if text[dot_pos] != ".":
        return False
    begin = dot_pos
    while begin > 0 and text[begin - 1].isalpha():
        begin -= 1
    if text[begin:dot_pos].lower() in _ABBREVIATIONS:
        return True
    letters, end = "", dot_pos
    while end > 0 and text[end - 1].isalpha() and (end == 1 or not text[end - 2].isalpha()):
        letters = text[end - 1] + letters
        if end < 3 or text[end - 2] != ".":
            break
        end -= 2
    return letters.lower() in _ABBREVIATIONS


def rank_sentences_tfidf(lengths, token_ids, query_ids, top_s):
    """Rank sentences by sum over distinct query terms of tf * idf.

    Tokens and query terms are given as ids, equal ids for equal tokens:
    sentence i is the lengths[i] ids of token_ids that follow sentence i - 1's.
    idf is computed over this candidate pool: ln(pool size / document
    frequency). Descending score; ties keep the original order. Returns at
    most top_s (index, score) pairs.
    """
    if top_s < 1:
        raise ValueError("top_s must be at least 1")
    pool = len(lengths)
    if pool == 0:
        return []
    # one count over the pool: column j counts the j-th distinct query term,
    # the last column every other token. Searched in the sorted bounds t, t + 1
    # of the terms, a token lands at an odd position just after its own term's
    # t, or at an even one; one gather maps each position to its column
    column = {term: j for j, term in enumerate(dict.fromkeys(query_ids))}
    width = len(column) + 1
    bounds, table = [], [width - 1]
    for term in sorted(column):
        bounds += (term, term + 1)
        table += (column[term], width - 1)
    at = np.searchsorted(np.array(bounds, dtype=token_ids.dtype), token_ids, side="right")
    columns = np.array(table)[at]
    rows = np.repeat(np.arange(0, pool * width, width), lengths)
    tf = np.bincount(rows + columns, minlength=pool * width).reshape(pool, width)
    scores = np.zeros(pool)
    # term by term in query order; adding 0.0 where a term is absent leaves a
    # score bitwise as it was, so this equals a per-sentence loop that skips it
    for j, df in enumerate(np.count_nonzero(tf[:, :-1], axis=0).tolist()):
        if df:
            scores += tf[:, j] * math.log(pool / df)
    top = np.argsort(-scores, kind="stable")[:top_s]  # stable: ties keep original order
    return list(zip(top.tolist(), scores[top].tolist()))


def make_training_query(question_tokens, answers, train):
    """Append the answer tokens to the query when training with a unique answer."""
    base = list(question_tokens)
    if train and answers and len(set(answers)) == 1:
        return base + tokenize(answers[0]).tokens
    return base


def retrieve(index, question_id, question, answers, n, top_a, top_s,
             train=False, k1=BM25_K1, b=BM25_B):
    """question -> BM25 articles -> sentences -> TF-IDF -> top-N passages.

    Positive flags are computed against the answers whenever they are given
    (token-level containment). Duplicate sentences (same token sequence) keep
    only their best-ranked copy. The returned set may be empty; dropping such
    questions from training is the caller's job.
    """
    if n < 1:
        raise ValueError(f"n={n} must be at least 1")
    if n > top_s:
        raise ValueError(f"n={n} exceeds top_s={top_s}")
    q_tokens = tokenize(question).tokens
    query = make_training_query(q_tokens, answers, train)
    texts, owners, lengths, id_runs = [], [], [], []
    for doc_id, _ in search_bm25(index, query, top_a, k1, b):
        doc_texts, doc_ids, doc_lengths = index.sentences(doc_id)
        texts += doc_texts
        owners += repeat(doc_id, len(doc_texts))
        lengths += doc_lengths
        id_runs.append(doc_ids)
    ids = np.concatenate(id_runs) if id_runs else np.empty(0, np.int32)
    bounds = [0, *accumulate(lengths)]  # sentence i's ids are bounds[i]:bounds[i + 1]
    answer_ids = [index.token_ids(tokenize(a).tokens) for a in (answers or [])]
    passages = []
    seen = set()
    for idx, score in rank_sentences_tfidf(lengths, ids, index.token_ids(query), top_s):
        start, end = bounds[idx], bounds[idx + 1]
        if start == end:
            continue
        run = ids[start:end]
        key = run.tobytes()  # equal token runs are exactly equal id runs
        if key in seen:
            continue
        seen.add(key)
        run = run.tolist()
        positive = any(find_token_spans(run, a) for a in answer_ids)
        passages.append(RetrievedPassage(texts[idx], owners[idx], len(passages) + 1, score,
                                         positive))
        if len(passages) == n:
            break
    return RetrievedSet(question_id, passages)


def retrieve_all(index, records, config, train):
    """retrieve() for each {id, question, answers} record, with config's settings."""
    return [retrieve(index, rec["id"], rec["question"], rec["answers"], n=config.retrieve_n,
                     top_a=config.top_a, top_s=config.top_s, train=train,
                     k1=config.bm25_k1, b=config.bm25_b) for rec in records]


def save_retrieved(sets, path):
    write_jsonl(path, map(asdict, sets))


def load_retrieved(path):
    """Retrieved sets, one per line; question ids are unique, since sets are
    looked up by question id. Each record is type-checked as it is built (the
    sets retrieve makes from the index's own strings are not). A passage that
    tokenizes to nothing, which the model could not read, is rejected."""
    def retrieved_set(rec):
        passages = [check_fields("retrieved passage", RetrievedPassage(**p))
                    for p in rec["passages"]]
        rs = check_fields("retrieved set", RetrievedSet(rec["question_id"], passages))
        for i, p in enumerate(rs.passages):
            if not tokenize(p.text).tokens:
                raise ValueError(f"passage {i} of question {rs.question_id!r} tokenizes to nothing")
        return rs

    return read_jsonl(path, retrieved_set, "question_id")


def load_corpus(path):
    return read_jsonl(path, lambda rec: Document(**rec))


def save_corpus(docs, path):
    write_jsonl(path, map(asdict, docs))
