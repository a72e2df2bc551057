"""Sentence-level retrieval: inverted index, BM25 article search, TF-IDF
sentence ranking, and the question -> top-N passage pipeline."""

import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, asdict

import numpy as np

from .files import (check_fields, one_line_errors, read_jsonl, read_versioned_json, write_json,
                    write_jsonl)
from .text import tokenize, contains_answer

BM25_K1 = 1.2
BM25_B = 0.75

INDEX_VERSION = 2

_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "rev", "sr", "jr", "st", "mt",
    "etc", "vs", "eg", "ie", "cf", "fig", "no", "vol", "inc", "co", "corp", "approx",
}

# a whole run of . ! ? (the lookbehind keeps a match from starting inside a
# run, and the scan linear), any closing quotes or brackets, then whitespace;
# group 1 is the character after it, which may open the next sentence
_SENTENCE_END = re.compile(r"(?<![.!?])[.!?]+[\"')\]]*(?=\s+(\S))")


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

    def __post_init__(self):
        check_fields("retrieved passage", self)


@dataclass
class RetrievedSet:
    question_id: str
    passages: list

    def __post_init__(self):
        check_fields("retrieved set", self)


class InvertedIndex:
    """Postings and document lengths derived from a document store.

    The index file holds only the documents; `load_index` derives the rest
    with `build_index`. The per-term arrays `search_bm25` scores from and the
    per-document sentence store `retrieve` reads are caches derived on first
    use.
    """

    def __init__(self, postings, doc_lengths, docs):
        self.postings = postings          # token -> [(doc_id, tf)], sorted by doc id
        self.doc_lengths = doc_lengths    # doc_id -> token count
        self.docs = docs                  # doc_id -> Document
        self.doc_count = len(doc_lengths)
        self.avg_doc_length = (sum(doc_lengths.values()) / self.doc_count) if doc_lengths else 0.0
        self.doc_ids = sorted(doc_lengths)    # a document's position is its rank in id order
        self._position = {d: i for i, d in enumerate(self.doc_ids)}
        self.length_array = np.array([doc_lengths[d] for d in self.doc_ids], dtype=float)
        self._term_arrays = {}
        self._sentences = {}

    def term_arrays(self, term):
        """(document positions, tf as floats) of term's postings; None when absent."""
        arrays = self._term_arrays.get(term)
        if arrays is None:
            plist = self.postings.get(term)
            if not plist:
                return None
            arrays = (np.array([self._position[d] for d, _ in plist], dtype=np.intp),
                      np.array([tf for _, tf in plist], dtype=float))
            self._term_arrays[term] = arrays
        return arrays

    def sentences(self, doc_id):
        """[(text, tokens)] per sentence of a document, split and tokenized on first use."""
        store = self._sentences.get(doc_id)
        if store is None:
            store = [(sent, [sys.intern(tok) for tok in tokenize(sent).tokens])
                     for sent in split_sentences(self.docs[doc_id].text)]
            self._sentences[doc_id] = store
        return store


def build_index(corpus):
    """Index a stream of Documents; duplicate ids and empty corpora are rejected."""
    postings = {}
    doc_lengths = {}
    docs = {}
    for doc in corpus:
        if doc.id in docs:
            raise ValueError(f"duplicate document id: {doc.id!r}")
        tokens = tokenize(f"{doc.title} {doc.text}").tokens
        if not tokens:
            raise ValueError(f"document {doc.id!r} tokenizes to nothing")
        docs[doc.id] = doc
        doc_lengths[doc.id] = len(tokens)
        for tok, tf in Counter(tokens).items():
            postings.setdefault(tok, []).append((doc.id, tf))
    if not docs:
        raise ValueError("empty corpus")
    for plist in postings.values():
        plist.sort(key=lambda entry: entry[0])
    return InvertedIndex(postings, doc_lengths, docs)


def save_index(index, path):
    """Write the documents in id order; load_index rebuilds the postings from them."""
    write_json(path, {"format_version": INDEX_VERSION,
                      "docs": [asdict(index.docs[d]) for d in sorted(index.docs)]})


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
    scores = np.zeros(index.doc_count)
    hit = np.zeros(index.doc_count, dtype=bool)
    # term by term in query order, with the float operations of a loop over
    # each term's postings, so every score is bitwise the same as that loop's
    for term in query_tokens:
        arrays = index.term_arrays(term)
        if arrays is None:
            continue
        pos, tf = arrays
        idf = bm25_idf(index, term)
        dl = index.length_array[pos]
        denom = tf + k1 * (1.0 - b + b * dl / index.avg_doc_length)
        scores[pos] += idf * tf * (k1 + 1.0) / denom
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
    if text[dot_pos] != ".":
        return False
    end = dot_pos
    begin = end
    while begin > 0 and text[begin - 1].isalpha():
        begin -= 1
    return text[begin:end].lower() in _ABBREVIATIONS


def rank_sentences_tfidf(sentence_tokens, query_tokens, top_s):
    """Rank sentences by sum over distinct query terms of tf * idf.

    idf is computed over this candidate pool: ln(pool size / document
    frequency). Descending score; ties keep the original order. Returns at
    most top_s (index, score) pairs.
    """
    pool = len(sentence_tokens)
    if pool == 0:
        return []
    scores = np.zeros(pool)
    # term by term in query order; adding 0.0 where a term is absent leaves a
    # score bitwise as it was, so this equals a per-sentence loop that skips it
    for term in dict.fromkeys(query_tokens):
        tf = np.array([toks.count(term) for toks in sentence_tokens])
        df = np.count_nonzero(tf)
        if df:
            scores += tf * math.log(pool / df)
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
    sentences = []
    for doc_id, _ in search_bm25(index, query, top_a, k1, b):
        sentences.extend((sent, toks, doc_id) for sent, toks in index.sentences(doc_id))
    sent_tokens = [toks for _, toks, _ in sentences]
    answer_tokens = [tokenize(a).tokens for a in (answers or [])]
    passages = []
    seen = set()
    for idx, score in rank_sentences_tfidf(sent_tokens, query, top_s):
        text_, toks, doc_id = sentences[idx]
        if not toks:
            continue
        key = " ".join(toks)
        if key in seen:
            continue
        seen.add(key)
        positive = bool(answer_tokens) and contains_answer(toks, answer_tokens)
        passages.append(RetrievedPassage(text_, doc_id, len(passages) + 1, score, positive))
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
    looked up by question id."""
    return read_jsonl(path, lambda rec: RetrievedSet(
        rec["question_id"], [RetrievedPassage(**p) for p in rec["passages"]]), "question_id")


def load_corpus(path):
    return read_jsonl(path, lambda rec: Document(**rec))


def save_corpus(docs, path):
    write_jsonl(path, map(asdict, docs))
