"""Sentence-level retrieval: inverted index, BM25 article search, TF-IDF
sentence ranking, and the question -> top-N passage pipeline."""

import json
import math
from collections import Counter
from dataclasses import dataclass, asdict

from .files import atomic_write, read_lines, read_versioned_json
from .text import tokenize, contains_answer

BM25_K1 = 1.2
BM25_B = 0.75

INDEX_VERSION = 1

_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "rev", "sr", "jr", "st", "mt",
    "etc", "vs", "eg", "ie", "cf", "fig", "no", "vol", "inc", "co", "corp", "approx",
}


@dataclass
class Document:
    id: str
    title: str
    text: str


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
    """Postings plus document store; immutable once built."""

    def __init__(self, postings, doc_lengths, docs):
        self.postings = postings          # token -> [(doc_id, tf)], sorted by doc id
        self.doc_lengths = doc_lengths    # doc_id -> token count
        self.docs = docs                  # doc_id -> Document
        self.doc_count = len(doc_lengths)
        self.avg_doc_length = (sum(doc_lengths.values()) / self.doc_count) if doc_lengths else 0.0


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
    payload = {
        "format_version": INDEX_VERSION,
        "postings": {tok: [[d, tf] for d, tf in plist] for tok, plist in index.postings.items()},
        "doc_lengths": index.doc_lengths,
        "docs": [asdict(index.docs[d]) for d in sorted(index.docs)],
    }
    with atomic_write(path) as f:
        json.dump(payload, f, sort_keys=True)


def load_index(path):
    payload = read_versioned_json(path, "index", INDEX_VERSION,
                                  ("postings", "doc_lengths", "docs"))
    try:
        postings = {tok: [(d, tf) for d, tf in plist]
                    for tok, plist in payload["postings"].items()}
        docs = {rec["id"]: Document(**rec) for rec in payload["docs"]}
        return InvertedIndex(postings, payload["doc_lengths"], docs)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None


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
    scores = {}
    for term in query_tokens:
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = bm25_idf(index, term)
        for doc_id, tf in plist:
            dl = index.doc_lengths[doc_id]
            denom = tf + k1 * (1.0 - b + b * dl / index.avg_doc_length)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (k1 + 1.0) / denom
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_a]


def split_sentences(text):
    """Split at . ! ? followed by whitespace and an uppercase or opening
    character; a known-abbreviation dot never splits."""
    sents = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        if text[i] in ".!?":
            j = i + 1
            while j < n and text[j] in ".!?":
                j += 1
            while j < n and text[j] in "\"')]":
                j += 1
            k = j
            while k < n and text[k].isspace():
                k += 1
            if (k > j and k < n and (text[k].isupper() or text[k] in "\"'([")
                    and not _abbreviation_before(text, i)):
                piece = text[start:j].strip()
                if piece:
                    sents.append(piece)
                start = k
                i = k
                continue
            i = j
        else:
            i += 1
    tail = text[start:].strip()
    if tail:
        sents.append(tail)
    return sents


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
    df = Counter()
    for toks in sentence_tokens:
        df.update(set(toks))
    scored = []
    for idx, toks in enumerate(sentence_tokens):
        tf = Counter(toks)
        score = 0.0
        for term in dict.fromkeys(query_tokens):
            if df[term] == 0 or tf[term] == 0:
                continue
            score += tf[term] * math.log(pool / df[term])
        scored.append((idx, score))
    scored.sort(key=lambda pair: -pair[1])  # stable: ties keep original order
    return scored[:top_s]


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
        for sent in split_sentences(index.docs[doc_id].text):
            sentences.append((sent, doc_id))
    sent_tokens = [tokenize(s).tokens for s, _ in sentences]
    answer_tokens = [tokenize(a).tokens for a in (answers or [])]
    passages = []
    seen = set()
    for idx, score in rank_sentences_tfidf(sent_tokens, query, top_s):
        toks = sent_tokens[idx]
        if not toks:
            continue
        key = " ".join(toks)
        if key in seen:
            continue
        seen.add(key)
        positive = bool(answer_tokens) and contains_answer(toks, answer_tokens)
        text_, doc_id = sentences[idx]
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
    with atomic_write(path) as f:
        for rs in sets:
            rec = {"question_id": rs.question_id,
                   "passages": [asdict(p) for p in rs.passages]}
            f.write(json.dumps(rec) + "\n")


def read_jsonl(path, make):
    """make(record) for every non-blank line of a JSON-lines file.

    A line that is not JSON, or that make rejects, raises a one-line
    ValueError naming the file and the line.
    """
    out = []
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            out.append(make(json.loads(line)))
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"{path}:{lineno}: {type(exc).__name__}: {exc}") from None
    return out


def load_retrieved(path):
    return read_jsonl(path, lambda rec: RetrievedSet(
        rec["question_id"], [RetrievedPassage(**p) for p in rec["passages"]]))


def load_corpus(path):
    return read_jsonl(path, lambda rec: Document(**rec))


def save_corpus(docs, path):
    with atomic_write(path) as f:
        for doc in docs:
            f.write(json.dumps(asdict(doc)) + "\n")
