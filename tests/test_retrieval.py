import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankread import retrieval as R
from rankread.text import tokenize


def docs_from(texts, prefix="d"):
    return [R.Document(f"{prefix}{i:03d}", f"title {i}", t) for i, t in enumerate(texts)]


# --- index ---------------------------------------------------------------------

def test_shared_token_has_two_postings():
    idx = R.build_index(docs_from(["alpha beta", "beta gamma"]))
    assert len(idx.postings["beta"]) == 2
    assert len(idx.postings["alpha"]) == 1


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        R.build_index([])


def test_duplicate_doc_id_rejected():
    docs = [R.Document("a", "", "x"), R.Document("a", "", "y")]
    with pytest.raises(ValueError, match="duplicate"):
        R.build_index(docs)


def test_average_doc_length_is_arithmetic_mean():
    rng = np.random.default_rng(0)
    texts = [" ".join(rng.choice(list("abcdefg"), size=rng.integers(1, 12))) for _ in range(20)]
    idx = R.build_index(docs_from(texts))
    lengths = [len(tokenize(f"title {i} {t}").tokens) for i, t in enumerate(texts)]
    assert idx.avg_doc_length == pytest.approx(sum(lengths) / 20)


def test_index_roundtrip_and_byte_stability(tmp_path):
    docs = docs_from(["alpha beta gamma", "beta beta delta", "epsilon"])
    idx = R.build_index(docs)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    R.save_index(idx, p1)
    R.save_index(R.build_index(docs), p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = R.load_index(p1)
    assert loaded.postings == idx.postings
    assert loaded.doc_lengths == idx.doc_lengths
    assert loaded.doc_count == idx.doc_count


# --- BM25 ------------------------------------------------------------------------

def brute_force_bm25(docs, query_tokens, k1=R.BM25_K1, b=R.BM25_B):
    """Independent scorer: loops over every document, no inverted index."""
    tokenized = {d.id: tokenize(f"{d.title} {d.text}").tokens for d in docs}
    n = len(docs)
    avg = sum(len(t) for t in tokenized.values()) / n
    def df(term):
        return sum(1 for t in tokenized.values() if term in t)
    results = []
    for d in docs:
        toks = tokenized[d.id]
        counts = Counter(toks)
        score = 0.0
        for term in query_tokens:
            tf = counts[term]
            if tf == 0:
                continue
            idf = math.log(1.0 + (n - df(term) + 0.5) / (df(term) + 0.5))
            score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(toks) / avg))
        if score != 0.0:
            results.append((d.id, score))
    results.sort(key=lambda kv: (-kv[1], kv[0]))
    return results


def test_bm25_absent_term_gives_empty_result():
    idx = R.build_index(docs_from(["alpha beta", "gamma delta"]))
    assert R.search_bm25(idx, ["zzz"], 5) == []
    assert R.search_bm25(idx, [], 5) == []


def test_bm25_single_matching_doc_ranks_first():
    idx = R.build_index(docs_from(["alpha beta", "gamma delta", "epsilon zeta"]))
    ranked = R.search_bm25(idx, ["gamma"], 5)
    assert ranked[0][0] == "d001"
    assert len(ranked) == 1


def test_bm25_matches_brute_force_scorer_on_small_corpus():
    docs = docs_from([
        "the moon orbits the earth",
        "the sun is a star and the moon is not",
        "planets orbit the sun",
    ])
    idx = R.build_index(docs)
    query = ["moon", "sun"]
    got = R.search_bm25(idx, query, 10)
    expected = brute_force_bm25(docs, query)
    assert [d for d, _ in got] == [d for d, _ in expected]
    for (d1, s1), (d2, s2) in zip(got, expected):
        assert s1 == pytest.approx(s2, abs=1e-9)


def test_bm25_matches_brute_force_on_100_docs_with_ties():
    rng = np.random.default_rng(42)
    vocab = [f"w{i}" for i in range(15)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(3, 15))) for _ in range(100)]
    idx = R.build_index(docs_from(texts))
    for qi in range(10):
        q = list(np.random.default_rng(qi).choice(vocab, size=2))
        got = R.search_bm25(idx, q, 100)
        expected = brute_force_bm25(docs_from(texts), q)
        assert got == expected  # same docs, same scores, same tie order


# --- sentence splitting -----------------------------------------------------------

def test_split_basic():
    assert R.split_sentences("A b. C d.") == ["A b.", "C d."]


def test_split_no_terminal_punctuation():
    assert R.split_sentences("no terminal punctuation here") == ["no terminal punctuation here"]


def test_split_abbreviation_guard():
    assert R.split_sentences("Mr. Smith came.") == ["Mr. Smith came."]
    assert R.split_sentences("Dr. Jones left. Mr. Smith came.") == ["Dr. Jones left.", "Mr. Smith came."]


def test_split_requires_uppercase_or_opening():
    assert R.split_sentences("end. but lowercase") == ["end. but lowercase"]
    assert R.split_sentences('He said. "Quote starts"') == ["He said.", '"Quote starts"']


def test_split_handles_multi_punctuation():
    assert R.split_sentences("Really?! Yes. ") == ["Really?!", "Yes."]


_SPLIT_PIECES = st.sampled_from(
    ["Mr", "mr", "Dr", "etc", "No", "A", "b", "Cd", "ef", "1", ".", "!", "?", "...",
     '"', "'", "(", ")", "[", "]", " ", "  ", "\n", "\t", "\u00a0"])


@settings(max_examples=500, deadline=None)
@given(st.lists(_SPLIT_PIECES, max_size=30).map("".join) | st.text(max_size=40))
def test_split_sentences_properties(text):
    def squeeze(s):
        return "".join(ch for ch in s if not ch.isspace())

    pieces = R.split_sentences(text)
    for piece in pieces:
        assert piece and piece == piece.strip()
        assert R.split_sentences(piece) == [piece]
    assert "".join(squeeze(p) for p in pieces) == squeeze(text)


# --- TF-IDF sentence ranking -------------------------------------------------------

def brute_force_tfidf(sentence_tokens, query_tokens):
    pool = len(sentence_tokens)
    scores = []
    for idx, toks in enumerate(sentence_tokens):
        score = 0.0
        for term in dict.fromkeys(query_tokens):
            tf = toks.count(term)
            df = sum(1 for t in sentence_tokens if term in t)
            if tf and df:
                score += tf * math.log(pool / df)
        scores.append((idx, score))
    scores.sort(key=lambda pair: -pair[1])
    return scores


def test_tfidf_no_query_term_scores_zero():
    toks = [["a", "b"], ["c", "d"]]
    ranked = dict(R.rank_sentences_tfidf(toks, ["z"], 5))
    assert ranked[0] == 0.0 and ranked[1] == 0.0


def test_tfidf_identical_sentences_keep_original_order():
    toks = [["a", "b"], ["a", "b"], ["c"]]
    ranked = R.rank_sentences_tfidf(toks, ["a"], 5)
    assert [i for i, _ in ranked[:2]] == [0, 1]


def test_tfidf_matches_brute_force():
    rng = np.random.default_rng(3)
    vocab = [f"t{i}" for i in range(8)]
    toks = [list(rng.choice(vocab, size=rng.integers(2, 8))) for _ in range(5)]
    query = ["t0", "t3", "t0"]
    assert R.rank_sentences_tfidf(toks, query, 5) == brute_force_tfidf(toks, query)


def test_tfidf_100_sentences_matches_brute_force():
    rng = np.random.default_rng(9)
    vocab = [f"t{i}" for i in range(12)]
    toks = [list(rng.choice(vocab, size=rng.integers(1, 10))) for _ in range(100)]
    query = ["t1", "t5", "t7"]
    assert R.rank_sentences_tfidf(toks, query, 100) == brute_force_tfidf(toks, query)


# --- query augmentation -------------------------------------------------------------

def test_training_query_with_unique_answer_appends_answer():
    q = tokenize("what is the largest island ?").tokens
    assert R.make_training_query(q, ["Luzon"], train=True) == q + ["luzon"]


def test_training_query_with_multiple_answers_keeps_question_only():
    q = ["what", "is", "it"]
    assert R.make_training_query(q, ["a", "b"], train=True) == q


def test_test_mode_never_augments():
    q = ["what", "is", "it"]
    assert R.make_training_query(q, ["a"], train=False) == q


# --- retrieve pipeline ----------------------------------------------------------------

CORPUS = [
    R.Document("luzon", "Luzon", "Luzon is the largest island in the Philippines. "
                                 "Manila is located on Luzon Island."),
    R.Document("mindanao", "Mindanao", "Mindanao is the second largest island in the Philippines."),
    R.Document("visayas", "Visayas", "The Visayas group lies between Luzon and Mindanao."),
]


def test_retrieve_flags_positive_sentence():
    idx = R.build_index(CORPUS)
    rs = R.retrieve(idx, "q1", "What is the largest island in the Philippines?",
                    ["Luzon"], n=5, top_a=3, top_s=10)
    flags = {p.text: p.positive for p in rs.passages}
    assert any(p.positive and "largest island" in p.text for p in rs.passages)
    assert flags["Mindanao is the second largest island in the Philippines."] is False


def test_retrieve_rank_strictly_increasing_and_bounded():
    idx = R.build_index(CORPUS)
    rs = R.retrieve(idx, "q1", "largest island Philippines", ["Luzon"], n=2, top_a=3, top_s=10)
    assert [p.ir_rank for p in rs.passages] == list(range(1, len(rs.passages) + 1))
    assert len(rs.passages) <= 2


def test_retrieve_rejects_n_above_top_s():
    idx = R.build_index(CORPUS)
    with pytest.raises(ValueError, match="top_s"):
        R.retrieve(idx, "q", "x", None, n=20, top_a=3, top_s=10)


def test_retrieve_dedups_identical_sentences():
    corpus = [R.Document("a", "", "The kib is blue. End here."),
              R.Document("b", "", "The kib is blue. Other text.")]
    idx = R.build_index(corpus)
    rs = R.retrieve(idx, "q", "kib blue", None, n=10, top_a=5, top_s=10)
    texts = [" ".join(tokenize(p.text).tokens) for p in rs.passages]
    assert len(texts) == len(set(texts))


def test_positive_count_matches_brute_force_scan():
    rng = np.random.default_rng(7)
    vocab = ["kib", "lum", "vor", "zar", "blue", "red", "tall", "small", "thing", "item"]
    texts = []
    for _ in range(30):
        sents = [" ".join(rng.choice(vocab, size=6)).capitalize() + "." for _ in range(3)]
        texts.append(" ".join(sents))
    idx = R.build_index(docs_from(texts))
    question = "what thing is the kib ?"
    answers = ["blue"]
    rs = R.retrieve(idx, "q", question, answers, n=10, top_a=10, top_s=30)
    ans_tokens = tokenize("blue").tokens
    for p in rs.passages:
        toks = tokenize(p.text).tokens
        expected = any(toks[i:i + len(ans_tokens)] == ans_tokens for i in range(len(toks)))
        assert p.positive == expected


def test_retrieved_roundtrip(tmp_path):
    idx = R.build_index(CORPUS)
    rs = R.retrieve(idx, "q1", "largest island", ["Luzon"], n=5, top_a=3, top_s=10)
    path = tmp_path / "r.jsonl"
    R.save_retrieved([rs], path)
    loaded = R.load_retrieved(path)
    assert loaded[0] == rs


def test_corpus_roundtrip(tmp_path):
    path = tmp_path / "c.jsonl"
    R.save_corpus(CORPUS, path)
    assert R.load_corpus(path) == CORPUS
