import json
import math
import time
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


def test_index_file_holds_only_the_documents(tmp_path):
    docs = docs_from(["alpha beta gamma", "beta beta delta", "epsilon"])[::-1]
    in_id_order = sorted(docs, key=lambda doc: doc.id)
    path = tmp_path / "index.json"
    R.save_index(R.build_index(docs), path)
    assert json.loads(path.read_text()) == {
        "format_version": R.INDEX_VERSION,
        "docs": [{"id": d.id, "title": d.title, "text": d.text} for d in in_id_order]}
    loaded, rebuilt = R.load_index(path), R.build_index(in_id_order)
    assert loaded.docs == rebuilt.docs
    assert loaded.avg_doc_length == rebuilt.avg_doc_length


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


def dict_bm25(index, query_tokens, top_a, k1=R.BM25_K1, b=R.BM25_B):
    """The per-document dict scorer `search_bm25` replaced: the bitwise reference."""
    scores = {}
    for term in query_tokens:
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = R.bm25_idf(index, term)
        for doc_id, tf in plist:
            dl = index.doc_lengths[doc_id]
            denom = tf + k1 * (1.0 - b + b * dl / index.avg_doc_length)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (k1 + 1.0) / denom
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_a]


_WORDS = ["ant", "bee", "cat", "dog", "eel", "fox"]


@st.composite
def _corpora(draw):
    texts = draw(st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8).map(" ".join),
                          min_size=1, max_size=12))
    texts += draw(st.lists(st.sampled_from(texts), max_size=4))  # duplicates tie on score
    ids = draw(st.permutations([f"d{i:02d}" for i in range(len(texts))]))
    return [R.Document(i, "", t) for i, t in zip(ids, texts)]


@settings(max_examples=200, deadline=None)
@given(_corpora(), st.lists(st.sampled_from(_WORDS + ["zz"]), max_size=8), st.integers(1, 20),
       st.sampled_from([(R.BM25_K1, R.BM25_B), (0.9, 0.4), (2.0, 1.0)]))
def test_bm25_equals_dict_reference(tmp_path_factory, docs, query, top_a, k1_b):
    """Bitwise, on random corpora with tied documents, repeated and absent
    query terms, and top_a above and below the number of hits."""
    built = R.build_index(docs)
    path = tmp_path_factory.getbasetemp() / "bm25_index.json"
    R.save_index(built, path)
    for index in (built, R.load_index(path)):
        assert R.search_bm25(index, query, top_a, *k1_b) == dict_bm25(index, query, top_a, *k1_b)


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


def reference_split_sentences(text):
    """The sentence splitter as a character loop: at each run of . ! ?, skip
    closing quotes and brackets, then whitespace, and split if the next
    character is uppercase or opening and no abbreviation ends at the run."""
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
                    and not R._abbreviation_before(text, i)):
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


@pytest.mark.parametrize("text, sentences", [
    ('He said." Then', ['He said."', "Then"]),
    ("It ended.) (Then", ["It ended.)", "(Then"]),
    ("Mr? Yes.", ["Mr?", "Yes."]),
    ("See etc.. Next one.", ["See etc.. Next one."]),
    ("End.\tNext", ["End.", "Next"]),
    ("End.\u00a0Next", ["End.", "Next"]),
    ("end.) lower", ["end.) lower"]),
    ("Wait...", ["Wait..."]),
    ("Wait... Then", ["Wait...", "Then"]),
], ids=["closing-quote", "closing-bracket", "abbreviation-needs-a-dot", "abbreviation-dot-run",
        "tab", "no-break-space", "lowercase-after-closer", "trailing-dots", "dot-run"])
def test_split_exact_output(text, sentences):
    # closers stay with the sentence they end; only a dot after an
    # abbreviation is guarded, and the whole run of marks counts as one end
    assert R.split_sentences(text) == sentences == reference_split_sentences(text)


_SPLIT_PIECES = st.sampled_from(
    ["Mr", "mr", "Dr", "etc", "No", "A", "b", "Cd", "ef", "1", ".", "!", "?", "...",
     '"', "'", "(", ")", "[", "]", " ", "  ", "\n", "\t", "\u00a0"])


@settings(max_examples=1000, deadline=None)
@given(st.lists(_SPLIT_PIECES, max_size=30).map("".join) | st.text(max_size=40))
def test_split_sentences_matches_reference_loop(text):
    assert R.split_sentences(text) == reference_split_sentences(text)


def test_split_is_linear_in_a_run_of_marks():
    # a scan that tried every mark of an unsplit run as a sentence end would
    # be quadratic: about a minute for this run
    text = "Wait" + "." * 50_000
    start = time.perf_counter()
    assert R.split_sentences(text) == [text]
    assert len(tokenize(text).tokens) == 50_001
    assert time.perf_counter() - start < 1.0


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_WORDS), max_size=6), max_size=12),
       st.lists(st.sampled_from(_WORDS + ["zz"]), max_size=8), st.integers(1, 15))
def test_tfidf_equals_brute_force_on_random_pools(sentence_tokens, query, top_s):
    """Bitwise, with empty sentences, repeated and absent query terms, and
    top_s above and below the pool size."""
    assert (R.rank_sentences_tfidf(sentence_tokens, query, top_s)
            == brute_force_tfidf(sentence_tokens, query)[:top_s])


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


@pytest.mark.parametrize("n", [0, -1])
def test_retrieve_rejects_n_below_one(n):
    idx = R.build_index(CORPUS)
    with pytest.raises(ValueError, match="at least 1"):
        R.retrieve(idx, "q", "largest island", None, n=n, top_a=3, top_s=10)


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


def test_sentence_store_splits_and_tokenizes_each_sentence_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    sentence_count = sum(len(R.split_sentences(doc.text)) for doc in CORPUS)
    monkeypatch.setattr(R, "split_sentences", counted("split_sentences", R.split_sentences))
    monkeypatch.setattr(R, "tokenize", counted("tokenize", R.tokenize))
    idx = R.build_index(CORPUS)
    assert calls["split_sentences"] == 0
    question, answers = "What is the largest island in the Philippines?", ["Luzon", "Manila"]

    def ask(index):
        calls.clear()
        return R.retrieve(index, "q1", question, answers, n=5, top_a=3, top_s=10)

    first = ask(idx)
    assert calls == {"split_sentences": len(CORPUS),
                     "tokenize": 1 + len(answers) + sentence_count}
    second = ask(idx)
    assert calls == {"tokenize": 1 + len(answers)}  # the question and the answers only
    assert second == first
    assert ask(R.build_index(CORPUS)) == first


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
