import json
import math
import sys
import time
from collections import Counter
from itertools import chain, repeat, takewhile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import tfidf_ids

from rankread import retrieval as R, synth
from rankread.text import find_token_spans, tokenize


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


def test_index_is_the_same_whatever_order_the_documents_come_in():
    docs, _, test, _ = synth.generate(
        synth.SyntheticSpec(entities=12, train_questions=0, test_questions=20, seed=5))
    # ids that sort between the generator's, so its order is not id order
    docs = docs + [R.Document(f"{d.id}-copy", d.title, d.text) for d in docs[::5]]
    queries = [tokenize(rec["question"]).tokens for rec in test]
    rng = np.random.default_rng(28)
    orders = [docs, docs[::-1]] + [[docs[i] for i in rng.permutation(len(docs))] for _ in range(5)]
    first = R.build_index(iter(docs))
    for order in orders:
        index = R.build_index(iter(order))
        assert list(index.postings.items()) == list(first.postings.items())
        assert index.doc_lengths == first.doc_lengths
        assert list(index.doc_lengths) == index.doc_ids == first.doc_ids
        assert index.docs == first.docs
        assert index.avg_doc_length.hex() == first.avg_doc_length.hex()
        for query in queries:
            assert R.search_bm25(index, query, 10) == R.search_bm25(first, query, 10)
    for plist in first.postings.values():
        ids = [doc_id for doc_id, _ in plist]
        assert all(a < b for a, b in zip(ids, ids[1:]))


def test_document_that_tokenizes_to_nothing_is_named():
    docs = [R.Document("b", "", " "), R.Document("c", "title", "text"),
            R.Document("a", "", "\t")]
    # the first empty document in id order is the one reported
    with pytest.raises(ValueError) as info:
        R.build_index(docs)
    assert str(info.value) == "document 'a' tokenizes to nothing"


def test_duplicate_id_is_reported_before_an_empty_document():
    docs = [R.Document("a", "", " "), R.Document("b", "title", "text"),
            R.Document("b", "title", "again")]
    with pytest.raises(ValueError) as info:
        R.build_index(docs)
    assert str(info.value) == "duplicate document id: 'b'"


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


@pytest.mark.parametrize("name, value", [("k1", -1.0), ("k1", math.nan), ("k1", math.inf),
                                         ("b", -0.1), ("b", 1.5), ("b", math.nan)])
def test_bm25_rejects_out_of_range_k1_and_b(name, value):
    # a negative k1 scores every document 0.0; retrieve passes both through
    rule = {"k1": "finite and at least 0", "b": "in [0, 1]"}[name]
    idx = R.build_index(docs_from(["alpha beta", "gamma delta"]))
    for call in (lambda: R.search_bm25(idx, ["alpha"], 3, **{name: value}),
                 lambda: R.retrieve(idx, "q", "alpha", None, n=1, top_a=3, top_s=10,
                                    **{name: value})):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{name} must be {rule}, got {value}"


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
@given(_corpora(), st.lists(st.sampled_from(_WORDS + ["zz"]), max_size=8), st.integers(1, 20))
def test_bm25_equals_dict_reference(tmp_path_factory, docs, query, top_a):
    """Bitwise, on random corpora with tied documents, repeated and absent
    query terms, and top_a above and below the number of hits. One index
    serves every (k1, b) in turn and then the first again, so no weight
    cached under one setting is read under another."""
    built = R.build_index(docs)
    path = tmp_path_factory.getbasetemp() / "bm25_index.json"
    R.save_index(built, path)
    for index in (built, R.load_index(path)):
        for k1_b in [(R.BM25_K1, R.BM25_B), (0.9, 0.4), (2.0, 1.0), (R.BM25_K1, R.BM25_B)]:
            assert (R.search_bm25(index, query, top_a, *k1_b)
                    == dict_bm25(index, query, top_a, *k1_b))


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


def reference_abbreviation_before(text, i):
    """README's rule: the dot at i ends a known abbreviation when the letters
    just before it spell one, or the single letters before it, each followed
    by a dot, spell one with the dots dropped ("e.g." reads "eg")."""
    if text[i] != ".":
        return False
    pieces = text[:i].split(".")
    word = "".join(takewhile(str.isalpha, reversed(pieces[-1])))[::-1]
    letters = ""
    for piece in reversed(pieces):
        if not piece[-1:].isalpha() or piece[-2:-1].isalpha():
            break
        letters = piece[-1] + letters
        if len(piece) > 1:
            break
    return word.lower() in R._ABBREVIATIONS or letters.lower() in R._ABBREVIATIONS


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
                    and not reference_abbreviation_before(text, i)):
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
    ("See e.g. Paris is big.", ["See e.g. Paris is big."]),
    ("One, i.e. Two.", ["One, i.e. Two."]),
    ("See (e.g. Paris) now.", ["See (e.g. Paris) now."]),
    ("See E.G. Paris.", ["See E.G. Paris."]),
    ("See xe.g. Paris", ["See xe.g.", "Paris"]),
    ("The U.S. Army came.", ["The U.S.", "Army came."]),
    ("A word.Mr. Smith came.", ["A word.Mr. Smith came."]),
], ids=["closing-quote", "closing-bracket", "abbreviation-needs-a-dot", "abbreviation-dot-run",
        "tab", "no-break-space", "lowercase-after-closer", "trailing-dots", "dot-run",
        "dotted-eg", "dotted-ie", "dotted-after-a-bracket", "dotted-uppercase",
        "dotted-needs-single-letters", "dotted-not-listed", "letters-after-a-dot"])
def test_split_exact_output(text, sentences):
    # closers stay with the sentence they end; only a dot after an
    # abbreviation is guarded, and the whole run of marks counts as one end
    assert R.split_sentences(text) == sentences == reference_split_sentences(text)


_SPLIT_PIECES = st.sampled_from(
    ["Mr", "mr", "Dr", "etc", "No", "A", "b", "Cd", "ef", "1", ".", "!", "?", "...",
     '"', "'", "(", ")", "[", "]", " ", "  ", "\n", "\t", "\u00a0",
     "e.g", "i.e", "E.G", "U.S", "e", "g", "i", "S"])


@settings(max_examples=1000, deadline=None)
@given(st.lists(_SPLIT_PIECES, max_size=30).map("".join) | st.text(max_size=40))
@example("See e.g. Paris. No i.e. Rome")
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
    ranked = dict(R.rank_sentences_tfidf(*tfidf_ids(toks, ["z"]), 5))
    assert ranked[0] == 0.0 and ranked[1] == 0.0


def test_tfidf_identical_sentences_keep_original_order():
    toks = [["a", "b"], ["a", "b"], ["c"]]
    ranked = R.rank_sentences_tfidf(*tfidf_ids(toks, ["a"]), 5)
    assert [i for i, _ in ranked[:2]] == [0, 1]


def test_tfidf_matches_brute_force():
    rng = np.random.default_rng(3)
    vocab = [f"t{i}" for i in range(8)]
    toks = [list(rng.choice(vocab, size=rng.integers(2, 8))) for _ in range(5)]
    query = ["t0", "t3", "t0"]
    assert R.rank_sentences_tfidf(*tfidf_ids(toks, query), 5) == brute_force_tfidf(toks, query)


def test_tfidf_100_sentences_matches_brute_force():
    rng = np.random.default_rng(9)
    vocab = [f"t{i}" for i in range(12)]
    toks = [list(rng.choice(vocab, size=rng.integers(1, 10))) for _ in range(100)]
    query = ["t1", "t5", "t7"]
    assert R.rank_sentences_tfidf(*tfidf_ids(toks, query), 100) == brute_force_tfidf(toks, query)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_WORDS), max_size=6), max_size=12),
       st.lists(st.sampled_from(_WORDS + ["zz"]), max_size=8), st.integers(1, 15))
@example([[], [], []], ["ant", "bee"], 2)
@example([["ant", "bee", "ant"]], ["ant", "zz"], 1)
@example([["ant", "bee", "ant"]], ["bee"], 3)
def test_tfidf_equals_brute_force_on_random_pools(sentence_tokens, query, top_s):
    """Bitwise, with empty sentences, pools of only empty sentences and of
    one sentence, repeated and absent query terms, query terms equal to but
    not the same objects as the pool's interned tokens, and top_s above and
    below the pool size."""
    pool = [[sys.intern(tok) for tok in toks] for toks in sentence_tokens]
    fresh = ["".join(list(term)) for term in query]
    assert all(a is not b for a, b in zip(fresh, query))
    assert (R.rank_sentences_tfidf(*tfidf_ids(pool, fresh), top_s)
            == brute_force_tfidf(pool, fresh)[:top_s])


@pytest.mark.parametrize("top_s", [0, -1])
def test_tfidf_rejects_top_s_below_one(top_s):
    # a negative top_s would slice sentences off the end of the ranking
    with pytest.raises(ValueError, match="^top_s must be at least 1$"):
        R.rank_sentences_tfidf(*tfidf_ids([["a"], ["b"], ["a", "b"]], ["a"]), top_s)


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


def reference_retrieve(index, question_id, question, answers, n, top_a, top_s, train):
    """The pipeline from its parts' references: `dict_bm25`, the documents
    split and tokenized afresh, `brute_force_tfidf`, then the duplicate rule
    and a span scan for the positive flag."""
    query = tokenize(question).tokens
    if train and answers and len(set(answers)) == 1:
        query += tokenize(answers[0]).tokens
    sentences = [(sent, tokenize(sent).tokens, doc_id)
                 for doc_id, _ in dict_bm25(index, query, top_a)
                 for sent in R.split_sentences(index.docs[doc_id].text)]
    answer_tokens = [tokenize(a).tokens for a in answers or []]
    passages, seen = [], set()
    for idx, score in brute_force_tfidf([toks for _, toks, _ in sentences], query)[:top_s]:
        sent, toks, doc_id = sentences[idx]
        if toks and tuple(toks) not in seen and len(passages) < n:
            seen.add(tuple(toks))
            positive = any(find_token_spans(toks, ans) for ans in answer_tokens)
            passages.append(R.RetrievedPassage(sent, doc_id, len(passages) + 1, score, positive))
    return R.RetrievedSet(question_id, passages)


@pytest.mark.parametrize("n, top_a, top_s", [(5, 3, 10), (10, 8, 30), (1, 1, 1)])
def test_retrieve_equals_the_reference_pipeline_on_a_synthetic_corpus(n, top_a, top_s):
    docs, train, test, _ = synth.generate(
        synth.SyntheticSpec(entities=12, train_questions=30, test_questions=20, seed=3))
    # copies tie with their originals, so duplicate sentences meet in a pool
    index = R.build_index(docs + [R.Document(f"{d.id}-copy", d.title, d.text) for d in docs[::7]])
    records = train + test + [{"id": "two", "question": train[0]["question"],
                               "answers": [train[0]["answers"][0], test[0]["answers"][0]]},
                              {"id": "none", "question": test[1]["question"], "answers": None}]
    for train_mode in (True, False):
        for rec in records:
            args = (rec["id"], rec["question"], rec["answers"], n, top_a, top_s)
            assert (R.retrieve(index, *args, train=train_mode)
                    == reference_retrieve(index, *args, train_mode))


def token_list_tfidf(sentence_tokens, query_tokens, top_s):
    """`rank_sentences_tfidf` as it was when it counted token lists, frozen:
    one dict lookup per pool token, then the same bincount and score loop."""
    pool = len(sentence_tokens)
    if pool == 0:
        return []
    column = {term: j for j, term in enumerate(dict.fromkeys(query_tokens))}
    width = len(column) + 1
    flat = chain.from_iterable(sentence_tokens)
    cols = np.fromiter(map(column.get, flat, repeat(width - 1)), dtype=np.intp)
    rows = np.repeat(np.arange(0, pool * width, width),
                     np.fromiter(map(len, sentence_tokens), dtype=np.intp, count=pool))
    tf = np.bincount(rows + cols, minlength=pool * width).reshape(pool, width)
    scores = np.zeros(pool)
    for j, df in enumerate(np.count_nonzero(tf[:, :-1], axis=0).tolist()):
        if df:
            scores += tf[:, j] * math.log(pool / df)
    top = np.argsort(-scores, kind="stable")[:top_s]
    return list(zip(top.tolist(), scores[top].tolist()))


def token_list_retrieve(index, question_id, question, answers, n, top_a, top_s, train):
    """`retrieve` as it was when the sentence store held token lists, frozen:
    each hit split and tokenized afresh, `token_list_tfidf`, duplicates
    dropped by their joined tokens, positive flags from the token lists."""
    query = R.make_training_query(tokenize(question).tokens, answers, train)
    sentences = [(sent, tokenize(sent).tokens, doc_id)
                 for doc_id, _ in R.search_bm25(index, query, top_a)
                 for sent in R.split_sentences(index.docs[doc_id].text)]
    answer_tokens = [tokenize(a).tokens for a in (answers or [])]
    passages, seen = [], set()
    for idx, score in token_list_tfidf([toks for _, toks, _ in sentences], query, top_s):
        text_, toks, doc_id = sentences[idx]
        if not toks or " ".join(toks) in seen:
            continue
        seen.add(" ".join(toks))
        positive = any(find_token_spans(toks, a) for a in answer_tokens)
        passages.append(R.RetrievedPassage(text_, doc_id, len(passages) + 1, score, positive))
        if len(passages) == n:
            break
    return R.RetrievedSet(question_id, passages)


_SENTENCE_WORDS = _WORDS + ["e.g.", "U.S.", "ant-bee", "(cat)", "ΟΔΟΣ"]


@st.composite
def _sentence_corpora(draw):
    sentence = st.tuples(st.lists(st.sampled_from(_SENTENCE_WORDS), max_size=6),
                         st.sampled_from([".", "!", "?", "", ". ."]))
    separator = draw(st.sampled_from([" ", "\u3000"]))
    texts = draw(st.lists(st.lists(sentence, min_size=1, max_size=5).map(
        lambda sents: separator.join(" ".join(words).capitalize() + end for words, end in sents)),
        min_size=1, max_size=8))
    texts += draw(st.lists(st.sampled_from(texts), max_size=3))  # duplicate sentences meet
    return docs_from(texts)


_ANSWERS = st.none() | st.lists(st.sampled_from(_WORDS + ["zz", "bee cat", "e.g", ""]),
                                max_size=2)


@settings(max_examples=150, deadline=None)
@given(_sentence_corpora(),
       st.lists(st.tuples(st.lists(st.sampled_from(_SENTENCE_WORDS + ["zz"]), max_size=6)
                          .map(" ".join), _ANSWERS, st.booleans()), min_size=1, max_size=6),
       st.sampled_from(_WORDS), st.integers(1, 8), st.integers(1, 5), st.integers(0, 12))
def test_retrieve_equals_the_token_list_pipeline_whatever_the_fill_order(
        docs, queries, unindexed, n, top_a, extra):
    """Bitwise (the repr of every set, so every ir_score's bits), on two
    indexes of the same corpus: one fills its sentence store in query order,
    the other in reverse id order first. Both lack one term's postings, so
    BM25 never scores it; its id was fixed with the others' when the index
    was made."""
    top_s = n + extra
    indexes = [R.build_index(docs), R.build_index(docs)]
    for index in indexes:
        index.postings.pop(unindexed, None)
    for doc_id in reversed(indexes[1].doc_ids):
        indexes[1].sentences(doc_id)
    for index in indexes:
        for question, answers, train in queries:
            args = ("q", question, answers, n, top_a, top_s)
            assert (repr(R.retrieve(index, *args, train=train))
                    == repr(token_list_retrieve(index, *args, train)))


def test_sentence_store_ids_are_equal_exactly_for_equal_tokens():
    docs, _, _, _ = synth.generate(
        synth.SyntheticSpec(entities=12, train_questions=0, test_questions=0, seed=5))
    index = R.build_index(docs[::-1])
    index.postings.pop("is")  # BM25 then lacks the term; its id was fixed with the rest
    for doc_id in reversed(index.doc_ids):
        index.sentences(doc_id)
    token_of = {}
    for doc_id in index.doc_ids:
        texts, ids, lengths = index.sentences(doc_id)
        sentences = R.split_sentences(index.docs[doc_id].text)
        tokens = [tok for sent in sentences for tok in tokenize(sent).tokens]
        assert texts == sentences
        assert lengths == [len(tokenize(sent).tokens) for sent in sentences]
        assert ids.dtype == np.int32 and ids.size == len(tokens)
        for tok, token_id in zip(tokens, ids.tolist()):
            assert token_of.setdefault(token_id, tok) == tok
    assert len(token_of) == len(set(token_of.values()))
    assert index.token_ids(["is", "zz"])[1] == -1 and index.token_ids(["is"])[0] >= 0


def test_token_ids_are_the_postings_term_order_before_any_fill():
    index = R.build_index(CORPUS)
    terms = list(index.postings)
    assert index.token_ids([*terms, "zz"]) == [*range(len(terms)), -1]


# each sentence opens and ends with a capital sigma, final or not, after a
# combining mark, a quote or a dotted capital I; {ws} is the whitespace tried
_SIGMA_SENTENCES = ["ΣΑ{ws}ΟΔΟΣ.", "Σ\u0301ΟΔΟΣ\u0301!", "İΣ{ws}İΣ?", "ΣΑ ΟΔΟΣ.)", "'ΣΑΣ'."]


def test_every_sentence_token_is_a_postings_term_whatever_the_whitespace():
    """Sentences split at whitespace runs, no token spans whitespace, and the
    one context rule of str.lower (final sigma) stops at whitespace: so every
    sentence token is a document token, and every fill finds its ids in the
    map made with the index, for each whitespace character between sentences."""
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    assert len(spaces) == 29
    for ws in spaces:
        sentences = [sent.format(ws=ws) for sent in _SIGMA_SENTENCES]
        # one document per index, so no other document's terms stand in
        for title, text in [("ΟΔΟΣ", ws.join(sentences)),
                            ("Σ", (ws + ws).join(reversed(sentences)))]:
            index = R.build_index([R.Document("d", title, text)])
            texts, ids, _ = index.sentences("d")
            tokens = [tok for text in texts for tok in tokenize(text).tokens]
            assert len(texts) == len(sentences), repr(ws)
            assert set(tokens) <= index.postings.keys(), repr(ws)
            assert ids.tolist() == index.token_ids(tokens), repr(ws)


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
