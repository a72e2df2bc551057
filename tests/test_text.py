import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankread import text
from rankread import tensor as T


def test_tokenize_question_with_trailing_punctuation():
    seq = text.tokenize("What is the largest island in the Philippines?")
    assert seq.tokens == ["what", "is", "the", "largest", "island", "in", "the", "philippines", "?"]


def test_tokenize_empty_and_single():
    assert text.tokenize("").tokens == []
    assert text.tokenize("   ").tokens == []
    assert text.tokenize("Luzon").tokens == ["luzon"]


def test_tokenize_keeps_interior_punctuation():
    assert text.tokenize("it's 104,688 km.").tokens == ["it's", "104,688", "km", "."]


def test_tokenize_peels_nested_punctuation_in_order():
    assert text.tokenize('("Hello!")').tokens == ["(", '"', "hello", "!", '"', ")"]


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=60) | st.text(string.punctuation + "ab \t\n", max_size=40))
def test_tokenize_idempotent_on_its_own_output(s):
    once = text.tokenize(s).tokens
    again = text.tokenize(" ".join(once)).tokens
    assert once == again


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from("abc"), max_size=12), st.lists(st.sampled_from("abc"), max_size=4))
def test_find_token_spans_matches_brute_force(haystack, needle):
    brute = [(s, e) for s in range(len(haystack)) for e in range(s, len(haystack))
             if haystack[s:e + 1] == needle]
    assert text.find_token_spans(haystack, needle) == brute


def test_find_token_spans():
    hay = ["a", "b", "a", "b", "a"]
    assert text.find_token_spans(hay, ["a", "b"]) == [(0, 1), (2, 3)]
    assert text.find_token_spans(hay, ["a"]) == [(0, 0), (2, 2), (4, 4)]
    assert text.find_token_spans(hay, ["z"]) == []
    assert text.find_token_spans(hay, []) == []


def test_contains_answer_matches_span_rule():
    tokens = text.tokenize("As an island, Luzon is the largest.").tokens
    assert text.contains_answer(tokens, [["luzon"]])
    assert not text.contains_answer(tokens, [["mindanao"]])


# --- embeddings ---------------------------------------------------------------

def write_embeddings(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_embeddings_two_lines(tmp_path):
    p = write_embeddings(tmp_path / "e.txt", ["luzon 0.1 0.2 0.3", "manila 1 2 3"])
    table = text.load_embeddings(p, 3)
    assert len(table) == 2
    assert np.allclose(table.lookup("luzon"), [0.1, 0.2, 0.3])


def test_lookup_absent_token_is_zero_vector(tmp_path):
    p = write_embeddings(tmp_path / "e.txt", ["luzon 0.1 0.2 0.3"])
    table = text.load_embeddings(p, 3)
    assert np.array_equal(table.lookup("mindanao"), np.zeros(3))


def test_load_embeddings_skips_malformed_lines(tmp_path):
    lines = ["a 1 2 3", "b 1 2", "c 1 2 3", "d x y z", "e 9 9 9"]
    table = text.load_embeddings(write_embeddings(tmp_path / "e.txt", lines), 3)
    assert len(table) == 3
    assert table.skipped_lines == 2


def test_load_embeddings_keeps_first_duplicate(tmp_path):
    p = write_embeddings(tmp_path / "e.txt", ["a 1 1 1", "a 2 2 2"])
    assert np.array_equal(text.load_embeddings(p, 3).lookup("a"), [1.0, 1.0, 1.0])


def test_load_embeddings_rejects_empty(tmp_path):
    p = write_embeddings(tmp_path / "e.txt", ["only 1 2"])
    with pytest.raises(ValueError, match="no usable"):
        text.load_embeddings(p, 3)


def test_synthetic_embeddings_deterministic():
    a = text.synthetic_embeddings(["b", "a", "c"], 8, seed=3)
    b = text.synthetic_embeddings(["c", "b", "a"], 8, seed=3)
    for tok in "abc":
        assert np.array_equal(a.lookup(tok), b.lookup(tok))


def test_embed_columns_follow_token_order(tmp_path):
    p = write_embeddings(tmp_path / "e.txt", ["a 1 0 0", "b 0 1 0"])
    table = text.load_embeddings(p, 3)
    out = text.embed(["b", "a"], table)
    assert out.data.shape == (3, 2)
    assert np.array_equal(out.data[:, 0], [0, 1, 0])
    assert np.array_equal(out.data[:, 1], [1, 0, 0])
    assert not out.requires_grad


def test_embed_all_unknown_gives_zero_matrix(tmp_path):
    p = write_embeddings(tmp_path / "e.txt", ["a 1 0 0"])
    table = text.load_embeddings(p, 3)
    assert np.array_equal(text.embed(["x", "y"], table).data, np.zeros((3, 2)))


def test_embed_rejects_empty_sequence(tmp_path):
    p = write_embeddings(tmp_path / "e.txt", ["a 1 0 0"])
    with pytest.raises(ValueError, match="empty"):
        text.embed([], text.load_embeddings(p, 3))
