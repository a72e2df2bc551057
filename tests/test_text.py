import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankread import text


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


def reference_tokenize(s):
    """The tokenizer as a character loop: peel leading and trailing ASCII
    punctuation off each whitespace chunk, keeping a last lone character."""
    punct = set(string.punctuation)
    tokens = []
    for chunk in s.lower().split():
        lead = []
        while chunk and chunk[0] in punct and len(chunk) > 1:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail = []
        while chunk and chunk[-1] in punct and len(chunk) > 1:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


@pytest.mark.parametrize("s, tokens", [
    ("?!", ["?", "!"]),
    ("...", [".", ".", "."]),
    ("(hello),", ["(", "hello", ")", ","]),
    ("'don't'", ["'", "don't", "'"]),
    ("x\u00b2", ["x\u00b2"]),
    ("snake_case _x_", ["snake_case", "_", "x", "_"]),
    ("\u00abquoted\u00bb a\u2014b", ["\u00abquoted\u00bb", "a\u2014b"]),
    ("\u0130stanbul", ["i\u0307stanbul"]),
    ("a\x1cb\x85c\xa0d\u3000e", ["a", "b", "c", "d", "e"]),
    ("a\u200bb", ["a\u200bb"]),
], ids=["marks", "dots", "brackets", "quotes", "superscript", "underscore", "non-ascii-punct",
        "dotted-capital", "unicode-space", "zero-width-space"])
def test_tokenize_exact_output(s, tokens):
    # ASCII punctuation only is peeled ("_" among it), other punctuation stays
    # attached, "\u0130" lowercases to two code points, and the chunks are
    # str.split's, so every str.isspace character separates
    assert text.tokenize(s).tokens == tokens == reference_tokenize(s)


_TOKEN_TEXT = st.text(string.punctuation + "aZ\u00e9\u00b2\u00ab\u2014"
                      + " \t\n\x1c\x85\xa0\u3000\u200b", max_size=40)


@settings(max_examples=1000, deadline=None)
@given(st.text(max_size=60) | _TOKEN_TEXT)
def test_tokenize_matches_reference_loop(s):
    assert text.tokenize(s).tokens == reference_tokenize(s)


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


# --- embeddings ---------------------------------------------------------------

def write_embeddings(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_embeddings_two_lines(tmp_path):
    p = write_embeddings(tmp_path / "e.txt", ["luzon 0.1 0.2 0.3", "manila 1 2 3"])
    table = text.load_embeddings(p, 3)
    assert np.allclose(table.lookup("luzon"), [0.1, 0.2, 0.3])
    assert np.array_equal(table.lookup("manila"), [1.0, 2.0, 3.0])


def test_load_embeddings_drops_a_byte_order_mark(tmp_path):
    # before, the first line's vector was keyed '\ufeffthe', so "the" embedded as zeros
    p = tmp_path / "e.txt"
    p.write_text("\ufeffthe 0.1 0.2 0.3\nof 1 2 3\n", encoding="utf-8")
    table = text.load_embeddings(p, 3)
    assert np.allclose(table.lookup("the"), [0.1, 0.2, 0.3])
    assert sorted(table.tokens()) == ["of", "the"]


def test_lookup_absent_token_is_zero_vector(tmp_path):
    p = write_embeddings(tmp_path / "e.txt", ["luzon 0.1 0.2 0.3"])
    table = text.load_embeddings(p, 3)
    assert np.array_equal(table.lookup("mindanao"), np.zeros(3))


def test_load_embeddings_skips_malformed_lines(tmp_path, caplog):
    lines = ["a 1 2 3", "b 1 2", "c 1 2 3", "d x y z", "e 9 9 9"]
    table = text.load_embeddings(write_embeddings(tmp_path / "e.txt", lines), 3)
    assert [t for t in "abcde" if table.lookup(t).any()] == ["a", "c", "e"]
    assert "skipped 2 malformed embedding lines" in caplog.text


def test_load_embeddings_skips_non_finite_lines(tmp_path, caplog):
    lines = ["what nan 0.1 0.2", "a 1 2 3", "b inf 1 1", "c 1 -inf 1", "d 1 1 NaN"]
    table = text.load_embeddings(write_embeddings(tmp_path / "e.txt", lines), 3)
    assert np.array_equal(table.lookup("a"), [1.0, 2.0, 3.0])
    for token in ("what", "b", "c", "d"):
        assert np.array_equal(table.lookup(token), np.zeros(3))
    assert "skipped 4 malformed embedding lines" in caplog.text


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


def _per_token_stack(tokens, vectors, dimension):
    """embed as a stack of one looked-up vector per token, unknown ones zero."""
    unknown = np.zeros(dimension)
    return np.stack([vectors.get(tok, unknown) for tok in tokens], axis=1)


def _assert_same_bits(out, ref):
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()  # tells -0.0 from 0.0 too
    assert out.flags.c_contiguous


# known tokens with a repeat, known and unknown mixed, all unknown
EMBED_SEQUENCES = [["b", "a", "b"], ["a", "zz", "c", "qq", "a"], ["zz", "qq"]]


@pytest.mark.parametrize("tokens", EMBED_SEQUENCES)
def test_embed_equals_the_per_token_stack_on_a_synthetic_table(tokens):
    vocab = ["c", "a", "b", "a"]
    draw = np.random.default_rng(4).uniform(-0.5, 0.5, size=(3, 5))
    vectors = dict(zip(["a", "b", "c"], draw))  # one row per token, sorted
    out = text.embed(tokens, text.synthetic_embeddings(vocab, 5, seed=4)).data
    _assert_same_bits(out, _per_token_stack(tokens, vectors, 5))


@pytest.mark.parametrize("tokens", EMBED_SEQUENCES)
def test_embed_equals_the_per_token_stack_on_a_file_table(tmp_path, tokens):
    lines = ["a 0.1 -0.2 3e-5", "b 1 2 3", "a 9 9 9", "c -0.0 0.5 1e300", "d 1 2"]
    table = text.load_embeddings(write_embeddings(tmp_path / "e.txt", lines), 3)
    vectors = {"a": np.array([0.1, -0.2, 3e-5]), "b": np.array([1.0, 2.0, 3.0]),
               "c": np.array([-0.0, 0.5, 1e300])}  # the duplicate "a" keeps its first line
    _assert_same_bits(text.embed(tokens, table).data, _per_token_stack(tokens, vectors, 3))


def test_embed_rejects_empty_sequence(tmp_path):
    p = write_embeddings(tmp_path / "e.txt", ["a 1 0 0"])
    with pytest.raises(ValueError, match="empty"):
        text.embed([], text.load_embeddings(p, 3))
