"""Tokenization and fixed word embeddings."""

import logging
import re
import string
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .files import read_lines

log = logging.getLogger(__name__)

_P = re.escape(string.punctuation)
# a token runs from a character that is neither ASCII punctuation nor
# whitespace to the last such character before whitespace; every other ASCII
# punctuation character is a token of its own ("(don't)." -> "(", "don't", ")", ".")
_TOKEN = re.compile(rf"[^{_P}\s](?:\S*[^{_P}\s])?|[{_P}]")


@dataclass
class TokenSequence:
    tokens: list


def tokenize(text):
    """Lowercase, split on whitespace, peel leading/trailing punctuation.

    Interior punctuation stays attached ("don't", "104,688"). Idempotent on
    its own output joined by spaces.
    """
    return TokenSequence(_TOKEN.findall(text.lower()))


def find_token_spans(haystack, needle):
    """All (start, end-inclusive) occurrences of needle as a contiguous run."""
    if not needle or len(needle) > len(haystack):
        return []
    spans = []
    for start in range(len(haystack) - len(needle) + 1):
        if haystack[start:start + len(needle)] == needle:
            spans.append((start, start + len(needle) - 1))
    return spans


def contains_answer(tokens, answer_token_lists):
    """Token-level containment of any answer, after shared tokenization."""
    return any(find_token_spans(tokens, ans) for ans in answer_token_lists)


class EmbeddingTable:
    """Immutable token -> vector map; unknown tokens share an all-zero vector."""

    def __init__(self, dimension, vectors):
        self.dimension = dimension
        self._vectors = dict(vectors)
        self._unknown = np.zeros(dimension)

    def lookup(self, token):
        return self._vectors.get(token, self._unknown)


def load_embeddings(path, dimension):
    """Read a text embedding file: one `token v1 ... vd` line per entry.

    Malformed lines, including those with a nan or inf entry, are skipped and
    counted in a warning; duplicates keep the first occurrence; a file with no
    usable line is rejected.
    """
    vectors = {}
    skipped = 0
    for _, line in read_lines(path):
        parts = line.rstrip("\n").split(" ")
        if len(parts) != dimension + 1 or not parts[0]:
            skipped += 1
            continue
        try:
            vec = np.array([float(x) for x in parts[1:]])
        except ValueError:
            skipped += 1
            continue
        if not np.isfinite(vec).all():
            skipped += 1
            continue
        vectors.setdefault(parts[0], vec)
    if skipped:
        log.warning("skipped %d malformed embedding lines in %s", skipped, path)
    if not vectors:
        raise ValueError(f"no usable embedding lines in {path}")
    return EmbeddingTable(dimension, vectors)


def synthetic_embeddings(vocab, dimension, seed=0):
    """Deterministic random embeddings over a vocabulary (sorted for stability)."""
    tokens = sorted(set(vocab))
    if not tokens:
        raise ValueError("synthetic_embeddings: empty vocabulary")
    # one draw, row by row in token order: the stream of one draw per token
    table = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(len(tokens), dimension))
    return EmbeddingTable(dimension, zip(tokens, table))


def embed(tokens, table):
    """Stack token vectors column-wise into a fixed (d, T) tensor."""
    if not tokens:
        raise ValueError("embed: empty token sequence")
    return T.Tensor(np.stack([table.lookup(tok) for tok in tokens], axis=1))
