"""Tokenization and fixed word embeddings."""

import logging
import string
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .files import read_lines

log = logging.getLogger(__name__)

_PUNCT = set(string.punctuation)


@dataclass
class TokenSequence:
    tokens: list


def tokenize(text):
    """Lowercase, split on whitespace, peel leading/trailing punctuation.

    Interior punctuation stays attached ("don't", "104,688"). Idempotent on
    its own output joined by spaces.
    """
    tokens = []
    for chunk in text.lower().split():
        lead = []
        while chunk and chunk[0] in _PUNCT and len(chunk) > 1:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail = []
        while chunk and chunk[-1] in _PUNCT and len(chunk) > 1:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return TokenSequence(tokens)


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
    rng = np.random.default_rng(seed)
    vectors = {}
    for tok in sorted(set(vocab)):
        vectors[tok] = rng.uniform(-0.5, 0.5, size=dimension)
    if not vectors:
        raise ValueError("synthetic_embeddings: empty vocabulary")
    return EmbeddingTable(dimension, vectors)


def embed(tokens, table):
    """Stack token vectors column-wise into a fixed (d, T) tensor."""
    if not tokens:
        raise ValueError("embed: empty token sequence")
    return T.Tensor(np.stack([table.lookup(tok) for tok in tokens], axis=1))
