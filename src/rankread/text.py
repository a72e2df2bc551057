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
    """All (start, end-inclusive) occurrences of needle as a contiguous run.
    Only the slices that start where needle's first token occurs are compared."""
    if not needle:
        return []
    n = len(needle)
    return [(i, i + n - 1) for i, tok in enumerate(haystack)
            if tok == needle[0] and haystack[i:i + n] == needle]


class EmbeddingTable:
    """Immutable token -> vector map, held as one (d, V+1) matrix and a token ->
    column map. Column j is the vector of the j-th token given; the last
    column is the all-zero vector that unknown tokens share. path is the
    vectors' file, "" for a table made in memory."""

    def __init__(self, dimension, vectors, path=""):
        vectors = dict(vectors)
        self.dimension = dimension
        self.path = path
        self._columns = {tok: j for j, tok in enumerate(vectors)}
        self._matrix = np.column_stack([*vectors.values(), np.zeros(dimension)])

    def tokens(self):
        """The known tokens, in column order."""
        return list(self._columns)

    def lookup(self, token):
        return self._matrix[:, self._columns.get(token, -1)]

    def gather(self, tokens):
        """The (d, len(tokens)) C-ordered matrix of the tokens' vectors, one gather."""
        unknown = len(self._columns)
        return np.take(self._matrix, [self._columns.get(tok, unknown) for tok in tokens], axis=1)


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
    return EmbeddingTable(dimension, vectors, str(path))


def synthetic_embeddings(vocab, dimension, seed=0):
    """Deterministic random embeddings over a vocabulary (sorted for stability)."""
    tokens = sorted(set(vocab))
    if not tokens:
        raise ValueError("synthetic_embeddings: empty vocabulary")
    # one draw, row by row in token order: the stream of one draw per token
    table = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(len(tokens), dimension))
    return EmbeddingTable(dimension, zip(tokens, table))


def embed(tokens, table):
    """The token vectors side by side, as a fixed (d, T) tensor."""
    if not tokens:
        raise ValueError("embed: empty token sequence")
    return T.Tensor(table.gather(tokens))
