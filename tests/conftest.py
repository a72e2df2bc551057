from dataclasses import replace

import numpy as np
import pytest

from rankread import tensor as T
from rankread import trainer as trainer_mod
from rankread.config import Config
from rankread.model import RankReadModel
from rankread.retrieval import RetrievedPassage
from rankread.text import embed, synthetic_embeddings, tokenize


TOY_PASSAGES = [
    "the kib is blue indeed .",
    "blue is often seen near the kib .",
    "the kib is not what people expect .",
    "many ask about the kib without luck .",
]
TOY_QUESTION = "what is the color of the kib ?"
TOY_ANSWERS = ["blue"]


def make_example(question_id, question, texts, answers):
    """A training example over the given passages, answer spans localized."""
    p_tokens = [tokenize(t).tokens for t in texts]
    answer_tokens = [tokenize(a).tokens for a in answers]
    passages = []
    spans = {}
    for i, toks in enumerate(p_tokens):
        occ = trainer_mod.localize_spans(toks, answer_tokens)
        passages.append(RetrievedPassage(texts[i], f"d{i}", i + 1, 1.0 / (i + 1), bool(occ)))
        if occ:
            spans[i] = occ
    return trainer_mod.TrainingExample(
        question_id, tokenize(question).tokens, list(answers), passages, p_tokens, spans)


def toy_example():
    """N=4 passages, two containing the answer."""
    return make_example("toy-0", TOY_QUESTION, TOY_PASSAGES, TOY_ANSWERS)


def toy_table(dim=6):
    vocab = set(tokenize(TOY_QUESTION).tokens)
    for t in TOY_PASSAGES:
        vocab.update(tokenize(t).tokens)
    return synthetic_embeddings(vocab, dim, seed=5)


def toy_config(**overrides):
    base = dict(hidden_size=6, embed_dim=6, dropout=0.0, learning_rate=0.01,
                batch_size=1, train_sample_k=4, min_negatives=2)
    base.update(overrides)
    return Config(**base).validate()


def toy_trainer(seed=0, **config_overrides):
    cfg = toy_config(**config_overrides)
    model = RankReadModel(cfg, seed=seed)
    table = toy_table(cfg.embed_dim)
    return trainer_mod.Trainer(model, table, cfg, seed=seed)


@pytest.fixture
def example():
    return toy_example()


def sigmoid(a):
    """The logistic function composed from tape ops, with the arithmetic of
    `tensor.bilstm`'s sigmoid gates (0.5 * (tanh(0.5 x) + 1)), so its values
    are those gates' bits."""
    return T.scale(T.add(T.tanh(T.scale(a, 0.5)), T.Tensor(np.ones(a.data.shape))), 0.5)


def cols(a, j0, j1):
    """Columns j0:j1 of a, as one gather."""
    return T.take_cols(a, range(j0, j1))


def transpose(a):
    """a's transpose as a tape node of its own: the reference that attention's
    per-question composite and `rows` are built from. The program's heads
    emit their logits as the rows the losses read, so it records no
    transpose."""
    out = T.Tensor._node(a.data.T.copy(), (a,))
    if out.requires_grad:
        def bw(g):
            T._accumulate(a, g.T)
        out._backward = bw
    return out


def rows(a, i0, i1):
    """Rows i0:i1 of a, composed from tape ops."""
    return transpose(cols(transpose(a), i0, i1))


def sum_all(a):
    """The sum of a's entries as a 1x1 tensor: a ones row times a times a
    ones column. Every gradient entry it sends down is exactly the upstream one."""
    r, c = a.data.shape
    return T.matmul(T.matmul(T.Tensor(np.ones((1, r))), a), T.Tensor(np.ones((c, 1))))


def softmax_cols(a):
    """Column-wise softmax as a tape node of its own: the reference that
    attention's per-question composite and the reader's probabilities are
    checked against. The program takes its softmaxes off the tape
    (tensor._softmax) or fused into attention and neg_log_softmax_mean."""
    y = T._softmax(a.data, 0)
    out = T.Tensor._node(y, (a,))
    if out.requires_grad:
        def bw(g):
            T._accumulate(a, y * (g - (g * y).sum(axis=0, keepdims=True)))
        out._backward = bw
    return out


def softmax_row(a):
    """The softmax of a (1, n) row of logits, as the (n, 1) column of
    `softmax_cols` over its transpose: the reference a head's probabilities
    are checked against."""
    return softmax_cols(transpose(a))


def tfidf_ids(sentence_tokens, query_tokens):
    """`rank_sentences_tfidf`'s pool and query for token lists: the sentence
    lengths, the pool's token ids (int32, equal ids for equal tokens) and the
    query's ids, -1 for a term no sentence holds."""
    ids = {}
    flat = [ids.setdefault(tok, len(ids)) for toks in sentence_tokens for tok in toks]
    return ([len(toks) for toks in sentence_tokens], np.array(flat, dtype=np.int32),
            [ids.get(term, -1) for term in query_tokens])


def passage_block(token_lists, table):
    """The passages' embeddings side by side, and their widths."""
    return (embed([tok for toks in token_lists for tok in toks], table),
            [len(toks) for toks in token_lists])


def read_block(m, widths, order):
    """The columns of M that the passages in order (indices into widths) fill,
    in that order, and their widths."""
    starts = np.cumsum([0] + widths)
    cols = [c for i in order for c in range(starts[i], starts[i + 1])]
    return T.take_cols(m, cols), [widths[i] for i in order]


def grad_or_zero(p):
    """A copy of p's gradient, or zeros when no gradient reached p."""
    return np.zeros_like(p.data) if p.grad is None else p.grad.copy()


def conditional_positive_probs(policy, positives):
    """gamma restricted to the positive positions, renormalized; keyed by
    position: the exact law c04 checks REINFORCE's sampling against."""
    probs = policy.probs()
    pos = sorted(positives)
    mass = sum(probs[i] for i in pos)
    return {i: probs[i] / mass for i in pos}


def enumerate_policy_gradient(trainer, example):
    """Exact expectation of the gradient of the sampled policy term
    r * -log pi(tau), built as r3 builds it, under the positive-conditional
    sampling law, plus the per-outcome grads.

    Returns (expectation, {tau: grads}, {tau: prob}, {tau: reward}).
    """
    from rankread import reader as reader_mod
    from rankread import tensor as T

    model = trainer.model
    cfg = trainer.config
    q_emb = embed(example.question_tokens, trainer.table)
    p_emb, widths = passage_block(example.passage_tokens, trainer.table)
    pos = example.positive_indices()
    neg = [i for i in range(len(example.passages)) if i not in example.spans]

    def grad_for(tau):
        model.zero_grads()
        m = model.match_passages(q_emb, p_emb, widths)
        policy = model.rank(m, widths)
        dist = model.read(*read_block(m, widths, [tau] + neg))
        extracted, _ = reader_mod.extract_best_span(replace(dist, segments=dist.segments[:1]),
                                                    cfg.max_span_len)[0]
        answer = " ".join(example.passage_tokens[tau][extracted.start:extracted.end + 1])
        r = trainer_mod.best_reward(example.answers, answer).value
        T.backward(T.scale(T.neg_log_softmax_mean(policy.logits, policy.questions, [[tau]]), r))
        return {n: grad_or_zero(p) for n, p in model.parameters().items()}, r, policy

    grads, rewards = {}, {}
    policy = None
    for tau in pos:
        grads[tau], rewards[tau], policy = grad_for(tau)
    probs = conditional_positive_probs(policy, set(pos))
    expectation = {
        name: sum(probs[tau] * grads[tau][name] for tau in pos)
        for name in trainer.model.parameters()
    }
    return expectation, grads, probs, rewards
