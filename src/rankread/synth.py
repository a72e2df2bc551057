"""Synthetic QA world generator.

Facts are (entity, relation) -> answer triples. Each fact gets a small
document whose sentences replicate the classic retrieval failure modes:
a lexical-overlap decoy that outranks the real statements, a sentence
carrying the answer string without stating the fact, fact-shaped sentences
carrying a plausible wrong answer, and the entailing statements themselves.
BM25 + TF-IDF retrieval over the corpus then surfaces exactly this mix per
question.
"""

from dataclasses import dataclass

import numpy as np

RELATIONS = ["color", "size", "shape", "origin", "flavor",
             "sound", "texture", "brand", "class", "mood"]

ANSWERS_PER_RELATION = 3  # size of each relation's answer pool

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

_TEMPLATE_WORDS = {
    "what", "is", "the", "of", "?", ".", "we", "all", "know", "everyone", "here",
    "knows", "often", "mentioned", "near", "in", "records", "fans", "always",
    "whisper", "that", "answer", "some", "people", "say", "true", "surely",
    "not", "expected", "many", "ask", "about", "without", "luck", "argue",
    "over", "these", "days",
}


@dataclass
class SyntheticSpec:
    entities: int = 40
    relations: int = 10
    train_questions: int = 300
    test_questions: int = 100
    pseudo_positive_rate: float = 1.0   # answer string present, fact not stated
    strong_decoy_rate: float = 0.7      # overlap decoy that outranks the facts
    confusion_decoy_rate: float = 1.0   # hedged fact-shape with a wrong same-pool token
    seed: int = 0

    def validate(self):
        if self.relations > len(RELATIONS):
            raise ValueError(f"at most {len(RELATIONS)} relations supported")
        if self.entities * self.relations < self.train_questions + self.test_questions:
            raise ValueError("not enough (entity, relation) pairs for the requested questions")
        return self


def _coin_word(rng, syllables):
    parts = []
    for _ in range(syllables):
        parts.append(rng.choice(list(_CONSONANTS)) + rng.choice(list(_VOWELS)))
    return "".join(parts) + rng.choice(list(_CONSONANTS))


def _coin_unique(rng, count, syllables, taken):
    words = []
    while len(words) < count:
        w = _coin_word(rng, syllables)
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _sentences(entity, relation, answer, wrong_answers, spec, rng):
    # every template is exactly ten tokens, so one question's passages run
    # through the encoder as a single batch group
    sents = []
    if rng.random() < spec.pseudo_positive_rate:
        sents.append(f"{answer.capitalize()} is often mentioned near {entity} in {relation} records.")
    sents.append(f"We all know the {relation} of {entity} is {answer}.")
    sents.append(f"Everyone here knows the {relation} of {entity} is {answer}.")
    if rng.random() < spec.confusion_decoy_rate:
        # plausible wrong tokens in the exact "is X." shape the facts use, with
        # the relation word but no entity. The answer-augmented training query
        # ranks these out of the top-N (entity and answer carry the idf there)
        # while the plain test query ranks them in (the relation carries the
        # idf). Readers therefore never train against them, their extraction
        # confidence rides the same local pattern as the facts, and only a
        # ranker that matches the question entity can demote them.
        sents.append(f"{relation.capitalize()} fans always whisper that the answer is {wrong_answers[0]}.")
        sents.append(f"Some people say the true {relation} is surely {wrong_answers[1]}.")
    if rng.random() < spec.strong_decoy_rate:
        sents.append(f"The {relation} of {entity} is not the {relation} expected.")
    sents.append(f"Many ask about the {relation} of {entity} without luck.")
    sents.append(f"People argue over the {relation} of {entity} these days.")
    return sents


def generate(spec):
    """Build (documents, train_records, test_records, vocabulary)."""
    from .retrieval import Document  # local import keeps module load light

    spec.validate()
    rng = np.random.default_rng(spec.seed)
    taken = set(_TEMPLATE_WORDS) | set(RELATIONS)
    entities = _coin_unique(rng, spec.entities, 3, taken)
    relations = RELATIONS[: spec.relations]
    answers = {rel: _coin_unique(rng, ANSWERS_PER_RELATION, 2, taken)
               for rel in relations}

    facts = []
    for entity in entities:
        for relation in relations:
            value = answers[relation][int(rng.integers(ANSWERS_PER_RELATION))]
            facts.append((entity, relation, value))

    documents = []
    for entity, relation, value in facts:
        pool = [a for a in answers[relation] if a != value]
        wrong = [pool[int(rng.integers(len(pool)))] for _ in range(2)]
        text = " ".join(_sentences(entity, relation, value, wrong, spec, rng))
        documents.append(Document(f"{entity}-{relation}", f"{entity} {relation}", text))

    order = rng.permutation(len(facts))
    needed = spec.train_questions + spec.test_questions
    records = []
    for qnum, fact_idx in enumerate(order[:needed]):
        entity, relation, value = facts[fact_idx]
        split = "train" if qnum < spec.train_questions else "test"
        records.append({
            "id": f"{split}-{qnum:04d}",
            "question": f"What is the {relation} of {entity}?",
            "answers": [value],
        })
    train_records = records[: spec.train_questions]
    test_records = records[spec.train_questions:]

    vocab = set(_TEMPLATE_WORDS) | set(entities) | set(relations)
    for rel in relations:
        vocab.update(answers[rel])
    return documents, train_records, test_records, vocab
