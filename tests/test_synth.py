import pytest

from rankread import retrieval as R
from rankread import synth
from rankread.synth import (CONFUSION_DECOY_RATE, PSEUDO_POSITIVE_RATE, STRONG_DECOY_RATE,
                           SyntheticSpec, generate)
from rankread.text import tokenize


def small_spec(**kw):
    base = dict(entities=8, relations=5, train_questions=25, test_questions=10, seed=3)
    base.update(kw)
    return SyntheticSpec(**base)


def test_generation_is_deterministic():
    a = generate(small_spec())
    b = generate(small_spec())
    assert [d.text for d in a[0]] == [d.text for d in b[0]]
    assert a[1] == b[1] and a[2] == b[2]


def test_spec_validation():
    with pytest.raises(ValueError, match="pairs"):
        SyntheticSpec(entities=2, relations=2, train_questions=10, test_questions=5).validate()


def test_default_vocabulary_near_target():
    _, _, _, vocab = generate(SyntheticSpec())
    assert 100 <= len(vocab) <= 130


def test_question_counts_and_disjoint_ids():
    docs, train, test, _ = generate(SyntheticSpec())
    assert len(train) == 300 and len(test) == 100
    assert len({r["id"] for r in train + test}) == 400
    assert len(docs) == 400


def test_answers_never_in_questions():
    _, train, test, _ = generate(small_spec())
    for rec in train + test:
        q = tokenize(rec["question"]).tokens
        for ans in rec["answers"]:
            assert ans not in q


def _retrieved(spec, records, train):
    docs, *_ = generate(spec)
    index = R.build_index(docs)
    out = []
    for rec in records:
        out.append(R.retrieve(index, rec["id"], rec["question"], rec["answers"],
                              n=10, top_a=10, top_s=30, train=train))
    return out


def test_every_question_has_a_positive_after_retrieval():
    spec = small_spec()
    _, train, test, _ = generate(spec)
    for retrieved in (_retrieved(spec, train[:10], True), _retrieved(spec, test[:10], False)):
        for rs in retrieved:
            assert any(p.positive for p in rs.passages), rs.question_id
            assert len(rs.passages) == 10


def test_decoys_rank_high_but_negative(monkeypatch):
    monkeypatch.setattr(synth, "STRONG_DECOY_RATE", 1.0)
    spec = SyntheticSpec(seed=7)
    _, train, test, _ = generate(spec)
    retrieved = _retrieved(spec, test[:15], False)
    top1_negative = 0
    for rs in retrieved:
        if not rs.passages[0].positive:
            top1_negative += 1
            assert "not the" in rs.passages[0].text  # the double-relation overlap decoy
    assert top1_negative >= 10  # decoys dominate the raw IR order


def test_hedged_decoys_only_surface_at_test_time():
    # needs the full-size corpus: the crowding-out effect at training time
    # relies on enough cross-entity answer-bearing documents
    spec = SyntheticSpec()
    _, train, test, _ = generate(spec)
    train_sets = _retrieved(spec, train[:10], True)
    test_sets = _retrieved(spec, test[:10], False)

    def has_hedge(sets):
        return sum(1 for rs in sets
                   if any("whisper" in p.text.lower() or "surely" in p.text.lower()
                          for p in rs.passages))

    assert has_hedge(train_sets) == 0
    assert has_hedge(test_sets) == len(test_sets)


# the three decoy rates are module constants, not spec fields: a spec that
# names one is refused before validate runs
@pytest.mark.parametrize("field", ["pseudo_positive_rate", "confusion_decoy_rate",
                                   "strong_decoy_rate"])
def test_rates_outside_unit_interval_are_rejected(field):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
        SyntheticSpec(**{field: 1.5}).validate()


def test_module_rates_lie_in_unit_interval():
    assert 0.0 <= PSEUDO_POSITIVE_RATE <= 1.0
    assert 0.0 <= CONFUSION_DECOY_RATE <= 1.0
    assert 0.0 <= STRONG_DECOY_RATE <= 1.0
