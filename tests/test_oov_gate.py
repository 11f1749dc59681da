import math

import pytest

from micronorm.errors import GateError
from micronorm.oov_gate import (
    IV,
    LABELS,
    LR_KIND,
    NB_KIND,
    OOV,
    _sigmoid,
    evaluate,
    fit_tfidf,
    load_labeled_corpus,
    load_model,
    load_parallel_corpus,
    save_model,
    tokenize,
    train,
    train_test_split,
)
from micronorm.resources import GATE_CORPUS, MICROTEXT_SUITE, data_path

TOY = [
    ("i am so happy today", IV),
    ("the movie was really good", IV),
    ("see you before lunch", IV),
    ("we will meet tomorrow morning", IV),
    ("m so hapy 2day", OOV),
    ("da movi wuz rly gud", OOV),
    ("c u b4 lunch", OOV),
    ("we wil meet 2morrow mornin", OOV),
]


def test_tokenize():
    assert tokenize("C u b4 Lunch!") == ["c", "u", "b4", "lunch"]
    assert tokenize("don't stop") == ["don't", "stop"]
    assert tokenize("...") == []
    # text that is not ASCII is folded: accents dropped, full-width forms narrowed
    assert tokenize("naïve café 😀 gr8 ｇｒ８") == ["naive", "cafe", "gr8", "gr8"]
    assert tokenize("ÅNGSTRÖM ﬁne") == ["angstrom", "fine"]


def test_tfidf_l2_normalized():
    vec = fit_tfidf([t for t, _ in TOY])
    x = vec.transform("so happy today")
    norm = math.sqrt(sum(w * w for w in x.values()))
    assert norm == pytest.approx(1.0)


def test_tfidf_ignores_unseen_tokens():
    vec = fit_tfidf([t for t, _ in TOY])
    assert vec.transform("zzz qqq") == {}
    with_unseen = vec.transform("so happy zzz")
    without = vec.transform("so happy")
    assert set(with_unseen) == set(without)


def test_tfidf_idf_direction():
    # "so" appears in more documents than "hapy", so its idf is lower.
    vec = fit_tfidf([t for t, _ in TOY])
    assert vec.idf_table[vec.vocabulary["so"]] < vec.idf_table[vec.vocabulary["hapy"]]


def test_tfidf_empty_corpus_rejected():
    with pytest.raises(GateError):
        fit_tfidf([])


@pytest.mark.parametrize("kind", [NB_KIND, LR_KIND])
def test_toy_training_separates(kind):
    model = train(TOY, kind=kind, seed=42)
    for text, gold in TOY:
        pred, score = model.predict(text)
        assert pred == gold, (kind, text)
        assert 0.0 <= score <= 1.0


@pytest.mark.parametrize("kind", [NB_KIND, LR_KIND])
def test_training_deterministic(kind):
    a = train(TOY, kind=kind, seed=42)
    b = train(TOY, kind=kind, seed=42)
    probe = "so gud 2day"
    assert a.score(probe) == b.score(probe)


def test_single_class_rejected():
    with pytest.raises(GateError):
        train([(t, IV) for t, _ in TOY], kind=LR_KIND)


def test_unknown_kind_rejected():
    with pytest.raises(GateError):
        train(TOY, kind="SVC")


def test_eval_perfect_predictions():
    model = train(TOY, kind=NB_KIND)
    report = evaluate(model, TOY)
    assert report.accuracy == 1.0
    for label in (IV, OOV):
        assert report.precision[label] == 1.0
        assert report.recall[label] == 1.0
        assert report.f1[label] == 1.0


def test_eval_constant_predictor_on_balanced_set():
    model = train(TOY, kind=NB_KIND)
    model.log_prior = {IV: math.log(1e-9), OOV: math.log(1.0)}
    report = evaluate(model, TOY)
    assert report.accuracy == 0.5
    assert report.recall[OOV] == 1.0
    assert report.recall[IV] == 0.0
    assert report.f1[IV] == 0.0


def test_eval_rejects_unknown_gold():
    model = train(TOY, kind=NB_KIND)
    with pytest.raises(GateError):
        evaluate(model, [("hello", "MAYBE")])


@pytest.mark.parametrize("kind", [NB_KIND, LR_KIND])
def test_save_load_round_trip(tmp_path, kind):
    model = train(TOY, kind=kind, seed=42)
    path = tmp_path / "gate.json"
    save_model(model, path)
    loaded = load_model(path)
    for text, _ in TOY:
        assert loaded.predict(text) == model.predict(text)


def test_load_malformed_model(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "LogisticSGD"}')
    with pytest.raises(GateError):
        load_model(path)


def test_load_labeled_corpus(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("m so hapy\tOOV\nso happy\tIV\n")
    assert load_labeled_corpus(p) == [("m so hapy", OOV), ("so happy", IV)]


def test_load_labeled_corpus_errors(tmp_path):
    p = tmp_path / "c.tsv"
    for body in ("text only\n", "text\tMAYBE\n", ""):
        p.write_text(body)
        with pytest.raises(GateError):
            load_labeled_corpus(p)


def test_parallel_corpus_expands_to_pairs(tmp_path):
    p = tmp_path / "p.tsv"
    p.write_text("m so hapy\ti am so happy\n")
    records = load_parallel_corpus(p)
    assert records == [("m so hapy", OOV), ("i am so happy", IV)]


def test_train_test_split_deterministic():
    a_train, a_test = train_test_split(TOY, test_frac=0.25, seed=42)
    b_train, b_test = train_test_split(TOY, test_frac=0.25, seed=42)
    assert (a_train, a_test) == (b_train, b_test)
    assert len(a_test) == 2
    assert sorted(a_train + a_test) == sorted(TOY)


@pytest.mark.parametrize("test_frac", [-0.5, 1.5, math.nan, math.inf])
def test_train_test_split_rejects_fraction_outside_unit_range(test_frac):
    with pytest.raises(GateError):
        train_test_split(TOY, test_frac=test_frac, seed=42)


def test_train_test_split_accepts_the_bounds():
    assert train_test_split(TOY, test_frac=0.0, seed=42)[1] == []
    assert train_test_split(TOY, test_frac=1.0, seed=42)[0] == []


def test_bundled_corpus_trains_well(gate_corpus):
    train_set, test_set = train_test_split(gate_corpus, test_frac=0.2, seed=42)
    for kind in (NB_KIND, LR_KIND):
        model = train(train_set, kind=kind, seed=42)
        report = evaluate(model, test_set)
        assert report.accuracy >= 0.85, (kind, report.accuracy)


# ------------------------------------------------ reference scorer
# The gate as first written: math.log per feature on every call, a counts
# dict, a weights dict and a normalized dict.  The model reads a precomputed
# idf table and sums the margin straight from the raw weights; both must
# give the same float bits.


def _reference_transform(vectorizer, text):
    counts = {}
    for tok in tokenize(text):
        j = vectorizer.vocabulary.get(tok)
        if j is not None:
            counts[j] = counts.get(j, 0) + 1
    n = vectorizer.num_docs
    vec = {j: c * (math.log((1 + n) / (1 + vectorizer.doc_freq[j])) + 1.0) for j, c in counts.items()}
    norm = math.sqrt(sum(w * w for w in vec.values()))
    if norm > 0:
        vec = {j: w / norm for j, w in vec.items()}
    return vec


def _reference_score(model, text):
    vec = _reference_transform(model.vectorizer, text)
    if model.kind == NB_KIND:
        margins = {}
        for label in LABELS:
            ll = model.log_likelihood[label]
            margins[label] = model.log_prior[label] + sum(w * ll[j] for j, w in vec.items())
        m = max(margins.values())
        exp = {label: math.exp(v - m) for label, v in margins.items()}
        return exp[OOV] / (exp[IV] + exp[OOV])
    return _sigmoid(model.bias + sum(w * model.weights[j] for j, w in vec.items()))


def _gate_probe_texts():
    texts = []
    for name in (GATE_CORPUS, MICROTEXT_SUITE):
        with open(data_path(name), encoding="utf-8") as fh:
            texts += [line.partition("\t")[0] for line in fh]
    # empty, nothing the vocabulary holds, and repeated tokens
    return texts + ["", "!!!", "zzqx vvkq qqqz", "so so so hapy hapy 2day so", "good good good"]


@pytest.mark.parametrize("kind", [LR_KIND, NB_KIND])
def test_scores_bit_identical_to_the_reference(tmp_path, gate_corpus, kind):
    train_set, _ = train_test_split(gate_corpus, test_frac=0.2, seed=42)
    model = train(train_set, kind=kind, seed=42)
    path = tmp_path / "gate.json"
    save_model(model, path)
    texts = _gate_probe_texts()
    for gate in (model, load_model(path)):
        for text in texts:
            want = _reference_score(gate, text)
            assert gate.score(text).hex() == want.hex(), text
            assert gate.score(tokenize(text)).hex() == want.hex(), text
            assert gate.predict(text) == (OOV if want >= 0.5 else IV, want)
            vec, ref = gate.vectorizer.transform(text), _reference_transform(gate.vectorizer, text)
            assert list(vec) == list(ref)
            assert [w.hex() for w in vec.values()] == [w.hex() for w in ref.values()]

