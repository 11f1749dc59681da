import copy
import dataclasses
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from micronorm.concepts import ConceptCandidate, extract_concepts
from micronorm.errors import ConfigError, MicronormError
from micronorm import concepts, oov_gate, pipeline
from micronorm.g2p import G2PEngine, default_engine
from micronorm.match_index import build_index
from micronorm.memo import MEMO_SIZE
from micronorm.oov_gate import IV, LR_KIND, NB_KIND, train
from micronorm.pipeline import (
    SEARCH_REASONS,
    NormalizationOutcome,
    PipelineConfig,
    SentencePolarity,
    eval_polarity,
    normalize_concept,
    normalize_sentence,
    sentence_polarity,
)
from micronorm.resources import MICROTEXT_SUITE, data_path
from micronorm.similarity import DistanceVariant


@pytest.fixture(scope="module")
def suite():
    rows = []
    with open(data_path(MICROTEXT_SUITE), encoding="utf-8") as fh:
        for line in fh:
            text, _, gold = line.rstrip("\n").partition("\t")
            rows.append((text, gold))
    return rows


def test_config_defaults_valid():
    cfg = PipelineConfig()
    assert cfg.accept_distance == 0.45
    assert cfg.k == 5
    assert cfg.min_sim == 0.5


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        PipelineConfig(accept_distance=1.5)
    with pytest.raises(ConfigError):
        PipelineConfig(k=0)
    # threshold above the search ceiling would silently drop matches
    with pytest.raises(ConfigError):
        PipelineConfig(accept_distance=0.6, min_sim=0.5)
    # refused here rather than by top_k at the first OOV search
    for min_sim in (-0.5, 1.5, float("nan")):
        with pytest.raises(ConfigError, match=r"min_sim must be in \[0, 1\]"):
            PipelineConfig(min_sim=min_sim)


def _searches(trace) -> int:
    return sum(o.reason in SEARCH_REASONS for o in trace)


def test_without_normalization_only_iv_candidates_accepted(lexicon, g2p, index, cfg):
    result = sentence_polarity(
        "good morning hapy", lexicon, index, g2p, cfg, with_normalization=False
    )
    assert [(o.original, o.accepted, o.matched, o.distance, o.reason) for o in result.trace] == [
        ("good_morning", True, "good_morning", 0.0, "iv"),
        ("hapy", False, None, None, "not_normalized"),
    ]
    assert _searches(result.trace) == 0


def test_iv_candidate_bypasses_search(lexicon, g2p, index, cfg):
    cand = ConceptCandidate(concept="good", span=(0, 1), matched_iv=True)
    out = normalize_concept(cand, lexicon, index, g2p, cfg)
    assert out.accepted and out.matched == "good" and out.distance == 0.0
    assert _searches([out]) == 0


def test_oov_candidate_searches(lexicon, g2p, index, cfg):
    cand = ConceptCandidate(concept="gud", span=(0, 1), matched_iv=False)
    out = normalize_concept(cand, lexicon, index, g2p, cfg)
    assert out.accepted and out.matched == "good"
    assert out.distance == pytest.approx(0.333, abs=1e-3)
    assert _searches([out]) == 1


def test_search_reasons_count_the_searches(monkeypatch, lexicon, g2p, index, gate_corpus):
    # the trace is the only record of the searches, so its reasons must count
    # them, gated or not; a config's memo searches each distinct OOV concept
    # once, through the module's top_k, and a second pass searches nothing
    model = train(gate_corpus, kind=LR_KIND, seed=42)
    calls = []
    original = pipeline.top_k

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "top_k", counting)
    # this model trains on the whole corpus; bench's 935 gated searches come
    # from gate-train's model, which holds out a test split
    for cfg, gate, expected in ((PipelineConfig(), None, 1427), (PipelineConfig(gate_enabled=True), model, 945)):
        for first_pass in (True, False):
            calls.clear()
            searches, searched = 0, set()
            for text, _ in gate_corpus:
                trace = sentence_polarity(text, lexicon, index, g2p, cfg, model=gate).trace
                searches += _searches(trace)
                searched |= {o.original for o in trace if o.reason in SEARCH_REASONS}
            assert searches == expected
            assert len(calls) == (len(searched) if first_pass else 0)
        assert 0 < len(searched) < expected
    tight = PipelineConfig(accept_distance=0.1, min_sim=0.7)
    calls.clear()
    trace = sentence_polarity("gud 2moro qqqzzz", lexicon, index, g2p, tight).trace
    assert {"above_accept_distance", "no_candidate"} <= {o.reason for o in trace}
    assert _searches(trace) == len(calls)


def test_resolution_memo_is_bounded(lexicon, g2p, index):
    cfg = PipelineConfig()
    for i, entry in enumerate(lexicon.entries[: MEMO_SIZE + 10]):
        normalize_concept(ConceptCandidate(entry.concept, (i, i + 1), False), lexicon, index, g2p, cfg)
    info = cfg.memo.cache_info()
    assert (info.misses, info.currsize) == (MEMO_SIZE + 10, MEMO_SIZE)


def test_resolution_memo_is_no_config_field():
    cfg = PipelineConfig(k=3)
    assert "memo" not in {f.name for f in dataclasses.fields(PipelineConfig)}
    assert "memo" not in repr(cfg) and "memo" not in dataclasses.asdict(cfg)
    twin = PipelineConfig(k=3)
    assert twin == cfg and hash(twin) == hash(cfg) and twin.memo is not cfg.memo
    assert dataclasses.replace(cfg).memo is not cfg.memo


def test_dropping_the_config_frees_index_and_engine(lexicon):
    # the memo holds the index and engine of its keys; neither refers back to
    # the config, so reference counting alone frees all three
    gc.disable()
    try:
        engine = G2PEngine(dict(default_engine().exceptions), default_engine().rules)
        idx = build_index(lexicon)
        cfg = PipelineConfig()
        sentence_polarity("gud mornin c u 2morrow hgh", lexicon, idx, engine, cfg)
        assert cfg.memo.cache_info().currsize > 0
        refs = weakref.ref(idx), weakref.ref(engine)
        del idx, engine
        assert all(ref() is not None for ref in refs)  # the config keeps them
        del cfg
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_encoding_error_outcome_same_cold_and_warm(lexicon, g2p, index):
    # "hgh" has every letter silent, so it cannot be encoded
    cfg = PipelineConfig()
    cand = ConceptCandidate(concept="hgh", span=(0, 1), matched_iv=False)
    cold = normalize_concept(cand, lexicon, index, g2p, cfg)
    warm = normalize_concept(cand, lexicon, index, g2p, cfg)
    assert cold.reason == "encoding_error" and cold.error
    assert warm == cold and cfg.memo.cache_info().hits == 1


def test_threshold_rejects_far_matches(lexicon, g2p, index):
    tight = PipelineConfig(accept_distance=0.1)
    cand = ConceptCandidate(concept="gud", span=(0, 1), matched_iv=False)
    out = normalize_concept(cand, lexicon, index, g2p, tight)
    assert not out.accepted and out.matched is None


def test_missing_iv_entry_is_an_error(lexicon, g2p, index, cfg):
    cand = ConceptCandidate(concept="not_in_lexicon_xyz", span=(0, 1), matched_iv=True)
    with pytest.raises(MicronormError):
        normalize_concept(cand, lexicon, index, g2p, cfg)


def test_normalize_sentence_examples(lexicon, g2p, index, cfg):
    cases = {
        "gud morning": "good morning",
        "c u 2morrow": "see you tomorrow",
        "m so hapy": "am so happy",
    }
    for raw, expected in cases.items():
        assert normalize_sentence(raw, lexicon, index, g2p, cfg) == expected


def test_normalize_sentence_idempotent_over_suite(suite, lexicon, g2p, index, cfg):
    for text, _ in suite:
        once = normalize_sentence(text, lexicon, index, g2p, cfg)
        twice = normalize_sentence(once, lexicon, index, g2p, cfg)
        assert twice == once, text


def test_normalize_sentence_calls_the_names_a_tracer_rebinds(monkeypatch, lexicon):
    """The benchmark's tracer rebinds the module globals ``extract_concepts``,
    ``top_k`` and ``normalize_concept``, counts the OOV candidates extraction
    returns and reads the others' first positional arguments (the query, the
    candidate's ``matched_iv``); it wraps ``encode_concept`` in an instance
    attribute and deletes that attribute afterwards.  So the extraction and
    every search of ``normalize_sentence`` must pass through these names,
    positionally."""
    engine = G2PEngine(dict(default_engine().exceptions), default_engine().rules)
    idx = build_index(lexicon, DistanceVariant.BIGRAM)
    cfg = PipelineConfig(variant=DistanceVariant.BIGRAM)
    extracted, searched, resolved, encoded = [], [], [], []
    original_extract = pipeline.extract_concepts
    original_top_k, original_normalize = pipeline.top_k, pipeline.normalize_concept

    def extract_spy(*args, **kwargs):
        extracted.append((args, original_extract(*args, **kwargs)))
        return extracted[-1][1]

    def top_k_spy(*args, **kwargs):
        searched.append(args)
        return original_top_k(*args, **kwargs)

    def normalize_spy(*args, **kwargs):
        resolved.append(args)
        return original_normalize(*args, **kwargs)

    def encode_spy(surface):
        encoded.append(surface)
        return G2PEngine.encode_concept(engine, surface)

    monkeypatch.setattr(pipeline, "extract_concepts", extract_spy)
    monkeypatch.setattr(pipeline, "top_k", top_k_spy)
    monkeypatch.setattr(pipeline, "normalize_concept", normalize_spy)
    engine.encode_concept = encode_spy
    out = normalize_sentence("gud mornin c u 2morrow lol", lexicon, idx, engine, cfg)
    del engine.encode_concept
    assert "encode_concept" not in vars(engine)
    oov = [args[0].concept for args in resolved if not args[0].matched_iv]
    ((args, candidates),) = extracted
    assert args[1] is lexicon and [c.concept for c in candidates if not c.matched_iv] == oov
    assert all(isinstance(args[0], ConceptCandidate) for args in resolved)
    assert len(oov) >= 2 and encoded == oov
    assert all(args[0] is idx for args in searched)
    assert [args[1] for args in searched] == [engine.encode_concept(c) for c in oov]
    # once the instance attribute is gone, the class's method answers again
    assert encoded == oov
    monkeypatch.undo()
    assert normalize_sentence("gud mornin c u 2morrow lol", lexicon, idx, engine, cfg) == out


def test_sentence_polarity_calls_the_names_a_tracer_rebinds(monkeypatch, lexicon):
    """``sentence_polarity`` resolves its candidates in its own loop, with no
    call per candidate, but the benchmark's tracer still sees its extraction
    through the module global ``extract_concepts`` and every resolution-memo
    miss through the module global ``top_k`` and the engine's instance
    ``encode_concept``; a memo hit reaches neither."""
    engine = G2PEngine(dict(default_engine().exceptions), default_engine().rules)
    idx = build_index(lexicon)
    cfg = PipelineConfig()
    sentences = ["gud mornin c u 2morrow lol", "i wil kil u", "gud hapy gud l0l"]
    extracted, searched, encoded = [], [], []
    original_extract, original_top_k = pipeline.extract_concepts, pipeline.top_k

    def extract_spy(*args, **kwargs):
        extracted.append((args, original_extract(*args, **kwargs)))
        return extracted[-1][1]

    def top_k_spy(*args, **kwargs):
        searched.append(args)
        return original_top_k(*args, **kwargs)

    def encode_spy(surface):
        encoded.append(surface)
        return G2PEngine.encode_concept(engine, surface)

    monkeypatch.setattr(pipeline, "extract_concepts", extract_spy)
    monkeypatch.setattr(pipeline, "top_k", top_k_spy)
    engine.encode_concept = encode_spy
    first = [sentence_polarity(s, lexicon, idx, engine, cfg) for s in sentences]
    assert [args for args, _ in extracted] == [(oov_gate.tokenize(s), lexicon) for s in sentences]
    assert all(args[1] is lexicon for args, _ in extracted)
    oov = [c.concept for _, candidates in extracted for c in candidates if not c.matched_iv]
    misses = list(dict.fromkeys(oov))  # first occurrences, in candidate order
    assert len(misses) >= 5 and len(misses) < len(oov)
    assert encoded == misses
    assert all(args[0] is idx for args in searched)
    assert [args[1] for args in searched] == [G2PEngine.encode_concept(engine, c) for c in misses]
    # a second pass extracts again and finds every OOV concept in the memo
    for calls in (extracted, searched, encoded):
        calls.clear()
    assert [sentence_polarity(s, lexicon, idx, engine, cfg) for s in sentences] == first
    assert len(extracted) == len(sentences) and searched == [] and encoded == []


def test_missing_iv_candidate_fails_the_sentence(monkeypatch, lexicon, g2p, index, cfg):
    # sentence_polarity probes surface_map itself, as normalize_concept does
    cand = ConceptCandidate(concept="not_in_lexicon_xyz", span=(0, 1), matched_iv=True)
    monkeypatch.setattr(pipeline, "extract_concepts", lambda tokens, lex: [cand])
    with pytest.raises(MicronormError, match="not_in_lexicon_xyz"):
        sentence_polarity("anything", lexicon, index, g2p, cfg)


@pytest.mark.parametrize("variant", list(DistanceVariant))
def test_sentence_polarity_resolves_as_normalize_concept_does(lexicon, g2p, gate_corpus, suite, variant):
    """``sentence_polarity`` resolves candidates in its own loop and
    ``normalize_concept`` one at a time; every trace must be what
    ``normalize_concept`` gives for each candidate, or the ``not_normalized``
    record for a candidate the gate or ``with_normalization=False`` skips."""
    idx = build_index(lexicon, variant)
    model = train(gate_corpus, kind=LR_KIND, seed=42)
    # the corpora hold no concept G2P cannot encode ("hgh") and, under charset,
    # none whose best match is too far ("vvv")
    texts = [text for text, _ in gate_corpus] + [text for text, _ in suite] + ["hgh vvv x gud"]
    setups = (
        (PipelineConfig(variant=variant), None, True),
        (PipelineConfig(variant=variant, gate_enabled=True), model, True),
        (PipelineConfig(variant=variant), None, False),
    )
    for cfg, gate, with_normalization in setups:
        one_at_a_time = dataclasses.replace(cfg)  # its own resolution memo
        routes = set()
        for text in texts:
            result = sentence_polarity(
                text, lexicon, idx, g2p, cfg, model=gate, with_normalization=with_normalization
            )
            tokens = oov_gate.tokenize(text)
            gated_as = gate.predict(tokens)[0] if gate else pipeline.UNGATED
            normalize = with_normalization and gated_as != IV
            want = tuple(
                normalize_concept(c, lexicon, idx, g2p, one_at_a_time)
                if normalize or c.matched_iv
                else NormalizationOutcome(c.concept, c.span, False, reason="not_normalized")
                for c in extract_concepts(tokens, lexicon)
            )
            assert result.trace == want, text
            assert result.gated_as == gated_as
            values = [o.polarity_value for o in want if o.accepted]
            assert result.score == (sum(values) / len(values) if values else 0.0)
            routes |= {o.reason for o in result.trace}
        if with_normalization:
            assert routes >= SEARCH_REASONS | {"iv", "encoding_error"}
        assert ("not_normalized" in routes) == (gate is not None or not with_normalization)


def test_sentence_result_equals_one_built_by_its_init(lexicon, g2p, index, cfg):
    # sentence_polarity fills the frozen instance's __dict__ without __init__
    result = sentence_polarity("m so hapy but i wil kil u", lexicon, index, g2p, cfg)
    built = SentencePolarity(result.label, result.score, result.trace, result.gated_as)
    assert result == built and hash(result) == hash(built) and repr(result) == repr(built)
    assert list(vars(result)) == [f.name for f in dataclasses.fields(SentencePolarity)]
    assert pickle.loads(pickle.dumps(result)) == result and copy.copy(result) == result


_WORDS = ["gud", "hapy", "c", "u", "2morrow", "don't", "a", "little", "naïve", "café",
          "ｇｒ８", "😀", "İ", "ﬁne", "NOT", "bad", "good_morning", "l0l"]
_SENTENCES = st.one_of(
    st.text(max_size=40),
    st.lists(st.one_of(st.sampled_from(_WORDS), st.text(max_size=6)), max_size=8).map(" ".join),
)


@settings(max_examples=150, deadline=None)
@given(sentence=_SENTENCES)
def test_any_unicode_sentence_has_one_answer(lexicon, g2p, index, sentence):
    cfg = PipelineConfig()
    first = sentence_polarity(sentence, lexicon, index, g2p, cfg)
    assert sentence_polarity(sentence, lexicon, index, g2p, cfg) == first
    once = normalize_sentence(sentence, lexicon, index, g2p, cfg)
    assert normalize_sentence(sentence, lexicon, index, g2p, cfg) == once
    assert normalize_sentence(once, lexicon, index, g2p, cfg) == once


def test_sentence_polarity_positive(lexicon, g2p, index, cfg):
    result = sentence_polarity("m so hapy", lexicon, index, g2p, cfg)
    assert result.label == "Positive"
    assert result.score > 0.0
    assert result.gated_as == "Ungated"


def test_only_stopwords_neutral(lexicon, g2p, index, cfg):
    result = sentence_polarity("it is the", lexicon, index, g2p, cfg)
    assert result.label == "Neutral"
    assert result.score == 0.0
    assert result.trace == ()


def test_showcase_sentence_labels(lexicon, g2p, index, cfg):
    rows = [
        ("i wil kil u", "Negative"),
        ("m so hapy", "Positive"),
        ("i dnt lyk reading", "Negative"),
        ("it is awesum 2 ride byk", "Positive"),
    ]
    for text, expected in rows:
        after = sentence_polarity(text, lexicon, index, g2p, cfg)
        assert after.label == expected, text


def test_eval_polarity_delta_on_suite(suite, lexicon, g2p, index, cfg):
    report = eval_polarity(suite, lexicon, index, g2p, cfg)
    assert report["accuracy_after"] >= report["accuracy_before"]
    assert report["delta"] >= 0.15
    assert len(report["rows"]) == len(suite)


def test_eval_polarity_rejects_unknown_gold(lexicon, g2p, index, cfg):
    with pytest.raises(MicronormError):
        eval_polarity([("hello", "Mixed")], lexicon, index, g2p, cfg)


def test_gate_skips_iv_sentences(lexicon, g2p, index, gate_corpus):
    cfg = PipelineConfig(gate_enabled=True)
    model = train(gate_corpus, kind=NB_KIND, seed=42)
    clean = "i am so happy today"
    result = sentence_polarity(clean, lexicon, index, g2p, cfg, model=model)
    assert result.gated_as == "IV"
    assert _searches(result.trace) == 0


def test_gate_reduces_searches_with_same_outputs(lexicon, g2p, index, gate_corpus):
    model = train(gate_corpus, kind=NB_KIND, seed=42)
    gated_cfg = PipelineConfig(gate_enabled=True)
    plain_cfg = PipelineConfig(gate_enabled=False)
    texts = [text for text, _ in gate_corpus[:120]]
    gated = plain = 0
    for text in texts:
        g = sentence_polarity(text, lexicon, index, g2p, gated_cfg, model=model)
        p = sentence_polarity(text, lexicon, index, g2p, plain_cfg)
        gated += _searches(g.trace)
        plain += _searches(p.trace)
        if g.gated_as == "OOV":
            # the gate must not change what normalization produces
            assert g.label == p.label and g.score == p.score
    assert gated < plain


def test_gated_sentence_tokenized_once(monkeypatch, lexicon, g2p, index, gate_corpus):
    model = train(gate_corpus, kind=LR_KIND, seed=42)
    cfg = PipelineConfig(gate_enabled=True)
    calls = []
    original = oov_gate.tokenize

    def counting(text):
        calls.append(text)
        return original(text)

    for module in (oov_gate, concepts, pipeline):
        monkeypatch.setattr(module, "tokenize", counting)
    for text, _ in gate_corpus[:40]:
        calls.clear()
        sentence_polarity(text, lexicon, index, g2p, cfg, model=model)
        assert calls == [text]


def test_trace_spans_match_extraction(lexicon, g2p, index, cfg):
    sentence = "i dnt lyk reading"
    result = sentence_polarity(sentence, lexicon, index, g2p, cfg)
    spans = [o.span for o in result.trace]
    assert spans == [c.span for c in extract_concepts(sentence, lexicon)]


@pytest.mark.parametrize(
    "concept,matched_iv,settings,reason",
    [
        ("good", True, {}, "iv"),
        ("gud", False, {}, "accepted"),
        # the best match for "gud" is "good" at 0.333
        ("gud", False, {"accept_distance": 0.1}, "above_accept_distance"),
        # no entry is at distance 0 from "gud"
        ("gud", False, {"accept_distance": 0.0, "min_sim": 1.0}, "no_candidate"),
        ("caf\u00e9", False, {}, "encoding_error"),
    ],
)
def test_outcome_reason(lexicon, g2p, index, concept, matched_iv, settings, reason):
    cand = ConceptCandidate(concept=concept, span=(0, 1), matched_iv=matched_iv)
    out = normalize_concept(cand, lexicon, index, g2p, PipelineConfig(**settings))
    assert out.reason == reason
    assert out.accepted == (reason in ("iv", "accepted"))
    assert (out.error is not None) == (reason == "encoding_error")


def test_reason_not_normalized_when_gated_iv(lexicon, g2p, index):
    class AlwaysIV:
        def predict(self, text):
            return IV, 1.0

    cfg = PipelineConfig(gate_enabled=True)
    result = sentence_polarity("good morning hapy", lexicon, index, g2p, cfg, model=AlwaysIV())
    assert result.gated_as == IV
    assert [o.reason for o in result.trace] == ["iv", "not_normalized"]


_NOT_ACCEPTED = {"accepted": False, "matched": None, "distance": None, "polarity_value": None, "error": None}
_GOOD = {"accepted": True, "matched": "good", "polarity_value": 0.9, "error": None}


@pytest.mark.parametrize(
    "concept,matched_iv,settings,fields",
    [
        ("good", True, {}, {**_GOOD, "distance": 0.0, "reason": "iv"}),
        # the Dice distance from "gud" to "good" is 1 - 4/6
        ("gud", False, {}, {**_GOOD, "distance": 1 - 4 / 6, "reason": "accepted"}),
        ("gud", False, {"accept_distance": 0.1}, {**_NOT_ACCEPTED, "reason": "above_accept_distance"}),
        ("gud", False, {"accept_distance": 0.0, "min_sim": 1.0}, {**_NOT_ACCEPTED, "reason": "no_candidate"}),
        (
            "caf\u00e9",
            False,
            {},
            {
                **_NOT_ACCEPTED,
                "error": "token 'caf\u00e9' has characters outside [a-z0-9-]",
                "reason": "encoding_error",
            },
        ),
    ],
)
def test_outcome_fields_by_name(lexicon, g2p, index, concept, matched_iv, settings, fields):
    # outcomes are built positionally; comparing by name catches a field-order slip
    # that equality with another positional tuple would not
    cand = ConceptCandidate(concept=concept, span=(3, 4), matched_iv=matched_iv)
    out = normalize_concept(cand, lexicon, index, g2p, PipelineConfig(**settings))
    assert out._asdict() == {"original": concept, "span": (3, 4), **fields}


def test_not_normalized_outcome_fields_by_name(lexicon, g2p, index):
    class AlwaysIV:
        def predict(self, text):
            return IV, 1.0

    cfg = PipelineConfig(gate_enabled=True)
    result = sentence_polarity("good morning hapy", lexicon, index, g2p, cfg, model=AlwaysIV())
    iv = {"accepted": True, "matched": "good_morning", "distance": 0.0, "polarity_value": 0.5, "error": None}
    assert [o._asdict() for o in result.trace] == [
        {"original": "good_morning", "span": (0, 2), **iv, "reason": "iv"},
        {"original": "hapy", "span": (2, 3), **_NOT_ACCEPTED, "reason": "not_normalized"},
    ]


def test_outcome_is_an_immutable_value():
    a = NormalizationOutcome(original="gud", span=(0, 1), accepted=True, matched="good")
    with pytest.raises(AttributeError):
        a.accepted = False
    b = NormalizationOutcome("gud", (0, 1), True, "good")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != NormalizationOutcome(original="gud", span=(0, 1), accepted=False)
    assert NormalizationOutcome._fields == (
        "original",
        "span",
        "accepted",
        "matched",
        "distance",
        "polarity_value",
        "error",
        "reason",
    )
    assert a[4:] == (None, None, None, None)


def test_sentence_result_stays_a_dataclass(lexicon, g2p, index, cfg):
    result = sentence_polarity("m so hapy", lexicon, index, g2p, cfg)
    assert dataclasses.is_dataclass(SentencePolarity)
    flipped = dataclasses.replace(result, label="Negative")
    assert (flipped.label, flipped.trace) == ("Negative", result.trace)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.label = "Negative"
