"""``sentence_polarity`` and ``normalize_sentence`` against a plain reading
of the paper's pipeline.

The reference below keeps no memo and builds no record positionally:
tokenize and substitute shorthand, take the greedy longest lexicon match
at each token (stopwords are never OOV candidates), encode each OOV
candidate, take its nearest entry by exhaustive scan, keep it within
``1 - min_sim``, accept it within ``accept_distance``, and average the
accepted polarities; or, to normalize, walk the substituted tokens left
to right and put each accepted match's surface form in place of its
span.  The pipeline under test must agree on the label, the score and
every field of every outcome, and on the rewritten sentence, with its
memos cold (a fresh engine, index and config) and warm (one engine and
index per variant and one config per variant and gate, reused across
examples, run twice), so that resolutions memoized for earlier examples
are checked too.
"""

import functools
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from micronorm.concepts import default_stopwords, default_substitutions
from micronorm.errors import EncodingError
from micronorm.g2p import G2PEngine, default_engine
from micronorm.lexicon import polarity_label
from micronorm.match_index import build_index
from micronorm.oov_gate import IV, LR_KIND, load_labeled_corpus, tokenize, train
from micronorm.pipeline import (
    UNGATED,
    NormalizationOutcome,
    PipelineConfig,
    SentencePolarity,
    normalize_sentence,
    sentence_polarity,
)
from micronorm.resources import GATE_CORPUS, data_path, default_lexicon
from micronorm.similarity import DistanceVariant, closest_match_scan

_LEX = default_lexicon()


def _fresh_engine() -> G2PEngine:
    engine = default_engine()
    return G2PEngine(dict(engine.exceptions), engine.rules)


@functools.cache
def _shared_pair(variant):
    return _fresh_engine(), build_index(_LEX, variant)


@functools.cache
def _shared_config(variant, gated):
    return PipelineConfig(variant=variant, gate_enabled=gated)


@functools.cache
def _nearest(query, variant):
    """The scan costs tens of ms, and examples repeat queries."""
    return closest_match_scan(query, _LEX, k=1, variant=variant)[0]


def _reference_extract(tokens):
    stopwords = default_stopwords()
    found, i = [], 0
    while i < len(tokens):
        for n in range(len(tokens) - i, 0, -1):
            key = "_".join(tok.replace("'", "") for tok in tokens[i : i + n])
            if key in _LEX.surface_map:
                found.append((key, (i, i + n), True))
                i += n
                break
        else:
            if tokens[i] not in stopwords:
                found.append((tokens[i].replace("'", ""), (i, i + 1), False))
            i += 1
    return found


def _reference_resolve(concept, span, variant, cfg):
    try:
        query = default_engine().encode_concept(concept)
    except EncodingError as exc:
        return NormalizationOutcome(concept, span, False, error=str(exc), reason="encoding_error")
    best = _nearest(query, variant)
    if best.distance > 1.0 - cfg.min_sim:
        return NormalizationOutcome(concept, span, False, reason="no_candidate")
    if best.distance > cfg.accept_distance:
        return NormalizationOutcome(concept, span, False, reason="above_accept_distance")
    entry = _LEX.entries[best.entry_id]
    return NormalizationOutcome(
        concept, span, True, matched=entry.concept, distance=best.distance,
        polarity_value=entry.polarity_value, reason="accepted",
    )


def _reference_tokens(sentence):
    substitutions = default_substitutions()
    return [substitutions.get(tok, tok) for tok in tokenize(sentence)]


def _reference_trace(tokens, variant, cfg, gated_as=UNGATED):
    trace = []
    for concept, span, iv in _reference_extract(tokens):
        if iv:
            entry = _LEX.entries[_LEX.surface_map[concept]]
            trace.append(NormalizationOutcome(
                concept, span, True, matched=entry.concept, distance=0.0,
                polarity_value=entry.polarity_value, reason="iv",
            ))
        elif gated_as == IV:
            trace.append(NormalizationOutcome(concept, span, False, reason="not_normalized"))
        else:
            trace.append(_reference_resolve(concept, span, variant, cfg))
    return trace


def _reference_polarity(sentence, variant, cfg, model=None):
    gated_as = UNGATED if model is None else model.predict(sentence)[0]
    trace = _reference_trace(_reference_tokens(sentence), variant, cfg, gated_as)
    accepted = [o.polarity_value for o in trace if o.accepted]
    score = sum(accepted) / len(accepted) if accepted else 0.0
    return SentencePolarity(polarity_label(score), score, tuple(trace), gated_as)


_WORDS = sorted({w for e in _LEX.entries for w in e.concept.split("_")})
_PHRASES = sorted(e.concept.replace("_", " ") for e in _LEX.entries if "_" in e.concept)
# microtext, plus "x" (no entry within 1 - min_sim under either variant)
# and "hgh" (every letter silent, an encoding error)
_ODD = ["gud", "gr8", "2morrow", "l0l", "don't", "0", "x", "hgh"]


@st.composite
def _distorted(draw):
    """A lexicon word with one letter replaced, dropped or inserted."""
    word = draw(st.sampled_from(_WORDS))
    i = draw(st.integers(0, len(word)))
    letter = draw(st.sampled_from(string.ascii_lowercase))
    edits = [word[:i] + letter + word[i + 1 :], word[:i] + word[i + 1 :], word[:i] + letter + word[i:]]
    return draw(st.sampled_from(edits))


_SENTENCES = st.lists(
    st.one_of(
        st.sampled_from(_WORDS),
        st.sampled_from(_PHRASES),
        st.sampled_from(sorted(default_stopwords())),
        st.sampled_from(sorted(default_substitutions())),
        st.sampled_from(_ODD),
        _distorted(),
    ),
    max_size=6,
).map(" ".join)


@pytest.fixture(scope="module")
def gate_model():
    return train(load_labeled_corpus(data_path(GATE_CORPUS)), kind=LR_KIND, seed=42)


@pytest.mark.parametrize("variant", list(DistanceVariant))
@settings(max_examples=25, deadline=None)
@given(sentence=_SENTENCES)
@example(sentence="the road is seriously deadly honestly")  # gated as IV, with OOV candidates
def test_pipeline_matches_the_reference(gate_model, variant, sentence):
    for model in (None, gate_model):
        cfg = PipelineConfig(variant=variant, gate_enabled=model is not None)
        want = _reference_polarity(sentence, variant, cfg, model)
        cold = (_fresh_engine(), build_index(_LEX, variant), cfg)
        warm = (*_shared_pair(variant), _shared_config(variant, model is not None))
        for g2p, idx, c in (cold, warm, warm):
            assert sentence_polarity(sentence, _LEX, idx, g2p, c, model=model) == want


def _reference_normalize(sentence, variant, cfg):
    tokens = _reference_tokens(sentence)
    rewrites = {
        o.span[0]: (o.span[1], o.matched.replace("_", " "))
        for o in _reference_trace(tokens, variant, cfg)
        if o.accepted
    }
    out, i = [], 0
    while i < len(tokens):
        if i in rewrites:
            i, text = rewrites[i]
            out.append(text)
        else:
            out.append(tokens[i])
            i += 1
    return " ".join(out)


@pytest.mark.parametrize("variant", list(DistanceVariant))
@settings(max_examples=25, deadline=None)
@given(sentence=_SENTENCES)
@example(sentence="c u 2morrow")  # substitutions kept, one OOV span rewritten
@example(sentence="gud morning absolutely fantastic hapy")  # rewrites on both sides of a two-token concept
def test_normalize_matches_the_reference(variant, sentence):
    cfg = PipelineConfig(variant=variant)
    want = _reference_normalize(sentence, variant, cfg)
    cold = (_fresh_engine(), build_index(_LEX, variant), cfg)
    warm = (*_shared_pair(variant), _shared_config(variant, False))
    for g2p, idx, c in (cold, warm, warm):
        assert normalize_sentence(sentence, _LEX, idx, g2p, c) == want


def test_configs_sharing_index_and_engine_each_match_the_reference():
    # each config memoizes its own resolutions, so one config's accept_distance
    # or min_sim never decides another's outcome for the same concept
    variant = DistanceVariant.CHAR_SET
    g2p, idx = _fresh_engine(), build_index(_LEX, variant)
    configs = [PipelineConfig(), PipelineConfig(accept_distance=0.2), PipelineConfig(accept_distance=0.3, min_sim=0.7)]
    sentences = ["gud mornin", "c u 2morrow hapy", "i wil kil u", "gr8 x hgh", "gud hapy 2morrow"]
    outcomes = set()
    for sentence in sentences * 2:
        for cfg in configs:
            got = sentence_polarity(sentence, _LEX, idx, g2p, cfg)
            assert got == _reference_polarity(sentence, variant, cfg)
            outcomes |= {(o.original, o.reason) for o in got.trace}
    # the configs disagree on some concept, so a memo shared among them would show
    assert {("gud", "accepted"), ("gud", "above_accept_distance")} <= outcomes
