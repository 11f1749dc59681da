"""End-to-end polarity pipeline: gate, extract, normalize, average.

A sentence is optionally gated by the OOV/IV classifier.  Concepts are
extracted against the lexicon; out-of-vocabulary candidates are G2P
encoded and matched phonetically, and a match is accepted when its
Dice distance stays within the acceptance threshold.  Sentence
polarity is the arithmetic mean of the accepted concepts' polarity
values, labeled by sign (zero is Neutral); unaccepted concepts
contribute nothing.

Each candidate's resolution is a ``NormalizationOutcome`` named tuple,
built positionally (its field order is part of the contract), which also
records why it was or was not accepted.  ``sentence_polarity`` resolves
all of a sentence's candidates in one loop, with no call per candidate;
``normalize_concept`` stays the one-candidate path, which
``normalize_sentence`` takes, and the two resolve alike.  The sentence
result stays a frozen dataclass (``SentencePolarity``), but
``sentence_polarity`` builds it with ``object.__new__`` and one update
of its ``__dict__``, in field order, rather than through the generated
``__init__`` and its one ``object.__setattr__`` per field.

Microtext repeats its shorthand, so each ``PipelineConfig`` memoizes how
an OOV concept resolves under it in ``memo``, an ``lru_cache`` of
``MEMO_SIZE`` resolutions keyed by (concept, index, engine), with the
config's ``k``, ``min_sim`` and ``accept_distance`` bound in.  It stores
(accepted, entry id, distance, error, reason), so a hit reads the
entry's concept and polarity from the lexicon passed in, as a miss does.
A miss still calls the engine's ``encode_concept`` and this module's
``top_k``, which keeps the index's own memo.  The memo is no dataclass
field: it stays out of the config's ``repr``, equality and hash, and
``dataclasses.replace`` gives the new config a fresh one.  It holds the
index and engine of its keys while the config lives, and neither refers
back to the config, so reference counting frees all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

from .concepts import ConceptCandidate, extract_concepts, substituted_tokens
from .errors import ConfigError, EncodingError, MicronormError
from .g2p import G2PEngine
from .lexicon import PhonLexicon, polarity_label
from .match_index import MatchIndex, top_k
from .memo import MEMO_SIZE
from .oov_gate import IV, GateModel, tokenize
from .similarity import DistanceVariant

UNGATED = "Ungated"


@dataclass(frozen=True)
class PipelineConfig:
    accept_distance: float = 0.45
    k: int = 5
    variant: DistanceVariant = DistanceVariant.CHAR_SET
    gate_enabled: bool = False
    min_sim: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.accept_distance <= 1.0:
            raise ConfigError("accept_distance must be in [0, 1]")
        if not 0.0 <= self.min_sim <= 1.0:
            raise ConfigError("min_sim must be in [0, 1]")
        if self.accept_distance > 1.0 - self.min_sim + 1e-12:
            raise ConfigError(
                f"accept_distance {self.accept_distance} exceeds the search ceiling "
                f"1 - min_sim = {1.0 - self.min_sim}; matches would be cut off"
            )
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        # (concept, idx, g2p) -> resolution; see the module docstring
        memo = lru_cache(MEMO_SIZE)(partial(_resolve, self.k, self.min_sim, self.accept_distance))
        object.__setattr__(self, "memo", memo)


class NormalizationOutcome(NamedTuple):
    """How one candidate was resolved.

    ``reason`` says why: ``iv`` (an in-vocabulary candidate), ``accepted``
    (a phonetic match within ``accept_distance``), ``above_accept_distance``
    (the best match is too far), ``no_candidate`` (no entry within
    ``1 - min_sim``), ``encoding_error`` (G2P failed; see ``error``) or
    ``not_normalized`` (the gate routed the sentence as IV, or
    normalization was off).  It is None only on records built by hand.
    """

    original: str
    span: tuple[int, int]
    accepted: bool
    matched: str | None = None
    distance: float | None = None
    polarity_value: float | None = None
    error: str | None = None
    reason: str | None = None


# builds a record from all its fields, in declared order, with no keyword parsing
_new = tuple.__new__

# the reasons given only after a phonetic search: counting them over a
# trace counts the searches
SEARCH_REASONS = frozenset({"accepted", "above_accept_distance", "no_candidate"})


@dataclass(frozen=True)
class SentencePolarity:
    label: str
    score: float
    trace: tuple[NormalizationOutcome, ...]
    gated_as: str


def normalize_concept(
    candidate: ConceptCandidate,
    lex: PhonLexicon,
    idx: MatchIndex,
    g2p: G2PEngine,
    cfg: PipelineConfig,
) -> NormalizationOutcome:
    """Resolve one candidate to a lexicon concept and polarity.

    An OOV candidate is resolved through ``cfg.memo``, keyed by (concept,
    ``idx``, ``g2p``): a repeated concept costs one probe, and a miss calls
    ``g2p.encode_concept`` and ``top_k``, through the index's memo.
    """
    concept, span, matched_iv = candidate
    if matched_iv:
        entry_id = lex.surface_map.get(concept)
        if entry_id is None:
            raise MicronormError(f"IV candidate {concept!r} missing from lexicon")
        entry = lex.entries[entry_id]
        return _new(
            NormalizationOutcome,
            (concept, span, True, entry.concept, 0.0, entry.polarity_value, None, "iv"),
        )
    accepted, entry_id, distance, error, reason = cfg.memo(concept, idx, g2p)
    if accepted:
        entry = lex.entries[entry_id]
        return _new(
            NormalizationOutcome,
            (concept, span, True, entry.concept, distance, entry.polarity_value, None, reason),
        )
    return _new(NormalizationOutcome, (concept, span, False, None, None, None, error, reason))


def _resolve(
    k: int, min_sim: float, accept_distance: float, concept: str, idx: MatchIndex, g2p: G2PEngine
) -> tuple[bool, int | None, float | None, str | None, str]:
    """How an OOV concept resolves: (accepted, entry id, distance, error, reason)."""
    # both names are looked up at call time, so a tracer that rebinds them sees every miss
    try:
        query = g2p.encode_concept(concept)
    except EncodingError as exc:
        return False, None, None, str(exc), "encoding_error"
    matches = top_k(idx, query, k=k, min_sim=min_sim)
    if matches and matches[0].distance <= accept_distance:
        best = matches[0]
        return True, best.entry_id, best.distance, None, "accepted"
    return False, None, None, None, "above_accept_distance" if matches else "no_candidate"


def sentence_polarity(
    sentence: str,
    lex: PhonLexicon,
    idx: MatchIndex,
    g2p: G2PEngine,
    cfg: PipelineConfig,
    model: GateModel | None = None,
    with_normalization: bool = True,
) -> SentencePolarity:
    """Score a sentence by averaging its accepted concepts' polarities.

    Resolves each candidate as ``normalize_concept`` does, in one loop: an
    IV candidate by one ``surface_map`` probe, an OOV one by one
    ``cfg.memo`` probe (a miss calls ``g2p.encode_concept`` and ``top_k``).
    """
    # one token pass serves both the gate and extraction
    tokens = tokenize(sentence)
    gated_as = UNGATED
    if cfg.gate_enabled and model is not None:
        gated_as, _ = model.predict(tokens)
    normalize = with_normalization and gated_as != IV
    surface_map, entries, memo, new = lex.surface_map, lex.entries, cfg.memo, _new
    trace, values = [], []
    for concept, span, matched_iv in extract_concepts(tokens, lex):
        if matched_iv:
            entry_id = surface_map.get(concept)
            if entry_id is None:
                raise MicronormError(f"IV candidate {concept!r} missing from lexicon")
            entry = entries[entry_id]
            value = entry.polarity_value
            trace.append(
                new(NormalizationOutcome, (concept, span, True, entry.concept, 0.0, value, None, "iv"))
            )
            values.append(value)
        elif normalize:
            accepted, entry_id, distance, error, reason = memo(concept, idx, g2p)
            if accepted:
                entry = entries[entry_id]
                value = entry.polarity_value
                trace.append(
                    new(
                        NormalizationOutcome,
                        (concept, span, True, entry.concept, distance, value, None, reason),
                    )
                )
                values.append(value)
            else:
                trace.append(
                    new(NormalizationOutcome, (concept, span, False, None, None, None, error, reason))
                )
        else:
            trace.append(
                new(
                    NormalizationOutcome,
                    (concept, span, False, None, None, None, None, "not_normalized"),
                )
            )
    # sum() over a list, not a running total: from Python 3.12 sum() of floats
    # is compensated, so the two can differ in the last bit
    score = sum(values) / len(values) if values else 0.0
    # the generated __init__ of a frozen dataclass sets each field through
    # object.__setattr__; filling __dict__ in field order gives the same object
    result = object.__new__(SentencePolarity)
    result.__dict__.update(
        label=polarity_label(score), score=score, trace=tuple(trace), gated_as=gated_as
    )
    return result


def normalize_sentence(
    sentence: str,
    lex: PhonLexicon,
    idx: MatchIndex,
    g2p: G2PEngine,
    cfg: PipelineConfig,
) -> str:
    """Rewrite accepted concept spans with their matched surface forms."""
    # extraction goes through extract_concepts, as in sentence_polarity, so a
    # tracer that rebinds that name sees it on both paths
    raw = tokenize(sentence)
    outcomes = [normalize_concept(c, lex, idx, g2p, cfg) for c in extract_concepts(raw, lex)]
    out = substituted_tokens(raw)
    # right to left, so each span's offsets still hold when it is spliced
    for o in reversed(outcomes):
        if o.accepted:
            start, end = o.span
            out[start:end] = [o.matched.replace("_", " ")]
    return " ".join(out)


def eval_polarity(
    corpus: list[tuple[str, str]],
    lex: PhonLexicon,
    idx: MatchIndex,
    g2p: G2PEngine,
    cfg: PipelineConfig,
    model: GateModel | None = None,
) -> dict:
    """Before/after normalization accuracy over a gold-labeled corpus."""
    valid = {"Positive", "Negative", "Neutral"}
    rows = []
    correct_before = correct_after = 0
    for text, gold in corpus:
        if gold not in valid:
            raise MicronormError(f"unknown gold label {gold!r} for record {text!r}")
        before = sentence_polarity(
            text, lex, idx, g2p, cfg, model=model, with_normalization=False
        )
        after = sentence_polarity(text, lex, idx, g2p, cfg, model=model)
        correct_before += before.label == gold
        correct_after += after.label == gold
        rows.append(
            {
                "text": text,
                "gold": gold,
                "before": before.label,
                "after": after.label,
                "score_after": after.score,
                "trace": [
                    {
                        "original": o.original,
                        "matched": o.matched,
                        "distance": o.distance,
                        "accepted": o.accepted,
                    }
                    for o in after.trace
                ],
            }
        )
    n = len(corpus)
    acc_before = correct_before / n if n else 0.0
    acc_after = correct_after / n if n else 0.0
    return {
        "accuracy_before": acc_before,
        "accuracy_after": acc_after,
        "delta": acc_after - acc_before,
        "rows": rows,
    }
