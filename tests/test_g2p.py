import gc
import weakref

import pytest

from micronorm.errors import EncodingError
from micronorm.g2p import (
    G2PEngine,
    default_engine,
    load_exceptions,
    load_rules,
    parse_rules,
    squeeze_repeats,
)
from micronorm.memo import MEMO_SIZE
from micronorm.resources import data_path


def _fresh_engine() -> G2PEngine:
    return G2PEngine(
        load_exceptions(data_path("g2p_exceptions.tsv")), load_rules(data_path("g2p_rules.txt"))
    )

GOLDEN_IPA = {
    "a_little": "æ_lItæl",
    "abandon": "æb@ndæn",
    "absolutely_fantastic": "@bs@lutlI_f@nt@stIk",
}


@pytest.mark.parametrize("concept,ipa", sorted(GOLDEN_IPA.items()))
def test_golden_ipa(g2p, concept, ipa):
    assert g2p.encode_concept(concept) == ipa


def test_determinism_three_runs(g2p):
    for concept, ipa in GOLDEN_IPA.items():
        results = {g2p.encode_concept(concept) for _ in range(3)}
        assert results == {ipa}
    # A fresh engine built from the same files agrees too.
    default_engine.cache_clear()
    fresh = default_engine()
    for concept, ipa in GOLDEN_IPA.items():
        assert fresh.encode_concept(concept) == ipa


def test_squeeze_repeats():
    assert squeeze_repeats("goooooood") == "good"
    assert squeeze_repeats("good") == "good"
    assert squeeze_repeats("sooo") == "soo"


def test_squeeze_idempotent():
    import random

    rng = random.Random(7)
    for _ in range(200):
        s = "".join(rng.choice("abco") for _ in range(rng.randint(1, 12)))
        once = squeeze_repeats(s)
        assert squeeze_repeats(once) == once


def test_digit_expansion(g2p):
    assert g2p.encode_token("b4") == "bfOr"
    assert g2p.encode_token("gr8") == "gret"
    assert g2p.encode_token("2moro") == "tumOro"


def test_digit_map_all_digits(g2p):
    spoken = {
        "0": "zIro", "1": "wVn", "2": "tu", "3": "Tri", "4": "fOr",
        "5": "faIv", "6": "sIks", "7": "sEv@n", "8": "et", "9": "naIn",
    }
    for digit, ipa in spoken.items():
        assert g2p.encode_token(digit) == ipa


def test_exceptions_take_precedence():
    rules = parse_rules("|a| -> X\n|b| -> Y\n")
    engine = G2PEngine({"ab": "ZZ"}, rules)
    assert engine.encode_token("ab") == "ZZ"
    assert engine.encode_token("ba") == "YX"


def test_exception_dictionary_round_trips(g2p):
    # Every dictionary entry is returned verbatim (lookup bypasses rules).
    sample = list(g2p.exceptions.items())[:300]
    for token, ipa in sample:
        assert g2p.encode_token(token) == ipa


def test_rules_total_over_letters(g2p):
    import random

    rng = random.Random(11)
    for _ in range(300):
        token = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(1, 10)))
        assert g2p.encode_token(token)


def test_concept_segments_align(g2p):
    out = g2p.encode_concept("b4_lunch")
    segments = out.split("_")
    assert len(segments) == 2
    assert segments[0] == g2p.encode_token("b4")


def test_invalid_characters_rejected(g2p):
    for bad in ("", "café", "a b", "x!"):
        with pytest.raises(EncodingError):
            g2p.encode_token(bad)


def test_hyphen_treated_as_token_break(g2p):
    assert g2p.encode_token("narrow-minded") == g2p.encode_token("narrowminded") or g2p.encode_token("narrow-minded")


def test_uppercase_folded(g2p):
    assert g2p.encode_token("GOOD") == g2p.encode_token("good")


def test_rule_file_size(g2p):
    # The bundled cascade is a real rule set, not a stub.
    assert len(g2p.rules) >= 150
    assert len(g2p.exceptions) >= 2000


def test_comment_and_blank_lines_in_rules():
    rules = parse_rules("# comment\n\n|a| -> æ\n")
    assert len(rules) == 1


def test_tables_read_only(g2p):
    with pytest.raises(TypeError):
        g2p.exceptions["gud"] = "gUd"
    with pytest.raises(TypeError):
        g2p.rules[0] = g2p.rules[1]
    with pytest.raises(TypeError):
        g2p.digit_map["4"] = "for"


def test_tables_copied_from_the_callers():
    exceptions = {"ab": "ZZ"}
    rules = parse_rules("|a| -> X\n|b| -> Y\n")
    engine = G2PEngine(exceptions, rules)
    assert engine.encode_concept("ab_ba") == "ZZ_YX"
    exceptions["ab"] = "QQ"
    rules.clear()
    assert engine.encode_concept("ab_ba") == "ZZ_YX"
    assert engine.encode_concept("ba_ab") == "YX_ZZ"


def test_repeated_concept_memoized():
    engine = _fresh_engine()
    first = engine.encode_concept("b4_lunch")
    assert engine.memo["b4_lunch"] == first
    assert engine.encode_concept("b4_lunch") == first
    assert len(engine.memo) == 1


def test_encoding_error_raised_every_call():
    engine = _fresh_engine()
    for _ in range(3):
        with pytest.raises(EncodingError):
            engine.encode_concept("gud_café")
    assert len(engine.memo) == 0


def test_memo_bounded(lexicon):
    engine = _fresh_engine()
    concepts = [e.concept for e in lexicon.entries[: MEMO_SIZE + 50]]
    for concept in concepts:
        engine.encode_concept(concept)
    assert len(engine.memo) == MEMO_SIZE
    assert concepts[0] not in engine.memo
    assert concepts[-1] in engine.memo


def test_engine_freed_without_gc():
    gc.disable()  # only reference counting may free it
    try:
        engine = _fresh_engine()
        engine.encode_concept("gr8_day")
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()
