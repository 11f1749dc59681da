import random
import string

import pytest
from hypothesis import given, strategies as st

from micronorm.errors import SimilarityError
from micronorm.g2p import default_engine
from micronorm.lexicon import compile_lexicon
from micronorm.similarity import (
    DistanceVariant,
    MatchResult,
    closest_match_scan,
    dice_distance,
    symbol_set,
)

HAND_DERIVED = [
    ("apple", "appl", 0.143),
    ("sucks", "sux", 0.429),
    ("good", "gud", 0.333),
    ("a_little", "a_lil", 0.200),
]


@pytest.mark.parametrize("a,b,expected", HAND_DERIVED)
def test_hand_derived_distances(a, b, expected):
    assert dice_distance(a, b) == pytest.approx(expected, abs=1e-3)


def test_identity():
    for s in ("x", "apple", "æ_lItæl"):
        assert dice_distance(s, s) == 0.0


def test_metric_axioms_10k_random_pairs():
    rng = random.Random(99)
    alphabet = string.ascii_lowercase + "_æ@IOUVNSTZ"
    for _ in range(10_000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        d_ab = dice_distance(a, b)
        assert 0.0 <= d_ab <= 1.0
        assert d_ab == dice_distance(b, a)
        assert dice_distance(a, a) == 0.0
        if d_ab == 1.0:
            assert not (set(a) & set(b))


@given(st.text(alphabet="abcdef_", min_size=1, max_size=10),
       st.text(alphabet="abcdef_", min_size=1, max_size=10))
def test_symmetry_and_range_property(a, b):
    d = dice_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert d == dice_distance(b, a)


@given(st.text(alphabet="abc", min_size=1, max_size=8))
def test_charset_invariant_under_permutation_and_duplication(s):
    shuffled = "".join(sorted(s))
    assert dice_distance(s, shuffled) == 0.0
    assert dice_distance(s, s + s) == 0.0


def test_empty_input_rejected():
    with pytest.raises(SimilarityError):
        dice_distance("", "a")
    with pytest.raises(SimilarityError):
        dice_distance("a", "")


def test_underscore_is_ordinary_symbol():
    assert "_" in symbol_set("a_b")
    assert dice_distance("a_b", "ab") > 0.0


def test_bigram_variant():
    # "good" bigrams {go,oo,od}; "gud" bigrams {gu,ud}; no overlap.
    assert dice_distance("good", "gud", DistanceVariant.BIGRAM) == 1.0
    # length-1 operand falls back to charset for that pair
    assert dice_distance("a", "ab", DistanceVariant.BIGRAM) == pytest.approx(1 - 2 * 1 / 3)


def test_bigram_respects_order():
    assert dice_distance("ab", "ba", DistanceVariant.BIGRAM) == 1.0
    assert dice_distance("ab", "ba", DistanceVariant.CHAR_SET) == 0.0


def test_scan_gud_small_lexicon():
    g2p = default_engine()
    lex = compile_lexicon([("good", 0.9), ("bad", -0.8), ("tomorrow", 0.0)], g2p)
    results = closest_match_scan(g2p.encode_token("gud"), lex, k=3)
    assert results[0].concept == "good"
    assert results[0].distance == pytest.approx(0.333, abs=1e-3)


def test_scan_exact_hit_is_rank_one(lexicon):
    entry = lexicon.entries[17]
    results = closest_match_scan(entry.ipa, lexicon, k=1)
    assert results[0].distance == 0.0
    assert lexicon.entries[results[0].entry_id].ipa == entry.ipa


def test_scan_b4_before():
    g2p = default_engine()
    lex = compile_lexicon([("before", 0.0), ("after", 0.0), ("lunch", 0.0)], g2p)
    results = closest_match_scan(g2p.encode_token("b4"), lex, k=1)
    assert results[0].concept == "before"
    assert results[0].distance == pytest.approx(0.111, abs=1e-3)


def test_scan_prefix_consistency(lexicon):
    g2p = default_engine()
    q = g2p.encode_token("gud")
    top5 = closest_match_scan(q, lexicon, k=5)
    top6 = closest_match_scan(q, lexicon, k=6)
    assert top6[:5] == top5


def test_scan_sorted_by_distance_then_id(lexicon):
    q = default_engine().encode_token("hapy")
    results = closest_match_scan(q, lexicon, k=50)
    assert results == sorted(results, key=lambda m: (m.distance, m.entry_id))


def test_scan_rejects_bad_k(lexicon):
    with pytest.raises(SimilarityError):
        closest_match_scan("gVd", lexicon, k=0)


def test_match_result_is_an_immutable_value():
    a = MatchResult(entry_id=3, concept="good", distance=0.25)
    with pytest.raises(AttributeError):
        a.distance = 0.0
    b = MatchResult(3, "good", 0.25)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != MatchResult(entry_id=4, concept="good", distance=0.25)
    assert MatchResult._fields == ("entry_id", "concept", "distance")
