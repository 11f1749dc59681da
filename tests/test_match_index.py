import gc
import itertools
import random
import string
import weakref

import pytest

from micronorm.errors import SimilarityError
from micronorm.g2p import default_engine
from micronorm.lexicon import compile_lexicon
from micronorm.match_index import build_index, top_k
from micronorm.memo import MEMO_SIZE
from micronorm.similarity import DistanceVariant, MatchResult, closest_match_scan, dice_distance


def _random_queries(lexicon, n, seed):
    """Mix of stored encodings, perturbed encodings, and random strings."""
    rng = random.Random(seed)
    alphabet = "iIeEæAOoUuV@pbtdkgfvTDszSZhmnNlrwj_"
    queries = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.4:
            queries.append(rng.choice(lexicon.entries).ipa)
        elif roll < 0.8:
            base = list(rng.choice(lexicon.entries).ipa)
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(len(base))
                base[pos] = rng.choice(alphabet)
            queries.append("".join(base))
        else:
            queries.append(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            )
    return queries


def test_exactness_fuzz_small_grid(lexicon):
    queries = _random_queries(lexicon, 150, seed=5)
    n = len(lexicon.entries)
    for query in queries:
        full = closest_match_scan(query, lexicon, k=n)
        for k in (1, 5, 20):
            for min_sim in (0.0, 0.5, 0.8):
                got = top_k(lexicon.match_index, query, k=k, min_sim=min_sim)
                want = [m for m in full if m.distance <= 1.0 - min_sim][:k]
                assert got == want, (query, k, min_sim)


def test_single_symbol_entry_one_posting():
    # "a" encodes to the single symbol "æ": only queries holding it share
    # anything with the entry, under either variant
    g2p = default_engine()
    for variant in DistanceVariant:
        lex = compile_lexicon([("a", 0.0), ("good", 0.9)], g2p, variant)
        idx = build_index(lex, variant)

        def ranked(query):
            return [(m.entry_id, m.distance) for m in top_k(idx, query, k=2)]

        assert ranked("æ") == [(0, 0.0), (1, 1.0)]
        assert ranked("gUd") == [(1, 0.0), (0, 1.0)]
        assert ranked("gUdæ") == [
            (1, dice_distance("gUdæ", "gUd", variant)),
            (0, dice_distance("gUdæ", "æ", variant)),
        ]


def test_rebuild_identical(lexicon):
    a = build_index(lexicon)
    b = build_index(lexicon)
    for q in _random_queries(lexicon, 50, seed=7):
        assert top_k(a, q, k=5) == top_k(b, q, k=5), q


def test_disjoint_query_empty_with_min_sim(lexicon):
    # 'y' never appears in IPA output (it maps to 'j' or vowels).
    assert top_k(lexicon.match_index, "yy", k=5, min_sim=0.5) == []


def test_min_sim_zero_pads_to_k():
    g2p = default_engine()
    lex = compile_lexicon([("good", 0.9), ("bad", -0.8)], g2p)
    idx = build_index(lex)
    got = top_k(idx, "NN", k=2, min_sim=0.0)  # disjoint from both entries
    assert [m.distance for m in got] == [1.0, 1.0]
    assert [m.entry_id for m in got] == [0, 1]  # id tie-break


def test_results_hold_builtin_types(lexicon):
    # callers pass results straight to JSON output; numpy scalars would leak
    got = top_k(lexicon.match_index, "gVd", k=5, min_sim=0.5)
    assert got and all(
        type(m.entry_id) is int and type(m.distance) is float for m in got
    )


def test_variant_mismatch_rejected(lexicon):
    with pytest.raises(SimilarityError):
        top_k(lexicon.match_index, "gVd", k=1, variant=DistanceVariant.BIGRAM)


def test_invalid_arguments(lexicon):
    idx = lexicon.match_index
    with pytest.raises(SimilarityError):
        top_k(idx, "", k=1)
    with pytest.raises(SimilarityError):
        top_k(idx, "gVd", k=0)
    with pytest.raises(SimilarityError):
        top_k(idx, "gVd", k=1, min_sim=1.5)


def test_bigram_index_exactness():
    g2p = default_engine()
    words = ["good", "gud", "tomorrow", "2moro", "before", "b4", "happy",
             "awesome", "a_little", "kill", "like", "sucks", "a"]
    raw = [(w.replace("4", "four").replace("2", "two"), 0.0) for w in words]
    lex = compile_lexicon(sorted(set(raw)), g2p, DistanceVariant.BIGRAM)
    idx = build_index(lex, DistanceVariant.BIGRAM)
    rng = random.Random(12)
    for _ in range(200):
        q = "".join(rng.choice("gUdVtumAoObIfr@_") for _ in range(rng.randint(1, 8)))
        for min_sim in (0.0, 0.5):
            got = top_k(idx, q, k=3, min_sim=min_sim)
            scored = sorted(
                (dice_distance(q, e.ipa, DistanceVariant.BIGRAM), i)
                for i, e in enumerate(lex.entries)
            )
            want = [(d, i) for d, i in scored if d <= 1.0 - min_sim][:3]
            if min_sim == 0.0:
                want = scored[:3]
            assert [(m.distance, m.entry_id) for m in got] == want, (q, min_sim)


def test_repeated_query_answers_equal(lexicon):
    idx = build_index(lexicon)
    first = top_k(idx, "gVd", k=5, min_sim=0.5)
    assert len(idx.memo) == 1
    assert top_k(idx, "gVd", k=5, min_sim=0.5) == first
    assert first == closest_match_scan("gVd", lexicon, k=5)


def test_returned_list_is_the_callers_own(lexicon):
    idx = build_index(lexicon)
    first = top_k(idx, "gVd", k=5, min_sim=0.5)
    want = list(first)
    first.clear()
    assert top_k(idx, "gVd", k=5, min_sim=0.5) == want


def test_memoized_results_cannot_be_altered_through_a_returned_list(lexicon):
    idx = build_index(lexicon)
    first = top_k(idx, "gVd", k=5, min_sim=0.5)
    want = [(m.entry_id, m.concept, m.distance) for m in first]
    with pytest.raises(AttributeError):
        first[0].distance = 1.0
    first[0] = MatchResult(entry_id=-1, concept="altered", distance=0.0)
    again = top_k(idx, "gVd", k=5, min_sim=0.5)
    assert [(m.entry_id, m.concept, m.distance) for m in again] == want


def test_memo_key_holds_k_and_min_sim(lexicon):
    idx = build_index(lexicon)
    assert len(top_k(idx, "gVd", k=5, min_sim=0.5)) == 5
    assert len(top_k(idx, "gVd", k=2, min_sim=0.5)) == 2
    assert top_k(idx, "gVd", k=5, min_sim=1.0) == []
    assert len(idx.memo) == 3


def test_arguments_checked_before_the_memo(lexicon):
    idx = build_index(lexicon)
    top_k(idx, "gVd", k=5, min_sim=0.5)
    with pytest.raises(SimilarityError):
        top_k(idx, "gVd", k=5, min_sim=0.5, variant=DistanceVariant.BIGRAM)


def test_memo_bounded(lexicon):
    idx = build_index(lexicon)
    queries = sorted({e.ipa for e in lexicon.entries})[: MEMO_SIZE + 50]
    assert len(queries) > MEMO_SIZE
    for q in queries:
        top_k(idx, q, k=1)
    assert len(idx.memo) == MEMO_SIZE
    # the oldest went first; the newest are still there
    assert (queries[0], 1, 0.0) not in idx.memo
    assert (queries[-1], 1, 0.0) in idx.memo


def test_index_freed_without_gc(lexicon):
    gc.disable()  # only reference counting may free it
    try:
        idx = build_index(lexicon, DistanceVariant.BIGRAM)
        top_k(idx, "gVd", k=5, min_sim=0.5)
        ref = weakref.ref(idx)
        del idx
        assert ref() is None
    finally:
        gc.enable()
