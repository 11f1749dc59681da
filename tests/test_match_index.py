import gc
import itertools
import os
import random
import string
import subprocess
import sys
import threading
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import micronorm
from micronorm.errors import SimilarityError
from micronorm.g2p import G2PEngine, default_engine
from micronorm.lexicon import LexiconEntry, PhonLexicon, compile_lexicon
from micronorm.match_index import build_index, top_k
from micronorm.memo import MEMO_SIZE
from micronorm.similarity import DistanceVariant, MatchResult, closest_match_scan, dice_distance, symbol_set


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


# symbols no lexicon encoding holds, to pad a query with unshared symbols
_FRESH = "".join(chr(0x3B1 + i) for i in range(25))


def _floor_queries(lex, variant, min_sims, per_sim, seed):
    """Queries with an entry at distance exactly 1 - min_sim in exact arithmetic.

    A prefix of an entry's encoding shares s of the entry's z symbols;
    appending t fresh characters adds t unshared symbols, so the query
    has s + t, and t is picked so that 2s = min_sim * (s + t + z).
    """
    rng = random.Random(seed)
    entries = list(lex.entries)
    rng.shuffle(entries)
    found = []
    for min_sim in min_sims:
        m = Fraction(str(min_sim))
        hits = 0
        for entry in entries:
            z = len(symbol_set(entry.ipa, variant))
            for cut in range(2, len(entry.ipa) + 1):
                s = len(symbol_set(entry.ipa[:cut], variant))
                t = 2 * s / m - s - z
                if t.denominator == 1 and 0 <= t <= len(_FRESH):
                    query = entry.ipa[:cut] + _FRESH[: int(t)]
                    shared = symbol_set(query, variant) & symbol_set(entry.ipa, variant)
                    assert 2 * len(shared) == m * (len(symbol_set(query, variant)) + z)
                    found.append(query)
                    hits += 1
                    break
            if hits == per_sim:
                break
        assert hits == per_sim, min_sim
    return found


def _assert_scan_equal(idx, lex, queries, variant, ks, min_sims):
    n = len(lex.entries)
    for query in queries:
        full = closest_match_scan(query, lex, k=n, variant=variant)
        for k in ks:
            for min_sim in min_sims:
                got = top_k(idx, query, k=k, min_sim=min_sim)
                want = [m for m in full if m.distance <= 1.0 - min_sim][:k]
                assert got == want, (query, k, min_sim)
                assert [m.distance.hex() for m in got] == [m.distance.hex() for m in want]


@pytest.mark.parametrize("variant", list(DistanceVariant))
def test_exactness_on_the_floor(lexicon, variant):
    # the walk stops past 1 - min_sim, so entries exactly at it must
    # neither drop out nor slip in
    min_sims = (0.0, 0.3, 0.45, 0.5, 0.9, 1.0)
    queries = _floor_queries(lexicon, variant, min_sims[1:], per_sim=3, seed=11)
    queries += _random_queries(lexicon, 10, seed=13)
    idx = build_index(lexicon, variant)
    _assert_scan_equal(idx, lexicon, queries, variant, (1, 5, 20), min_sims)


def test_short_entries_meet_the_floor(lexicon):
    # bigram Dice scores one-character entries on character sets; a
    # three-symbol query holding the entry's one character sits at
    # exactly 0.5 from it
    ipas = [e.ipa for e in lexicon.entries[:300]] + ["æ", "b", "k", "I"]
    lex = PhonLexicon(
        [LexiconEntry(f"c{i}", 0.0, ipa) for i, ipa in enumerate(ipas)],
        DistanceVariant.BIGRAM,
    )
    queries = ["æbk", "bæk", "kIæ", "æb", "Ik", "æ", "b" + _FRESH[:2], "kæbIt"]
    queries += _floor_queries(lex, DistanceVariant.BIGRAM, (0.5, 0.9), per_sim=2, seed=17)
    idx = build_index(lex, DistanceVariant.BIGRAM)
    _assert_scan_equal(
        idx, lex, queries, DistanceVariant.BIGRAM, (1, 5, 20), (0.0, 0.3, 0.45, 0.5, 2 / 3, 0.9, 1.0)
    )


def test_counts_past_255_stay_exact():
    # 260 distinct characters and 259 distinct bigrams: shared counts
    # past 255 need a ninth counter slice
    wide = "".join(chr(0x100 + i) for i in range(260))
    ipas = [wide, wide[:200], wide[100:], wide[::2], "gUd"]
    queries = [wide, wide[1:], wide[:255], wide[::2] + "gUd", "gUd"]
    for variant in DistanceVariant:
        lex = PhonLexicon(
            [LexiconEntry(f"c{i}", 0.0, ipa) for i, ipa in enumerate(ipas)], variant
        )
        idx = build_index(lex, variant)
        _assert_scan_equal(idx, lex, queries, variant, (1, 5), (0.0, 0.3, 0.5, 0.9, 1.0))


def test_hit_count_wider_than_the_counter():
    # the query holds two lexicon symbols, but no entry shares both, so the
    # counter has one slice; a count of 2 must then match no entry, not
    # the entries whose one slice reads 0
    lex = PhonLexicon(
        [LexiconEntry(f"c{i}", 0.0, ipa) for i, ipa in enumerate(["ax", "by", "cz"])],
        DistanceVariant.CHAR_SET,
    )
    idx = build_index(lex, DistanceVariant.CHAR_SET)
    got = top_k(idx, "ab", k=3)
    assert [(m.entry_id, m.distance) for m in got] == [(0, 0.5), (1, 0.5), (2, 1.0)]
    assert got == closest_match_scan("ab", lex, k=3)


def test_group_memo_bounded(lexicon):
    gc.disable()  # only reference counting may free the index
    try:
        idx = build_index(lexicon)
        for i in range(MEMO_SIZE + 10):
            top_k(idx, "gVd", k=1, min_sim=0.5 + i / 100_000)
        assert idx.scores.groups.cache_info().currsize == MEMO_SIZE
        ref = weakref.ref(idx)
        del idx
        assert ref() is None
    finally:
        gc.enable()


def test_import_leaves_numpy_out():
    code = "import sys, micronorm, micronorm.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(micronorm.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


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
    # callers pass results straight to JSON output
    got = top_k(lexicon.match_index, "gVd", k=5, min_sim=0.5)
    assert got and all(
        type(m.entry_id) is int and type(m.distance) is float for m in got
    )


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
    assert idx.memo.cache_info().currsize == 1
    assert top_k(idx, "gVd", k=5, min_sim=0.5) == first
    assert idx.memo.cache_info()[:2] == (1, 1)  # hits, misses
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
    info = idx.memo.cache_info()
    assert (info.hits, info.currsize) == (0, 3)


def test_arguments_checked_before_the_memo(lexicon):
    idx = build_index(lexicon)
    top_k(idx, "gVd", k=5, min_sim=0.5)
    for bad in ({"k": 0}, {"min_sim": 1.5}):
        with pytest.raises(SimilarityError):
            top_k(idx, "gVd", **{"k": 5, "min_sim": 0.5, **bad})
    # the refused calls never reached the memo
    info = idx.memo.cache_info()
    assert (info.hits, info.misses) == (0, 1)


def test_memo_bounded(lexicon):
    idx = build_index(lexicon)
    queries = sorted({e.ipa for e in lexicon.entries})[: MEMO_SIZE + 50]
    assert len(queries) > MEMO_SIZE
    for q in queries:
        top_k(idx, q, k=1)
    before = idx.memo.cache_info()
    assert before.currsize == MEMO_SIZE
    # the newest are still there; the oldest went first
    top_k(idx, queries[-1], k=1)
    assert idx.memo.cache_info().hits == before.hits + 1
    top_k(idx, queries[0], k=1)
    assert idx.memo.cache_info().misses == before.misses + 1


def test_memo_keeps_a_reused_query(lexicon):
    idx = build_index(lexicon)
    queries = sorted({e.ipa for e in lexicon.entries})[: MEMO_SIZE + 1]
    for q in queries[:MEMO_SIZE]:
        top_k(idx, q, k=1)
    top_k(idx, queries[0], k=1)  # a hit: queries[1] is now the least recently used
    top_k(idx, queries[MEMO_SIZE], k=1)  # so the memo, full, drops queries[1]
    before = idx.memo.cache_info()
    top_k(idx, queries[0], k=1)
    assert idx.memo.cache_info()[:2] == (before.hits + 1, before.misses)
    top_k(idx, queries[1], k=1)
    assert idx.memo.cache_info()[:2] == (before.hits + 1, before.misses + 1)
    assert idx.memo.cache_info().currsize == MEMO_SIZE


def test_threads_share_one_engine_and_one_index(lexicon):
    # a caller may share one engine and one index between threads, whose
    # memo then sees concurrent hits, misses and evictions
    concepts = [e.concept for e in lexicon.entries[: 2 * MEMO_SIZE]]
    engine = G2PEngine(dict(default_engine().exceptions), default_engine().rules)
    idx = build_index(lexicon)
    ref = build_index(lexicon)
    want = {c: top_k(ref, engine.encode_concept(c), k=3, min_sim=0.5) for c in concepts}
    errors = []

    def work(seed):
        try:
            for i in range(1500):
                concept = concepts[(i * 7 + seed) % len(concepts)]
                got = top_k(idx, engine.encode_concept(concept), k=3, min_sim=0.5)
                if got != want[concept]:
                    errors.append((concept, got))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    assert idx.memo.cache_info().currsize == MEMO_SIZE


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
