"""Exact top-k Dice search over bit-sliced counts in Python ints.

The index holds, for its variant, one Python int per symbol (character
or bigram) of the lexicon's alphabet, whose bit e is set when entry e
holds the symbol, and one int per symbol-set size z, whose bit e is set
when entry e has z symbols.  Bit positions are entry ids throughout.

A query adds the ints of its own symbols into a bit-sliced counter
(O'Neil & Quass 1997; Rinfret, O'Neil & O'Neil 2001): one int per bit
of the shared count |A&B|, with a ripple carry from each slice into the
next.  Query symbols absent from the lexicon still count toward |A|.
The entries sharing exactly s symbols are then the AND of the slices,
each taken as is or complemented as s's bit says; when s needs more
bits than the counter has, no entry shares s.

The distance 1 - 2s/(|A|+z) depends on the entry only through (s, z),
so the search walks those pairs instead of the entries.  The pairs are
grouped by that very float64 expression, as ``dice_distance`` computes
it, in ascending order and no further than 1 - min_sim; the groups are
memoized by (|A|, query symbols in the lexicon, 1 - min_sim).  Each
group's entries are the OR over its pairs of "shares s" AND "has size
z", and they come out in ascending id order until k are found.  So the
result list is identical, down to the last bit of each distance, to the
exhaustive scan restricted to distance <= 1 - min_sim, ordered by
(distance, entry_id).

Bigram Dice falls back to character sets when either string is shorter
than two characters, so a bigram index also keeps the character-set
ints: a short query is searched on them alone, and short entries are
counted on their character sets in place of their bigram ones.  Their
groups merge with the bigram groups by distance, and equal distances OR
their entries into one mask.

Each index memoizes its answers by (query, k, min_sim) in ``memo``, an
``lru_cache`` of ``MEMO_SIZE`` answers, so a repeated query skips the
walk.  The memo stores a tuple of ``MatchResult`` named tuples and
every caller gets a fresh list of those same instances: sharing them is
safe because neither the tuple nor its records can be altered.  The
memo and the group tables are caches over the index's ints, never over
the index itself, so an index is freed by reference counting alone.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, partial
from heapq import merge
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterator

from .errors import SimilarityError
from .lexicon import PhonLexicon
from .memo import MEMO_SIZE
from .similarity import DistanceVariant, MatchResult, symbol_set

# ascending distances, each with the (shared count, set size) pairs at it
_Groups = tuple[tuple[float, tuple[tuple[int, int], ...]], ...]


@dataclass(frozen=True, eq=False)
class _Incidence:
    variant: DistanceVariant
    symbols: dict[str, int]  # symbol -> the entries holding it, one bit each
    sizes: tuple[int, ...]  # set size z -> the entries of that size, one bit each
    # (|A|, hits, 1 - min_sim) -> the pairs within the bound, see _groups
    groups: Callable[[int, int, float], _Groups] = field(repr=False)

    def walk(self, query: str, bound: float) -> Iterator[tuple[float, int]]:
        """Each distance within ``bound`` of ``query`` that some entry is at,
        ascending, with those entries as the set bits of an int."""
        qsyms = symbol_set(query, self.variant)
        slices: list[int] = []  # slices[j]: the entries whose shared count has bit j set
        hits = 0
        for sym in qsyms:
            carry = self.symbols.get(sym)
            if carry is None:
                continue
            hits += 1
            for j, plane in enumerate(slices):
                slices[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                slices.append(carry)
        sharing: dict[int, int] = {}  # s -> the entries sharing exactly s symbols
        for dist, pairs in self.groups(len(qsyms), hits, bound):
            found = 0
            for s, z in pairs:
                ids = sharing.get(s)
                if ids is None:
                    ids = sharing[s] = _sharing(slices, s)
                found |= ids & self.sizes[z]
            if found:
                yield dist, found


def _sharing(slices: list[int], s: int) -> int:
    """The entries whose count in ``slices`` is ``s``, as bits; negative
    when ``slices`` is empty and ``s`` is 0, so AND it with a positive mask."""
    if s >> len(slices):  # wider than every count: no entry shares s
        return 0
    ids = -1
    for j, plane in enumerate(slices):
        ids &= plane if s >> j & 1 else ~plane
    return ids


def _groups(widths: tuple[int, ...], qsize: int, hits: int, bound: float) -> _Groups:
    """The (s, z) pairs of shared count s and set size z that put an entry
    within ``bound`` of a query of ``qsize`` symbols, ``hits`` of them in
    the lexicon, grouped by distance in ascending order."""
    at: dict[float, list[tuple[int, int]]] = {}
    for z in widths:
        for s in range(min(hits, z) + 1):
            # same float64 expression as dice_distance, so bit-identical
            dist = 1.0 - 2.0 * s / (qsize + z)
            if dist <= bound:
                at.setdefault(dist, []).append((s, z))
    return tuple((dist, tuple(at[dist])) for dist in sorted(at))


def _incidence(encodings: list[str], variant: DistanceVariant, ids: list[int]) -> _Incidence:
    # bitmaps as little-endian bytes while filling; one bit per entry id
    row = partial(bytearray, ids[-1] // 8 + 1 if ids else 0)
    symbols: defaultdict[str, bytearray] = defaultdict(row)
    of_size: defaultdict[int, bytearray] = defaultdict(row)
    for e in ids:
        byte, bit = e >> 3, 1 << (e & 7)
        syms = symbol_set(encodings[e], variant)
        for sym in syms:
            symbols[sym][byte] |= bit
        of_size[len(syms)][byte] |= bit
    return _Incidence(
        variant,
        {sym: int.from_bytes(bits, "little") for sym, bits in symbols.items()},
        tuple(int.from_bytes(of_size.get(z, b""), "little") for z in range(max(of_size, default=0) + 1)),
        lru_cache(MEMO_SIZE)(partial(_groups, tuple(sorted(of_size)))),
    )


@dataclass(frozen=True, eq=False)
class MatchIndex:
    variant: DistanceVariant
    concepts: list[str]
    scores: _Incidence  # under the index's variant; bigram: entries of 2+ characters
    chars: _Incidence  # character sets; the same object for a charset index
    short: _Incidence | None  # bigram only: the character sets of shorter entries
    # (query, k, min_sim) -> tuple of results
    memo: Callable[[str, int, float], tuple[MatchResult, ...]] = field(repr=False)


def build_index(lex: PhonLexicon, variant: DistanceVariant = DistanceVariant.CHAR_SET) -> MatchIndex:
    encodings = [e.ipa for e in lex.entries]
    concepts = [e.concept for e in lex.entries]
    chars = _incidence(encodings, DistanceVariant.CHAR_SET, list(range(len(encodings))))
    scores, short = chars, None
    if variant is not DistanceVariant.CHAR_SET:
        is_short = [len(enc) < 2 for enc in encodings]
        scores = _incidence(encodings, variant, [e for e, s in enumerate(is_short) if not s])
        if any(is_short):
            short = _incidence(encodings, DistanceVariant.CHAR_SET, [e for e, s in enumerate(is_short) if s])
    memo = lru_cache(MEMO_SIZE)(partial(_search, concepts, scores, chars, short))
    return MatchIndex(variant, concepts, scores, chars, short, memo)


def top_k(idx: MatchIndex, query: str, k: int = 1, min_sim: float = 0.0) -> list[MatchResult]:
    """Top-k entries by ascending (distance, entry_id), distance <= 1 - min_sim,
    under the variant the index was built for.

    Answers are memoized per index; every call returns a fresh list.
    """
    if not query:
        raise SimilarityError("empty query")
    if k < 1:
        raise SimilarityError("k must be >= 1")
    if not 0.0 <= min_sim <= 1.0:
        raise SimilarityError("min_sim must be in [0, 1]")

    return list(idx.memo(query, k, min_sim))


def _search(
    concepts: list[str],
    scores: _Incidence,
    chars: _Incidence,
    short: _Incidence | None,
    query: str,
    k: int,
    min_sim: float,
) -> tuple[MatchResult, ...]:
    bound = 1.0 - min_sim
    if len(query) < 2:
        walk = chars.walk(query, bound)
    elif short is None:
        walk = scores.walk(query, bound)
    else:
        # one mask per distance, so entries tied across the two walks
        # still come out in id order
        both = merge(scores.walk(query, bound), short.walk(query, bound), key=itemgetter(0))
        # the two walks hold disjoint entries, so a sum of their masks is their OR
        walk = ((dist, sum(ids for _, ids in tied)) for dist, tied in groupby(both, itemgetter(0)))
    found: list[MatchResult] = []
    for dist, ids in walk:
        while ids:
            low = ids & -ids
            eid = low.bit_length() - 1
            found.append(MatchResult(eid, concepts[eid], dist))
            if len(found) == k:
                return tuple(found)
            ids ^= low
    return tuple(found)
