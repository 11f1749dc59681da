"""Exact top-k Dice search over a dense symbol-incidence matrix.

The index holds, for its variant, a 0/1 matrix with one row per symbol
(character or bigram) of the lexicon's alphabet and one column per
entry, plus each entry's symbol-set size.  A query sums the rows of its
own symbols in one numpy call, which yields |A&B| for every entry at
once.  Query symbols absent from the lexicon still count toward |A|.

Only entries within 1 - min_sim are scored.  For a query of |A|
symbols the distance 1 - 2s/(|A|+z) of an entry of set size z falls as
the shared count s grows, so each size z has a least s that brings it
within the bound.  That table is read off the very float64 expression
the distance uses, over every (s, z) pair up to the widest entry, so it
is exact; gathered per entry and memoized by (|A|, 1 - min_sim), it
turns the cut into one integer compare.  The survivors' Dice distances
then follow in float64 exactly as ``dice_distance`` computes them, down
to the last bit, and the result list is identical to the exhaustive
scan restricted to distance <= 1 - min_sim, ordered by (distance,
entry_id).  At min_sim = 0 every entry qualifies and all are scored.

Bigram Dice falls back to character sets when either string is shorter
than two characters, so a bigram index also keeps the character-set
matrix: a short query is scored on it alone, and short entries are
scored on their character sets in place of their bigram ones.

Each index memoizes its answers by (query, k, min_sim) in ``memo``, an
``lru_cache`` of ``MEMO_SIZE`` answers, so a repeated query skips the
scoring.  The memo stores a tuple of ``MatchResult`` named tuples and
every caller gets a fresh list of those same instances: sharing them is
safe because neither the tuple nor its records can be altered.  The
memo and the floor tables are caches over the index's arrays, never
over the index itself, so an index is freed by reference counting alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import SimilarityError
from .lexicon import PhonLexicon
from .memo import MEMO_SIZE
from .similarity import DistanceVariant, MatchResult, symbol_set


@dataclass(frozen=True, eq=False)
class _Incidence:
    variant: DistanceVariant
    ids: np.ndarray  # entry id of each column
    rows: dict[str, int]  # symbol -> matrix row
    matrix: np.ndarray  # uint8, symbols x columns
    # symbol-set size of each column's entry, as float64 so the distance
    # needs no int-to-float cast; sums of small integers stay exact
    sizes: np.ndarray
    # smallest unsigned type holding the widest entry set plus one: a column
    # sum never exceeds its entry's set size, and one more marks a size that
    # no shared count brings within the bound; narrow sums are several times
    # faster than int64 ones
    acc: np.dtype
    # (|A|, 1 - min_sim) -> per-column floor, see _floor
    floor: Callable[[int, float], np.ndarray] = field(repr=False)

    def within(self, query: str, bound: float) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the entries within ``bound`` of ``query``, and their distances."""
        qsyms = symbol_set(query, self.variant)
        hits = [self.rows[s] for s in qsyms if s in self.rows]
        shared = self.matrix.take(hits, axis=0).sum(axis=0, dtype=self.acc)
        ids, sizes = self.ids, self.sizes
        if bound < 1.0:  # no distance exceeds 1, so at 1 every entry qualifies
            keep = (shared >= self.floor(len(qsyms), bound)).nonzero()[0]
            ids, shared, sizes = ids[keep], shared[keep], sizes[keep]
        # same float64 expression as dice_distance, so bit-identical
        return ids, 1.0 - 2.0 * shared / (len(qsyms) + sizes)


def _floor(counts: np.ndarray, acc: np.dtype, qsize: int, bound: float) -> np.ndarray:
    """Per column of set size ``counts``, the fewest shared symbols that
    bring its entry within ``bound`` of a query of ``qsize`` symbols."""
    s = np.arange(counts.max(initial=0) + 1, dtype=np.float64)
    # the distance falls as s grows, so the counts it leaves beyond
    # the bound are a prefix of 0, 1, ...; their number is the least
    # count that qualifies, or the widest size plus one if none does
    beyond = 1.0 - 2.0 * s[:, None] / (qsize + s) > bound
    return beyond.sum(axis=0, dtype=acc)[counts]


def _incidence(encodings: list[str], variant: DistanceVariant, ids: np.ndarray) -> _Incidence:
    sets = [symbol_set(encodings[i], variant) for i in ids.tolist()]
    rows = {sym: r for r, sym in enumerate(sorted(set().union(*sets)))}
    counts = np.array([len(s) for s in sets], dtype=np.intp)
    matrix = np.zeros((len(rows), len(sets)), dtype=np.uint8)
    matrix[[rows[sym] for s in sets for sym in s], np.repeat(np.arange(len(sets)), counts)] = 1
    acc = np.min_scalar_type(counts.max(initial=0) + 1)
    floor = lru_cache(MEMO_SIZE)(partial(_floor, counts, acc))
    return _Incidence(variant, ids, rows, matrix, counts.astype(np.float64), acc, floor)


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
    chars = _incidence(encodings, DistanceVariant.CHAR_SET, np.arange(len(encodings)))
    scores, short = chars, None
    if variant is not DistanceVariant.CHAR_SET:
        is_short = np.array([len(enc) < 2 for enc in encodings], dtype=bool)
        scores = _incidence(encodings, variant, np.flatnonzero(~is_short))
        if is_short.any():
            short = _incidence(encodings, DistanceVariant.CHAR_SET, np.flatnonzero(is_short))
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
        ids, dist = chars.within(query, bound)
    else:
        ids, dist = scores.within(query, bound)
        if short is not None:
            short_ids, short_dist = short.within(query, bound)
            ids, dist = np.concatenate((ids, short_ids)), np.concatenate((dist, short_dist))

    # nothing beyond the k-th smallest distance can make the cut; ties at
    # it all survive, and lexsort orders them by entry_id
    if k < dist.size:
        keep = (dist <= np.partition(dist, k - 1)[k - 1]).nonzero()[0]
        ids, dist = ids[keep], dist[keep]
    order = np.lexsort((ids, dist))[:k]
    # tolist() hands back built-in int/float for callers that serialize results
    return tuple(
        MatchResult(entry_id=eid, concept=concepts[eid], distance=d)
        for eid, d in zip(ids[order].tolist(), dist[order].tolist())
    )
