"""Exact top-k Dice search over a dense symbol-incidence matrix.

The index holds, for its variant, a 0/1 matrix with one row per symbol
(character or bigram) of the lexicon's alphabet and one column per
entry, plus each entry's symbol-set size.  A query sums the rows of its
own symbols in one numpy call, which yields |A&B| for every entry at
once; the Dice distance then follows in float64 exactly as
``dice_distance`` computes it, down to the last bit.  Query symbols
absent from the lexicon still count toward |A|.  Every entry is scored,
so entries sharing no symbol sit at distance exactly 1.0 and the result
list is identical to the exhaustive scan restricted to
distance <= 1 - min_sim, ordered by (distance, entry_id).

Bigram Dice falls back to character sets when either string is shorter
than two characters, so a bigram index also keeps the character-set
matrix: a short query is scored on it alone, and short entries get
their character-set distance written over their bigram one.

Each index memoizes its answers by (query, k, min_sim) in a bounded
``Memo``, so a repeated query skips the scoring.  The memo stores a
tuple of ``MatchResult`` named tuples and every caller gets a fresh list
of those same instances: sharing them is safe because neither the tuple
nor its records can be altered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SimilarityError
from .lexicon import PhonLexicon
from .memo import Memo
from .similarity import DistanceVariant, MatchResult, symbol_set


@dataclass(frozen=True, eq=False)
class _Incidence:
    variant: DistanceVariant
    rows: dict[str, int]  # symbol -> matrix row
    matrix: np.ndarray  # uint8, symbols x entries
    # symbol-set size of each entry, as float64 so the distance needs no
    # int-to-float cast; sums of small integers stay exact
    sizes: np.ndarray
    # smallest unsigned type holding the alphabet size, which bounds any
    # column sum; narrow sums are several times faster than int64 ones
    acc: np.dtype

    def distances(self, query: str, cols=slice(None)) -> np.ndarray:
        qsyms = symbol_set(query, self.variant)
        hits = [self.rows[s] for s in qsyms if s in self.rows]
        shared = self.matrix[hits][:, cols].sum(axis=0, dtype=self.acc)
        # same float64 expression as dice_distance, so bit-identical
        return 1.0 - 2.0 * shared / (len(qsyms) + self.sizes[cols])


def _incidence(encodings: list[str], variant: DistanceVariant) -> _Incidence:
    sets = [symbol_set(enc, variant) for enc in encodings]
    rows = {sym: r for r, sym in enumerate(sorted(set().union(*sets)))}
    lengths = [len(s) for s in sets]
    matrix = np.zeros((len(rows), len(sets)), dtype=np.uint8)
    matrix[[rows[sym] for s in sets for sym in s], np.repeat(np.arange(len(sets)), lengths)] = 1
    sizes = np.array(lengths, dtype=np.float64)
    return _Incidence(variant, rows, matrix, sizes, np.min_scalar_type(len(rows)))


@dataclass(frozen=True, eq=False)
class InvertedIndex:
    variant: DistanceVariant
    concepts: list[str]
    scores: _Incidence  # under the index's variant
    chars: _Incidence  # character sets; the same object for a charset index
    short: np.ndarray  # bigram only: entries shorter than 2, scored on chars
    # (query, k, min_sim) -> tuple of results
    memo: Memo = field(default_factory=Memo, repr=False)


def build_index(lex: PhonLexicon, variant: DistanceVariant = DistanceVariant.CHAR_SET) -> InvertedIndex:
    encodings = [e.ipa for e in lex.entries]
    concepts = [e.concept for e in lex.entries]
    chars = _incidence(encodings, DistanceVariant.CHAR_SET)
    if variant is DistanceVariant.CHAR_SET:
        return InvertedIndex(variant, concepts, chars, chars, np.empty(0, dtype=np.intp))
    short = np.flatnonzero([len(enc) < 2 for enc in encodings])
    return InvertedIndex(variant, concepts, _incidence(encodings, variant), chars, short)


def top_k(
    idx: InvertedIndex,
    query: str,
    k: int = 1,
    min_sim: float = 0.0,
    variant: DistanceVariant | None = None,
) -> list[MatchResult]:
    """Top-k entries by ascending (distance, entry_id), distance <= 1 - min_sim.

    Answers are memoized per index; every call returns a fresh list.
    """
    if variant is not None and variant is not idx.variant:
        raise SimilarityError(f"index built for {idx.variant.value}, queried as {variant.value}")
    if not query:
        raise SimilarityError("empty query")
    if k < 1:
        raise SimilarityError("k must be >= 1")
    if not 0.0 <= min_sim <= 1.0:
        raise SimilarityError("min_sim must be in [0, 1]")

    key = (query, k, min_sim)
    hit = idx.memo.lookup(key)
    if hit is None:
        hit = idx.memo.store(key, _search(idx, query, k, min_sim))
    return list(hit)


def _search(idx: InvertedIndex, query: str, k: int, min_sim: float) -> tuple[MatchResult, ...]:
    if len(query) < 2:
        dist = idx.chars.distances(query)
    else:
        dist = idx.scores.distances(query)
        if idx.short.size:
            dist[idx.short] = idx.chars.distances(query, idx.short)

    # nothing beyond the k-th smallest distance can make the cut; ties at
    # it all survive, and lexsort orders them by entry_id
    bound = 1.0 - min_sim
    if k < dist.size:
        bound = min(bound, np.partition(dist, k - 1)[k - 1])
    ids = np.flatnonzero(dist <= bound)
    order = ids[np.lexsort((ids, dist[ids]))[:k]]
    # tolist() hands back built-in int/float for callers that serialize results
    return tuple(
        MatchResult(entry_id=eid, concept=idx.concepts[eid], distance=d)
        for eid, d in zip(order.tolist(), dist[order].tolist())
    )
