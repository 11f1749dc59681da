"""Sorensen-Dice similarity over phonetic (or raw) encodings.

The default variant compares sets of distinct characters; the bigram
variant compares sets of adjacent character pairs and falls back to the
character-set form whenever either string is too short to have a bigram.
Distances are 1 - similarity, so 0 means identical symbol sets and 1
means disjoint ones.  A search hit is a ``MatchResult`` named tuple,
immutable and hashable, so stored results can be shared between callers.
"""

from __future__ import annotations

from enum import Enum
from operator import add
from typing import TYPE_CHECKING, NamedTuple

from .errors import SimilarityError

if TYPE_CHECKING:  # pragma: no cover
    from .lexicon import PhonLexicon


class DistanceVariant(str, Enum):
    CHAR_SET = "charset"
    BIGRAM = "bigram"


class MatchResult(NamedTuple):
    entry_id: int
    concept: str
    distance: float


def symbol_set(s: str, variant: DistanceVariant = DistanceVariant.CHAR_SET) -> frozenset[str]:
    """Symbol set of an encoding under the given variant.

    Underscores count as ordinary symbols.  A string shorter than 2
    characters has no bigrams and keeps its character set.
    """
    if variant is DistanceVariant.BIGRAM and len(s) >= 2:
        return frozenset(map(add, s, s[1:]))  # s[i] + s[i + 1]: each adjacent pair
    return frozenset(s)


def dice_distance(a: str, b: str, variant: DistanceVariant = DistanceVariant.CHAR_SET) -> float:
    """Dice distance 1 - 2|A&B| / (|A| + |B|) between two encodings."""
    if not a or not b:
        raise SimilarityError("dice_distance requires non-empty inputs")
    if variant is DistanceVariant.BIGRAM and (len(a) < 2 or len(b) < 2):
        variant = DistanceVariant.CHAR_SET
    sa = symbol_set(a, variant)
    sb = symbol_set(b, variant)
    return 1.0 - 2.0 * len(sa & sb) / (len(sa) + len(sb))


def closest_match_scan(
    query: str,
    lex: "PhonLexicon",
    k: int = 1,
    variant: DistanceVariant = DistanceVariant.CHAR_SET,
) -> list[MatchResult]:
    """Exhaustive top-k scan over the lexicon's IPA encodings.

    Results are sorted ascending by (distance, entry_id), which makes the
    output deterministic and top-k a prefix of top-(k+1).
    """
    if not lex.entries:
        raise SimilarityError("cannot search an empty lexicon")
    if k < 1:
        raise SimilarityError("k must be >= 1")
    scored = [
        (dice_distance(query, entry.ipa, variant), entry_id)
        for entry_id, entry in enumerate(lex.entries)
    ]
    scored.sort()
    return [
        MatchResult(entry_id=eid, concept=lex.entries[eid].concept, distance=dist)
        for dist, eid in scored[:k]
    ]
