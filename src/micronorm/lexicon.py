"""Concept-polarity lexicon: loading, phonetic compilation, persistence.

A raw lexicon is a two-column TSV of concept and polarity value in
[-1, 1].  Compiling it attaches an IPA encoding to every concept, the
only code search reads, and builds the lookup structures used by
matching.  The compiled form round-trips through a JSON-lines file.
Soundex, the baseline of the collision report, is computed where it is
read: by ``encode``, by ``duplicate_report`` and by ``save_compiled``,
which writes it to each row for readers of the file.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import LexiconError
from .g2p import G2PEngine
from .similarity import DistanceVariant
from .soundex import soundex_concept

_CONCEPT_RE = re.compile(r"[a-z0-9-]+(_[a-z0-9-]+)*\Z")

POSITIVE = "Positive"
NEGATIVE = "Negative"
NEUTRAL = "Neutral"

FORMAT_NAME = "phonlex"
FORMAT_VERSION = 1


def canonicalize_concept(raw: str) -> str:
    """Lowercase and unify separators: spaces and hyphens become '_'."""
    surface = raw.strip().lower().replace(" ", "_").replace("-", "_")
    surface = re.sub(r"_+", "_", surface).strip("_")
    return surface


def polarity_label(value: float) -> str:
    if value > 0:
        return POSITIVE
    if value < 0:
        return NEGATIVE
    return NEUTRAL


@dataclass(frozen=True)
class LexiconEntry:
    concept: str
    polarity_value: float
    ipa: str


@dataclass
class PhonLexicon:
    """Compiled lexicon: entries plus exact and phonetic lookup tables."""

    entries: list[LexiconEntry]
    variant: DistanceVariant = DistanceVariant.CHAR_SET
    surface_map: dict[str, int] = field(init=False)
    key_table: dict[str, tuple[bool, bool]] = field(init=False)

    def __post_init__(self):
        self.surface_map = {e.concept: i for i, e in enumerate(self.entries)}
        # each concept, and each concept cut just before a '_' ("a_little" gives
        # "a"), -> (is a concept, can be extended): extraction extends an n-gram
        # only while it can be, and answers both with one probe per key
        self.key_table = {surface: (True, False) for surface in self.surface_map}
        for surface in self.surface_map:
            parts = surface.split("_")
            for n in range(1, len(parts)):
                prefix = "_".join(parts[:n])
                self.key_table[prefix] = (prefix in self.surface_map, True)

    @cached_property
    def match_index(self):
        """Top-k search index over IPA encodings, built on first use."""
        from .match_index import build_index

        return build_index(self, self.variant)


@dataclass(frozen=True)
class DuplicateReport:
    scheme: str
    num_concepts: int
    num_distinct_codes: int
    num_duplicated_concepts: int
    top_collisions: list[tuple[str, list[str]]]


def _checked_row(path, lineno: int, surface, polarity, seen: dict[str, int]) -> tuple[str, float]:
    """A valid concept and its polarity, a finite number in [-1, 1]; ``seen``
    maps each concept read so far to its line, and a repeat is refused.  Errors
    name the row as ``path:lineno``, or as ``row lineno`` when ``path`` is None."""
    if not isinstance(surface, str) or not _CONCEPT_RE.fullmatch(surface):
        raise _row_error(path, lineno, f"invalid concept surface {surface!r}")
    try:
        value = float(polarity)
    except (TypeError, ValueError):
        raise _row_error(path, lineno, f"bad polarity {polarity!r}") from None
    if not -1.0 <= value <= 1.0:  # also refuses nan
        raise _row_error(path, lineno, f"polarity {value} outside [-1, 1]")
    if surface in seen:
        first = f"{'row' if path is None else 'line'} {seen[surface]}"
        raise _row_error(path, lineno, f"duplicate concept {surface!r} (first at {first})")
    seen[surface] = lineno
    return surface, value


def _row_error(path, lineno: int, message: str) -> LexiconError:
    where = f"row {lineno}" if path is None else f"{path}:{lineno}"
    return LexiconError(f"{where}: {message}")


def load_raw_lexicon(path) -> list[tuple[str, float]]:
    """Read a concept<TAB>polarity TSV; canonicalizes and validates rows."""
    rows: list[tuple[str, float]] = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if lineno == 1 and line == "concept\tpolarity":
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise LexiconError(f"{path}:{lineno}: expected 2 columns, got {len(cols)}")
            rows.append(_checked_row(path, lineno, canonicalize_concept(cols[0]), cols[1], seen))
    return rows


def compile_lexicon(
    raw: Iterable[tuple[str, float]],
    g2p: G2PEngine,
    variant: DistanceVariant = DistanceVariant.CHAR_SET,
) -> PhonLexicon:
    """Check each row as the loaders do, attach its IPA encoding, build lookups."""
    entries: list[LexiconEntry] = []
    seen: dict[str, int] = {}
    for row, (surface, polarity) in enumerate(raw, start=1):
        surface, value = _checked_row(None, row, surface, polarity, seen)
        try:
            ipa = g2p.encode_concept(surface)
        except Exception as exc:
            raise LexiconError(f"cannot encode concept {surface!r}: {exc}") from exc
        entries.append(LexiconEntry(surface, value, ipa))
    if not entries:
        raise LexiconError("cannot compile an empty lexicon")
    return PhonLexicon(entries=entries, variant=variant)


def save_compiled(lex: PhonLexicon, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "variant": lex.variant.value}
        fh.write(json.dumps(header, ensure_ascii=False) + "\n")
        for e in lex.entries:
            soundex = soundex_concept(e.concept)
            row = {"concept": e.concept, "polarity": e.polarity_value, "ipa": e.ipa, "soundex": soundex}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def load_compiled(path) -> PhonLexicon:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise LexiconError(f"{path}: empty compiled lexicon")
        try:
            header = json.loads(first)
        except json.JSONDecodeError:
            raise LexiconError(f"{path}:1: malformed header") from None
        if (
            not isinstance(header, dict)
            or header.get("format") != FORMAT_NAME
            or header.get("version") != FORMAT_VERSION
        ):
            raise LexiconError(f"{path}: unsupported format tag {header!r}")
        try:
            variant = DistanceVariant(header.get("variant", DistanceVariant.CHAR_SET.value))
        except ValueError:
            raise LexiconError(f"{path}: unknown variant {header.get('variant')!r}") from None
        entries: list[LexiconEntry] = []
        seen: dict[str, int] = {}
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                concept, ipa, polarity = row["concept"], row["ipa"], row["polarity"]
            except (json.JSONDecodeError, KeyError, TypeError):
                raise LexiconError(f"{path}:{lineno}: malformed entry") from None
            concept, value = _checked_row(path, lineno, concept, polarity, seen)
            if not isinstance(ipa, str) or not ipa:
                raise LexiconError(f"{path}:{lineno}: ipa must be a non-empty string")
            entries.append(LexiconEntry(concept, value, ipa))
    if not entries:
        raise LexiconError(f"{path}: compiled lexicon has no entries")
    return PhonLexicon(entries=entries, variant=variant)


def duplicate_report(lex: PhonLexicon, scheme: str, top_n: int = 10) -> DuplicateReport:
    """Collision statistics for one encoding scheme over the lexicon.

    A concept counts as duplicated when its code is shared by at least
    one other concept, i.e. the sum of collision-group sizes over all
    groups of size >= 2.
    """
    scheme_norm = scheme.lower()
    if scheme_norm not in ("soundex", "ipa"):
        raise LexiconError(f"unknown encoding scheme {scheme!r}")
    groups: dict[str, list[str]] = {}
    for e in lex.entries:
        code = soundex_concept(e.concept) if scheme_norm == "soundex" else e.ipa
        groups.setdefault(code, []).append(e.concept)
    collisions = {code: members for code, members in groups.items() if len(members) >= 2}
    top = sorted(collisions.items(), key=lambda kv: (-len(kv[1]), kv[0]))[:top_n]
    return DuplicateReport(
        scheme="Soundex" if scheme_norm == "soundex" else "IPA",
        num_concepts=len(lex.entries),
        num_distinct_codes=len(groups),
        num_duplicated_concepts=sum(len(m) for m in collisions.values()),
        top_collisions=[(code, list(members)) for code, members in top],
    )
