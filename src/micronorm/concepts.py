"""Lexicon-driven concept extraction from a tokenized sentence.

A greedy left-to-right pass finds, at each token, the longest lexicon
concept that starts there.  It walks the lexicon's key table, one probe
per key: from the unigram key it appends one token at a time while the
key so far can be extended (is a prefix of a multi-word concept), and
keeps the longest key that is itself a concept, so the lexicon's longest
concept bounds the walk.  Hits become in-vocabulary candidates; any
other non-stopword token becomes a single-token out-of-vocabulary
candidate for phonetic normalization.  A tiny substitution table
rewrites pronoun-like shorthand (u, r, 2, ...) before extraction.

Each candidate is a ``ConceptCandidate`` named tuple: immutable,
hashable and equal by value.  Extraction builds it positionally with
``tuple.__new__``, since a sentence yields several, so its field order
is part of the contract.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .lexicon import PhonLexicon
from .oov_gate import tokenize


class ConceptCandidate(NamedTuple):
    concept: str
    span: tuple[int, int]  # token offsets [start, end)
    matched_iv: bool


def load_wordlist(path) -> frozenset[str]:
    words = set()
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                words.add(line)
    return frozenset(words)


def load_substitutions(path) -> dict[str, str]:
    table: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            src, _, dst = line.partition("\t")
            if src and dst:
                table[src] = dst
    return table


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    data = resources.files("micronorm") / "data"
    return load_wordlist(str(data / "stopwords.txt"))


@lru_cache(maxsize=1)
def default_substitutions() -> dict[str, str]:
    data = resources.files("micronorm") / "data"
    return load_substitutions(str(data / "substitutions.tsv"))


def extract_concepts(sentence: str | list[str], lex: PhonLexicon) -> list[ConceptCandidate]:
    """Non-overlapping concept candidates tiling the sentence's tokens.

    ``sentence`` may also be its ``tokenize`` output, so that a caller that
    has tokenized it already need not do so again.
    """
    return extract_from_tokens(substituted_tokens(sentence), lex)


def extract_from_tokens(tokens: list[str], lex: PhonLexicon) -> list[ConceptCandidate]:
    """Concept candidates of already substituted tokens (see ``substituted_tokens``)."""
    stopwords = default_stopwords()
    table, new = lex.key_table, tuple.__new__
    # tokenizer output may carry apostrophes; concept keys may not
    keys = [tok.replace("'", "") for tok in tokens]
    n = len(keys)
    candidates: list[ConceptCandidate] = []
    i = 0
    while i < n:
        key = keys[i]
        flags = table.get(key)  # None for most tokens: neither a concept nor the start of one
        if flags is not None:
            is_concept, extendable = flags
            hit, end = (key, i + 1) if is_concept else (None, i)
            # a concept of m+1 tokens has its m-token key marked extendable, so
            # the walk never stops short of the longest concept starting at i
            j = i + 1
            while extendable and j < n:
                key = f"{key}_{keys[j]}"
                j += 1
                flags = table.get(key)
                if flags is None:
                    break
                is_concept, extendable = flags
                if is_concept:
                    hit, end = key, j
            if hit is not None:
                candidates.append(new(ConceptCandidate, (hit, (i, end), True)))
                i = end
                continue
        if keys[i] and tokens[i] not in stopwords:
            candidates.append(new(ConceptCandidate, (keys[i], (i, i + 1), False)))
        i += 1
    return candidates


def substituted_tokens(sentence: str | list[str]) -> list[str]:
    """Tokenization (or the given ``tokenize`` output) after shorthand substitution."""
    substitutions = default_substitutions()
    tokens = tokenize(sentence) if isinstance(sentence, str) else sentence
    return [substitutions.get(tok, tok) for tok in tokens]
