"""Rule-based grapheme-to-phoneme engine producing ASCII-rendered IPA.

The engine is fully self-contained: an exception dictionary consulted
first, then an ordered cascade of contextual letter-to-sound rewrite
rules in the style of the classic public-domain English text-to-speech
rule sets, plus spoken-form expansion of digits embedded in tokens
("b4", "2moro", "gr8").  The phoneme inventory is a fixed ASCII-safe
rendering of IPA ('@' schwa, 'I' lax i, 'O' open-mid back vowel, the
ash vowel kept as the UTF-8 character to match published encodings);
see data/ipa_symbols.tsv for the full table.

Rule file syntax, one rule per line::

    left|pattern|right -> output

where ``pattern`` is a literal grapheme string and the contexts may use

    $  word boundary            V  one or more vowels
    :  zero or more consonants  C  exactly one consonant
    +  one front vowel (e,i,y)  .  one voiced consonant
    %  one of the suffixes e, er, es, ed, ely, ing

The first rule whose pattern and contexts match wins and consumes its
pattern.  An empty output makes the grapheme silent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

from .errors import EncodingError
from .memo import Memo

_VOWELS = frozenset("aeiouy")
_CONSONANTS = frozenset("bcdfghjklmnpqrstvwxz")
_VOICED = frozenset("bdvgjlmnrwz")
_FRONT = frozenset("eiy")
_SUFFIXES = ("ing", "ely", "er", "es", "ed", "e")

DIGIT_MAP = {
    "0": "zIro",
    "1": "wVn",
    "2": "tu",
    "3": "Tri",
    "4": "fOr",
    "5": "faIv",
    "6": "sIks",
    "7": "sEv@n",
    "8": "et",
    "9": "naIn",
}

_SQUEEZE_RE = re.compile(r"(.)\1{2,}")
_TOKEN_RE = re.compile(r"[a-z0-9-]+\Z")
_RULE_RE = re.compile(r"(.*)\|(.+?)\|(.*?)\s*->\s*(.*)")


def squeeze_repeats(token: str) -> str:
    """Collapse every run of >= 3 identical characters down to 2."""
    return _SQUEEZE_RE.sub(r"\1\1", token)


@dataclass(frozen=True)
class RewriteRule:
    left: str
    pattern: str
    right: str
    output: str


def parse_rules(text: str) -> list[RewriteRule]:
    """Parse a rule file; '#' starts a comment, blank lines are skipped."""
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _RULE_RE.fullmatch(line)
        if m is None:
            raise EncodingError(f"malformed rewrite rule at line {lineno}: {raw!r}")
        left, pattern, right, output = m.groups()
        rules.append(RewriteRule(left.strip(), pattern, right.strip(), output.strip()))
    return rules


def _match_right(ctx: str, s: str, i: int) -> bool:
    """Match a right context starting at position i."""
    if not ctx:
        return True
    el, rest = ctx[0], ctx[1:]
    if el == "$":
        return i >= len(s) and not rest
    if el == ":":
        j = i
        while True:
            if _match_right(rest, s, j):
                return True
            if j < len(s) and s[j] in _CONSONANTS:
                j += 1
            else:
                return False
    if el == "V":
        j = i
        matched = False
        while j < len(s) and s[j] in _VOWELS:
            j += 1
            matched = True
            if _match_right(rest, s, j):
                return True
        return matched and _match_right(rest, s, j)
    if el == "C":
        return i < len(s) and s[i] in _CONSONANTS and _match_right(rest, s, i + 1)
    if el == "+":
        return i < len(s) and s[i] in _FRONT and _match_right(rest, s, i + 1)
    if el == ".":
        return i < len(s) and s[i] in _VOICED and _match_right(rest, s, i + 1)
    if el == "%":
        for suf in _SUFFIXES:
            if s.startswith(suf, i) and _match_right(rest, s, i + len(suf)):
                return True
        return False
    return i < len(s) and s[i] == el and _match_right(rest, s, i + 1)


def _match_left(ctx: str, s: str, i: int) -> bool:
    """Match a left context ending just before position i (ctx read left to right)."""
    if not ctx:
        return True
    el, rest = ctx[-1], ctx[:-1]
    if el == "$":
        return i <= 0 and not rest
    if el == ":":
        j = i
        while True:
            if _match_left(rest, s, j):
                return True
            if j > 0 and s[j - 1] in _CONSONANTS:
                j -= 1
            else:
                return False
    if el == "V":
        j = i
        matched = False
        while j > 0 and s[j - 1] in _VOWELS:
            j -= 1
            matched = True
            if _match_left(rest, s, j):
                return True
        return matched and _match_left(rest, s, j)
    if el == "C":
        return i > 0 and s[i - 1] in _CONSONANTS and _match_left(rest, s, i - 1)
    if el == "+":
        return i > 0 and s[i - 1] in _FRONT and _match_left(rest, s, i - 1)
    if el == ".":
        return i > 0 and s[i - 1] in _VOICED and _match_left(rest, s, i - 1)
    if el == "%":
        for suf in _SUFFIXES:
            if i >= len(suf) and s.endswith(suf, 0, i) and _match_left(rest, s, i - len(suf)):
                return True
        return False
    return i > 0 and s[i - 1] == el and _match_left(rest, s, i - 1)


class G2PEngine:
    """Grapheme-to-phoneme transducer over read-only tables.

    The exception and digit tables are mapping proxies and the rules a
    tuple, so ``encode_concept`` can memoize its encodings per engine
    without any of them going stale.
    """

    def __init__(
        self,
        exceptions: dict[str, str],
        rules: list[RewriteRule],
        digit_map: dict[str, str] | None = None,
    ):
        self.exceptions = MappingProxyType(dict(exceptions))
        self.rules = tuple(rules)
        self.digit_map = MappingProxyType(dict(digit_map or DIGIT_MAP))
        self.memo = Memo()  # surface -> encoding
        # rules grouped by leading pattern letter, file order preserved
        self._by_letter: dict[str, list[RewriteRule]] = {}
        for rule in self.rules:
            self._by_letter.setdefault(rule.pattern[0], []).append(rule)

    def _apply_rules(self, run: str) -> str:
        out: list[str] = []
        i = 0
        while i < len(run):
            for rule in self._by_letter.get(run[i], ()):
                if (
                    run.startswith(rule.pattern, i)
                    and _match_left(rule.left, run, i)
                    and _match_right(rule.right, run, i + len(rule.pattern))
                ):
                    out.append(rule.output)
                    i += len(rule.pattern)
                    break
            else:
                raise EncodingError(f"no rewrite rule matches {run!r} at position {i}")
        return "".join(out)

    def _encode_run(self, run: str) -> str:
        hit = self.exceptions.get(run)
        if hit is not None:
            return hit
        return self._apply_rules(run)

    def encode_token(self, token: str) -> str:
        """Encode one token; digits expand to their spoken forms in place."""
        token = token.lower()
        if not _TOKEN_RE.fullmatch(token):
            raise EncodingError(f"token {token!r} has characters outside [a-z0-9-]")
        token = squeeze_repeats(token)
        parts: list[str] = []
        for piece in re.findall(r"[a-z]+|[0-9]", token.replace("-", " ")):
            if piece.isdigit():
                parts.append(self.digit_map[piece])
            else:
                parts.append(self._encode_run(piece))
        encoded = "".join(parts)
        if not encoded:
            raise EncodingError(f"token {token!r} produced an empty encoding")
        return encoded

    def encode_concept(self, surface: str) -> str:
        """Encode an underscore-joined concept, one segment per token.

        Encodings are memoized; a concept that cannot be encoded is not,
        so it raises ``EncodingError`` on every call.
        """
        ipa = self.memo.lookup(surface)
        if ipa is None:
            ipa = self.memo.store(surface, self.encode_unmemoized(surface))
        return ipa

    def encode_unmemoized(self, surface: str) -> str:
        """Encode like ``encode_concept`` but bypass the memo.

        For concepts encoded once each, such as a lexicon being compiled.
        """
        return "_".join(self.encode_token(tok) for tok in surface.split("_"))


def load_exceptions(path) -> dict[str, str]:
    """Load a token<TAB>ipa exception table."""
    table: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 2 or not cols[0] or not cols[1]:
                raise EncodingError(f"malformed exception entry at line {lineno}: {raw!r}")
            table[cols[0]] = cols[1]
    return table


def load_rules(path) -> list[RewriteRule]:
    with open(path, encoding="utf-8") as fh:
        return parse_rules(fh.read())


@lru_cache(maxsize=1)
def default_engine() -> G2PEngine:
    """Engine built from the data files shipped with the package."""
    data = resources.files("micronorm") / "data"
    exceptions = load_exceptions(str(data / "g2p_exceptions.tsv"))
    rules = load_rules(str(data / "g2p_rules.txt"))
    return G2PEngine(exceptions, rules)
