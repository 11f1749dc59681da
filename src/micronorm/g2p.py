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

_CONSONANTS = "[bcdfghjklmnpqrstvwxz]"
_CLASSES = {
    "V": "[aeiouy]+",
    ":": _CONSONANTS + "*",
    "C": _CONSONANTS,
    "+": "[eiy]",
    ".": "[bdvgjlmnrwz]",
}
_SUFFIXES = ("ing", "ely", "er", "es", "ed", "e")
_REVERSED_SUFFIXES = tuple(suf[::-1] for suf in _SUFFIXES)
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# the dispatch keys a one-letter pattern is filed under
_KEYS_OF = {c: (c, *(c + x for x in _LETTERS)) for c in _LETTERS}

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
_PIECE_RE = re.compile(r"[a-z]+|[0-9]")
_RULE_RE = re.compile(r"(.*)\|(.+?)\|(.*?)\s*->\s*(.*)")


def _two_of(m: re.Match) -> str:
    return m[0][:2]


def squeeze_repeats(token: str) -> str:
    """Collapse every run of >= 3 identical characters down to 2."""
    # a callable, since re expands a r"\1\1" template in Python on every call
    return _SQUEEZE_RE.sub(_two_of, token)


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


def _context_regex(elements: str, suffixes) -> str:
    """Regex source for a context read outward from the pattern.

    Each element is an existence test and the regex backtracks over
    every way to meet it, so a context matches exactly where reading it
    element by element could.  ``$`` holds only as the outermost element.
    """
    parts = []
    for n, el in enumerate(elements):
        if el == "$":
            parts.append(r"\Z" if n == len(elements) - 1 else "(?!)")
        elif el == "%":
            parts.append("(?:" + "|".join(suffixes) + ")")
        else:
            parts.append(_CLASSES.get(el) or re.escape(el))
    return "".join(parts)


class G2PEngine:
    """Grapheme-to-phoneme transducer over read-only tables.

    The exception and digit tables are mapping proxies and the rules a
    tuple, all copied from the caller's, so an encoding depends on the
    concept alone.  Digits are spoken as in ``DIGIT_MAP``.
    """

    def __init__(self, exceptions: dict[str, str], rules: list[RewriteRule]):
        self.exceptions = MappingProxyType(dict(exceptions))
        self.rules = tuple(rules)
        self.digit_map = MappingProxyType(dict(DIGIT_MAP))
        # Rules keyed by the two letters at the read position, file order
        # kept; a one-letter pattern also sits under every key of its
        # letter and under the letter alone, the key at a run's end.  The
        # right regex holds the pattern too and is matched at the read
        # position; the left one runs over the reversed run.  None stands
        # for a test the key already passed.
        table: dict[str, tuple] = {}
        for rule in self.rules:
            p = rule.pattern
            left = right = None
            if rule.left:
                left = re.compile(_context_regex(rule.left[::-1], _REVERSED_SUFFIXES)).match
            if rule.right or len(p) > 2:
                right = re.compile(re.escape(p) + _context_regex(rule.right, _SUFFIXES)).match
            entry = (left, right, len(p), rule.output)
            # a pattern outside [a-z] never meets a run, so it needs no key
            for key in (p[:2],) if len(p) > 1 else _KEYS_OF.get(p, ()):
                table[key] = table.get(key, ()) + (entry,)
        self._dispatch = MappingProxyType(table)

    def _apply_rules(self, run: str) -> str:
        out: list[str] = []
        rules_at = self._dispatch.get
        rev = run[::-1]
        n = len(run)
        i = 0
        while i < n:
            for left, right, width, output in rules_at(run[i : i + 2], ()):
                if (right is None or right(run, i)) and (left is None or left(rev, n - i)):
                    out.append(output)
                    i += width
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
        for piece in _PIECE_RE.findall(token.replace("-", " ")):
            if piece.isdigit():
                parts.append(self.digit_map[piece])
            else:
                parts.append(self._encode_run(piece))
        encoded = "".join(parts)
        if not encoded:
            raise EncodingError(f"token {token!r} produced an empty encoding")
        return encoded

    def encode_concept(self, surface: str) -> str:
        """Encode an underscore-joined concept, one segment per token."""
        tokens = surface.split("_")
        if "" in tokens:
            raise EncodingError(f"concept {surface!r} has an empty segment")
        return "_".join(self.encode_token(tok) for tok in tokens)


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
