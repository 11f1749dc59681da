"""Classic (American) Soundex encoding of concept tokens.

Each token maps to a 4-character code: its first character, uppercased
if a letter, plus three digits from the consonant code table.  A token
may start with a digit ("2moro" gives 2560, "24" gives 2000), as G2P
and the lexicon's concepts allow.  Multiword concepts encode token by
token, joined with underscores.
"""

from __future__ import annotations

from .errors import EncodingError

# Consonant sound classes.  Vowels, y, h, w and anything else (digits,
# hyphens) carry no code.
_CODES = {
    "b": "1", "f": "1", "p": "1", "v": "1",
    "c": "2", "g": "2", "j": "2", "k": "2", "q": "2", "s": "2", "x": "2", "z": "2",
    "d": "3", "t": "3",
    "l": "4",
    "m": "5", "n": "5",
    "r": "6",
}


def soundex_token(token: str) -> str:
    """Encode a single token as a Soundex code (head + 3 digits).

    Follows the archival-standard rules: the first character is kept and its
    code suppresses an immediately following letter of the same class;
    'h' and 'w' are transparent (do not break a run of equal codes);
    vowels and digits break runs but emit nothing.
    """
    token = token.lower()
    if not token:
        raise EncodingError("cannot soundex-encode an empty token")
    prev_code = _CODES.get(token[0], "")
    digits: list[str] = []
    for ch in token[1:]:
        if ch in ("h", "w"):
            continue
        code = _CODES.get(ch)
        if code is None:
            prev_code = ""
            continue
        if code != prev_code:
            digits.append(code)
        prev_code = code
    return token[0].upper() + "".join(digits[:3]).ljust(3, "0")


def soundex_concept(surface: str) -> str:
    """Encode an underscore-joined concept, one code per token."""
    return "_".join(soundex_token(tok) for tok in surface.split("_"))
