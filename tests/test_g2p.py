import gc
import re
import string
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from micronorm.errors import EncodingError
from micronorm.g2p import (
    G2PEngine,
    default_engine,
    load_exceptions,
    load_rules,
    parse_rules,
    squeeze_repeats,
)
from micronorm.resources import data_path


def _fresh_engine() -> G2PEngine:
    return G2PEngine(
        load_exceptions(data_path("g2p_exceptions.tsv")), load_rules(data_path("g2p_rules.txt"))
    )

GOLDEN_IPA = {
    "a_little": "æ_lItæl",
    "abandon": "æb@ndæn",
    "absolutely_fantastic": "@bs@lutlI_f@nt@stIk",
}


@pytest.mark.parametrize("concept,ipa", sorted(GOLDEN_IPA.items()))
def test_golden_ipa(g2p, concept, ipa):
    assert g2p.encode_concept(concept) == ipa


def test_determinism_three_runs(g2p):
    for concept, ipa in GOLDEN_IPA.items():
        results = {g2p.encode_concept(concept) for _ in range(3)}
        assert results == {ipa}
    # A fresh engine built from the same files agrees too.
    default_engine.cache_clear()
    fresh = default_engine()
    for concept, ipa in GOLDEN_IPA.items():
        assert fresh.encode_concept(concept) == ipa


def test_squeeze_repeats():
    assert squeeze_repeats("goooooood") == "good"
    assert squeeze_repeats("good") == "good"
    assert squeeze_repeats("sooo") == "soo"


def test_squeeze_idempotent():
    import random

    rng = random.Random(7)
    for _ in range(200):
        s = "".join(rng.choice("abco") for _ in range(rng.randint(1, 12)))
        once = squeeze_repeats(s)
        assert squeeze_repeats(once) == once


def test_digit_expansion(g2p):
    assert g2p.encode_token("b4") == "bfOr"
    assert g2p.encode_token("gr8") == "gret"
    assert g2p.encode_token("2moro") == "tumOro"


def test_digit_map_all_digits(g2p):
    spoken = {
        "0": "zIro", "1": "wVn", "2": "tu", "3": "Tri", "4": "fOr",
        "5": "faIv", "6": "sIks", "7": "sEv@n", "8": "et", "9": "naIn",
    }
    for digit, ipa in spoken.items():
        assert g2p.encode_token(digit) == ipa


def test_exceptions_take_precedence():
    rules = parse_rules("|a| -> X\n|b| -> Y\n")
    engine = G2PEngine({"ab": "ZZ"}, rules)
    assert engine.encode_token("ab") == "ZZ"
    assert engine.encode_token("ba") == "YX"


def test_exception_dictionary_round_trips(g2p):
    # Every dictionary entry is returned verbatim (lookup bypasses rules).
    sample = list(g2p.exceptions.items())[:300]
    for token, ipa in sample:
        assert g2p.encode_token(token) == ipa


def test_rules_total_over_letters(g2p):
    import random

    rng = random.Random(11)
    for _ in range(300):
        token = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(1, 10)))
        assert g2p.encode_token(token)


def test_concept_segments_align(g2p):
    out = g2p.encode_concept("b4_lunch")
    segments = out.split("_")
    assert len(segments) == 2
    assert segments[0] == g2p.encode_token("b4")


def test_invalid_characters_rejected(g2p):
    for bad in ("", "café", "a b", "x!"):
        with pytest.raises(EncodingError):
            g2p.encode_token(bad)


def test_hyphen_treated_as_token_break(g2p):
    assert g2p.encode_token("narrow-minded") == g2p.encode_token("narrowminded") or g2p.encode_token("narrow-minded")


def test_uppercase_folded(g2p):
    assert g2p.encode_token("GOOD") == g2p.encode_token("good")


def test_rule_file_size(g2p):
    # The bundled cascade is a real rule set, not a stub.
    assert len(g2p.rules) >= 150
    assert len(g2p.exceptions) >= 2000


def test_comment_and_blank_lines_in_rules():
    rules = parse_rules("# comment\n\n|a| -> æ\n")
    assert len(rules) == 1


def test_tables_read_only(g2p):
    with pytest.raises(TypeError):
        g2p.exceptions["gud"] = "gUd"
    with pytest.raises(TypeError):
        g2p.rules[0] = g2p.rules[1]
    with pytest.raises(TypeError):
        g2p.digit_map["4"] = "for"


def test_tables_copied_from_the_callers():
    exceptions = {"ab": "ZZ"}
    rules = parse_rules("|a| -> X\n|b| -> Y\n")
    engine = G2PEngine(exceptions, rules)
    assert engine.encode_concept("ab_ba") == "ZZ_YX"
    exceptions["ab"] = "QQ"
    rules.clear()
    assert engine.encode_concept("ab_ba") == "ZZ_YX"
    assert engine.encode_concept("ba_ab") == "YX_ZZ"


def test_encoding_error_raised_every_call():
    engine = _fresh_engine()
    for _ in range(3):
        with pytest.raises(EncodingError):
            engine.encode_concept("gud_café")


@pytest.mark.parametrize("concept", ["gud_", "_gud", "a__b", "___", ""])
def test_empty_segment_named(concept):
    # the segment is missing, not made of characters outside [a-z0-9-]
    with pytest.raises(EncodingError, match=r"^concept '.*' has an empty segment$"):
        default_engine().encode_concept(concept)


def test_engine_freed_without_gc():
    gc.disable()  # only reference counting may free it
    try:
        engine = _fresh_engine()
        engine.encode_concept("gr8_day")
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()


def test_bundled_rules_cover_every_letter_without_context():
    # a context-free one-letter rule always matches, so the shipped
    # cascade never raises "no rewrite rule matches"
    rules = load_rules(data_path("g2p_rules.txt"))
    bare = {r.pattern for r in rules if len(r.pattern) == 1 and not r.left and not r.right}
    assert set(string.ascii_lowercase) <= bare


# --- reference interpreter: the cascade read element by element -------------

_VOWELS = frozenset("aeiouy")
_CONSONANTS = frozenset("bcdfghjklmnpqrstvwxz")
_VOICED = frozenset("bdvgjlmnrwz")
_FRONT = frozenset("eiy")
_SUFFIXES = ("ing", "ely", "er", "es", "ed", "e")


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


def _oracle_apply_rules(rules, run: str) -> str:
    out, i = [], 0
    while i < len(run):
        for rule in rules:
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


def _oracle_encode_token(engine: G2PEngine, token: str) -> str:
    token = token.lower()
    if not re.fullmatch(r"[a-z0-9-]+", token):
        raise EncodingError(f"token {token!r} has characters outside [a-z0-9-]")
    token = re.sub(r"(.)\1{2,}", r"\1\1", token)
    parts = []
    for piece in re.findall(r"[a-z]+|[0-9]", token.replace("-", " ")):
        if piece.isdigit():
            parts.append(engine.digit_map[piece])
        elif piece in engine.exceptions:
            parts.append(engine.exceptions[piece])
        else:
            parts.append(_oracle_apply_rules(engine.rules, piece))
    encoded = "".join(parts)
    if not encoded:
        raise EncodingError(f"token {token!r} produced an empty encoding")
    return encoded


def _outcome(encode, token: str):
    try:
        return encode(token)
    except EncodingError as exc:
        return ("EncodingError", str(exc))


def _tokens(letters: str, extra: str = ""):
    """Tokens over letters + extra, with runs of 3 or more repeated letters mixed in."""
    chunk = st.one_of(
        st.text(alphabet=letters + extra, min_size=1, max_size=5),
        st.builds(lambda c, n: c * n, st.sampled_from(letters), st.integers(3, 6)),
    )
    return st.lists(chunk, min_size=1, max_size=4).map("".join)


_BUNDLED_RULES = load_rules(data_path("g2p_rules.txt"))
_NO_EXCEPTIONS = G2PEngine({}, _BUNDLED_RULES)  # every letter run goes through the cascade


@settings(max_examples=400, deadline=None)
@given(token=_tokens(string.ascii_lowercase, string.digits + "-"))
def test_compiled_cascade_matches_reference_interpreter(token):
    for engine in (_NO_EXCEPTIONS, default_engine()):
        assert _outcome(engine.encode_token, token) == _outcome(
            lambda t: _oracle_encode_token(engine, t), token
        )


# Each context element on the left and on the right of a pattern, ahead
# of the rules that would shadow it: vowel runs and suffixes inside a
# context, a boundary that is not the outermost element (it never
# holds), and no catch-all for 'o' or 'x', so some tokens meet no rule.
_ELEMENT_RULES = parse_rules(
    """
    |e|$: -> E0
    :$|e| -> E1
    $:|e| -> E2
    V:|e|$ -> E3
    |e|:$ -> E4
    |e| -> E
    sV|t| -> T0
    |t|Vs -> T1
    $|t| -> T2
    |t|$ -> T3
    V|t| -> T4
    |t|V -> T5
    |t| -> T
    C|s| -> S0
    |s|C -> S1
    ab|s| -> S2
    |s|ti -> S3
    |s| -> S
    +|b| -> B0
    |b|+ -> B1
    |b| -> B
    .|a| -> A0
    |a|. -> A1
    |a| -> A
    %|x| -> X0
    |x|%s -> X1
    |x|% -> X2
    |ing|$ -> NG
    |ing| -> IN
    $|in|V -> IN0
    |d| -> D
    |g| -> G
    |i| -> I
    |l| -> L
    |n| -> N
    |y| -> Y
    """
)
_ELEMENT_ENGINE = G2PEngine({}, _ELEMENT_RULES)


# tokens that meet the rules above one by one
_ELEMENT_CASES = (
    "e", "ste", "tee", "taas", "saat", "abs", "sti", "bib", "dab",
    "esx", "elyx", "xings", "xes", "ingo", "innie", "xxxxo",
)


@settings(max_examples=400, deadline=None)
@given(token=_tokens("abdegilnostxy", "1-"))
def test_every_context_element_matches_reference_interpreter(token):
    assert _outcome(_ELEMENT_ENGINE.encode_token, token) == _outcome(
        lambda t: _oracle_encode_token(_ELEMENT_ENGINE, t), token
    )


def test_chosen_context_cases_match_reference_interpreter():
    for token in _ELEMENT_CASES:
        assert _outcome(_ELEMENT_ENGINE.encode_token, token) == _outcome(
            lambda t: _oracle_encode_token(_ELEMENT_ENGINE, t), token
        ), token
