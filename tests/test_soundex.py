import pytest

from micronorm.errors import EncodingError
from micronorm.soundex import soundex_concept, soundex_token

# Classic NARA examples, hand-derived with the standard code table.
CLASSIC = {
    "robert": "R163",
    "rupert": "R163",
    "ashcraft": "A261",  # h is transparent: s(2), c(2 collapsed), r(6), f(1)
    "ashcroft": "A261",
    "tymczak": "T522",  # cz collapse to one 2; vowel separates z/k? no: a separates
    "pfister": "P236",  # p/f collapse at the head
    "honeyman": "H555",
    "jackson": "J250",
    "washington": "W252",
    "lee": "L000",
    "gutierrez": "G362",
    "vandeusen": "V532",
}

GOLDEN_CODES = {
    "a_little": "A000_L340",
    "abandon": "A153",
    "absolutely_fantastic": "A124_F532",
}


@pytest.mark.parametrize("token,code", sorted(CLASSIC.items()))
def test_classic_codes(token, code):
    assert soundex_token(token) == code


@pytest.mark.parametrize("concept,code", sorted(GOLDEN_CODES.items()))
def test_concept_golden_codes(concept, code):
    assert soundex_concept(concept) == code


def test_multi_token_join():
    assert soundex_concept("robert_rupert") == "R163_R163"


def test_first_letter_code_collapses_into_head():
    # p and f share code 1; the head letter absorbs the first f.
    assert soundex_token("pfister") == "P236"


def test_vowels_separate_equal_codes():
    # In "tymczak" c,z are adjacent (collapse); z,k are split by 'a'.
    assert soundex_token("tymczak") == "T522"


def test_hw_transparent():
    # s-c in "ashcraft" are separated only by h, so the equal codes collapse.
    assert soundex_token("ashcraft") == "A261"


def test_zero_padding_and_truncation():
    assert soundex_token("lee") == "L000"
    assert soundex_token("gutierrez") == "G362"  # truncated to 3 digits


def test_case_insensitive():
    assert soundex_token("Robert") == soundex_token("robert")


def test_format_invariant():
    import re

    for token in CLASSIC:
        assert re.fullmatch(r"[A-Z][0-9]{3}", soundex_token(token))


def test_digits_ignored_by_code_table():
    assert soundex_token("b4") == soundex_token("b")


def test_no_leading_letter_rejected():
    # a leading digit is kept as the head; only an empty token is refused
    assert soundex_token("4") == "4000"
    assert soundex_token("2moro") == "2560"
    assert soundex_concept("24_7") == "2000_7000"
    with pytest.raises(EncodingError):
        soundex_token("")
