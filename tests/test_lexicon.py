import dataclasses
import json

import pytest

from micronorm.errors import LexiconError
from micronorm.g2p import default_engine
from micronorm.lexicon import (
    LexiconEntry,
    canonicalize_concept,
    compile_lexicon,
    duplicate_report,
    load_compiled,
    load_raw_lexicon,
    polarity_label,
    save_compiled,
)
from micronorm.similarity import DistanceVariant
from micronorm.soundex import soundex_concept


@pytest.fixture()
def g2p():
    return default_engine()


def test_canonicalize():
    assert canonicalize_concept("A Little") == "a_little"
    assert canonicalize_concept("narrow-minded") == "narrow_minded"
    assert canonicalize_concept("  a   lot ") == "a_lot"


def test_polarity_label_sign():
    assert polarity_label(0.9) == "Positive"
    assert polarity_label(-0.84) == "Negative"
    assert polarity_label(0.0) == "Neutral"


def test_load_raw(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("concept\tpolarity\nabandon\t-0.84\na little\t-0.1\n")
    raw = load_raw_lexicon(p)
    assert raw == [("abandon", -0.84), ("a_little", -0.1)]


def test_load_raw_errors_carry_line_numbers(tmp_path):
    cases = [
        ("good\t0.9\textra\n", "3"),  # column count
        ("good\tx\n", "3"),  # non-numeric
        ("good\t1.5\n", "3"),  # out of range
        ("good\t0.9\ngood\t0.8\n", "4"),  # duplicate concept
    ]
    for body, lineno in cases:
        p = tmp_path / "bad.tsv"
        p.write_text("concept\tpolarity\nfine\t0.1\n" + body)
        with pytest.raises(LexiconError) as err:
            load_raw_lexicon(p)
        assert lineno in str(err.value)


def test_compile_single_entry(g2p):
    lex = compile_lexicon([("abandon", -0.84)], g2p)
    # search reads the IPA encoding only; Soundex is computed where it is read
    assert [f.name for f in dataclasses.fields(LexiconEntry)] == ["concept", "polarity_value", "ipa"]
    assert lex.entries[0].ipa == "æb@ndæn"
    assert polarity_label(lex.entries[0].polarity_value) == "Negative"


def test_compile_allows_code_collisions(g2p):
    lex = compile_lexicon([("good", 0.9), ("gud", 0.1)], g2p)
    assert [soundex_concept(e.concept) for e in lex.entries] == ["G300", "G300"]
    assert duplicate_report(lex, "soundex").top_collisions == [("G300", ["good", "gud"])]


def test_compile_rejects_empty_and_duplicates(g2p):
    with pytest.raises(LexiconError):
        compile_lexicon([], g2p)
    with pytest.raises(LexiconError):
        compile_lexicon([("good", 0.9), ("good", 0.8)], g2p)


@pytest.mark.parametrize(
    "row,message",
    [
        (("bad", 5.0), "row 2: polarity 5.0 outside [-1, 1]"),
        (("bad", float("nan")), "row 2: polarity nan outside [-1, 1]"),
        (("bad", "x"), "row 2: bad polarity 'x'"),
        ((7, -0.5), "row 2: invalid concept surface 7"),
        (("good", -0.5), "row 2: duplicate concept 'good' (first at row 1)"),
    ],
    ids=["polarity_above_one", "polarity_nan", "polarity_not_a_number", "concept_not_a_string", "duplicate"],
)
def test_compile_checks_rows_like_the_loaders(g2p, row, message):
    with pytest.raises(LexiconError) as err:
        compile_lexicon([("good", 0.9), row, ("fine", 0.1)], g2p)
    assert str(err.value) == message


def test_compile_stores_the_polarity_as_a_float(g2p):
    (entry,) = compile_lexicon([("good", "0.5")], g2p).entries
    assert entry.polarity_value == 0.5 and type(entry.polarity_value) is float


def test_round_trip(tmp_path, g2p):
    lex = compile_lexicon([("good", 0.9), ("abandon", -0.84), ("a_little", -0.1)], g2p)
    path = tmp_path / "c.jsonl"
    save_compiled(lex, path)
    loaded = load_compiled(path)
    assert loaded.entries == lex.entries
    assert loaded.variant is lex.variant


def test_compiled_format(tmp_path, g2p):
    lex = compile_lexicon([("a_little", -0.1)], g2p)
    path = tmp_path / "c.jsonl"
    save_compiled(lex, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header == {"format": "phonlex", "version": 1, "variant": "charset"}
    row = json.loads(lines[1])
    assert set(row) == {"concept", "polarity", "ipa", "soundex"}
    assert row["ipa"] == "æ_lItæl"


def test_compile_deterministic_bytes(tmp_path, g2p):
    raw = [("good", 0.9), ("abandon", -0.84)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_compiled(compile_lexicon(raw, g2p), p1)
    save_compiled(compile_lexicon(raw, g2p), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_compiled_errors(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text("")
    with pytest.raises(LexiconError):
        load_compiled(p)  # empty file
    p.write_text('{"format":"phonlex","version":2,"variant":"charset"}\n')
    with pytest.raises(LexiconError):
        load_compiled(p)  # version mismatch
    p.write_text(
        '{"format":"phonlex","version":1,"variant":"charset"}\n'
        '{"concept":"x","polarity":0.1,"soundex":"X000"}\n'
    )
    with pytest.raises(LexiconError):
        load_compiled(p)  # missing ipa key


_HEADER = '{"format":"phonlex","version":1,"variant":"charset"}\n'
_GOOD = {"concept": "good", "polarity": 0.9, "ipa": "gUd", "soundex": "G300"}


@pytest.mark.parametrize(
    "rows,message",
    [
        ([{**_GOOD, "polarity": "nan"}], "polarity nan outside [-1, 1]"),
        ([{**_GOOD, "polarity": 5}], "polarity 5.0 outside [-1, 1]"),
        ([{**_GOOD, "polarity": "x"}], "bad polarity 'x'"),
        ([{**_GOOD, "concept": "Good Day"}], "invalid concept surface 'Good Day'"),
        ([{**_GOOD, "concept": 7}], "invalid concept surface 7"),
        ([_GOOD, {**_GOOD, "polarity": -0.9}], "duplicate concept 'good' (first at line 2)"),
        ([{**_GOOD, "ipa": ""}], "ipa must be a non-empty string"),
        (["good"], "malformed entry"),
    ],
)
def test_load_compiled_checks_rows_like_the_raw_loader(tmp_path, rows, message):
    p = tmp_path / "bad.jsonl"
    p.write_text(_HEADER + "".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(LexiconError) as err:
        load_compiled(p)
    assert str(err.value).startswith(f"{p}:{len(rows) + 1}: ")
    assert message in str(err.value)


@pytest.mark.parametrize("header", ['["phonlex", 1]', '"phonlex"', "1"])
def test_load_compiled_rejects_a_header_that_is_not_an_object(tmp_path, header):
    p = tmp_path / "bad.jsonl"
    p.write_text(header + "\n" + json.dumps(_GOOD) + "\n")
    with pytest.raises(LexiconError, match="unsupported format tag"):
        load_compiled(p)


def test_surface_lookup(lexicon):
    assert lexicon.entries[lexicon.surface_map["good"]].polarity_value == 0.9
    assert "nonexistent_concept_xyz" not in lexicon.surface_map


def test_duplicate_report_small(g2p):
    lex = compile_lexicon([("robert", 0.0), ("rupert", 0.0), ("candy", 0.0)], g2p)
    soundex = duplicate_report(lex, "soundex")
    assert soundex.num_duplicated_concepts == 2
    assert soundex.top_collisions == [("R163", ["robert", "rupert"])]
    ipa = duplicate_report(lex, "ipa")
    assert ipa.num_duplicated_concepts == 0
    assert ipa.top_collisions == []


def test_duplicate_report_direction_bundled(lexicon):
    soundex = duplicate_report(lexicon, "soundex")
    ipa = duplicate_report(lexicon, "ipa")
    assert ipa.num_duplicated_concepts <= soundex.num_duplicated_concepts


def test_duplicate_report_rejects_unknown_scheme(lexicon):
    with pytest.raises(LexiconError):
        duplicate_report(lexicon, "metaphone")


def test_bigram_variant_recorded(tmp_path, g2p):
    lex = compile_lexicon([("good", 0.9)], g2p, DistanceVariant.BIGRAM)
    path = tmp_path / "c.jsonl"
    save_compiled(lex, path)
    assert load_compiled(path).variant is DistanceVariant.BIGRAM
