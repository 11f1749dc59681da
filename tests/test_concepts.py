import pytest
from hypothesis import given, settings, strategies as st

from micronorm import concepts
from micronorm.concepts import (
    ConceptCandidate,
    default_stopwords,
    default_substitutions,
    extract_concepts,
    load_substitutions,
    load_wordlist,
    substituted_tokens,
)
from micronorm.g2p import default_engine
from micronorm.lexicon import LexiconEntry, PhonLexicon, compile_lexicon, load_compiled, save_compiled
from micronorm.oov_gate import tokenize
from micronorm.resources import GATE_CORPUS, MICROTEXT_SUITE, data_path, default_lexicon


def test_multiword_greedy_match(lexicon):
    got = extract_concepts("absolutely fantastic movie", lexicon)
    assert got == [
        ConceptCandidate(concept="absolutely_fantastic", span=(0, 2), matched_iv=True),
        ConceptCandidate(concept="movie", span=(2, 3), matched_iv=True),
    ]


def test_empty_sentence(lexicon):
    assert extract_concepts("", lexicon) == []
    assert extract_concepts("   !!! ", lexicon) == []


def test_oov_tokens_surface(lexicon):
    got = extract_concepts("i dnt lyk reading", lexicon)
    assert [(c.concept, c.matched_iv) for c in got] == [
        ("dnt", False),
        ("lyk", False),
        ("reading", True),
    ]


def test_stopwords_dropped_from_oov(lexicon):
    # "u r" substitutes to "you are", both stopwords; only gr8 survives.
    got = extract_concepts("u r gr8", lexicon)
    assert [(c.concept, c.matched_iv) for c in got] == [("gr8", False)]


def test_only_stopwords_yield_nothing(lexicon):
    assert extract_concepts("the a of", lexicon) == []


def test_spans_tile_without_overlap(lexicon):
    sentences = [
        "absolutely fantastic movie tonight",
        "i dnt lyk reading",
        "good morning a little bird told me",
    ]
    for sentence in sentences:
        tokens = substituted_tokens(sentence)
        prev_end = 0
        for cand in extract_concepts(sentence, lexicon):
            start, end = cand.span
            assert prev_end <= start < end <= len(tokens)
            prev_end = end


def test_substitution_table():
    subs = default_substitutions()
    assert subs["u"] == "you"
    assert subs["2"] == "to"
    assert len(subs) <= 20
    assert substituted_tokens("c u b4") == ["see", "you", "b4"]


def test_apostrophes_stripped_in_concept_keys(lexicon):
    got = extract_concepts("don't worry", lexicon)
    assert [c.concept for c in got] == ["dont", "worry"]
    assert all(c.matched_iv for c in got)


def test_longest_match_shadows_unigrams():
    g2p = default_engine()
    lex = compile_lexicon([("good", 0.9), ("morning", 0.1), ("good_morning", 0.5)], g2p)
    got = extract_concepts("good morning", lex)
    assert [c.concept for c in got] == ["good_morning"]


def test_load_wordlist_skips_comments(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("# header\n\nalpha\nbeta\n")
    assert load_wordlist(p) == frozenset({"alpha", "beta"})


def test_load_substitutions_format(tmp_path):
    p = tmp_path / "s.tsv"
    p.write_text("# map\nu\tyou\nbroken_line\n")
    assert load_substitutions(p) == {"u": "you"}


def test_default_stopwords_nontrivial():
    sw = default_stopwords()
    assert {"a", "the", "is", "of"} <= sw
    assert len(sw) >= 50


def _oracle_extract(sentence, lex):
    """Extraction by trying every n-gram key, from the rest of the sentence down to one token."""
    stopwords = default_stopwords()
    tokens = substituted_tokens(sentence)

    def key(toks):
        return "_".join(tok.replace("'", "") for tok in toks)

    out, i = [], 0
    while i < len(tokens):
        for n in range(len(tokens) - i, 0, -1):
            k = key(tokens[i : i + n])
            if k in lex.surface_map:
                out.append(ConceptCandidate(concept=k, span=(i, i + n), matched_iv=True))
                i += n
                break
        else:
            k = key(tokens[i : i + 1])
            if tokens[i] not in stopwords and k:
                out.append(ConceptCandidate(concept=k, span=(i, i + 1), matched_iv=False))
            i += 1
    return out


_BUNDLED = default_lexicon()
# whole concepts (so multi-word ones occur and overlap) and single words
_CHUNKS = sorted(
    {e.concept.replace("_", " ") for e in _BUNDLED.entries}
    | {w for e in _BUNDLED.entries for w in e.concept.split("_")}
    | default_stopwords()
    | set(default_substitutions())
    | {"don't", "can't", "i'm", "'", "o'clock", "gud", "2morrow", "gr8"}
)
_MULTIWORD = sorted(e.concept.replace("_", " ") for e in _BUNDLED.entries if "_" in e.concept)


@settings(max_examples=300, deadline=None)
@given(
    chunks=st.lists(st.one_of(st.sampled_from(_CHUNKS), st.sampled_from(_MULTIWORD)), max_size=10),
)
def test_prefix_walk_matches_ngram_oracle(chunks):
    sentence = " ".join(chunks)
    assert extract_concepts(sentence, _BUNDLED) == _oracle_extract(sentence, _BUNDLED)


_SMALL = compile_lexicon(
    [
        ("a", 0.1),
        ("a_little", 0.2),
        ("a_little_bit", 0.3),
        ("good_morning", 0.5),
        ("good_morning_to_you", 0.6),
        ("good_morning_to_you_all", 0.7),
        ("bit", 0.0),
        ("you", 0.1),
    ],
    default_engine(),
)
# values that hold '_' or are empty: keys the tokenizer itself never yields
_ODD_SUBS = {"gm": "good_morning", "lb": "little_bit", "al": "a_little", "zz": "", "2": "to", "u": "you"}


@settings(max_examples=300, deadline=None)
@given(
    words=st.lists(
        st.sampled_from(
            ["a", "little", "bit", "good", "morning", "to", "you", "all", "gm", "lb", "al", "zz", "2", "u", "x"]
        ),
        max_size=10,
    ),
)
def test_prefix_walk_matches_oracle_with_odd_substitutions(words):
    sentence = " ".join(words)
    # patched in the body, as hypothesis refuses function-scoped fixtures
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concepts, "default_substitutions", lambda: _ODD_SUBS)
        got = extract_concepts(sentence, _SMALL)
        assert got == _oracle_extract(sentence, _SMALL)


def test_substituted_underscore_value_joins_a_longer_concept(monkeypatch):
    monkeypatch.setattr(concepts, "default_substitutions", lambda: _ODD_SUBS)
    got = extract_concepts("gm 2 u", _SMALL)
    assert got == [ConceptCandidate(concept="good_morning_to_you", span=(0, 3), matched_iv=True)]


def test_three_token_concept_found():
    got = extract_concepts("a little bit gud", _SMALL)
    assert got == [
        ConceptCandidate(concept="a_little_bit", span=(0, 3), matched_iv=True),
        ConceptCandidate(concept="gud", span=(3, 4), matched_iv=False),
    ]


def test_five_token_concept_extracted_whole():
    # no cap on the n-gram length: the lexicon's longest concept bounds the walk
    got = extract_concepts("good morning to you all gud", _SMALL)
    assert got == [
        ConceptCandidate(concept="good_morning_to_you_all", span=(0, 5), matched_iv=True),
        ConceptCandidate(concept="gud", span=(5, 6), matched_iv=False),
    ]


def _extendable(lex):
    """The key table's keys that extraction may extend: the concept prefixes."""
    return {key for key, (_, extendable) in lex.key_table.items() if extendable}


def test_prefixes_are_concepts_cut_before_each_underscore():
    assert _extendable(_SMALL) == {
        "a", "a_little", "good", "good_morning", "good_morning_to", "good_morning_to_you"
    }
    concepts = {key for key, (is_concept, _) in _SMALL.key_table.items() if is_concept}
    assert concepts == set(_SMALL.surface_map)
    assert set(_SMALL.key_table) == concepts | _extendable(_SMALL)


def test_key_table_flags_keys_that_are_both_concept_and_prefix():
    for key in ("a", "a_little", "good_morning"):
        assert _SMALL.key_table[key] == (True, True), key
    assert _SMALL.key_table["good"] == (False, True)
    assert _SMALL.key_table["a_little_bit"] == (True, False)
    # built in __post_init__, so a lexicon built by hand has it too
    hand_built = PhonLexicon([LexiconEntry("thank_you", 0.8, "θæŋkju")])
    assert hand_built.key_table == {"thank": (False, True), "thank_you": (True, False)}
    assert PhonLexicon(list(_SMALL.entries)).key_table == _SMALL.key_table


def test_loaded_lexicon_extracts_like_the_compiled_one(tmp_path):
    path = tmp_path / "lex.jsonl"
    save_compiled(_BUNDLED, path)
    loaded = load_compiled(path)
    assert _extendable(loaded) == _extendable(_BUNDLED)
    assert loaded.key_table == _BUNDLED.key_table
    for name in (GATE_CORPUS, MICROTEXT_SUITE):
        with open(data_path(name), encoding="utf-8") as fh:
            for line in fh:
                sentence = line.partition("\t")[0]
                assert extract_concepts(sentence, loaded) == extract_concepts(sentence, _BUNDLED)


def test_tokens_extract_like_the_sentence():
    for name in (GATE_CORPUS, MICROTEXT_SUITE):
        with open(data_path(name), encoding="utf-8") as fh:
            for line in fh:
                sentence = line.partition("\t")[0]
                assert extract_concepts(tokenize(sentence), _BUNDLED) == extract_concepts(sentence, _BUNDLED)
    assert substituted_tokens(["c", "u", "2morrow"]) == substituted_tokens("c u 2morrow")


def test_candidate_is_an_immutable_value():
    a = ConceptCandidate(concept="gud", span=(0, 1), matched_iv=False)
    with pytest.raises(AttributeError):
        a.concept = "good"
    b = ConceptCandidate("gud", (0, 1), False)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ConceptCandidate(concept="gud", span=(0, 1), matched_iv=True)
    assert ConceptCandidate._fields == ("concept", "span", "matched_iv")
