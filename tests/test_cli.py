import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import micronorm
from micronorm.cli import build_parser, run
from micronorm.g2p import G2PEngine
from micronorm.lexicon import load_compiled
from micronorm.match_index import top_k
from micronorm.resources import SAMPLE_LEXICON, data_path, default_lexicon
from micronorm.similarity import DistanceVariant, closest_match_scan, dice_distance


def _json_lines(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line]


def test_encode_single_concept(capsys):
    assert run(["encode", "--concept", "a_little"]) == 0
    (record,) = _json_lines(capsys)
    assert record == {"concept": "a_little", "ipa": "æ_lItæl", "soundex": "A000_L340"}


def test_encode_token_with_a_leading_digit(capsys, monkeypatch):
    assert run(["encode", "--concept", "2moro"]) == 0
    (record,) = _json_lines(capsys)
    assert record["soundex"] == "2560" and record["ipa"]
    monkeypatch.setattr("sys.stdin", io.StringIO("gud\n2moro\nb4\n"))
    assert run(["encode"]) == 0
    assert [r["soundex"] for r in _json_lines(capsys)] == ["G300", "2560", "B000"]


def test_lexicon_with_a_leading_digit_concept(tmp_path, capsys):
    raw = tmp_path / "lx.tsv"
    raw.write_text("concept\tpolarity\ngood\t0.9\n24_7\t0.2\n")
    assert run(["match", "--lexicon", str(raw), "--query", "gud"]) == 0
    (record,) = _json_lines(capsys)
    assert record["matches"][0]["concept"] == "good"
    assert run(["report-duplicates", "--lexicon", str(raw), "--scheme", "soundex"]) == 0
    (report,) = _json_lines(capsys)
    assert report["num_concepts"] == 2


@pytest.mark.parametrize("concept", ["", "   "])
def test_exit_usage_on_empty_concept(capsys, monkeypatch, concept):
    # an empty --concept is no request to read stdin
    monkeypatch.setattr("sys.stdin", io.StringIO("gud\n"))
    assert run(["encode", "--concept", concept]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "micronorm: argument --concept: must not be empty\n"


def test_encode_stream_matches_the_compiled_lexicon(capsys, monkeypatch):
    # compile and encode share one encoder, so every bundled concept
    # streamed through encode gets the IPA its lexicon entry holds
    entries = default_lexicon().entries
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(e.concept + "\n" for e in entries)))
    assert run(["encode"]) == 0
    records = _json_lines(capsys)
    assert [(r["concept"], r["ipa"]) for r in records] == [(e.concept, e.ipa) for e in entries]


def test_encode_stdin_stream(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("good\nabandon\n"))
    assert run(["encode"]) == 0
    records = _json_lines(capsys)
    assert [r["concept"] for r in records] == ["good", "abandon"]
    assert records[1]["soundex"] == "A153"


def test_encode_stdin_skips_blank_lines(capsys, monkeypatch):
    # a blank line between concepts used to end the stream with exit 2
    monkeypatch.setattr("sys.stdin", io.StringIO("good\n\n  \t\nbad\n\n"))
    assert run(["encode"]) == 0
    captured = capsys.readouterr()
    assert [json.loads(line)["concept"] for line in captured.out.splitlines()] == ["good", "bad"]
    assert captured.err == ""


def test_distance(capsys):
    assert run(["distance", "--a", "apple", "--b", "appl"]) == 0
    (record,) = _json_lines(capsys)
    assert record["distance"] == 0.143


def test_distance_tsv_format(capsys):
    assert run(["distance", "--a", "good", "--b", "gud", "--format", "tsv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a\tb\tdistance"
    assert lines[1].split("\t") == ["good", "gud", "0.333"]


def test_match(capsys):
    assert run(["match", "--query", "gud"]) == 0
    (record,) = _json_lines(capsys)
    assert record["matches"][0]["concept"] == "good"
    assert record["matches"][0]["distance"] == pytest.approx(0.333, abs=1e-3)


def test_polarity(capsys):
    assert run(["polarity", "--text", "m so hapy"]) == 0
    (record,) = _json_lines(capsys)
    assert record["label"] == "Positive"
    assert record["gated_as"] == "Ungated"
    assert any(c["matched"] == "happy" for c in record["concepts"])


def test_normalize_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("gud morning\nc u 2morrow\n"))
    assert run(["normalize"]) == 0
    records = _json_lines(capsys)
    assert [r["output"] for r in records] == ["good morning", "see you tomorrow"]


def test_compile_then_match(tmp_path, capsys):
    raw = tmp_path / "lex.tsv"
    raw.write_text("concept\tpolarity\ngood\t0.9\nbad\t-0.8\n")
    compiled = tmp_path / "lex.jsonl"
    assert run(["compile", "--input", str(raw), "--output", str(compiled)]) == 0
    (record,) = _json_lines(capsys)
    assert record["concepts"] == 2
    assert run(["match", "--query", "gud", "--lexicon", str(compiled)]) == 0
    (record,) = _json_lines(capsys)
    assert record["matches"][0]["concept"] == "good"


def test_compiled_lexicon_searched_with_the_variant_flag(tmp_path, capsys):
    raw = tmp_path / "lex.tsv"
    raw.write_text("concept\tpolarity\ngood\t0.9\nbad\t-0.8\n")
    compiled = tmp_path / "lex.jsonl"
    assert run(["compile", "--input", str(raw), "--output", str(compiled), "--variant", "charset"]) == 0
    assert _json_lines(capsys)[0]["variant"] == "charset"
    argv = ["match", "--query", "gud", "--lexicon", str(compiled), "--variant", "bigram",
            "--k", "2", "--min-sim", "0"]
    assert run(argv) == 0
    (record,) = _json_lines(capsys)
    ipa = {e.concept: e.ipa for e in load_compiled(str(compiled)).entries}
    want = {c: round(dice_distance(record["ipa"], e, DistanceVariant.BIGRAM), 6) for c, e in ipa.items()}
    assert want != {c: round(dice_distance(record["ipa"], e), 6) for c, e in ipa.items()}
    assert {m["concept"]: m["distance"] for m in record["matches"]} == want


def test_gate_train_and_eval(tmp_path, capsys):
    model = tmp_path / "gate.json"
    corpus = data_path("gate_corpus.tsv")
    assert run(["gate-train", "--corpus", corpus, "--output", str(model)]) == 0
    (record,) = _json_lines(capsys)
    assert record["kind"] == "LogisticSGD"
    assert record["held_out_accuracy"] >= 0.85
    assert run(
        ["gate-eval", "--model", str(model), "--corpus", corpus, "--test-frac", "0.2"]
    ) == 0
    (record,) = _json_lines(capsys)
    assert record["accuracy"] >= 0.85


def test_report_duplicates_direction(capsys):
    assert run(["report-duplicates", "--scheme", "both"]) == 0
    soundex, ipa = _json_lines(capsys)
    assert soundex["scheme"].lower() == "soundex"
    assert ipa["scheme"].lower() == "ipa"
    assert ipa["num_duplicated_concepts"] <= soundex["num_duplicated_concepts"]


def test_eval_deterministic_bytes(capsys):
    assert run(["eval"]) == 0
    first = capsys.readouterr().out
    assert run(["eval"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["delta"] >= 0.15


# SHA-256 of `eval` stdout on the bundled data. The test above compares two
# runs of the same code; this one fails when a refactor changes any byte.
EVAL_STDOUT_SHA256 = [
    ([], "03eab419d5a6e12f0186a68d22f30e864089f5f2ba5a2aa32ab61c099b943aed"),
    (["--variant", "bigram"], "95f47543892ab77feca917186d84cd5dfe998255aaf95ec086a753f236d977ed"),
]


@pytest.mark.parametrize("flags,digest", EVAL_STDOUT_SHA256)
def test_eval_stdout_bytes_pinned(capsys, flags, digest):
    assert run(["eval", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# SHA-256 of the compiled bundled lexicon per variant, and of `report-duplicates`
# stdout on it; a compiled file still carries each concept's Soundex code
COMPILE_SHA256 = {
    "charset": "8c2d86a9131dcfa5a08f7450c6e8b5358a1698b8152907412bb0f440d119b914",
    "bigram": "850f8547e28dad43f9efd319cc55d258f8914f812fe40365fa3ecb34894c05c1",
}
REPORT_DUPLICATES_SHA256 = "bf48e1748d0266130f8ba130c6a5e50087a7cc5be6d02782cc3872a190c9dad2"


@pytest.mark.parametrize("variant", sorted(COMPILE_SHA256))
def test_compile_bytes_pinned(tmp_path, capsys, variant):
    out = tmp_path / "lex.jsonl"
    argv = ["compile", "--input", data_path(SAMPLE_LEXICON), "--output", str(out), "--variant", variant]
    assert run(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMPILE_SHA256[variant]


def test_report_duplicates_bytes_pinned(tmp_path, capsys):
    compiled = tmp_path / "lex.jsonl"
    assert run(["compile", "--input", data_path(SAMPLE_LEXICON), "--output", str(compiled)]) == 0
    # the report computes Soundex from each concept, so a stored code is never read
    altered = tmp_path / "altered.jsonl"
    header, *rows = compiled.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [json.dumps({**json.loads(r), "soundex": "Z999"}, ensure_ascii=False) + "\n" for r in rows]
    altered.write_text(header + "".join(rows), encoding="utf-8")
    capsys.readouterr()
    for lexicon in (data_path(SAMPLE_LEXICON), compiled, altered):
        assert run(["report-duplicates", "--lexicon", str(lexicon)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_DUPLICATES_SHA256, lexicon


def test_bench_with_gate(tmp_path, capsys):
    model = tmp_path / "gate.json"
    corpus = data_path("gate_corpus.tsv")
    assert run(["gate-train", "--corpus", corpus, "--output", str(model)]) == 0
    capsys.readouterr()
    assert run(["bench", "--queries", "20", "--gate-model", str(model)]) == 0
    (record,) = _json_lines(capsys)
    assert {"scan_ms_per_query", "index_ms_per_query", "search_reduction"} <= set(record)
    assert isinstance(record["g2p_us_per_token"], float) and record["g2p_us_per_token"] > 0
    assert record["search_reduction"] >= 0.30
    assert record["oov_label_mismatches"] == 0
    # counted from the outcomes' reasons over the bundled corpus
    assert (record["ungated_searches"], record["gated_searches"]) == (1427, 935)
    for key in ("ungated_us_per_sentence", "gated_us_per_sentence", "gate_predict_us"):
        assert isinstance(record[key], float) and record[key] > 0, key
    memos = record["memos"]
    assert set(memos) == {"index", "resolution"}
    assert all(set(counts) == {"hits", "misses", "currsize"} for counts in memos.values())
    # the corpus's 203 distinct OOV concepts, each resolved once and then read back
    assert memos["resolution"]["misses"] == memos["resolution"]["currsize"] == 203
    assert memos["resolution"]["hits"] > 1427


def test_bench_times_g2p_through_the_rules(capsys, monkeypatch):
    # every token of the bundled lexicon is an exception; timing them
    # through the exception table would never reach the rewrite rules
    tables = []

    class Spy(G2PEngine):
        def encode_concept(self, surface):
            tables.append(len(self.exceptions))
            return super().encode_concept(surface)

    monkeypatch.setattr("micronorm.cli.G2PEngine", Spy)
    assert run(["bench", "--queries", "1"]) == 0
    (record,) = _json_lines(capsys)
    assert len(tables) == 1166 and set(tables) == {0}
    assert record["g2p_us_per_token"] > 0


def test_bench_times_extraction(capsys):
    # with or without a gate, over the substituted tokens of the corpus
    assert run(["bench", "--queries", "1"]) == 0
    (record,) = _json_lines(capsys)
    assert isinstance(record["extract_us_per_sentence"], float) and record["extract_us_per_sentence"] > 0


def test_bench_scans_with_the_lexicon_variant(capsys, monkeypatch):
    seen = []

    def scan(query, lex, k=1, variant=DistanceVariant.CHAR_SET):
        seen.append(variant)
        return closest_match_scan(query, lex, k=k, variant=variant)

    monkeypatch.setattr("micronorm.cli.closest_match_scan", scan)
    assert run(["bench", "--queries", "3", "--variant", "bigram"]) == 0
    assert seen == [DistanceVariant.BIGRAM] * 3


def test_bench_times_each_distinct_query_once(tmp_path, capsys, monkeypatch):
    raw = tmp_path / "lex.tsv"
    raw.write_text("concept\tpolarity\ngood\t0.9\nbad\t-0.8\nhappy\t0.8\nsad\t-0.7\nkill\t-0.9\n")
    timed = []

    def spy(idx, query, **kwargs):
        timed.append(query)
        return top_k(idx, query, **kwargs)

    monkeypatch.setattr("micronorm.cli.top_k", spy)
    assert run(["bench", "--queries", "40", "--lexicon", str(raw)]) == 0
    (record,) = _json_lines(capsys)
    assert len(timed) == len(set(timed)) == 5
    assert record["queries"] == 5


class _FlushRecorder(io.StringIO):
    """A stdout that remembers what had been flushed."""

    flushed = ""

    def flush(self):
        super().flush()
        self.flushed = self.getvalue()


class _SlowStdin:
    """Hands out its lines one at a time, noting what was flushed before the second."""

    def __init__(self, lines, out):
        self.lines, self.out = lines, out
        self.before_second = None

    def __iter__(self):
        yield self.lines[0]
        self.before_second = self.out.flushed
        yield from self.lines[1:]


@pytest.mark.parametrize(
    "command,key", [("encode", "concept"), ("normalize", "input"), ("polarity", "text")]
)
def test_stdin_records_flushed_as_lines_arrive(monkeypatch, command, key):
    out = _FlushRecorder()
    stdin = _SlowStdin(["gud\n", "hapy\n"], out)
    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr("sys.stdin", stdin)
    assert run([command]) == 0
    (line,) = stdin.before_second.splitlines()
    assert json.loads(line)[key] == "gud"
    assert len(out.getvalue().splitlines()) == 2


def test_reader_closing_the_pipe_ends_quietly(tmp_path):
    # like `micronorm normalize < big.txt | head -1`: more output than a pipe holds
    lines = tmp_path / "in.txt"
    lines.write_text("gud morning\n" * 5000)
    with open(lines) as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "micronorm.cli", "normalize"],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(micronorm.__file__).parents[1])},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert json.loads(first)["output"] == "good morning"
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--queries", "0"],
        ["bench", "--queries", "many"],
        ["match", "--query", "gud", "--k", "0"],
        ["match", "--query", "gud", "--k", "-2"],
        ["bench", "--k", "0"],
        ["report-duplicates", "--top", "0"],
        ["report-duplicates", "--top", "-1"],
    ],
)
def test_exit_usage_on_count_flag_below_one(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("micronorm: argument --")


_GATE_CORPUS = ["--corpus", data_path("gate_corpus.tsv")]
_GATE_TRAIN = ["gate-train", *_GATE_CORPUS, "--output", "/nonexistent/gate.json"]
_GATE_EVAL = ["gate-eval", *_GATE_CORPUS, "--model", "/nonexistent/gate.json"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_GATE_TRAIN, "--test-frac", "nan"],
        [*_GATE_TRAIN, "--test-frac", "-0.5"],
        [*_GATE_EVAL, "--test-frac", "1.5"],
        [*_GATE_EVAL, "--test-frac", "nan"],
        ["polarity", "--accept-distance", "nan", "--text", "good"],
        ["polarity", "--accept-distance", "inf", "--text", "good"],
        ["polarity", "--min-sim", "-0.1", "--text", "good"],
        ["match", "--query", "gud", "--min-sim", "half"],
    ],
)
def test_exit_usage_on_float_flag_outside_unit_range(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("micronorm: argument --")


def test_float_flags_accept_the_bounds(capsys):
    assert run(["match", "--query", "gud", "--min-sim", "1"]) == 0
    assert _json_lines(capsys)[0]["matches"] == []
    assert run(["polarity", "--accept-distance", "0", "--text", "good"]) == 0
    assert _json_lines(capsys)[0]["label"] == "Positive"


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "micronorm", "distance", "--a", "apple", "--b", "appl"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(micronorm.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["distance"] == 0.143


@pytest.mark.parametrize("query", ["", "   "])
def test_exit_usage_on_empty_query(capsys, query):
    assert run(["match", "--query", query]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "micronorm: argument --query: must not be empty\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--a", "", "--b", "x"],
        ["--a", "x", "--b", ""],
        ["--a", "  ", "--b", "x"],
        ["--a", "x", "--b", "\t"],
    ],
)
def test_exit_usage_on_empty_distance_operand(capsys, argv):
    # an empty value exits 1 here as it does for match and encode
    assert run(["distance", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err in (
        "micronorm: argument --a: must not be empty\n",
        "micronorm: argument --b: must not be empty\n",
    )


@pytest.mark.parametrize(
    "argv, concept",
    [
        (["encode", "--concept", "a__b"], "a__b"),
        (["encode", "--concept", "gud_"], "gud_"),
        (["match", "--query", "gud_"], "gud_"),
        (["match", "--query", "___"], "___"),
    ],
)
def test_empty_segment_named_by_encode_and_match(capsys, argv, concept):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"micronorm: concept {concept!r} has an empty segment\n"


def test_invalid_utf8_on_stdin_replaced_and_dropped():
    proc = subprocess.run(
        [sys.executable, "-m", "micronorm", "normalize"],
        input=b"gud \xff\xfe morning\n",
        capture_output=True,
        timeout=120,
        # a strict handler would fail on the first undecodable byte
        env={
            **os.environ,
            "PYTHONPATH": str(Path(micronorm.__file__).parents[1]),
            "PYTHONIOENCODING": "utf-8:strict",
        },
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    record = json.loads(proc.stdout.decode("utf-8"))
    assert record == {"input": "gud \ufffd\ufffd morning", "output": "good morning"}


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--a", "x", "--b", "y", "--lexicon", "x"],
        ["distance", "--a", "x", "--b", "y", "--k", "3"],
        ["normalize", "--gate-model", "x", "--text", "good"],
        ["encode", "--concept", "good", "--variant", "bigram"],
        ["match", "--query", "gud", "--threads", "2"],
        ["eval", "--format", "tsv"],
        ["report-duplicates", "--variant", "bigram"],
        ["gate-eval", *_GATE_CORPUS, "--model", "x", "--lexicon", "x"],
        # only the best match is read, which no k changes
        ["normalize", "--k", "3", "--text", "gud"],
        ["polarity", "--k", "3", "--text", "gud"],
        ["eval", "--k", "3"],
        ["eval", "--threads", "2"],
        # the lexicon's longest concept bounds extraction
        ["polarity", "--max-ngram", "0", "--text", "good morning hapy"],
    ],
)
def test_exit_usage_on_flag_the_command_does_not_read(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("micronorm: unrecognized arguments: --")


def test_each_command_takes_only_its_own_flags():
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        for name, sub in subs.choices.items()
    }
    assert sum(map(len, flags.values())) <= 79
    assert flags["distance"] == {"a", "b", "variant", "format"}
    assert not any({"threads", "max_ngram"} & dests for dests in flags.values())
    assert [name for name, dests in flags.items() if "k" in dests] == ["match", "bench"]
    assert "format" not in flags["eval"] and "variant" not in flags["report-duplicates"]


def _model_file(tmp_path, edit):
    model = tmp_path / "gate.json"
    assert run(["gate-train", *_GATE_CORPUS, "--output", str(model)]) == 0
    payload = json.loads(model.read_text())
    model.write_text(edit(payload))
    return model


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda m: "{not json", "not a JSON model file"),
        (lambda m: json.dumps([m]), "holds a JSON object"),
        (lambda m: json.dumps({**m, "kind": "SVM"}), "unknown classifier kind 'SVM'"),
        (lambda m: json.dumps({**m, "weights": []}), "do not match the vocabulary"),
    ],
)
def test_exit_data_on_bad_gate_model(tmp_path, capsys, edit, message):
    model = _model_file(tmp_path, edit)
    capsys.readouterr()
    assert run(["polarity", "--text", "gud", "--gate-model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("micronorm: ") and message in line


def test_exit_usage_on_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1


def test_exit_usage_on_missing_required_flag(capsys):
    assert run(["distance", "--a", "x"]) == 1


def test_exit_data_on_missing_file(capsys):
    assert run(["match", "--query", "gud", "--lexicon", "/nonexistent/lex.tsv"]) == 2


def test_exit_data_on_bad_lexicon(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("concept\tpolarity\ngood\tnot_a_number\n")
    assert run(["match", "--query", "gud", "--lexicon", str(bad)]) == 2


def test_env_override_lexicon(tmp_path, capsys, monkeypatch):
    raw = tmp_path / "lex.tsv"
    raw.write_text("concept\tpolarity\ntomorrow\t0.0\n")
    monkeypatch.setenv("MICRONORM_LEXICON", str(raw))
    assert run(["match", "--query", "2morrow"]) == 0
    (record,) = _json_lines(capsys)
    assert [m["concept"] for m in record["matches"]] == ["tomorrow"]
