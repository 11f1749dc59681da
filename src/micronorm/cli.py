"""Command-line entry point.

Subcommands cover the full toolkit: lexicon compilation, phonetic
encoding, distance, phonetic matching, gate training/evaluation,
normalization, polarity, duplicate reports, end-to-end evaluation, and
micro-benchmarks.  Each subcommand takes only the flags it reads.
Output is JSON lines by default (``--format tsv`` for flat tabular
output; ``eval`` prints one JSON report); diagnostics go to stderr.
Exit codes: 0 success, 1 usage error, 2 data error.

Path defaults resolve to the bundled data files and can be overridden
by environment variables (``MICRONORM_LEXICON``, ``MICRONORM_RULES``,
``MICRONORM_EXCEPTIONS``, ``MICRONORM_MODEL``) or per-run flags; flags
win over the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import time
from collections.abc import Iterator

from .concepts import extract_from_tokens, substituted_tokens
from .errors import EncodingError, MicronormError
from .g2p import G2PEngine, default_engine, load_exceptions, load_rules
from .lexicon import (
    PhonLexicon,
    compile_lexicon,
    duplicate_report,
    load_compiled,
    load_raw_lexicon,
    save_compiled,
)
from .match_index import top_k
from .oov_gate import (
    LR_KIND,
    NB_KIND,
    OOV,
    evaluate,
    load_labeled_corpus,
    load_model,
    load_parallel_corpus,
    save_model,
    tokenize,
    train,
    train_test_split,
)
from .pipeline import (
    SEARCH_REASONS,
    PipelineConfig,
    eval_polarity,
    normalize_sentence,
    sentence_polarity,
)
from .resources import GATE_CORPUS, MICROTEXT_SUITE, data_path, default_lexicon
from .similarity import DistanceVariant, closest_match_scan, dice_distance
from .soundex import soundex_concept

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1 with one line."""

    def error(self, message):
        print(f"micronorm: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value <= 1.0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _non_blank(text: str) -> str:
    if not text.strip():
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _env(name: str) -> str | None:
    return os.environ.get(f"MICRONORM_{name}")


def _emitter(fmt: str):
    """A function that prints one record and flushes it, so a reader of a
    stream sees it at once; in tsv, the first record's keys head the table."""
    header_done = False

    def emit(record: dict) -> None:
        nonlocal header_done
        if fmt == "tsv":
            keys = sorted(record)
            if not header_done:
                print("\t".join(keys))
                header_done = True
            print(
                "\t".join(
                    json.dumps(record[k], ensure_ascii=False)
                    if isinstance(record[k], (dict, list))
                    else str(record[k])
                    for k in keys
                )
            )
        else:
            print(json.dumps(record, ensure_ascii=False, sort_keys=True))
        sys.stdout.flush()

    return emit


def _build_g2p(args) -> G2PEngine:
    exceptions_path = args.exceptions or _env("EXCEPTIONS")
    rules_path = args.rules or _env("RULES")
    if exceptions_path is None and rules_path is None:
        return default_engine()
    exceptions = load_exceptions(exceptions_path or data_path("g2p_exceptions.tsv"))
    rules = load_rules(rules_path or data_path("g2p_rules.txt"))
    return G2PEngine(exceptions, rules)


def _load_lexicon(args, g2p: G2PEngine, variant: DistanceVariant) -> PhonLexicon:
    path = args.lexicon or _env("LEXICON")
    if path is None:
        return default_lexicon(variant)
    if path.endswith(".jsonl"):
        lex = load_compiled(path)
        # the stored encodings serve either variant, so --variant decides the
        # search, whatever variant the file's header records
        lex.variant = variant
        return lex
    return compile_lexicon(load_raw_lexicon(path), g2p, variant)


def _load_gate(args):
    path = args.gate_model or _env("MODEL")
    return load_model(path) if path else None


def _pipeline_config(args, model=None) -> PipelineConfig:
    return PipelineConfig(
        accept_distance=args.accept_distance,
        k=getattr(args, "k", PipelineConfig.k),  # normalize, polarity and eval read only the best match
        variant=DistanceVariant(args.variant),
        gate_enabled=model is not None,
        min_sim=args.min_sim,
    )


def _input_lines(text: str | None) -> Iterator[str]:
    """``text`` alone, or stdin one line at a time as lines arrive."""
    if text is not None:
        yield text
        return
    # bytes that are not UTF-8 become U+FFFD, which the tokenizer drops,
    # whatever error handler the locale would give stdin
    reconfigure = getattr(sys.stdin, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(errors="replace")
    for line in sys.stdin:
        yield line.rstrip("\n")


def _suite_rows(path) -> list[tuple[str, str]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise MicronormError(f"{path}:{lineno}: expected sentence<TAB>label")
            rows.append((cols[0], cols[1]))
    return rows


# ------------------------------------------------------------- subcommands


def cmd_compile(args, emit):
    g2p = _build_g2p(args)
    raw = load_raw_lexicon(args.input)
    lex = compile_lexicon(raw, g2p, DistanceVariant(args.variant))
    save_compiled(lex, args.output)
    emit({"compiled": args.output, "concepts": len(lex.entries), "variant": lex.variant.value})
    return EXIT_OK


def cmd_encode(args, emit):
    g2p = _build_g2p(args)
    for concept in _input_lines(args.concept):
        if not concept.strip():
            continue  # a blank stdin line; a blank --concept exits 1 when parsed
        emit(
            {
                "concept": concept,
                # G2P first: it names the fault where Soundex would not
                "ipa": g2p.encode_concept(concept),
                "soundex": soundex_concept(concept),
            }
        )
    return EXIT_OK


def cmd_distance(args, emit):
    d = dice_distance(args.a, args.b, DistanceVariant(args.variant))
    emit({"a": args.a, "b": args.b, "distance": round(d, 3)})
    return EXIT_OK


def cmd_match(args, emit):
    g2p = _build_g2p(args)
    lex = _load_lexicon(args, g2p, DistanceVariant(args.variant))
    query = g2p.encode_concept(args.query)
    matches = top_k(lex.match_index, query, k=args.k, min_sim=args.min_sim)
    emit(
        {
            "query": args.query,
            "ipa": query,
            "matches": [
                {"concept": m.concept, "distance": round(m.distance, 6)} for m in matches
            ],
        }
    )
    return EXIT_OK


def cmd_gate_train(args, emit):
    loader = load_parallel_corpus if args.parallel else load_labeled_corpus
    records = loader(args.corpus)
    train_records, test_records = train_test_split(records, args.test_frac, seed=args.seed)
    model = train(train_records, kind=args.kind, seed=args.seed)
    save_model(model, args.output)
    report = evaluate(model, test_records) if test_records else None
    out = {
        "model": args.output,
        "kind": model.kind,
        "train_records": len(train_records),
        "test_records": len(test_records),
    }
    if report is not None:
        out["held_out_accuracy"] = round(report.accuracy, 6)
    emit(out)
    return EXIT_OK


def cmd_gate_eval(args, emit):
    model = load_model(args.model)
    loader = load_parallel_corpus if args.parallel else load_labeled_corpus
    records = loader(args.corpus)
    if args.test_frac > 0:
        _, records = train_test_split(records, args.test_frac, seed=args.seed)
    report = evaluate(model, records)
    emit({"kind": model.kind, "records": len(records), **dataclasses.asdict(report)})
    return EXIT_OK


def cmd_normalize(args, emit):
    g2p = _build_g2p(args)
    lex = _load_lexicon(args, g2p, DistanceVariant(args.variant))
    cfg = _pipeline_config(args)
    for line in _input_lines(args.text):
        emit({"input": line, "output": normalize_sentence(line, lex, lex.match_index, g2p, cfg)})
    return EXIT_OK


def cmd_polarity(args, emit):
    g2p = _build_g2p(args)
    lex = _load_lexicon(args, g2p, DistanceVariant(args.variant))
    model = _load_gate(args)
    cfg = _pipeline_config(args, model)
    for line in _input_lines(args.text):
        result = sentence_polarity(line, lex, lex.match_index, g2p, cfg, model=model)
        emit(
            {
                "text": line,
                "label": result.label,
                "score": round(result.score, 6),
                "gated_as": result.gated_as,
                "concepts": [
                    {
                        "original": o.original,
                        "matched": o.matched,
                        "distance": None if o.distance is None else round(o.distance, 6),
                        "accepted": o.accepted,
                    }
                    for o in result.trace
                ],
            }
        )
    return EXIT_OK


def cmd_report_duplicates(args, emit):
    g2p = _build_g2p(args)
    # the report reads concepts and IPA codes only, so the search variant is moot
    lex = _load_lexicon(args, g2p, DistanceVariant.CHAR_SET)
    schemes = ["soundex", "ipa"] if args.scheme == "both" else [args.scheme]
    for scheme in schemes:
        report = duplicate_report(lex, scheme, top_n=args.top)
        emit(
            {
                "scheme": report.scheme,
                "num_concepts": report.num_concepts,
                "num_distinct_codes": report.num_distinct_codes,
                "num_duplicated_concepts": report.num_duplicated_concepts,
                "top_collisions": [
                    {"code": code, "concepts": members}
                    for code, members in report.top_collisions
                ],
            }
        )
    return EXIT_OK


def cmd_eval(args, emit):
    g2p = _build_g2p(args)
    lex = _load_lexicon(args, g2p, DistanceVariant(args.variant))
    model = _load_gate(args)
    cfg = _pipeline_config(args, model)
    rows = _suite_rows(args.suite or data_path(MICROTEXT_SUITE))
    report = eval_polarity(rows, lex, lex.match_index, g2p, cfg, model=model)
    report["seed"] = args.seed
    report["config"] = {
        "accept_distance": cfg.accept_distance,
        "k": cfg.k,
        "variant": cfg.variant.value,
        "min_sim": cfg.min_sim,
        "gate_enabled": cfg.gate_enabled,
    }
    emit(report)
    return EXIT_OK


def cmd_bench(args, emit):
    g2p = _build_g2p(args)
    lex = _load_lexicon(args, g2p, DistanceVariant(args.variant))
    model = _load_gate(args)
    cfg = _pipeline_config(args, model)
    idx = lex.match_index
    rng = random.Random(args.seed)

    # each distinct encoding at most once, so no timed query is a memo hit
    distinct = sorted({e.ipa for e in lex.entries})
    queries = rng.sample(distinct, min(args.queries, len(distinct)))
    t0 = time.perf_counter()
    for q in queries:
        closest_match_scan(q, lex, k=cfg.k, variant=lex.variant)
    scan_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for q in queries:
        top_k(idx, q, k=cfg.k, min_sim=cfg.min_sim)
    index_s = time.perf_counter() - t0
    tokens = sorted({tok for e in lex.entries for tok in e.concept.split("_")})
    # without the exception table, which holds every token of the bundled
    # lexicon, each token goes through the rewrite rules
    rules_only = G2PEngine({}, g2p.rules)
    t0 = time.perf_counter()
    for tok in tokens:
        try:
            rules_only.encode_concept(tok)
        except EncodingError:  # a --rules file may not cover the lexicon's letters
            pass
    g2p_s = time.perf_counter() - t0

    def us_per_item(call, items) -> float:
        """The fastest of three passes over ``items``, in µs per item."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for item in items:
                call(item)
            best = min(best, time.perf_counter() - t0)
        return round(1e6 * best / len(items), 3)

    records = load_labeled_corpus(args.corpus or data_path(GATE_CORPUS))
    substituted = [substituted_tokens(text) for text, _ in records]
    out = {
        "queries": len(queries),
        "g2p_us_per_token": round(1e6 * g2p_s / len(tokens), 3),
        "scan_ms_per_query": round(1000.0 * scan_s / len(queries), 4),
        "index_ms_per_query": round(1000.0 * index_s / len(queries), 4),
        "speedup": round(scan_s / index_s, 2) if index_s > 0 else None,
        "extract_us_per_sentence": us_per_item(
            lambda toks: extract_from_tokens(toks, lex), substituted
        ),
    }

    if model is not None:
        ungated_searches = gated_searches = mismatches = 0
        for text, _ in records:
            # with no model the gate does not run, whatever the config says
            plain = sentence_polarity(text, lex, idx, g2p, cfg)
            routed = sentence_polarity(text, lex, idx, g2p, cfg, model=model)
            ungated_searches += sum(o.reason in SEARCH_REASONS for o in plain.trace)
            gated_searches += sum(o.reason in SEARCH_REASONS for o in routed.trace)
            if routed.gated_as == OOV and routed.label != plain.label:
                mismatches += 1

        # the pass above has filled the memos; the pipeline tokenizes once
        # and hands the tokens to the gate, so a predict is timed on tokens
        texts = [text for text, _ in records]
        token_lists = [tokenize(text) for text in texts]
        ungated_us = us_per_item(lambda text: sentence_polarity(text, lex, idx, g2p, cfg), texts)
        gated_us = us_per_item(
            lambda text: sentence_polarity(text, lex, idx, g2p, cfg, model=model), texts
        )
        predict_us = us_per_item(model.predict, token_lists)
        reduction = 1.0 - gated_searches / ungated_searches if ungated_searches else 0.0
        out.update(
            {
                "sentences": len(records),
                "ungated_searches": ungated_searches,
                "gated_searches": gated_searches,
                "search_reduction": round(reduction, 4),
                "oov_label_mismatches": mismatches,
                "ungated_us_per_sentence": ungated_us,
                "gated_us_per_sentence": gated_us,
                "gate_predict_us": predict_us,
                # counted since each memo was made, these passes included
                "memos": {
                    name: {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
                    for name, info in (
                        ("index", idx.memo.cache_info()),
                        ("resolution", cfg.memo.cache_info()),
                    )
                },
            }
        )
    emit(out)
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _flag(name: str, **kwargs):
    """A function that adds one flag to a subcommand's parser."""
    return lambda p: p.add_argument(name, **kwargs)


# Each subcommand takes only the flags whose values change its output; the
# groups below are the flags that several of them share.
_FORMAT = [_flag("--format", choices=("json", "tsv"), default="json")]
_SEED = [_flag("--seed", type=int, default=42)]
_VARIANT = [_flag("--variant", choices=("charset", "bigram"), default="charset")]
_G2P = [
    _flag("--exceptions", help="G2P exception dictionary path"),
    _flag("--rules", help="G2P rewrite rules path"),
]
_LEXICON = [
    *_G2P,
    _flag(
        "--lexicon",
        help="raw .tsv or compiled .jsonl lexicon path; --variant, where taken, picks "
        "the search variant, whatever variant a compiled file was written with",
    ),
]
_SEARCH = [*_VARIANT, _flag("--min-sim", type=_fraction, default=0.5)]
_K = [_flag("--k", type=_at_least_one, default=PipelineConfig.k)]
_PIPELINE = [
    *_LEXICON,
    *_SEARCH,
    _flag("--accept-distance", type=_fraction, default=0.45),
]
_GATE = [_flag("--gate-model", help="trained gate model path")]


def build_parser() -> _Parser:
    parser = _Parser(prog="micronorm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, flags):
        p = subs.add_parser(name, help=help)
        for add in flags:
            add(p)
        p.set_defaults(func=func)
        return p

    p = command("compile", cmd_compile, "compile a raw lexicon to JSONL", _G2P + _VARIANT + _FORMAT)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = command("encode", cmd_encode, "Soundex + IPA encodings of concepts", _G2P + _FORMAT)
    p.add_argument("--concept", type=_non_blank, help="single concept; otherwise stream stdin")

    p = command("distance", cmd_distance, "Dice distance between two strings", _VARIANT + _FORMAT)
    p.add_argument("--a", type=_non_blank, required=True)
    p.add_argument("--b", type=_non_blank, required=True)

    p = command("match", cmd_match, "phonetic top-k search for one concept",
                _LEXICON + _SEARCH + _K + _FORMAT)
    p.add_argument("--query", type=_non_blank, required=True)

    p = command("gate-train", cmd_gate_train, "train the OOV/IV gate classifier", _SEED + _FORMAT)
    p.add_argument("--corpus", required=True)
    p.add_argument("--parallel", action="store_true", help="raw<TAB>normalized input")
    p.add_argument("--kind", choices=(NB_KIND, LR_KIND), default=LR_KIND)
    p.add_argument("--output", required=True)
    p.add_argument("--test-frac", type=_fraction, default=0.2)

    p = command("gate-eval", cmd_gate_eval, "evaluate a trained gate model", _SEED + _FORMAT)
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--test-frac", type=_fraction, default=0.0,
                   help="evaluate only the seeded held-out fraction")

    p = command("normalize", cmd_normalize, "rewrite microtext spans (stdin streaming)",
                _PIPELINE + _FORMAT)
    p.add_argument("--text", help="single sentence; otherwise stream stdin")

    p = command("polarity", cmd_polarity, "sentence polarity with trace (stdin streaming)",
                _PIPELINE + _GATE + _FORMAT)
    p.add_argument("--text", help="single sentence; otherwise stream stdin")

    p = command("report-duplicates", cmd_report_duplicates, "encoding collision statistics",
                _LEXICON + _FORMAT)
    p.add_argument("--scheme", choices=("soundex", "ipa", "both"), default="both")
    p.add_argument("--top", type=_at_least_one, default=10)

    # eval prints one JSON report, so it takes no --format; it draws nothing
    # at random, but keeps --seed, echoed in the report, for the acceptance
    # suite's determinism check, which runs `eval --seed 42`
    p = command("eval", cmd_eval, "before/after polarity evaluation report",
                _PIPELINE + _GATE + _SEED)
    p.add_argument("--suite", help="sentence<TAB>gold TSV; default: bundled suite")

    p = command("bench", cmd_bench, "G2P and scan-vs-index latency, gating effect",
                _PIPELINE + _K + _GATE + _SEED + _FORMAT)
    p.add_argument("--queries", type=_at_least_one, default=200)
    p.add_argument("--corpus", help="labeled corpus for the extraction and gating benchmarks")

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, _emitter(getattr(args, "format", "json")))
    except MicronormError as exc:
        print(f"micronorm: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # the reader went away; stdout goes to devnull so the exit-time flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"micronorm: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
