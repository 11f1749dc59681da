"""micronorm benchmark: closed-loop sentence streams through the public pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload microtext_stream --seed 1 --seconds 10 --trace 0

One process, one thread: each sentence starts only after the previous
call returns.  Inputs are generated from the bundled data with --seed.
The timed loop runs whole passes over the workload's inputs until
--seconds of pipeline time have gone by, with times scaled to a
reference machine speed (speed.py); every output is checked against the
benchmark's own reference (oracle.py) outside the timed calls.
The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A fuller record, and with --trace 1
the spans, are written under perfbench/out/.  See README.md.
"""

import argparse
import array
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "micronorm" / "data"
OUT = HERE / "out"

WORKLOADS = ("microtext_stream", "clean_gated", "distinct_bigram")
SETUP_REPEATS = 7
IMPORT_REPEATS = 7
BIGRAM_PASS = 500  # sentences per pass of distinct_bigram
BLOCK_SENTENCES = 2000  # a p99 with twenty samples beyond it
NEAREST_SAMPLE = 400  # brute-force checks per run, at most
MIN_GOLD_GAIN = 0.15  # accuracy gain from normalization on the gold rows
MIN_GATE_ACCURACY = 0.85


def import_program():
    """Import micronorm from this checkout's src/, failing when it is absent."""
    if not (SRC / "micronorm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no micronorm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from micronorm import errors, g2p, lexicon, oov_gate, pipeline, similarity

    if not Path(pipeline.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: micronorm imported from {pipeline.__file__}, not {SRC}")
    return errors, g2p, lexicon, oov_gate, pipeline, similarity


# Imports what import_program imports in a fresh interpreter; prints the
# time taken, scaled to the gauge's reference speed.
_IMPORT_PROBE = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from micronorm import errors, g2p, lexicon, oov_gate, pipeline, similarity
elapsed = time.perf_counter() - started
sys.path.insert(0, sys.argv[2])
import speed
print(elapsed * speed.REF_NS / speed.gauge_median())
"""


def import_seconds() -> float:
    """Median time to import micronorm in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


class Program:
    """The micronorm modules the benchmark drives, and a private G2P engine."""

    def __init__(self):
        self.errors, self.g2p, self.lexicon, self.oov_gate, self.pipeline, self.similarity = import_program()
        # the benchmark's own engine, for generating and checking inputs
        self.reference_engine = self.new_engine()

    def new_engine(self):
        g = self.g2p
        return g.G2PEngine(g.load_exceptions(DATA / "g2p_exceptions.tsv"), g.load_rules(DATA / "g2p_rules.txt"))

    def encode(self, token: str) -> str | None:
        try:
            return self.reference_engine.encode_concept(token)
        except self.errors.EncodingError:
            return None


# ------------------------------------------------------------------- set-up


def set_up(prog: Program, bigram: bool, train_records) -> tuple[dict, dict]:
    """Everything the first sentence needs, timed by layer at the reference speed."""
    before = speed.gauge_median()
    clock = time.perf_counter
    times = {}
    started = t = clock()
    engine = prog.new_engine()
    times["g2p.load_s"] = clock() - t
    t = clock()
    raw = prog.lexicon.load_raw_lexicon(DATA / "sample_lexicon.tsv")
    times["lexicon.load_s"] = clock() - t
    variant = prog.similarity.DistanceVariant.BIGRAM if bigram else prog.similarity.DistanceVariant.CHAR_SET
    t = clock()
    lex = prog.lexicon.compile_lexicon(raw, engine, variant)
    times["lexicon.compile_s"] = clock() - t
    t = clock()
    idx = lex.match_index  # built lazily by the program; force it here
    times["match_index.build_s"] = clock() - t
    model = None
    times["oov_gate.train_s"] = 0.0
    if train_records is not None:
        t = clock()
        model = prog.oov_gate.train(train_records, kind=prog.oov_gate.LR_KIND, seed=inputs.SPLIT_SEED)
        times["oov_gate.train_s"] = clock() - t
    times["total_s"] = clock() - started
    scale = speed.REF_NS / ((before + speed.gauge_median()) / 2)
    times = {k: v * scale for k, v in times.items()}
    return {"g2p": engine, "lex": lex, "idx": idx, "model": model}, times


# ------------------------------------------------------------------ workloads


class Workload:
    """Inputs, the call under test and the checks of one workload."""

    name = ""
    bigram = False
    train_records = None

    def __init__(self, prog: Program, seed: int):
        self.prog = prog
        self.seed = seed
        self.errors: list[str] = []  # wrong outputs
        self.failures: list[str] = []  # calls that raised

    def attach(self, state: dict) -> None:
        self.g2p, self.lex, self.idx, self.model = state["g2p"], state["lex"], state["idx"], state["model"]
        rows = inputs.read_lexicon(DATA)
        if [c for c, _ in rows] != [e.concept for e in self.lex.entries]:
            self.errors.append("compiled lexicon concepts differ from sample_lexicon.tsv")
        self.ref = oracle.Reference(rows, [e.ipa for e in self.lex.entries], self.bigram)

    def next_pass(self) -> list:
        raise NotImplementedError

    def probe_sentences(self) -> list[str]:
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def check_pass(self, items: list, results: list) -> None:
        raise NotImplementedError

    def check_end(self) -> None:
        raise NotImplementedError

    def make_up(self) -> dict:
        return {}


class PolarityWorkload(Workload):
    """sentence_polarity over a fixed list of sentences, pass after pass."""

    gated = False
    root = "sentence_polarity"

    @property
    def pass_length(self) -> int:
        return len(self.sentences)

    def probe_sentences(self):
        return self.sentences

    def attach(self, state):
        super().attach(state)
        P = self.prog.pipeline
        self.cfg = P.PipelineConfig(gate_enabled=self.gated)
        self.ungated_cfg = P.PipelineConfig()
        self.first: dict[str, object] = {}  # sentence -> its first result
        self.decisions: dict[str, str | None] = {}  # OOV candidate -> match or None

    def next_pass(self):
        return self.sentences

    def call(self, sentence):
        P = self.prog.pipeline
        return P.sentence_polarity(sentence, self.lex, self.idx, self.g2p, self.cfg, model=self.model)

    def check_pass(self, sentences, results):
        for sentence, result in zip(sentences, results):
            first = self.first.get(sentence)
            if first is not None:
                if result != first:
                    self.errors.append(f"{sentence!r}: result differs from an earlier pass")
                continue
            self.first[sentence] = result
            self.errors += oracle.check_polarity(result, self.ref)
            if result.gated_as == self.prog.oov_gate.IV:
                continue  # routed past normalization; check_end compares it with the plain result
            for o in result.trace:
                if o.original in self.ref.id_of or o.error is not None:
                    continue  # in-vocabulary, or not encodable: no search
                matched = o.matched if o.accepted else None
                if self.decisions.setdefault(o.original, matched) != matched:
                    self.errors.append(f"{o.original!r} resolved two ways")
                if o.accepted:
                    query = self.prog.encode(o.original)
                    self.errors += oracle.check_match(
                        o.original, query, o.matched, o.distance, self.ref, self.cfg.accept_distance
                    )

    def check_nearest_all(self):
        originals = sorted(self.decisions)
        if len(originals) > NEAREST_SAMPLE:
            originals = random.Random(self.seed).sample(originals, NEAREST_SAMPLE)
        for original in originals:
            self.errors += oracle.check_nearest(
                original, self.prog.encode(original), self.decisions[original], self.ref, self.cfg.accept_distance
            )
        self.nearest_checked = len(originals)

    def make_up(self):
        traces = [r.trace for r in self.first.values()]
        oov = sum(1 for t in traces for o in t if o.original not in self.ref.id_of)
        return {
            "sentences_per_pass": len(self.sentences),
            "oov_candidates_per_sentence": oov / len(self.sentences),
            "distinct_oov_candidates": len(self.decisions),
            "nearest_checked": self.nearest_checked,
        }


class MicrotextStream(PolarityWorkload):
    name = "microtext_stream"

    def __init__(self, prog, seed):
        super().__init__(prog, seed)
        data = inputs.microtext_stream(DATA, seed)
        self.sentences, self.gold = data.sentences, data.gold

    def check_end(self):
        self.check_nearest_all()
        P = self.prog.pipeline
        after = before = 0
        for sentence, gold in self.gold.items():
            after += self.first[sentence].label == gold
            plain = P.sentence_polarity(sentence, self.lex, self.idx, self.g2p, self.cfg, with_normalization=False)
            before += plain.label == gold
        self.accuracy = (before / len(self.gold), after / len(self.gold))
        if self.accuracy[1] - self.accuracy[0] < MIN_GOLD_GAIN:
            self.errors.append(f"gold accuracy {self.accuracy[0]:.3f} -> {self.accuracy[1]:.3f}, gain < {MIN_GOLD_GAIN}")

    def make_up(self):
        return {**super().make_up(), "gold_rows": len(self.gold),
                "gold_accuracy_before": self.accuracy[0], "gold_accuracy_after": self.accuracy[1]}


class CleanGated(PolarityWorkload):
    name = "clean_gated"
    gated = True

    def __init__(self, prog, seed):
        super().__init__(prog, seed)
        data = inputs.clean_gated(DATA, seed)
        self.sentences, self.train_records, self.held_out = data.sentences, data.train, data.held_out

    def check_end(self):
        self.check_nearest_all()
        P = self.prog.pipeline
        IV = self.prog.oov_gate.IV
        for sentence, routed in self.first.items():
            if routed.gated_as == IV:
                expect = P.sentence_polarity(sentence, self.lex, self.idx, self.g2p, self.ungated_cfg,
                                             with_normalization=False)
            else:
                expect = P.sentence_polarity(sentence, self.lex, self.idx, self.g2p, self.ungated_cfg)
            if (routed.label, routed.score) != (expect.label, expect.score):
                self.errors.append(f"{sentence!r} routed {routed.gated_as}: {routed.label} {routed.score}, "
                                   f"expected {expect.label} {expect.score}")
        right = sum(self.model.predict(text)[0] == label for text, label in self.held_out)
        self.gate_accuracy = right / len(self.held_out)
        if self.gate_accuracy < MIN_GATE_ACCURACY:
            self.errors.append(f"held-out gate accuracy {self.gate_accuracy:.3f} < {MIN_GATE_ACCURACY}")

    def make_up(self):
        routed_oov = sum(r.gated_as != self.prog.oov_gate.IV for r in self.first.values())
        return {**super().make_up(), "train_rows": len(self.train_records), "held_out_rows": len(self.held_out),
                "routed_oov_sentences": routed_oov, "gate_accuracy": self.gate_accuracy}


class DistinctBigram(Workload):
    name = "distinct_bigram"
    bigram = True
    root = "normalize_sentence"
    pass_length = BIGRAM_PASS

    def __init__(self, prog, seed):
        super().__init__(prog, seed)
        self.stream = inputs.BigramStream(DATA, seed, prog.encode)
        # a seeded reservoir sample of (item, concept) for the brute-force check
        self.sample: list[tuple[inputs.BigramItem, str | None]] = []
        self.sample_rng = random.Random(seed)
        self.sentences_done = 0
        self.rewritten = 0

    def attach(self, state):
        super().attach(state)
        P = self.prog.pipeline
        self.cfg = P.PipelineConfig(variant=self.prog.similarity.DistanceVariant.BIGRAM)

    def next_pass(self):
        return self.stream.take(BIGRAM_PASS)

    def call(self, item):
        P = self.prog.pipeline
        return P.normalize_sentence(item.sentence, self.lex, self.idx, self.g2p, self.cfg)

    def probe_sentences(self):
        return [item.sentence for item in self.last_pass]

    def check_pass(self, items, outputs):
        self.last_pass = items
        for item, output in zip(items, outputs):
            errors, concept = oracle.check_rewrite(item.prefix, item.token, item.suffix, output, item.encoding,
                                                   self.ref, self.cfg.accept_distance)
            self.errors += errors
            self.rewritten += concept is not None
            self.sentences_done += 1
            if len(self.sample) < NEAREST_SAMPLE:
                self.sample.append((item, concept))
            else:
                j = self.sample_rng.randrange(self.sentences_done)
                if j < NEAREST_SAMPLE:
                    self.sample[j] = (item, concept)

    def check_end(self):
        for item, concept in self.sample:
            self.errors += oracle.check_nearest(item.token, item.encoding, concept, self.ref,
                                                self.cfg.accept_distance)
        self.nearest_checked = len(self.sample)

    def make_up(self):
        return {"sentences": self.sentences_done, "distinct_queries": self.stream.distinct,
                "rewritten_share": self.rewritten / self.sentences_done if self.sentences_done else 0.0,
                "candidate_tokens": len(self.stream), "nearest_checked": self.nearest_checked}


WORKLOAD_CLASSES = {cls.name: cls for cls in (MicrotextStream, CleanGated, DistinctBigram)}


# ------------------------------------------------------------------ the loop


class Phase:
    """Timed blocks of whole passes: at least BLOCK_SENTENCES sentences each.

    A phase keeps starting passes until its pipeline time reaches the
    budget and its last block is complete (or the inputs run out), so
    every run attempts whole blocks.  Each latency is scaled to the
    gauge's reference speed by the median of the last three gauge
    readings before it (speed.py and README.md say why).  Sentences/s is
    the median over blocks of sentences per scaled second; latency
    quantiles are taken over all scaled latencies of the phase.  Only
    per-block sums and one flat array of scaled latencies are kept, so
    the benchmark's own memory grows by 8 bytes a sentence.
    """

    def __init__(self):
        self.blocks: list[tuple[int, int, float]] = []  # (sentences, raw ns, scaled ns)
        self.scaled_ns = array.array("d")  # every latency, scaled to the reference speed
        self.gauges: list[int] = []
        self.passes = 0
        self.attempted = 0
        self.failed = 0

    @property
    def sentences(self) -> int:
        return sum(n for n, _, _ in self.blocks)

    @property
    def gauge_ns(self) -> float:
        return statistics.median(self.gauges)

    @property
    def raw_rate(self) -> float:
        return statistics.median(n / raw * 1e9 for n, raw, _ in self.blocks)

    @property
    def rate(self) -> float:
        """Sentences per second at the reference speed, median over blocks."""
        return statistics.median(n / scaled * 1e9 for n, _, scaled in self.blocks)

    def latency_us(self, q: float) -> float:
        """q-quantile latency at the reference speed, over the whole phase."""
        return quantile(sorted(self.scaled_ns), q) / 1e3


def run_phase(w: Workload, seconds: float, call, tracer=None) -> Phase:
    phase = Phase()
    clock = time.perf_counter_ns
    budget_ns = seconds * 1e9
    spent_ns = 0
    block_n = block_raw = 0
    block_scaled = 0.0
    recent = [speed.gauge() for _ in range(3)]
    scale = speed.REF_NS / sorted(recent)[1]
    since_gauge = 0
    while not phase.blocks or spent_ns < budget_ns or block_n:
        items = w.next_pass()
        if not items:
            break
        results = []
        for item in items:
            if since_gauge >= speed.EVERY_NS:
                g = speed.gauge()
                phase.gauges.append(g)
                recent = [recent[1], recent[2], g]
                scale = speed.REF_NS / sorted(recent)[1]
                since_gauge = 0
            if tracer is not None:
                tracer.sentence = phase.attempted
            phase.attempted += 1
            t0 = clock()
            try:
                result = call(item)
            except Exception as exc:  # a failed operation is counted, not fatal
                phase.failed += 1
                w.failures.append(f"{type(exc).__name__}: {exc}")
                results.append(None)
                continue
            dt = clock() - t0
            results.append(result)
            phase.scaled_ns.append(dt * scale)
            block_n += 1
            block_raw += dt
            block_scaled += dt * scale
            since_gauge += dt
            spent_ns += dt
        phase.passes += 1
        if block_n >= BLOCK_SENTENCES:
            phase.blocks.append((block_n, block_raw, block_scaled))
            block_n = block_raw = 0
            block_scaled = 0.0
        w.check_pass([i for i, r in zip(items, results) if r is not None], [r for r in results if r is not None])
    if block_n:  # the inputs ran out inside a block
        phase.blocks.append((block_n, block_raw, block_scaled))
    return phase


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of already sorted values."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "sentences_per_s": (phase.rate, "lines/s"),
        "sentence_latency_us_p50": (phase.latency_us(0.50), "us"),
        "sentence_latency_us_p99": (phase.latency_us(0.99), "us"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def trace_layers(w: Workload, seconds: float, setup_median: dict):
    """The per-layer metrics: an untraced phase, then a traced one of equal length."""
    import tracing

    plain = run_phase(w, seconds, w.call)
    tracer = tracing.Tracer()
    idx = w.idx
    before = (getattr(idx, "visited", 0), getattr(idx, "queries", 0))
    tracer.install(w.prog.pipeline, w.g2p, w.model)
    try:
        traced = run_phase(w, seconds, tracer.wrap(w.root, w.call), tracer)
    finally:
        tracer.uninstall()
    after = (getattr(idx, "visited", 0), getattr(idx, "queries", 0))
    layers = tracing.layer_metrics(tracer.spans, traced.sentences, lambda s: s // w.pass_length,
                                   (after[0] - before[0], after[1] - before[1]))
    scale = speed.REF_NS / traced.gauge_ns
    layers = {k: v * scale if k.endswith("_us") else v for k, v in layers.items()}
    layers.update({k: setup_median[k] for k in ("lexicon.compile_s", "match_index.build_s", "oov_gate.train_s")})
    probed = probe_unused(w, layers)
    layers["trace.overhead_pct"] = (plain.rate / traced.rate - 1.0) * 100.0
    return layers, [plain, traced], tracer, probed


def probe_unused(w: Workload, layers: dict) -> list[str]:
    """Time, by direct calls on this workload's inputs, the layers its pipeline never called.

    A layer the pipeline skips (search behind a gate that routes every
    sentence past it; the gate on a workload without one) would otherwise
    read 0 on every run.  Counts and shares stay as the pipeline made
    them.  Returns the names of the metrics filled in this way.
    """
    P, clock = w.prog.pipeline, time.perf_counter_ns
    sentences = w.probe_sentences()
    probed = []
    before = speed.gauge_median()
    if layers["match_index.top_k_us"] == 0.0:
        encode_ns, search_ns, calls = 0, 0, 0
        for sentence in sentences:
            for cand in P.extract_concepts(sentence, w.lex):
                if cand.matched_iv:
                    continue
                t0 = clock()
                query = w.g2p.encode_concept(cand.concept)
                t1 = clock()
                P.top_k(w.idx, query, k=w.cfg.k, min_sim=w.cfg.min_sim)
                search_ns += clock() - t1
                encode_ns += t1 - t0
                calls += 1
        layers["g2p.encode_us"] = encode_ns / calls / 1e3
        layers["match_index.top_k_us"] = search_ns / calls / 1e3
        probed += ["g2p.encode_us", "match_index.top_k_us"]
    if layers["oov_gate.predict_us"] == 0.0:
        gate = w.prog.oov_gate
        t0 = clock()
        model = gate.train(inputs.clean_gated(DATA, w.seed).train, kind=gate.LR_KIND, seed=inputs.SPLIT_SEED)
        layers["oov_gate.train_s"] = (clock() - t0) / 1e9
        t0 = clock()
        for sentence in sentences:
            model.predict(sentence)
        layers["oov_gate.predict_us"] = (clock() - t0) / len(sentences) / 1e3
        probed += ["oov_gate.train_s", "oov_gate.predict_us"]
    scale = speed.REF_NS / ((before + speed.gauge_median()) / 2)
    for name in probed:
        layers[name] *= scale
    return probed


def machine() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    prog = Program()
    w = WORKLOAD_CLASSES[args.workload](prog, args.seed)

    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        del state  # one program instance alive at a time
        state, times = set_up(prog, w.bigram, w.train_records)
        setups.append(times)
    w.attach(state)
    setup_median = {k: statistics.median(t[k] for t in setups) for k in setups[0]}

    warm = run_phase(w, 0, w.call)  # one untimed block: first-call costs stay out of the figures

    if args.trace:
        layers, phases, tracer, probed = trace_layers(w, args.seconds / 2, setup_median)
        phases.insert(0, warm)
    else:
        timed = run_phase(w, args.seconds, w.call)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases = [warm, timed]
        import_s = import_seconds()
        setup_s = import_s + setup_median["total_s"]
    w.check_end()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if args.trace:
        units = {"_s": "s", "_us": "us", "_pct": "%", "_share": "share"}
        metrics = {k: (v, next((u for suf, u in units.items() if k.endswith(suf)), "count"))
                   for k, v in layers.items()}
    else:
        metrics = end_to_end(timed, setup_s, peak_rss_mb)
    result = {
        "correct": not w.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, v, u in ((k, *vu) for k, vu in metrics.items())},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": machine(), "make_up": w.make_up(), "setup_median_s": setup_median,
              "errors": w.errors[:50], "failures": w.failures[:50],
              "phases": [{"passes": p.passes, "blocks": len(p.blocks), "sentences": p.sentences,
                          "raw_rate": p.raw_rate, "rate": p.rate, "gauge_ns": p.gauge_ns} for p in phases]}
    if args.trace:
        record["probed"] = probed
    else:
        record["import_s"] = import_s
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.tsv")
    for err in w.errors[:20]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    for err in w.failures[:20]:
        print(f"perfbench: call failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
