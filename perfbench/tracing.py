"""Span tracing for the traced run, by rebinding the names the pipeline calls.

Only the traced run imports this module.  ``install`` replaces the
module-level names that ``micronorm.pipeline`` looks up at call time
(``extract_concepts``, ``top_k``, ``normalize_concept``) and the bound
methods on the engine and gate instances the run uses
(``encode_concept``, ``predict``) with wrappers that record one span per
call: name, start, end, parent span and sentence id, plus one small
note taken from the call's arguments or result.  ``uninstall`` puts the
originals back.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Spans of the pipeline module itself; every other span name is one
# layer's public function (see install).
PIPELINE_SPANS = frozenset({"sentence_polarity", "normalize_sentence", "normalize_concept"})


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, sentence id, note)
        self.spans: list[tuple | None] = []
        self.sentence = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans[me] = (name, start, end, parent, self.sentence,
                         note(args, result) if note else None)
            return result

        return traced

    def _rebind(self, owner, name: str, note=None, instance: bool = False):
        original = getattr(owner, name)
        self._restore.append((owner, name, None if instance else original))
        setattr(owner, name, self.wrap(name, original, note))

    def install(self, pipeline, g2p, model=None) -> None:
        """Wrap the calls; the notes are OOV candidates, the query, searched-and-accepted, the route."""
        self._rebind(pipeline, "extract_concepts", lambda a, r: sum(not c.matched_iv for c in r))
        self._rebind(pipeline, "top_k", lambda a, r: a[1])
        self._rebind(pipeline, "normalize_concept", lambda a, r: (not a[0].matched_iv) and r.accepted)
        self._rebind(g2p, "encode_concept", instance=True)
        if model is not None:
            self._rebind(model, "predict", lambda a, r: r[0], instance=True)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)  # drops the instance attribute, unshadowing the method
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tsentence\tnote\n")
            for name, start, end, parent, sentence, note in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{sentence}\t{'' if note is None else note}\n")


def summarize(spans: list[tuple]) -> dict:
    """Per span name: calls, total and self time (ns), and the notes."""
    child_ns = defaultdict(int)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "notes": []})
    for i, (name, start, end, _, sentence, note) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
        if note is not None:
            row["notes"].append((sentence, note))
    return out


def repeat_share(notes: list[tuple[int, str]], pass_of) -> float:
    """Share of queries already asked earlier in the same pass over the inputs."""
    seen: set[tuple[int, str]] = set()
    repeats = 0
    for sentence, query in notes:
        key = (pass_of(sentence), query)
        repeats += key in seen
        seen.add(key)
    return repeats / len(notes) if notes else 0.0


def layer_metrics(spans: list[tuple], sentences: int, pass_of, idx_delta: tuple[int, int] | None) -> dict:
    """The per-layer metrics of one traced phase of ``sentences`` sentences."""
    s = summarize(spans)

    def per_call_us(name):
        row = s.get(name)
        return row["self_ns"] / row["calls"] / 1e3 if row and row["calls"] else 0.0

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def notes(name):
        return s[name]["notes"] if name in s else []

    queries = calls("top_k")
    pipeline_self_ns = sum(row["self_ns"] for name, row in s.items() if name in PIPELINE_SPANS)
    searched_accepted = sum(1 for _, accepted in notes("normalize_concept") if accepted)
    predictions = notes("predict")
    visited, asked = idx_delta if idx_delta else (0, 0)
    return {
        "match_index.top_k_us": per_call_us("top_k"),
        "match_index.queries_per_sentence": queries / sentences,
        "match_index.entries_scored_per_query": visited / asked if asked else 0.0,
        "match_index.repeat_query_share": repeat_share(notes("top_k"), pass_of),
        "g2p.encode_us": per_call_us("encode_concept"),
        "g2p.calls_per_sentence": calls("encode_concept") / sentences,
        "concepts.extract_us": per_call_us("extract_concepts"),
        "concepts.oov_candidates_per_sentence": sum(n for _, n in notes("extract_concepts")) / sentences,
        "oov_gate.predict_us": per_call_us("predict"),
        "oov_gate.oov_routed_share": (
            sum(label == "OOV" for _, label in predictions) / len(predictions) if predictions else 0.0
        ),
        "pipeline.self_us": pipeline_self_ns / sentences / 1e3,
        "pipeline.accepted_share": searched_accepted / queries if queries else 0.0,
    }
