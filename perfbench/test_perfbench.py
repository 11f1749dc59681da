"""Fast tests of the benchmark itself: seeded inputs and the output checks.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import dataclasses

import pytest

import inputs
import oracle
import run
import tracing


@pytest.fixture(scope="module")
def prog():
    return run.Program()


@pytest.fixture(scope="module")
def charset(prog):
    state, _ = run.set_up(prog, bigram=False, train_records=None)
    rows = inputs.read_lexicon(run.DATA)
    ref = oracle.Reference(rows, [e.ipa for e in state["lex"].entries], bigram=False)
    return state, ref


def test_inputs_follow_the_seed(prog):
    assert inputs.microtext_stream(run.DATA, 1) == inputs.microtext_stream(run.DATA, 1)
    assert inputs.microtext_stream(run.DATA, 1).sentences != inputs.microtext_stream(run.DATA, 2).sentences
    assert inputs.clean_gated(run.DATA, 1) == inputs.clean_gated(run.DATA, 1)
    assert inputs.clean_gated(run.DATA, 1).sentences != inputs.clean_gated(run.DATA, 2).sentences
    first = inputs.BigramStream(run.DATA, 1, prog.encode).take(300)
    assert first == inputs.BigramStream(run.DATA, 1, prog.encode).take(300)
    assert first != inputs.BigramStream(run.DATA, 2, prog.encode).take(300)


def test_workload_make_up():
    micro = inputs.microtext_stream(run.DATA, 7)
    assert len(micro.sentences) == 240 and len(micro.gold) == 40
    gated = inputs.clean_gated(run.DATA, 7)
    assert len(gated.sentences) == 100
    assert not set(gated.sentences) & {t for t, _ in gated.train}


def test_bigram_stream_never_repeats_a_query(prog):
    stream = inputs.BigramStream(run.DATA, 3, prog.encode)
    items = stream.take(2000)
    assert len(items) == 2000
    assert len({i.encoding for i in items}) == len(items)
    assert all(i.sentence.split() == [*i.prefix, i.token, *i.suffix] for i in items)


def _polarity(prog, state, sentence):
    P = prog.pipeline
    return P.sentence_polarity(sentence, state["lex"], state["idx"], state["g2p"], P.PipelineConfig())


def test_check_polarity_catches_flipped_label_and_wrong_mean(prog, charset):
    state, ref = charset
    result = _polarity(prog, state, "m so hapy but i wil kil u")
    assert oracle.check_polarity(result, ref) == []
    flipped = "Negative" if result.label == "Positive" else "Positive"
    assert oracle.check_polarity(dataclasses.replace(result, label=flipped), ref)
    assert oracle.check_polarity(dataclasses.replace(result, score=result.score + 0.01), ref)


def test_check_match_catches_a_distance_off_by_one_symbol(prog, charset):
    _, ref = charset
    query = prog.encode("gud")
    d, entry = ref.nearest(query)
    concept = ref.concepts[entry]
    assert oracle.check_match("gud", query, concept, d, ref, 0.45) == []
    shared = round((1.0 - d) * (len(set(query)) + len(ref.charsets[entry])) / 2)
    off_by_one = 1.0 - 2.0 * (shared - 1) / (len(set(query)) + len(ref.charsets[entry]))
    assert oracle.check_match("gud", query, concept, off_by_one, ref, 0.45)


def test_check_nearest_catches_a_strictly_closer_entry(prog, charset):
    _, ref = charset
    query = prog.encode("gud")
    best_d, best = ref.nearest(query)
    assert oracle.check_nearest("gud", query, ref.concepts[best], ref, 0.45) == []
    farther = next(i for i in range(len(ref.concepts)) if ref.distance(query, i) > best_d)
    assert oracle.check_nearest("gud", query, ref.concepts[farther], ref, 0.45)
    assert oracle.check_nearest("gud", query, None, ref, 0.45)  # a match within reach was missed


def test_check_rewrite_catches_changes_outside_the_token(prog, charset):
    _, ref = charset
    query = prog.encode("gud")
    good = ref.concepts[ref.nearest(query)[1]].replace("_", " ")
    pre, suf = ("i", "think"), ("is", "here")
    assert oracle.check_rewrite(pre, "gud", suf, f"i think {good} is here", query, ref, 0.45) == ([], good.replace(" ", "_"))
    assert oracle.check_rewrite(pre, "gud", suf, "i think gud is here", query, ref, 0.45) == ([], None)
    assert oracle.check_rewrite(pre, "gud", suf, f"i thought {good} is here", query, ref, 0.45)[0]
    far = next(c for i, c in enumerate(ref.concepts) if ref.distance(query, i) > 0.45 and "_" not in c)
    assert oracle.check_rewrite(pre, "gud", suf, f"i think {far} is here", query, ref, 0.45)[0]


def test_tracer_records_nested_spans_and_restores_names(prog, charset):
    state, _ = charset
    pipeline = prog.pipeline
    original = pipeline.top_k
    tracer = tracing.Tracer()
    tracer.install(pipeline, state["g2p"])
    try:
        call = tracer.wrap("sentence_polarity", lambda s: _polarity(prog, state, s))
        call("i wil kil u")
    finally:
        tracer.uninstall()
    assert pipeline.top_k is original and "encode_concept" not in vars(state["g2p"])
    names = [span[0] for span in tracer.spans]
    assert names[0] == "sentence_polarity" and "top_k" in names and "extract_concepts" in names
    summary = tracing.summarize(tracer.spans)
    assert all(0 <= row["self_ns"] <= row["total_ns"] for row in summary.values())
    metrics = tracing.layer_metrics(tracer.spans, 1, lambda s: 0, None)
    assert metrics["match_index.queries_per_sentence"] == names.count("top_k")
