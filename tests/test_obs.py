"""The instrumentation layer: core semantics, sinks, schema, CLI, registry.

Covers the obs package itself (span nesting and exception safety, the
disabled fast path, aggregation, JSONL schema validation, the Chrome
converter and the summary CLI) plus the engine-facing guarantees: counter
determinism across backends on a fixed workload, the canonical
``cache_info`` schema with its legacy aliases, and the high-water marks
that now survive ``clear_cache``.
"""

import io
import json
import time

import pytest

from repro import obs
from repro.obs import registry as obs_registry
from repro.obs.__main__ import main as obs_main
from repro.obs.schema import validate_record, validate_trace_lines
from repro.obs.sinks import (
    AggregateSink,
    ChromeTraceSink,
    JsonlSink,
    RecordingSink,
    chrome_trace,
)


@pytest.fixture(autouse=True)
def _pristine_obs():
    # A REPRO_TRACE-armed process starts with a JsonlSink installed; these
    # tests assert the default-disabled semantics, so detach any ambient
    # sinks for their duration and restore them afterwards.
    ambient = obs.installed_sinks()
    for sink in ambient:
        obs.remove_sink(sink)
    yield
    for sink in ambient:
        obs.add_sink(sink)


@pytest.fixture
def recorder():
    sink = obs.add_sink(RecordingSink())
    yield sink
    obs.remove_sink(sink)


# -- core ----------------------------------------------------------------------------


def test_disabled_by_default_and_noop_span():
    assert not obs.ENABLED
    first = obs.span("anything", irrelevant=1)
    second = obs.span("other")
    assert first is second  # the shared no-op object: nothing allocates
    with first:
        pass
    obs.counter("nope")
    obs.gauge("nope", 1)
    obs.event("nope")


def test_add_remove_sink_flips_enabled():
    sink = RecordingSink()
    obs.add_sink(sink)
    assert obs.ENABLED
    obs.remove_sink(sink)
    assert not obs.ENABLED
    obs.remove_sink(sink)  # idempotent
    assert not obs.ENABLED


def test_span_nesting_self_time_and_depth(recorder):
    with obs.span("outer"):
        time.sleep(0.002)
        with obs.span("inner"):
            time.sleep(0.002)
    inner, outer = recorder.records
    assert inner["name"] == "inner" and outer["name"] == "outer"
    assert inner["depth"] == 1 and outer["depth"] == 0
    assert outer["dur"] >= inner["dur"]
    # Parent self-time excludes the child's wall time.
    assert outer["self"] <= outer["dur"] - inner["dur"] + 1e-4
    for record in (inner, outer):
        assert validate_record(record) is record


def test_span_exception_safety(recorder):
    with pytest.raises(ValueError):
        with obs.span("failing"):
            raise ValueError("boom")
    (record,) = recorder.records
    assert record["error"] == "ValueError"
    # The stack unwound: a following span sits at depth 0 again.
    with obs.span("after"):
        pass
    assert recorder.records[-1]["depth"] == 0


def test_span_stack_recovers_from_leaked_inner_span(recorder):
    outer = obs.span("outer")
    inner = obs.span("inner")
    outer.__enter__()
    inner.__enter__()
    # The inner span's __exit__ never runs; the outer exit must still pop
    # down to its own frame.
    outer.__exit__(None, None, None)
    assert recorder.records[-1]["name"] == "outer"
    with obs.span("next"):
        pass
    assert recorder.records[-1]["depth"] == 0


def test_counter_gauge_event_records(recorder):
    obs.counter("c", 2, tag="x")
    obs.gauge("g", 7.5)
    obs.event("e", detail="why")
    counter, gauge, event = recorder.records
    assert counter["value"] == 2 and counter["attrs"] == {"tag": "x"}
    assert gauge["value"] == 7.5
    assert event["attrs"] == {"detail": "why"}
    for record in recorder.records:
        assert validate_record(record) is record


def test_capture_context_manager():
    with obs.capture() as agg:
        obs.counter("hits", 3)
        obs.counter("hits", 2)
        obs.gauge("level", 1)
        obs.gauge("level", 5)
        obs.gauge("level", 2)
        with obs.span("work"):
            pass
    assert not obs.ENABLED
    assert agg.counters["hits"] == 5
    assert agg.gauges["level"] == {"last": 2, "min": 1, "max": 5}
    assert agg.spans["work"]["count"] == 1
    assert agg.metrics()["hits"] == 5
    assert agg.metrics()["level"] == 5  # gauges flatten to their max


def test_disabled_overhead_smoke():
    """The disabled fast path must stay within an order of magnitude of an
    empty loop — a coarse guard against accidentally putting allocation or
    locking on the no-op path."""
    iterations = 50_000

    def baseline():
        start = time.perf_counter()
        for _ in range(iterations):
            pass
        return time.perf_counter() - start

    def instrumented():
        start = time.perf_counter()
        for _ in range(iterations):
            if obs.ENABLED:
                obs.event("never")
        return time.perf_counter() - start

    assert not obs.ENABLED
    base = min(baseline() for _ in range(3))
    inst = min(instrumented() for _ in range(3))
    assert inst < base * 10 + 0.01


# -- sinks and schema ----------------------------------------------------------------


def test_jsonl_sink_writes_schema_valid_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = obs.add_sink(JsonlSink(path))
    try:
        with obs.span("top", phase="demo"):
            obs.counter("n", 4)
            obs.event("mark", round=1)
    finally:
        obs.remove_sink(sink)
        sink.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    records = validate_trace_lines(lines)  # raises on a schema violation
    assert [record["kind"] for record in records] == [
        "counter",
        "event",
        "span",
    ]  # spans emit on exit


def test_schema_rejects_malformed_records():
    bad = [
        {"kind": "span", "name": "x"},  # missing ts/dur
        {"kind": "counter", "name": "x", "ts": 0.0, "value": True},  # bool != number
        {"kind": "span", "name": "x", "ts": 0.0, "dur": 1.0, "self": 2.0, "depth": 0},
        {"kind": "event", "name": "x", "ts": 0.0, "bogus": 1},  # unknown field
        {"kind": "nope", "name": "x", "ts": 0},
    ]
    for record in bad:
        with pytest.raises(ValueError):
            validate_record(record)
    with pytest.raises(ValueError, match="line 1"):
        validate_trace_lines(['{"kind": "nope", "name": "x", "ts": 0}'])


def test_chrome_trace_conversion(tmp_path):
    sink = obs.add_sink(RecordingSink())
    try:
        with obs.span("work"):
            obs.counter("ops", 2)
            obs.counter("ops", 3)
            obs.event("note")
    finally:
        obs.remove_sink(sink)
    doc = chrome_trace(sink.records)
    phases = {entry["ph"] for entry in doc["traceEvents"]}
    assert phases == {"X", "C", "i"}
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counters[-1]["args"]["ops"] == 5  # running total
    # The file-writing variant produces the same document.
    path = tmp_path / "chrome.json"
    file_sink = ChromeTraceSink(path)
    for record in sink.records:
        file_sink.emit(record)
    file_sink.close()
    assert json.loads(path.read_text())["traceEvents"]


def test_cli_summary_validate_and_chrome(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    sink = obs.add_sink(JsonlSink(trace))
    try:
        with obs.span("phase.outer"):
            obs.counter("ops", 7)
        obs.event(
            "construct.round", round=1, frontier=2, states=3, cache_hit_rate=0.5
        )
        obs.event("bdd.reorder", before=100, after=40, swaps=9, trigger=128)
    finally:
        obs.remove_sink(sink)
        sink.close()

    assert obs_main([str(trace)]) == 0
    out = capsys.readouterr().out
    assert "phase.outer" in out
    assert "ops" in out
    assert "reorder" in out.lower()
    assert "construct" in out.lower()

    assert obs_main([str(trace), "--validate"]) == 0

    chrome = tmp_path / "chrome.json"
    assert obs_main([str(trace), "--chrome", str(chrome)]) == 0
    assert json.loads(chrome.read_text())["traceEvents"]

    trace.write_text('{"kind": "bogus"}\n')
    assert obs_main([str(trace), "--validate"]) == 1


def test_jsonl_sink_degrades_unserialisable_attrs():
    buffer = io.StringIO()
    sink = obs.add_sink(JsonlSink(buffer))
    try:
        obs.event("odd", payload=object())
    finally:
        obs.remove_sink(sink)
    record = json.loads(buffer.getvalue())
    assert record["attrs"]["payload"].startswith("<object object")


# -- engine integration --------------------------------------------------------------


def _muddy_workload():
    from repro.protocols import muddy_children as mc

    result = mc.solve(3)
    assert result.converged


@pytest.mark.parametrize("backend_name", ["bitset", "frozenset", "bdd"])
def test_counter_determinism_across_runs(backend_name):
    """The same workload under the same backend yields the same counters —
    instrumentation reads deterministic quantities, not timing accidents."""
    from repro.engine import use_backend

    def run():
        with use_backend(backend_name):
            with obs.capture() as agg:
                _muddy_workload()
        return agg.counters

    first, second = run(), run()
    assert first == second
    assert first, "the workload should emit at least one counter"


def test_fixpoint_events_flow_from_workload():
    with obs.capture(keep_records=True) as agg:
        _muddy_workload()
    names = {record["name"] for record in agg.records}
    assert "fixpoint" in names or "fixpoint.iterations" in agg.counters


def test_construct_round_events_symbolic():
    from repro.protocols import muddy_children as mc

    with obs.capture(keep_records=True) as agg:
        result = mc.solve(4, symbolic=True)
        assert result.verified
    rounds = [
        record["attrs"]
        for record in agg.records
        if record["name"] == "construct.round"
    ]
    assert rounds, "the symbolic construction should emit per-round events"
    assert [attrs["round"] for attrs in rounds] == list(
        range(1, len(rounds) + 1)
    )
    assert all("frontier" in attrs and "states" in attrs for attrs in rounds)
    assert all("cache_hit_rate" in attrs for attrs in rounds)


# -- metric schema -----------------------------------------------------------------


def test_bdd_cache_info_canonical_keys():
    from repro.symbolic.bdd import BDD

    bdd = BDD(4)
    x, y = bdd.var(0), bdd.var(1)
    bdd.and_(x, y)
    bdd.and_(x, y)  # cached: a hit
    info = bdd.cache_info()
    assert info["cache.ite.hits"] >= 1
    assert info["cache.ite.misses"] >= 1
    assert info["cache.ite.high_water"] >= info["cache.ite.size"]
    assert "reorder.count" in info and "reorder_stats" in info


def test_evaluator_high_water_survives_clear_cache(two_agent_structure):
    from repro.engine import Evaluator, resolve_backend
    from repro.logic import parse

    evaluator = Evaluator(two_agent_structure, resolve_backend("bitset"))
    evaluator.extension(parse("K[a] p & K[b] q"))
    info = evaluator.cache_info()
    high_water = info["memo.formulas.high_water"]
    assert high_water == info["memo.formulas"] > 0
    evaluator.clear_cache()
    info = evaluator.cache_info()
    assert info["memo.formulas"] == 0
    assert info["memo.formulas.high_water"] == high_water  # the drift fix
    assert info["cache.clears"] == 1


def test_registry_bdd_metrics_delta():
    from repro.symbolic.bdd import BDD

    mark = obs_registry.checkpoint()
    bdd = BDD(6)
    node = bdd.var(0)
    for level in range(1, 6):
        node = bdd.and_(node, bdd.var(level))
    metrics = obs_registry.bdd_metrics(since=mark)
    assert metrics["bdd.managers"] == 1
    assert metrics["bdd.nodes.peak"] >= 6
    assert metrics["bdd.cache.ite.misses"] >= 5
    assert 0.0 <= metrics["bdd.cache.hit_rate"] <= 1.0
    # Managers created before the checkpoint are excluded.
    assert obs_registry.bdd_metrics(since=obs_registry.checkpoint()) == {}
    del bdd


def test_hit_rate():
    assert obs_registry.hit_rate(3, 1) == 0.75
    assert obs_registry.hit_rate(0, 0) is None


def test_encoding_cache_info_canonical(two_agent_structure):
    from repro.symbolic.encode import encoding_for

    encoding = encoding_for(two_agent_structure)
    encoding.worlds_node(list(two_agent_structure.worlds)[:2])
    info = encoding.cache_info()
    assert {"memo.sets", "memo.masks", "memo.relations"} <= set(info)


def test_fuzz_timing_percentiles():
    from repro.spec.fuzz import run_fuzz

    stats = run_fuzz(count=2, seed=11, timings=True)
    timing = stats["timing"]
    assert timing["p50"] <= timing["p90"] <= timing["p99"] <= timing["max"]
    assert not obs.ENABLED  # the fuzz recorder uninstalled itself


def test_spec_load_counts_cache_hits_and_misses(tmp_path, recorder):
    from repro.spec import load_spec

    path = tmp_path / "counted.kbp"
    path.write_text(
        "protocol counted\nvar x : bool\nagent a\n  observes x\nend\ninit !x\n"
    )
    load_spec(str(path))
    load_spec(str(path))
    loads = [
        record for record in recorder.records
        if record["kind"] == "counter" and record["name"] == "spec.load"
    ]
    assert [record["attrs"]["cached"] for record in loads] == [False, True]
    assert all(record["value"] == 1 for record in loads)
    for record in loads:
        assert validate_record(record) is record
