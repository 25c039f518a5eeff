"""Unit tests of the repro.obs telemetry subsystem.

Every timed assertion here runs against an injected fake clock, so span
trees, Chrome exports and fleet snapshots are byte-deterministic — the
same discipline the runtime's replay tests rely on, applied to the
telemetry that must never perturb them.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.fleet import (
    DEFAULT_STALE_SECONDS,
    default_daemon_id,
    fleet_snapshot,
    heartbeat_path,
    read_heartbeats,
    write_heartbeat,
)
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, REGISTRY
from repro.obs.top import render_campaigns, render_fleet
from repro.obs.trace import (
    TRACE_FORMAT_VERSION,
    Span,
    Tracer,
    chrome_trace,
    trace_depth,
)
from repro.utils.timing import TimingLedger


class FakeClock:
    """A monotonic clock tests advance by hand."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_offsets(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.begin("cell a", category="cell", seed=7)
        clock.tick(1.0)
        tracer.begin("epoch 0", category="epoch")
        clock.tick(2.0)
        tracer.end()
        clock.tick(0.5)
        tracer.end()

        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "cell a" and root.args == {"seed": 7}
        assert root.start == 0.0 and root.duration == 3.5
        (epoch,) = root.children
        assert epoch.start == 1.0 and epoch.duration == 2.0
        assert epoch.end == 3.0

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin("x") is None
        tracer.end()
        tracer.add_leaf("y", 0.0, 1.0)
        assert tracer.to_dict() == {
            "format_version": TRACE_FORMAT_VERSION,
            "spans": [],
        }

    def test_span_context_manager_closes_on_error(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                clock.tick(1.0)
                raise RuntimeError("boom")
        assert tracer.roots[0].duration == 1.0
        # Nothing is left open: the next span is a root again.
        tracer.begin("next")
        assert [root.name for root in tracer.roots] == ["outer", "next"]

    def test_finish_closes_every_open_span(self):
        tracer = Tracer(clock=FakeClock())
        tracer.begin("a")
        tracer.begin("b")
        tracer.finish()
        assert tracer.roots[0].duration is not None
        assert tracer.roots[0].children[0].duration is not None
        tracer.begin("c")
        assert [root.name for root in tracer.roots] == ["a", "c"]

    def test_to_dict_from_dict_round_trip(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("cell", category="cell", target="t"):
            clock.tick(0.25)
            tracer.add_leaf("pairwise", clock.now - 0.25, 0.25, category="section")
        document = tracer.to_dict()
        # The leaf's clock reading became an offset from the origin.
        assert document["spans"][0]["children"][0]["start"] == 0.0
        rebuilt = Tracer.from_dict(document)
        assert rebuilt.to_dict() == document

    def test_ledger_hands_each_section_to_the_tracer(self):
        tracer = Tracer()
        ledger = TimingLedger()
        ledger.attach(tracer, "kernel")
        with tracer.span("epoch 0", category="epoch"):
            for name in ("CCD", "EvalVDW", "CCD"):
                with ledger.section(name):
                    sum(range(1000))
        (epoch,) = tracer.roots
        leaves = epoch.children
        assert [leaf.name for leaf in leaves] == ["CCD", "EvalVDW", "CCD"]
        assert {leaf.category for leaf in leaves} == {"kernel"}
        # One measurement: the leaves carry exactly the ledger's seconds.
        for name, rec in ledger.records.items():
            durations = [leaf.duration for leaf in leaves if leaf.name == name]
            assert len(durations) == rec.calls
            assert sum(durations) == rec.total_seconds
        # On real timestamps: inside the open span, in order, disjoint.
        assert epoch.start <= leaves[0].start
        assert leaves[-1].end <= epoch.end
        for before, after in zip(leaves, leaves[1:]):
            assert before.end <= after.start

    def test_unattached_ledger_forwards_nothing(self):
        tracer = Tracer()
        ledger = TimingLedger()
        with tracer.span("epoch 0", category="epoch"):
            with ledger.section("CCD"):
                pass
        assert tracer.roots[0].children == []
        assert ledger.records["CCD"].calls == 1

    def test_trace_document_is_byte_deterministic(self):
        def build():
            clock = FakeClock()
            tracer = Tracer(clock=clock)
            with tracer.span("cell", category="cell"):
                with tracer.span("epoch 0", category="epoch"):
                    clock.tick(1.5)
                    tracer.add_leaf("pairwise", clock.now - 1.5, 1.5)
            return json.dumps(tracer.to_dict(), sort_keys=True)

        assert build() == build()


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


def _cell_document():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("cell x", category="cell"):
        with tracer.span("epoch 0", category="epoch"):
            clock.tick(2.0)
            tracer.add_leaf("pairwise", clock.now - 2.0, 2.0, category="section")
    return tracer.to_dict()


class TestChromeTrace:
    def test_structure_and_depth(self):
        document = chrome_trace("camp", [("cell x", _cell_document())])
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        phases = [e["ph"] for e in events]
        assert phases.count("M") == 3  # process name + 2 thread names
        xs = [e for e in events if e["ph"] == "X"]
        by_depth = {e["args"]["depth"]: e for e in xs}
        assert by_depth[0]["name"] == "camp" or "campaign" in by_depth[0]["name"]
        assert by_depth[0]["tid"] == 0
        assert by_depth[1]["name"] == "cell x" and by_depth[1]["tid"] == 1
        assert by_depth[2]["name"] == "epoch 0"
        assert by_depth[3]["name"] == "pairwise"
        assert trace_depth(document) == 3
        # The synthetic campaign event spans the slowest cell (2s -> µs).
        assert by_depth[0]["dur"] == pytest.approx(2.0e6)

    def test_export_is_deterministic(self):
        cells = [("a", _cell_document()), ("b", _cell_document())]
        first = json.dumps(chrome_trace("c", cells), sort_keys=True)
        second = json.dumps(chrome_trace("c", cells), sort_keys=True)
        assert first == second

    def test_empty_campaign_still_valid(self):
        document = chrome_trace("empty", [])
        assert trace_depth(document) == 0
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_span_from_dict_tolerates_minimal_payload(self):
        span = Span.from_dict({"name": "x"})
        assert span.duration is None and span.end == span.start == 0.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_inc_and_labels(self):
        registry = MetricsRegistry()
        cells = registry.counter("cells_total", "Cells drained.")
        cells.inc(outcome="executed")
        cells.inc(2, outcome="executed")
        cells.inc(outcome="failed")
        assert cells.value(outcome="executed") == 3
        assert cells.value(outcome="failed") == 1
        assert cells.value(outcome="never") == 0

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value() == 3

    def test_registry_get_or_create_and_type_clash(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_render_prometheus_text_shape(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_cells_total", "Cells drained.")
        counter.inc(outcome="executed")
        gauge = registry.gauge("repro_queue_depth", "Pending cells.")
        gauge.set(4)
        text = registry.render()
        lines = text.splitlines()
        assert text.endswith("\n")
        assert "# HELP repro_cells_total Cells drained." in lines
        assert "# TYPE repro_cells_total counter" in lines
        assert 'repro_cells_total{outcome="executed"} 1' in lines
        assert "# TYPE repro_queue_depth gauge" in lines
        assert "repro_queue_depth 4" in lines
        # Families render in sorted order, so renders are reproducible.
        assert text == registry.render()

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_seconds", "Pass time.", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(50.0)
        text = registry.render()
        assert 'repro_seconds_bucket{le="1"} 1' in text
        assert 'repro_seconds_bucket{le="10"} 2' in text
        assert 'repro_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_seconds_count 3" in text
        assert "repro_seconds_sum 55.5" in text

    def test_snapshot_is_flat_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(outcome="won")
        registry.gauge("b").set(2)
        snap = registry.snapshot()
        assert snap == {'a{outcome="won"}': 1.0, "b": 2.0}
        json.dumps(snap)  # must serialise into heartbeat payloads

    def test_default_registry_is_shared(self):
        assert REGISTRY.counter("repro_http_requests_total") is REGISTRY.counter(
            "repro_http_requests_total"
        )

    def test_default_buckets_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS


# ---------------------------------------------------------------------------
# TimingLedger serialisation (consumed by the store and the tracer)
# ---------------------------------------------------------------------------


class TestTimingLedgerRoundTrip:
    def test_round_trip_preserves_calls_and_seconds(self):
        ledger = TimingLedger()
        ledger.add("pairwise", 2.5, calls=10)
        ledger.add("ccd", 0.5, calls=3)
        payload = ledger.to_dict()
        assert payload == {
            "ccd": {"calls": 3, "total_seconds": 0.5},
            "pairwise": {"calls": 10, "total_seconds": 2.5},
        }
        rebuilt = TimingLedger.from_dict(payload)
        assert rebuilt.to_dict() == payload
        assert rebuilt.records["pairwise"].mean_seconds == 0.25

    def test_keys_sorted_for_deterministic_json(self):
        ledger = TimingLedger()
        ledger.add("zeta", 1.0)
        ledger.add("alpha", 1.0)
        assert list(ledger.to_dict()) == ["alpha", "zeta"]

    def test_empty_round_trip(self):
        assert TimingLedger.from_dict({}).to_dict() == {}


# ---------------------------------------------------------------------------
# Fleet heartbeats
# ---------------------------------------------------------------------------


class TestFleet:
    def test_write_and_read_heartbeat(self, tmp_path):
        path = write_heartbeat(
            tmp_path,
            "host.1",
            workers=2,
            cycle=3,
            report={"executed": 4},
            cache_stats={"hits": 1, "misses": 2},
        )
        assert path == heartbeat_path(tmp_path, "host.1")
        (doc,) = read_heartbeats(tmp_path)
        assert doc["daemon"] == "host.1" and doc["cycle"] == 3
        assert doc["report"] == {"executed": 4}
        assert doc["cache"] == {"hits": 1, "misses": 2}

    def test_torn_heartbeat_skipped(self, tmp_path):
        write_heartbeat(tmp_path, "good")
        bad = heartbeat_path(tmp_path, "bad")
        bad.parent.mkdir(parents=True)
        bad.write_text("{not json", encoding="utf8")
        docs = read_heartbeats(tmp_path)
        assert [d["daemon"] for d in docs] == ["good"]

    def test_fleet_snapshot_aggregates_live_daemons(self, tmp_path):
        write_heartbeat(tmp_path, "a", workers=2, report={"executed": 3})
        write_heartbeat(tmp_path, "b", workers=1, report={"executed": 1})
        snap = fleet_snapshot(tmp_path)
        assert snap["n_daemons"] == 2 and snap["n_alive"] == 2
        assert snap["workers"] == 3
        assert snap["totals"]["report"]["executed"] == 4

    def test_fleet_snapshot_marks_stale_daemons(self, tmp_path):
        write_heartbeat(tmp_path, "old", workers=4, report={"executed": 9})
        import time as _time

        later = _time.time() + DEFAULT_STALE_SECONDS + 1.0
        snap = fleet_snapshot(tmp_path, now=later)
        assert snap["n_daemons"] == 1 and snap["n_alive"] == 0
        # A dead daemon contributes no workers and no totals.
        assert snap["workers"] == 0
        assert snap["totals"]["report"] == {}
        assert snap["daemons"][0]["alive"] is False

    def test_empty_store_snapshot(self, tmp_path):
        snap = fleet_snapshot(tmp_path)
        assert snap == {
            "n_daemons": 0,
            "n_alive": 0,
            "workers": 0,
            "daemons": [],
            "totals": {"report": {}, "cache": {}},
        }

    def test_default_daemon_id_mentions_pid(self):
        import os

        assert str(os.getpid()) in default_daemon_id()

    def test_slug_sanitises_hostile_ids(self, tmp_path):
        path = heartbeat_path(tmp_path, "evil/../id with spaces")
        assert path.parent.parent.name == ".fleet"
        assert "/" not in path.parent.name and " " not in path.parent.name


# ---------------------------------------------------------------------------
# repro-top rendering (pure functions over fixed snapshots)
# ---------------------------------------------------------------------------


class TestTopRendering:
    def test_render_fleet_fixed_snapshot(self):
        snapshot = {
            "n_daemons": 2,
            "n_alive": 1,
            "workers": 2,
            "daemons": [
                {
                    "daemon": "a.1",
                    "alive": True,
                    "age_seconds": 1.5,
                    "workers": 2,
                    "cycle": 4,
                    "report": {"executed": 3, "failed": 0},
                },
                {"daemon": "b.2", "alive": False, "age_seconds": 300.0},
            ],
            "totals": {"report": {}, "cache": {"hits": 5, "misses": 1}},
        }
        text = render_fleet(snapshot)
        assert "fleet: 1/2 daemon(s) alive, 2 worker(s)" in text
        assert "a.1" in text and "executed=3" in text
        assert "failed=" not in text  # zero counts stay off the line
        assert "NO" in text  # the dead daemon is visible
        assert "cache totals: hits=5, misses=1" in text

    def test_render_campaigns_progress_bar(self):
        rows = [("camp", {"done": 1, "pending": 1}, 2)]
        text = render_campaigns(rows)
        assert "camp" in text
        assert "[##########..........] 1/2" in text
        assert "1 done, 1 pending" in text

    def test_render_campaigns_empty(self):
        assert render_campaigns([]) == "campaigns: 0"
