"""Integration tests of the observability surface.

Three fronts: the ``/v1/metrics`` and ``/v1/fleet`` endpoints of
``repro-serve`` (a live server on an ephemeral port), multi-daemon fleet
aggregation from heartbeat documents, and the traced-drain pipeline —
drain with tracing on, read the per-cell trace back from the store, and
export one Chrome trace-event file through the ``repro-campaign trace``
CLI.  The load-bearing assertion rides along everywhere: tracing must not
change the replay-compared journal by a single byte.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.request
import uuid

import pytest

from repro.api import drain_once
from repro.api.campaign import campaign
from repro.api.session import Session
from repro.cli import campaign_main, daemon_main, top_main
from repro.config import SamplingConfig
from repro.obs.fleet import write_heartbeat
from repro.obs.trace import TRACE_FORMAT_VERSION, chrome_trace, trace_depth
from repro.runtime import RunStore
from repro.serve.http import METRICS_CONTENT_TYPE, build_server
from repro.simt.memory import MEMCPY_LABELS


@pytest.fixture()
def store_root(tmp_path):
    base = os.environ.get("REPRO_CAMPAIGN_STORE")
    if base:
        root = os.path.join(base, uuid.uuid4().hex[:12])
        os.makedirs(root, exist_ok=True)
        return root
    return str(tmp_path / "store")


@pytest.fixture()
def served(store_root):
    """A live repro-serve instance over ``store_root``; yields its base URL."""
    server = build_server(store_root, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", RunStore(store_root)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


def _grid(campaign_id, seeds=2, iterations=4):
    return campaign(
        campaign_id,
        targets="1cex(40:51)",
        configs=SamplingConfig(population_size=16, n_complexes=4, iterations=iterations),
        seeds=seeds,
        checkpoint_every=2,
    )


class TestMetricsEndpoint:
    def test_prometheus_text_and_content_type(self, served):
        base, _store = served
        status, content_type, body = _get(f"{base}/v1/metrics")
        assert status == 200
        assert content_type == METRICS_CONTENT_TYPE
        text = body.decode("utf8")
        # The endpoint counts its own scrapes, so the exposition is never
        # empty and carries the full HELP/TYPE/series shape.
        assert "# HELP repro_http_requests_total" in text
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'repro_http_requests_total{method="GET"}' in text

    def test_scrapes_increment_the_request_counter(self, served):
        base, _store = served

        def scrape_value():
            text = _get(f"{base}/v1/metrics")[2].decode("utf8")
            for line in text.splitlines():
                if line.startswith('repro_http_requests_total{method="GET"}'):
                    return float(line.rsplit(" ", 1)[1])
            return 0.0

        first = scrape_value()
        second = scrape_value()
        assert second == first + 1


class TestFleetEndpoint:
    def test_empty_store_has_no_daemons(self, served):
        base, _store = served
        status, content_type, body = _get(f"{base}/v1/fleet")
        assert status == 200 and content_type == "application/json"
        snapshot = json.loads(body)
        assert snapshot["n_daemons"] == 0 and snapshot["daemons"] == []

    def test_two_daemon_aggregation(self, served):
        base, store = served
        write_heartbeat(
            store, "alpha.1", workers=2, cycle=5,
            report={"executed": 3, "failed": 1},
            cache_stats={"hits": 2, "misses": 1},
        )
        write_heartbeat(
            store, "beta.2", workers=1, cycle=2,
            report={"executed": 4},
            cache_stats={"hits": 1, "misses": 3},
        )
        snapshot = json.loads(_get(f"{base}/v1/fleet")[2])
        assert snapshot["n_daemons"] == 2 and snapshot["n_alive"] == 2
        assert snapshot["workers"] == 3
        assert snapshot["totals"]["report"]["executed"] == 7
        assert snapshot["totals"]["cache"] == {"hits": 3, "misses": 4}
        names = [d["daemon"] for d in snapshot["daemons"]]
        assert names == ["alpha.1", "beta.2"]  # sorted by slug, stable


def _leaf_durations(span, category, out):
    """Collect ``name -> [duration, ...]`` of every ``category`` leaf, in order."""
    for child in span["children"]:
        if child["category"] == category:
            out.setdefault(child["name"], []).append(child["duration"])
        _leaf_durations(child, category, out)
    return out


class TestTracedDrain:
    @pytest.mark.parametrize("drive", ["session_run", "submit_drain_once"])
    def test_trace_persists_and_exports(self, store_root, tmp_path, drive):
        store = RunStore(store_root)
        session = Session(store, workers=1, trace=True)
        if drive == "session_run":
            session.run(_grid("traced"))
        else:
            session.submit(_grid("traced"))
            report = drain_once(store, workers=1, trace=True)
            assert report.executed == 2 and report.failed == 0
        handle = session.handle("traced")

        # Every executed cell persisted a version-stamped trace document
        # whose root is the cell span with epoch children and kernel
        # leaves below them.
        for cell in handle.spec.cells():
            assert store.has_shard_trace("traced", cell.index)
            document = store.load_shard_trace("traced", cell.index)
            assert document["format_version"] == TRACE_FORMAT_VERSION
            (root,) = document["spans"]
            assert root["name"] == f"cell {cell.name}"
            assert root["duration"] is not None
            epochs = [c for c in root["children"] if c["category"] == "epoch"]
            assert len(epochs) >= 2  # checkpoint_every=2 over 4 iterations

            # One measurement: per section name, the leaves are exactly
            # the ledger's calls, and their durations sum to its seconds.
            # Modelled memcpy records are measured by nobody, so they have
            # no leaves.
            ledgers = store.load_shard_ledgers("traced", cell.index)
            for category in ("kernel", "host"):
                leaves = _leaf_durations(root, category, {})
                records = {
                    name: record
                    for name, record in ledgers[category].records.items()
                    if name not in MEMCPY_LABELS
                }
                assert sorted(leaves) == sorted(records)
                for name, durations in leaves.items():
                    assert len(durations) == records[name].calls
                    assert sum(durations) == records[name].total_seconds
            assert MEMCPY_LABELS & set(ledgers["kernel"].records)

        # The CLI merges the per-cell documents into one Perfetto-loadable
        # file nesting campaign -> cell -> epoch -> kernel section.
        out = tmp_path / "trace.json"
        rc = campaign_main(
            ["--store", str(store_root), "trace", "traced", "--out", str(out)]
        )
        assert rc == 0
        document = json.loads(out.read_text())
        assert trace_depth(document) >= 3
        names = {e["name"] for e in document["traceEvents"]}
        assert "campaign traced" in names

    def test_trace_export_without_traces_fails_cleanly(self, store_root, capsys):
        session = Session(store_root)
        session.submit(_grid("untraced"))
        rc = campaign_main(["--store", str(store_root), "trace", "untraced"])
        assert rc == 1
        assert "no traces recorded" in capsys.readouterr().out

    def test_tracing_never_touches_the_journal(self, tmp_path):
        """The acceptance invariant: traced == untraced, byte for byte."""
        results = {}
        for label, trace in (("on", True), ("off", False)):
            store = RunStore(str(tmp_path / label))
            session = Session(store, trace=trace)
            session.submit(_grid("invariant"))
            drain_once(store, workers=1, trace=trace)
            results[label] = store.canonical_journal("invariant")
            assert store.has_shard_trace("invariant", 0) is trace
        assert results["on"] == results["off"]


class TestTraceTimeline:
    """Spans sit on real timestamps: nested, disjoint, setup first."""

    def test_spans_nest_within_their_parents(self, store_root):
        store = RunStore(store_root)
        grid = campaign(
            "timeline",
            targets="1cex(40:51)",
            configs=SamplingConfig(population_size=16, n_complexes=4, iterations=4),
            seeds=1,
            backends="gpu",
            checkpoint_every=2,
        )
        Session(store, workers=1, trace=True).run(grid)
        (root,) = store.load_shard_trace("timeline", 0)["spans"]

        def end(span):
            return span["start"] + span["duration"]

        def check(span):
            for child in span["children"]:
                assert span["start"] <= child["start"], child["name"]
                assert end(child) <= end(span), child["name"]
                check(child)

        check(root)

        # Setup (sampler build + checkpoint load) is the first child and
        # ends before epoch 0 begins.
        setup, *epochs = root["children"]
        assert (setup["name"], setup["category"]) == ("setup", "setup")
        assert [e["name"] for e in epochs] == ["epoch 0", "epoch 1"]
        assert end(setup) <= epochs[0]["start"]
        for before, after in zip(epochs, epochs[1:]):
            assert end(before) <= after["start"]

        # Leaves of one epoch run one after another, never overlapping,
        # and the host-side initialisation falls inside epoch 0.
        for epoch in epochs:
            leaves = epoch["children"]
            assert leaves
            for before, after in zip(leaves, leaves[1:]):
                assert end(before) <= after["start"]
        assert "Initialization" in [leaf["name"] for leaf in epochs[0]["children"]]


class TestDaemonSummary:
    def test_drain_once_prints_cache_stats_and_heartbeats(
        self, store_root, tmp_path, capsys
    ):
        Session(store_root).submit(_grid("summary", seeds=1, iterations=2))
        rc = daemon_main(
            [
                "--store", str(store_root),
                "--drain-once",
                "--workers", "1",
                "--cache", str(tmp_path / "cache"),
                "--daemon-id", "summary-daemon",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "drained 1 cell(s)" in out
        # The end-of-drain cache summary rides the same stdout channel.
        assert "cache: 0 hit(s), 1 miss(es), 1 publish(es), 0 eviction(s)" in out
        # Even a single --drain-once pass heartbeats, so cron-driven
        # fleets are visible to /v1/fleet and repro-top.
        from repro.obs.fleet import read_heartbeats

        (beat,) = read_heartbeats(RunStore(store_root))
        assert beat["daemon"] == "summary-daemon"
        assert beat["report"]["executed"] == 1
        assert beat["cache"]["misses"] == 1


class TestReproTop:
    def test_once_renders_fleet_and_campaigns(self, store_root, capsys):
        store = RunStore(store_root)
        write_heartbeat(store, "solo.1", workers=1, cycle=1,
                        report={"executed": 2})
        Session(store).submit(_grid("topview"))
        rc = top_main(["--store", str(store_root), "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet: 1/1 daemon(s) alive" in out
        assert "topview" in out and "0/2" in out


class TestChromeTraceSmoke:
    def test_merged_export_is_deterministic(self, store_root):
        store = RunStore(store_root)
        session = Session(store, trace=True)
        handle = session.submit(_grid("deterministic", seeds=1))
        drain_once(store, workers=1, trace=True)
        cells = [
            (cell.name, store.load_shard_trace("deterministic", cell.index))
            for cell in handle.spec.cells()
        ]
        first = json.dumps(chrome_trace("deterministic", cells), sort_keys=True)
        second = json.dumps(chrome_trace("deterministic", cells), sort_keys=True)
        assert first == second
