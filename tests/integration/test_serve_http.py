"""Round-trip tests of the repro-serve HTTP front end and its client.

A real :class:`ThreadingHTTPServer` on an ephemeral port (``port=0``),
driven through :class:`repro.serve.client.ServeClient` — submit over the
wire, drain in-process (the daemon's role), then watch, fetch and cancel
remotely.  The server holds no state, so everything asserted here is
really an assertion about the store.
"""

from __future__ import annotations

import os
import threading
import uuid

import numpy as np
import pytest

from repro.api import drain_once
from repro.runtime import RunStore
from repro.serve.client import ServeClient, ServeError
from repro.serve.http import build_server


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
    """A live server over ``store_root`` plus a client bound to it."""
    server = build_server(store_root, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServeClient(f"http://{host}:{port}"), RunStore(store_root)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _document(campaign_id="http-smoke", seeds=2, iterations=3):
    return {
        "campaign": {
            "id": campaign_id,
            "targets": ["1cex(40:51)"],
            "seeds": seeds,
            "backends": ["gpu"],
            "checkpoint_every": 2,
            "workers": 1,
        },
        "configs": {
            "tiny": {
                "population_size": 16,
                "n_complexes": 4,
                "iterations": iterations,
            }
        },
    }


class TestSubmitStatusResult:
    def test_full_remote_round_trip(self, served):
        client, store = served
        assert client.healthz()["ok"] is True
        assert client.campaigns() == []

        handle = client.submit(_document())
        assert handle.campaign_id == "http-smoke"
        assert client.campaigns() == ["http-smoke"]
        status = handle.status()
        assert status["n_cells"] == 2 and not status["complete"]
        assert status["counts"] == {"pending": 2}

        # Result before the daemons drained: a 409, surfaced as ServeError.
        with pytest.raises(ServeError) as excinfo:
            handle.result()
        assert excinfo.value.status == 409

        # Resubmission is idempotent (nothing re-created, same id).
        again = client.submit(_document())
        assert again.campaign_id == "http-smoke"

        # Drain in-process — exactly what a repro-daemon would do.
        report = drain_once(store, workers=1, progress=lambda _l: None)
        assert report.executed == 2 and report.failed == 0

        final = handle.wait(timeout=10)
        assert final["complete"]
        result = handle.result()
        assert result["campaign_id"] == "http-smoke"
        assert result["n_trajectories"] == 2

        # The journal tail paged through /events saw both completions.
        records, offset, complete = handle.events(0)
        assert complete and offset > 0
        assert sum(1 for r in records if r.get("type") == "cell-done") == 2

        # Remote decoys are byte-for-byte the store's arrays.
        remote = handle.decoys(0)
        with np.load(store.shard_dir("http-smoke", 0) / "decoys.npz") as data:
            for name in data.files:
                assert np.array_equal(remote[name], np.array(data[name]))

    def test_watch_streams_each_record_once(self, served):
        client, store = served
        handle = client.submit(_document(campaign_id="watched", seeds=1))
        drain_once(store, workers=1, progress=lambda _l: None)
        records = list(handle.watch(timeout=10))
        assert [r["type"] for r in records].count("cell-done") == 1

    def test_cancel_round_trip(self, served):
        client, store = served
        handle = client.submit(_document(campaign_id="tocancel"))
        handle.cancel()
        assert handle.status()["cancelled"] is True
        report = drain_once(store, workers=1, progress=lambda _l: None)
        assert report.executed == 0 and report.skipped_cancelled == 2


class TestErrors:
    def test_unknown_campaign_is_404(self, served):
        client, _store = served
        with pytest.raises(ServeError) as excinfo:
            client.handle("no-such-campaign")
        assert excinfo.value.status == 404

    def test_invalid_document_is_400(self, served):
        client, _store = served
        with pytest.raises(ServeError) as excinfo:
            client.submit({"campaign": {"id": "x"}})  # no targets/configs
        assert excinfo.value.status == 400

    def test_non_positive_iterations_is_400(self, served):
        client, store = served
        with pytest.raises(ServeError) as excinfo:
            client.submit(_document(campaign_id="zero", iterations=0))
        assert excinfo.value.status == 400
        assert "positive integer" in str(excinfo.value)
        assert store.list_runs() == []

    def test_over_budget_submit_is_413_and_writes_nothing(
        self, served, monkeypatch
    ):
        """Fault injection: a host whose memory budget is one byte short
        of the cell's estimate refuses the campaign over the wire."""
        import repro.api.session as session_module

        client, store = served
        peak = session_module.cell_peak_bytes(16, 12)
        monkeypatch.setattr(session_module, "_memory_budget", lambda: peak - 1)
        with pytest.raises(ServeError) as excinfo:
            client.submit(_document(campaign_id="too-big"))
        assert excinfo.value.status == 413
        assert "physical memory" in str(excinfo.value)
        assert store.list_runs() == []
        assert not any(path.is_file() for path in store.root.rglob("*"))

    def test_unknown_route_is_404(self, served):
        client, _store = served
        with pytest.raises(ServeError) as excinfo:
            client._json("GET", "/v2/nothing")
        assert excinfo.value.status == 404

    def test_decoys_before_result_is_409(self, served):
        client, _store = served
        handle = client.submit(_document(campaign_id="empty"))
        with pytest.raises(ServeError) as excinfo:
            handle.decoys(0)
        assert excinfo.value.status == 409
