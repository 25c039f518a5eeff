"""``repro.obs`` — spans, metrics and a fleet view for the campaign runtime.

The paper's own evaluation is a profiling story (Fig. 1's CPU breakdown,
Table II's GPU kernel times), yet until this package the reproduction
could only see itself through the ad-hoc :class:`~repro.utils.timing.
TimingLedger` and a tail of journal lines.  ``repro.obs`` is the
measurement backbone, zero-dependency and strictly *telemetry*:

* :mod:`repro.obs.trace` — span-based tracing.  A :class:`Tracer`
  records nested spans (campaign → cell → setup / checkpoint epoch →
  kernel section); each cell's :class:`~repro.utils.timing.TimingLedger`
  hands every section it measures to the tracer as a leaf span on its
  true start, the per-cell tree is persisted in the
  :class:`~repro.runtime.store.RunStore` (``trace.json``, a status-channel
  file), and ``repro-campaign trace <id>`` exports the whole campaign as
  Chrome trace-event JSON loadable in Perfetto / ``chrome://tracing``.
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  (counters, gauges, histograms) instrumenting lease claims and
  takeovers, cache hits/misses/evictions, drain throughput, queue depth
  and worker utilisation; rendered in Prometheus text format at
  ``GET /v1/metrics`` on ``repro-serve``.
* :mod:`repro.obs.fleet` — daemon heartbeats.  Every ``repro-daemon``
  writes a small heartbeat document under ``<store>/.fleet/`` after each
  drain pass; ``GET /v1/fleet`` and ``repro-top`` aggregate them into a
  live fleet view.

The load-bearing invariant (enforced by lint rule REP004, whose scope
includes this package): **telemetry rides the status channel only**.
Spans, metrics and heartbeats may carry wall-clock stamps and host
identity precisely because they are never replay-compared — nothing from
this package may reach a journal payload, a checkpoint, a ledger or a
cache key, so kill-and-redrain byte-equality and cache addressing are
exactly as deterministic with tracing on as off.
"""

from repro.obs.fleet import (
    FLEET_DIR_NAME,
    HEARTBEAT_NAME,
    default_daemon_id,
    fleet_snapshot,
    heartbeat_path,
    read_heartbeats,
    write_heartbeat,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    TRACE_FORMAT_VERSION,
    Span,
    Tracer,
    chrome_trace,
    trace_depth,
)

__all__ = [
    "Counter",
    "FLEET_DIR_NAME",
    "Gauge",
    "HEARTBEAT_NAME",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "TRACE_FORMAT_VERSION",
    "Tracer",
    "chrome_trace",
    "default_daemon_id",
    "fleet_snapshot",
    "heartbeat_path",
    "read_heartbeats",
    "trace_depth",
    "write_heartbeat",
]
