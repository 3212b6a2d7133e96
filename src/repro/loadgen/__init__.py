"""Load generation against the multi-tenant hidden-component daemon.

``repro loadgen`` (docs/OPERATIONS.md) replays a flight-recorder event log
(``--log-events`` output) as N concurrent synthetic clients speaking the
real wire protocol (docs/PROTOCOL.md), and reports throughput plus exact
p50/p95/p99 round-trip latency with a machine-readable SLO gate for CI.

- :mod:`repro.loadgen.replay` turns an event log (or an in-process
  transcript) into a replayable op script;
- :mod:`repro.loadgen.client` is one synthetic client: the script's ops
  replayed through :class:`~repro.runtime.remote.RemoteHiddenRuntime`,
  callbacks answered with zeros;
- :mod:`repro.loadgen.harness` fans clients out over threads, merges their
  latencies, checks SLOs, and optionally scrapes a live ``/metrics.json``
  endpoint before and after the run.
"""

from repro.loadgen.harness import check_slo, parse_slo, run_loadgen  # noqa: F401
from repro.loadgen.replay import load_script, script_from_transcript  # noqa: F401
