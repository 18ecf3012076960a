"""repro.qos — the foreground traffic plane.

Everything up to here measures repair in a vacuum: a node dies, a plan
runs, the makespan is the verdict.  Real clusters repair *while serving
users*, and the operative question becomes a trade-off — how much does
repair throughput cost in foreground tail latency, and how much tail
latency does throttling repair buy?  This package supplies what is
needed to ask it against the live store service (:mod:`repro.store`):

* **Workload driver** (:mod:`repro.qos.driver`) — replay seeded
  Zipfian GET/PUT traces (:func:`repro.workloads.zipf_object_trace`)
  against a live store in closed- or open-loop mode, kill daemons
  mid-run, track the repair window via status polls, and report
  per-request latency samples with p50/p99/p999 summaries per phase.
  :func:`kill_mid_trace_replay` is the whole scenario as one call.
* **The two service classes** are the daemons' own: each shaped daemon
  splits its NIC between ``foreground`` block I/O and ``repair`` traffic
  (a classed :class:`repro.live.TokenBucket`, ``repair_share`` of the
  link guaranteed to repair); *which* repair goes first is an ordering
  decision of the coordinator (most-at-risk stripe first), not a third
  bandwidth class.
* **Degraded reads** live in the store client itself
  (:meth:`repro.store.StoreClient.get` with ``degraded=True``); the
  driver exercises them whenever a GET lands in the repair window.

``rpr qos`` runs one replay from the CLI, the perf harness's
``qos_suite`` three, and ``benchmarks/bench_qos_tradeoff.py`` the
latency-vs-repair trade-off curve gated in CI — all through
:func:`kill_mid_trace_replay`.  See ``docs/QOS.md``.
"""

from .driver import (
    LocalService,
    ReplayReport,
    RequestSample,
    kill_mid_trace_replay,
    object_payload,
    percentiles,
    preload_working_set,
    replay_trace,
)

__all__ = [
    "LocalService",
    "ReplayReport",
    "RequestSample",
    "kill_mid_trace_replay",
    "object_payload",
    "percentiles",
    "preload_working_set",
    "replay_trace",
]
