"""Observability: tracing, metrics registry, profiling, logging.

Three pillars threaded through the simulator and schedulers by a single
:class:`Observer` handle. Every layer reports through
``Observer.emit(event)`` with an event from :mod:`repro.obs.events`,
guarded by ``if obs.active:``; the default :data:`NULL_OBSERVER` has no
subscribers, so an unobserved run builds no event:

* :mod:`repro.obs.trace` — request/batch/all-reduce spans exportable as
  JSONL or Chrome ``chrome://tracing`` JSON;
* :mod:`repro.obs.metrics` — Prometheus-style counters / gauges /
  histograms with labels and a text/JSON exposition;
* :mod:`repro.obs.profile` — the one host wall-clock profiler: planner
  phases (candidate enumeration, grouping, perturbation, objective),
  engine/controller sections and per-event-tag handler times — the
  BENCH_engine measurement harness;
* :mod:`repro.obs.logging_config` — stdlib logging setup for the CLI's
  ``-v/-vv`` flags;
* :mod:`repro.obs.slo` — declarative SLO targets with SRE-style
  multi-window burn-rate alerting through an :class:`AlertSink`;
* :mod:`repro.obs.recorder` — ring-buffered simulation flight recorder
  sampled on controller ticks, exported as JSONL;
* :mod:`repro.obs.report` — folds recorder + metrics + alerts into one
  self-contained HTML dashboard and a plain-text summary;
* :mod:`repro.obs.attribution` — per-request critical-path attribution:
  TTFT/TPOT decomposed into named components (queue wait, allreduce by
  policy with the congested link, KV retry inflation, ...), aggregated
  into fleet p50/p99 budgets and CLI waterfalls;
* :mod:`repro.obs.whatif` — counterfactual bottleneck ranking: predicts
  how p50/p99 TTFT, TPOT and throughput would move if one resource
  (a link class, INA slots, prefill/decode compute, the KV path, the
  scheduler tick) were k× faster, analytically from attribution
  timelines and validated by perturbed re-simulation.
"""

from repro.obs.attribution import (
    CRITICAL_PATH_COMPONENTS,
    AttributionCollector,
    RequestAttribution,
    RequestTimeline,
    render_waterfall,
    render_waterfalls,
)

from repro.obs.logging_config import (
    get_logger,
    setup_logging,
    verbosity_to_level,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_latency_buckets,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.profile import (
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    PhaseStat,
)
from repro.obs.recorder import FlightRecorder, FlightSample
from repro.obs.report import (
    build_report_data,
    build_sweep_data,
    render_html,
    render_sweep_html,
    render_sweep_text,
    render_text,
    write_report,
    write_sweep_report,
)
from repro.obs.slo import (
    Alert,
    AlertSink,
    SLOMonitor,
    SLOTarget,
    default_slo_targets,
)
from repro.obs.trace import SpanRecord, TraceRecorder
from repro.obs.whatif import (
    DEFAULT_CATALOG,
    DEFAULT_TOLERANCE,
    Intervention,
    RunStats,
    WhatIfEstimate,
    WhatIfProfiler,
    WhatIfResult,
    render_ladder,
)

__all__ = [
    "Alert",
    "AlertSink",
    "AttributionCollector",
    "CRITICAL_PATH_COMPONENTS",
    "RequestAttribution",
    "RequestTimeline",
    "render_waterfall",
    "render_waterfalls",
    "SLOMonitor",
    "SLOTarget",
    "default_slo_targets",
    "FlightRecorder",
    "FlightSample",
    "build_report_data",
    "build_sweep_data",
    "render_html",
    "render_sweep_html",
    "render_sweep_text",
    "render_text",
    "write_report",
    "write_sweep_report",
    "get_logger",
    "setup_logging",
    "verbosity_to_level",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_latency_buckets",
    "NULL_OBSERVER",
    "Observer",
    "NULL_PROFILER",
    "NullProfiler",
    "PhaseProfiler",
    "PhaseStat",
    "SpanRecord",
    "TraceRecorder",
    "DEFAULT_CATALOG",
    "DEFAULT_TOLERANCE",
    "Intervention",
    "RunStats",
    "WhatIfEstimate",
    "WhatIfProfiler",
    "WhatIfResult",
    "render_ladder",
]
