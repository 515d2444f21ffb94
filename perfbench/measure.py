"""One spec-to-summary pass in timed phases, and the benchmark's reductions.

A pass is one call of ``repro.scenario.run_scenario``. While it runs,
the two attributes the runner calls to start the simulation,
``repro.scenario.runner.simulate_trace`` and ``ReplicaFleet.run``, are
wrapped to read the clocks on entry and exit. Everything before that
entry is the set-up phase (topology, routes, cost bank, trace, plan,
fleet and router), so each phase is timed on its own. The pass also
times the host-speed reference of ``reference.py`` twice, outside both
timed phases: before set-up, and between set-up and the simulation.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import statistics
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

import repro.scenario.runner as runner
from repro.scenario import ScenarioSpec, run_scenario
from repro.serving.fleet import FleetMetrics, ReplicaFleet
from reference import REFERENCE_S, time_reference

#: Percentiles a latency may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_TAIL_SAMPLES = 10


def supported_percentile(n: int) -> float | None:
    """Highest percentile of :data:`PERCENTILE_LADDER` with at least
    :data:`MIN_TAIL_SAMPLES` of ``n`` samples beyond it, or None."""
    best = None
    for q in PERCENTILE_LADDER:
        # Rounded so 100 - 99.9 in binary floating point does not miss.
        if round(n * (100.0 - q) / 100.0, 6) >= MIN_TAIL_SAMPLES:
            best = q
    return best


def pool(passes) -> dict:
    """Simulated end-to-end metrics over the requests of all ``passes``.

    Attainment and the finished share divide by requests *offered*:
    dropped or lost requests never finish, so they count as misses
    (``ServingMetrics.attainment`` divides by finished only).
    """
    offered = sum(p.summary["n_offered"] for p in passes)
    if offered <= 0:
        raise ValueError("no requests offered")
    ttft = np.concatenate([p.ttft for p in passes])
    tpot = np.concatenate([p.tpot for p in passes])
    nan = float("nan")
    return {
        "n_offered": offered,
        "n_finished": len(ttft),
        "ttft_p50_s": float(np.percentile(ttft, 50)) if len(ttft) else nan,
        "ttft_p90_s": float(np.percentile(ttft, 90)) if len(ttft) else nan,
        "tpot_p90_s": float(np.percentile(tpot, 90)) if len(tpot) else nan,
        "slo_attainment": sum(p.summary["n_slo_ok"] for p in passes) / offered,
        "finished_frac": len(ttft) / offered,
    }


def _finished(metrics) -> list:
    if isinstance(metrics, FleetMetrics):
        return metrics.all_finished()
    return metrics.finished


def simulated_summary(result) -> dict:
    """Counts the modelled cluster produced in one ``run_scenario``
    result.

    Deterministic for a fixed spec: these values repeat exactly.
    """
    metrics = result.metrics
    offered = len(result.trace)
    if isinstance(metrics, FleetMetrics):
        parts = metrics.per_replica
        fault_stats = None
        router = metrics.router_stats
    else:
        parts = [metrics]
        fault_stats = metrics.fault_stats
        router = None
    finished = _finished(metrics)
    sla = parts[0].sla
    decode_iters = sum(m.decode_iterations for m in parts)
    out_tokens = sum(r.output_len for r in finished)
    out = {
        "n_offered": offered,
        "n_finished": len(finished),
        "n_dropped": sum(m.dropped for m in parts),
        "n_slo_ok": sum(
            r.meets_sla(sla.ttft, sla.tpot) for r in finished
        ),
        "failed_frac": (offered - len(finished)) / offered,
        "engine_prefill_batches": sum(m.prefill_batches for m in parts),
        "engine_decode_iterations": decode_iters,
        "engine_decode_batch_mean": (
            out_tokens / decode_iters if decode_iters else 0.0
        ),
    }
    for key in ("failovers", "requests_lost", "kv_retries", "kv_exhausted"):
        out[f"faults_{key}"] = getattr(fault_stats, key, 0)
    turns = (router.affinity_hits + router.affinity_misses) if router else 0
    out["router_affinity_turns"] = turns
    out["router_affinity_hit_rate"] = (
        router.affinity_hits / turns if turns else 0.0
    )
    out["router_kv_bytes_moved"] = router.kv_bytes_moved if router else 0.0
    # The program's own summary, without the critical-path keys an
    # attribution collector adds, so runs with and without one compare.
    out["program"] = {
        k: v for k, v in result.summary.items() if not k.startswith("cp_")
    }
    return out


@dataclass
class PassResult:
    """Host cost and simulated outcome of one spec-to-summary pass."""

    #: process CPU seconds (all threads) from spec to a ready simulator
    setup_cpu_s: float
    #: process CPU seconds of the simulation itself
    simulate_cpu_s: float
    #: wall seconds from spec in to summary out
    wall_s: float
    #: CPU and wall seconds of the host-speed reference, mean of the two
    #: runs in the pass
    ref_cpu_s: float
    ref_wall_s: float
    summary: dict
    #: simulated TTFT and TPOT of every finished request
    ttft: np.ndarray
    tpot: np.ndarray
    #: the observer the spec asked for, or None
    observer: Any = None


@contextlib.contextmanager
def _simulate_clock(stamps: dict):
    """Wrap the runner's simulate entry points to record, in ``stamps``,
    the clocks when set-up ends and around the simulation itself, and
    to time the host-speed reference between the two."""

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stamps["setup_end"] = (time.process_time(), time.perf_counter())
            stamps["reference"].append(time_reference())
            gc.collect()
            w, c = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                stamps["simulate"] = (w, c, time.process_time())

        return wrapper

    saved = [
        (runner, "simulate_trace", runner.simulate_trace),
        (ReplicaFleet, "run", ReplicaFleet.__dict__["run"]),
    ]
    for owner, attr, fn in saved:
        setattr(owner, attr, timed(fn))
    try:
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def run_pass(spec: ScenarioSpec) -> PassResult:
    """Run ``spec`` once through ``run_scenario``, collecting garbage
    before each timed phase."""
    stamps: dict = {"reference": [time_reference()]}
    gc.collect()
    with _simulate_clock(stamps):
        w0, c0 = time.perf_counter(), time.process_time()
        result = run_scenario(spec)
        w3 = time.perf_counter()
    if "simulate" not in stamps:
        raise RuntimeError(
            "run_scenario called neither simulate_trace nor "
            "ReplicaFleet.run, so the simulate phase was not timed"
        )
    c1, w1 = stamps["setup_end"]
    w2, c2, c3 = stamps["simulate"]
    finished = _finished(result.metrics)
    return PassResult(
        setup_cpu_s=c1 - c0,
        simulate_cpu_s=c3 - c2,
        wall_s=(w1 - w0) + (w3 - w2),
        ref_cpu_s=statistics.fmean(c for c, _ in stamps["reference"]),
        ref_wall_s=statistics.fmean(w for _, w in stamps["reference"]),
        summary=simulated_summary(result),
        ttft=np.array([r.ttft for r in finished], dtype=float),
        tpot=np.array([r.tpot for r in finished], dtype=float),
        observer=result.observer,
    )


def host_req_per_s(passes) -> float:
    """Requests simulated per CPU second of simulation, over all passes.

    Pooled rather than a median of per-pass ratios: a trace whose longest
    request finishes late keeps the engine iterating for its tail, so the
    ratio of one pass depends on its trace more than the host.
    """
    done = sum(p.summary["n_finished"] + p.summary["n_dropped"] for p in passes)
    return done / sum(p.simulate_cpu_s for p in passes)


def host_metrics(passes) -> dict[str, float]:
    """The host end-to-end metrics of ``passes``, in reference seconds.

    Each clock's timings are scaled by ``REFERENCE_S`` over the mean time
    the reference took on that clock during the run. The mean, not the
    median: a pass is slowed by the host's average speed over it, and the
    reference samples that speed twice per pass.
    """
    cpu = REFERENCE_S / statistics.fmean(p.ref_cpu_s for p in passes)
    wall = REFERENCE_S / statistics.fmean(p.ref_wall_s for p in passes)
    return {
        "setup_s": statistics.median(p.setup_cpu_s for p in passes) * cpu,
        "host_req_per_s": host_req_per_s(passes) / cpu,
        "wall_s": statistics.median(p.wall_s for p in passes) * wall,
    }
