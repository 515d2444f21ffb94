"""Engine throughput — the simulator's own hot-path baseline.

Unlike the ``bench_fig*`` benches (which reproduce the *paper's*
numbers), this one measures the *reproduction*: how many requests per
host wall-clock second the discrete-event engine simulates, and where
its Python time goes (event-queue handlers by tag, batch formation,
link-load bookkeeping, controller ticks). The measurement harness is the
one host-time profiler, :class:`repro.obs.PhaseProfiler`, carried by
an observer with no subscribers (``Observer.silent(profiler=...)``),
so the simulated *results* stay byte-identical to an unobserved run
and the throughput number prices the simulator, not the telemetry. The
profiler records the event loop as the ``engine.run`` section plus
``engine.requests_finished`` / ``engine.events_fired`` counters;
requests/sec and events/sec are derived from those here.

On a shared host the same code reads very different requests/sec from
one minute to the next. So before each timed simulation the bench times
:func:`reference_work`, a fixed pure-Python workload that does not touch
the program, and records ``scaled_requests_per_s``: the raw number times
``reference_s / REFERENCE_S``, i.e. requests per *reference second*.
Each setting's simulation runs ``REPEATS`` times over one built system
and the run with the median scaled requests/sec is recorded, raw and
scaled side by side.

Results land in ``engine_throughput.txt`` (tables) and
``BENCH_engine.json`` (the machine-readable perf baseline the CI
perf-smoke job gates on: a >25 % drop in scaled requests/sec on any
setting fails the build, and so does any change to a setting's
work counts — ``events_fired``, ``requests_finished`` and the link
tracker's ``network_writes``/``network_registrations`` — which are
simulated counts and do not depend on the host). The ROADMAP's
engine-vectorization work is measured against this file.
"""

import gc
import heapq
import math
import random
import time

import pytest

from repro.core import SLA_SIM_CHATBOT, SLA_TESTBED_CHATBOT
from repro.baselines import HEROSERVE, build_system, simulate_trace
from repro.core.plan import ParallelConfig
from repro.llm import OPT_66B, OPT_175B
from repro.network import build_testbed, build_xtracks_cluster
from repro.obs import Observer, PhaseProfiler
from repro.serving import EngineConfig

from common import (
    BENCH_SEED,
    CLUSTER_PARALLEL,
    TESTBED_PARALLEL,
    chatbot_trace,
    check_stable_hashing,
    make_cluster_bank,
    make_testbed_bank,
    save_json,
    save_result,
)
from repro.util.tables import format_table

#: Simulated seconds per setting — long enough that per-run fixed costs
#: (planning happens outside the profiled window) don't dominate and the
#: wall-clock window is wide enough for a stable req/s reading.
DURATION = 60.0
#: Timed simulations per setting; the recorded run is the median one.
REPEATS = 5
#: Host seconds :func:`reference_work` takes on a 2-vCPU VM: the host
#: speed that ``scaled_requests_per_s`` is expressed at.
REFERENCE_S = 0.1
#: Per-run work counts: simulated, so equal across repeats and hosts.
WORK = (
    "requests_finished",
    "events_fired",
    "network_writes",
    "network_registrations",
)

SETTINGS = {
    "testbed OPT-66B": dict(
        builder=lambda: build_testbed(),
        model=OPT_66B,
        bank=make_testbed_bank,
        sla=SLA_TESTBED_CHATBOT,
        parallel=TESTBED_PARALLEL,
        rate=1.0,
    ),
    "2tracks OPT-175B": dict(
        builder=lambda: build_xtracks_cluster(2, n_units=1),
        model=OPT_175B,
        bank=make_cluster_bank,
        sla=SLA_SIM_CHATBOT,
        parallel=CLUSTER_PARALLEL,
        rate=1.2,
    ),
    # The shape perfbench's storm-2tracks plans: three pipeline stages
    # per phase (Eq. 6's sync) and one-server TP groups, whose policy
    # tables are [nvlink, ring].
    "2tracks OPT-175B TP8xPP3": dict(
        builder=lambda: build_xtracks_cluster(2, n_units=1),
        model=OPT_175B,
        bank=make_cluster_bank,
        sla=SLA_SIM_CHATBOT,
        parallel=ParallelConfig(8, 3, 8, 3),
        rate=1.2,
    ),
}


def reference_work(n_jobs: int = 50_000) -> float:
    """A fixed, seeded job queue in pure Python: the mix the engine
    spends its time on (heap pushes and pops, small lists, dict lookups,
    float arithmetic). Returns a checksum so none of it can be skipped."""
    rng = random.Random(12345)
    heap: list = []
    live: dict = {}
    clock = total = 0.0
    for i in range(n_jobs):
        clock += rng.expovariate(5.0)
        heapq.heappush(heap, (clock, i))
        live[i] = [rng.expovariate(1.0), 0.0]
        while heap and heap[0][0] <= clock:
            t, j = heapq.heappop(heap)
            job = live[j]
            job[0] -= 0.3
            job[1] += 0.3
            if job[0] <= 0.0:
                total += math.sqrt(live.pop(j)[1])
            else:
                heapq.heappush(heap, (t + 0.3, j))
    return total


def time_reference() -> float:
    """Wall seconds of one :func:`reference_work` call."""
    gc.collect()
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def profile_setting(spec: dict) -> dict:
    """The median of ``REPEATS`` profiled runs of one built system, each
    timed right after the host-speed reference."""
    built = spec["builder"]()
    trace = chatbot_trace(spec["rate"], DURATION, seed=BENCH_SEED)
    system = build_system(
        HEROSERVE,
        built,
        spec["model"],
        spec["bank"](spec["model"]),
        spec["sla"],
        trace.representative_batch(8),
        arrival_rate=spec["rate"],
        forced_parallel=spec["parallel"],
    )
    runs = []
    for _ in range(REPEATS):
        reference_s = time_reference()
        run = profile_run(system, trace)
        run["reference_s"] = reference_s
        run["scaled_requests_per_s"] = (
            run["requests_per_s"] * reference_s / REFERENCE_S
        )
        runs.append(run)
    runs.sort(key=lambda run: run["scaled_requests_per_s"])
    for key in WORK:
        counts = [run[key] for run in runs]
        assert len(set(counts)) == 1, (key, counts)
    return runs[REPEATS // 2]


def profile_run(system, trace) -> dict:
    """One profiled simulation; returns its throughput and tables."""
    profiler = PhaseProfiler()
    observer = Observer.silent(profiler=profiler)
    metrics = simulate_trace(
        system, trace, engine_config=EngineConfig(observer=observer)
    )
    snap = profiler.snapshot()
    sections = snap["phases"]
    wall_s = sections.pop("engine.run")["total_s"]
    counters = snap["counters"]
    requests = counters["engine.requests_finished"]
    events = counters["engine.events_fired"]
    return {
        "wall_s": wall_s,
        "requests_finished": requests,
        "events_fired": events,
        "network_writes": counters["network.writes"],
        "network_registrations": counters["network.registrations"],
        "requests_per_s": requests / wall_s,
        "events_per_s": events / wall_s,
        "sections": sections,
        "event_handlers": snap["handlers"],
        "sim_finished": metrics.n_finished,
        "report": profiler.report("engine self-profile"),
    }


def run_engine_profile() -> dict[str, dict]:
    check_stable_hashing()
    return {
        label: profile_setting(spec)
        for label, spec in SETTINGS.items()
    }


def baseline_payload(snaps: dict[str, dict]) -> dict:
    """The BENCH_engine.json structure (see docs/PERFORMANCE.md).

    ``scaled_requests_per_s`` is the gated number, next to the raw
    ``requests_per_s`` and the ``reference_s`` that scaled it;
    section/handler tables are recorded so a regression can be
    attributed without re-profiling.
    """
    settings = {}
    for label, snap in snaps.items():
        settings[label] = {
            "requests_per_s": round(snap["requests_per_s"], 1),
            "reference_s": round(snap["reference_s"], 4),
            "scaled_requests_per_s": round(
                snap["scaled_requests_per_s"], 1
            ),
            "events_per_s": round(snap["events_per_s"], 1),
            "wall_s": round(snap["wall_s"], 4),
            **{key: snap[key] for key in WORK},
            "sections_ms": {
                name: round(row["total_s"] * 1e3, 3)
                for name, row in snap["sections"].items()
            },
            "event_handlers_ms": {
                name: round(row["total_s"] * 1e3, 3)
                for name, row in snap["event_handlers"].items()
            },
        }
    return {
        "seed": BENCH_SEED,
        "duration_s": DURATION,
        "settings": settings,
    }


@pytest.mark.benchmark(group="engine")
def test_engine_throughput(benchmark):
    snaps = benchmark.pedantic(
        run_engine_profile, rounds=1, iterations=1
    )
    rows = []
    for label, snap in snaps.items():
        rows.append(
            [
                label,
                str(snap["requests_finished"]),
                str(snap["events_fired"]),
                f"{snap['wall_s']:.3f}",
                f"{snap['requests_per_s']:.0f}",
                f"{snap['reference_s']:.3f}",
                f"{snap['scaled_requests_per_s']:.0f}",
                f"{snap['events_per_s']:.0f}",
            ]
        )
    table = format_table(
        [
            "setting", "requests", "events", "wall s", "req/s", "ref s",
            "scaled req/s", "ev/s",
        ],
        rows,
        title=(
            "Engine throughput: requests simulated per host wall-clock "
            f"second, median of {REPEATS} runs by scaled req/s (req/s x "
            f"ref s / {REFERENCE_S:g}; profile-only observer, results "
            "byte-identical to an unobserved run)"
        ),
    )
    reports = "\n\n".join(snap["report"] for snap in snaps.values())
    print("\n" + table)
    print("\n" + reports)
    save_result("engine_throughput", table + "\n\n" + reports)
    save_json("BENCH_engine", baseline_payload(snaps))

    for label, snap in snaps.items():
        assert snap["requests_finished"] > 0, label
        assert snap["requests_per_s"] > 0, label
        assert snap["requests_finished"] == snap["sim_finished"], label
        # The hot-path sections must all have been exercised.
        for section in (
            "engine.batch_formation",
            "engine.link_load",
            "engine.controller_tick",
        ):
            assert section in snap["sections"], (label, section)
        assert snap["event_handlers"], label
        # Handler time is a subset of the bracketing run wall-clock.
        handler_s = sum(
            row["total_s"] for row in snap["event_handlers"].values()
        )
        assert handler_s <= snap["wall_s"] * 1.05, (
            label,
            handler_s,
            snap["wall_s"],
        )
