"""Planner solve-time — the §III-C3 claim, plus the fast-path baseline.

Paper: "our algorithm typically finds a solution within 10 minutes, a
reduction of 28.57 % compared to DistServe", attributed to (a) the
constant-size candidate list, (b) asynchronous prefill/decode estimation
threads and (c) offline precomputation of the shortest-path/latency
matrices. Here (b) is left out: the two estimates are pure Python, so
under the GIL threads bought no time, and both planners run them one
after the other. On top of those, this repo memoizes the comm-latency
evaluations (``repro.core.estcache``), so each setting is timed three
ways:

* **cached**   — Algorithm 1 with the estimation cache (the default),
* **pre-cache** — the same planner with ``use_cache=False`` on a
  context that prices every path by walking its hops, over a route table
  that walks the Dijkstra predecessors on every link-path lookup, i.e.
  the code path before any path memo existed (the speedup baseline; the
  context's path-price memo and the route table's link-path memo took
  over part of the estimation cache's work, so ``use_cache=False`` alone
  no longer measures the uncached planner),
* **sweep**    — the reference planner without the paper's heuristics
  (candidate sweep, no estimation cache, per-estimate Dijkstra).

The cached and pre-cache planners must produce *byte-identical* plans —
the cache only skips recomputation of pure functions. One more, untimed
cached solve per setting counts the route work (link footprints walked,
switches scored) that the CI gate pins exactly. Results land in
``planner_time.txt`` (tables) and ``BENCH_planner.json`` (the
machine-readable perf baseline: per-phase ms, cache hit rate, speedups)
under ``benchmarks/results/``.
"""

import importlib
from contextlib import contextmanager
from dataclasses import fields

import pytest

from repro.comm import CommContext, SchemeKind
from repro.core import SLA_TESTBED_CHATBOT
from repro.core.planner import (
    ExhaustivePlanner,
    OfflinePlanner,
    PlannerConfig,
)
from repro.llm import OPT_66B, OPT_175B, BatchSpec
from repro.network import build_testbed, build_xtracks_cluster
from repro.network.routing import RouteTable
from repro.obs import Observer

from common import (
    BENCH_SEED,
    check_stable_hashing,
    make_cluster_bank,
    make_testbed_bank,
    phase_breakdown_rows,
    save_json,
    save_result,
)
from repro.util.tables import format_table

#: The tentpole target: cached must beat pre-cache by at least this on
#: the cluster setting (measured 6.6-6.8x on a shared 2-vCPU VM).
MIN_SPEEDUP_2TRACKS = 3.0


class _ColdRouteTable(RouteTable):
    """A route table without the link-path memo: every lookup walks."""

    def link_path(self, src, dst):
        return self._walk_links(src, dst)


class _ColdContext(CommContext):
    """A context without the path memos: every price walks its hops."""

    def path_time(self, src, dst, data_bytes):
        return self._sum_hops(src, dst, data_bytes)

    def path_bottleneck(self, src, dst):
        return self._min_hop(src, dst)

    def round_trip(self, gpu, switch):
        return self._round_trip(gpu, switch)


#: Route-resolution work of one cached solve, counted by wrapping the
#: functions that do it at every module that calls them: link footprints
#: walked (ring, INA, NVLink member<->leader legs) and Algorithm 2 switch
#: scores (``switch_delay``, one group at one switch). The counts do not
#: depend on the host, so the CI gate fails on any change to them.
WORK_COUNTERS = {
    "ring_footprints": (("repro.comm.ring", "ring_link_footprint"),),
    "ina_footprints": (("repro.comm.ina", "ina_link_footprint"),),
    "leader_legs": (
        ("repro.comm.hybrid", "leader_legs"),
        ("repro.comm.scheme", "leader_legs"),
        ("repro.comm.twostage", "leader_legs"),
    ),
    "switch_scores": (
        ("repro.comm.ina", "switch_delay"),
        ("repro.comm.scheme", "switch_delay"),
    ),
}


@contextmanager
def counted_work():
    """Count calls of :data:`WORK_COUNTERS` inside the block."""
    counts = dict.fromkeys(WORK_COUNTERS, 0)
    saved = []
    for key, targets in WORK_COUNTERS.items():
        for module, attr in targets:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))

            def counter(*args, _fn=fn, _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            setattr(mod, attr, counter)
    try:
        yield counts
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _copy_as(cls, obj, **changes):
    """A ``cls`` instance with ``obj``'s constructor fields, plus changes."""
    kwargs = {f.name: getattr(obj, f.name) for f in fields(obj) if f.init}
    return cls(**{**kwargs, **changes})


def cold_routes(ctx):
    """``ctx`` with no path memo: prices and link paths walk every time."""
    cold = _copy_as(_ColdRouteTable, ctx.route_table)
    return _copy_as(_ColdContext, ctx, route_table=cold)


def plan_three_way(built, model, bank, batch):
    # Each planner gets its own context: the route table memoizes link
    # paths, so a shared one would hand later planners a warm memo.
    def ctx():
        return CommContext.from_built(built, heterogeneous=True)

    cached = OfflinePlanner(
        ctx(), model, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID,
        config=PlannerConfig(seed=BENCH_SEED),
        observer=Observer(),
    ).plan(batch, arrival_rate=0.5)
    precache = OfflinePlanner(
        cold_routes(ctx()), model, bank, SLA_TESTBED_CHATBOT,
        SchemeKind.HYBRID,
        config=PlannerConfig(seed=BENCH_SEED, use_cache=False),
    ).plan(batch, arrival_rate=0.5)
    sweep = ExhaustivePlanner(
        ctx(), model, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID,
        config=PlannerConfig(seed=BENCH_SEED),
    ).plan(batch, arrival_rate=0.5)
    # The work counts come from a separate, untimed cached solve, so the
    # counting wrappers cost the timed ones nothing.
    with counted_work() as work:
        counted = OfflinePlanner(
            ctx(), model, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID,
            config=PlannerConfig(seed=BENCH_SEED),
        ).plan(batch, arrival_rate=0.5)
    assert repr(counted.plan) == repr(cached.plan)
    return cached, precache, sweep, work


def run_planner_comparison():
    check_stable_hashing()
    out = []
    tb = build_testbed()
    out.append(
        (
            "testbed OPT-66B",
            *plan_three_way(
                tb,
                OPT_66B,
                make_testbed_bank(OPT_66B),
                BatchSpec.uniform(8, 256, 220),
            ),
        )
    )
    cl = build_xtracks_cluster(2, n_units=1)
    out.append(
        (
            "2tracks OPT-175B",
            *plan_three_way(
                cl,
                OPT_175B,
                make_cluster_bank(OPT_175B),
                BatchSpec.uniform(8, 256, 220),
            ),
        )
    )
    return out


def phase_table(results):
    """Per-phase breakdown of the cached planner's solve time."""
    rows = []
    for label, cached, _precache, _sweep, _work in results:
        for phase_row in phase_breakdown_rows(cached.phase_times):
            rows.append([label, *phase_row])
    return format_table(
        ["setting", "phase", "ms", "share"],
        rows,
        title="Algorithm 1 phase breakdown (profiling hooks)",
    )


def baseline_payload(results):
    """The BENCH_planner.json structure (see docs/PERFORMANCE.md)."""
    settings = {}
    for label, cached, precache, sweep, work in results:
        identical = repr(cached.plan) == repr(precache.plan) and (
            cached.plan == precache.plan
        )
        settings[label] = {
            "cached_s": round(cached.wall_time, 4),
            "precache_s": round(precache.wall_time, 4),
            "sweep_s": round(sweep.wall_time, 4),
            "speedup_vs_precache": round(
                precache.wall_time / cached.wall_time, 2
            ),
            "saving_vs_sweep": round(
                1.0 - cached.wall_time / sweep.wall_time, 4
            ),
            "plans_identical": identical,
            "cache": {
                k: round(v, 4) for k, v in cached.cache_stats.items()
            },
            "work": work,
            "phases_ms": {
                name: round(secs * 1e3, 2)
                for name, secs in cached.phase_times.items()
            },
            "candidates": cached.candidates_evaluated,
            "scalability": round(cached.plan.scalability, 6)
            if cached.plan
            else None,
        }
    return {"seed": BENCH_SEED, "settings": settings}


@pytest.mark.benchmark(group="planner")
def test_planner_solve_time(benchmark):
    results = benchmark.pedantic(
        run_planner_comparison, rounds=1, iterations=1
    )
    rows = []
    for label, cached, precache, sweep, _work in results:
        speedup = (
            precache.wall_time / cached.wall_time
            if cached.wall_time > 0
            else float("nan")
        )
        saving = (
            1.0 - cached.wall_time / sweep.wall_time
            if sweep.wall_time > 0
            else float("nan")
        )
        rows.append(
            [
                label,
                cached.candidates_evaluated,
                f"{cached.wall_time:.2f}",
                f"{precache.wall_time:.2f}",
                f"{speedup:.2f}x",
                f"{cached.cache_stats.get('hit_rate', 0.0):.0%}",
                f"{sweep.wall_time:.2f}",
                f"{saving:.0%}",
            ]
        )
    table = format_table(
        [
            "setting",
            "cands",
            "cached s",
            "pre-cache s",
            "speedup",
            "hit rate",
            "sweep s",
            "saving",
        ],
        rows,
        title=(
            "Planner solve time: cached Algorithm 1 vs pre-cache vs "
            "reference sweep (paper: 28.57% faster than DistServe)"
        ),
    )
    breakdown = phase_table(results)
    print("\n" + table)
    print("\n" + breakdown)
    save_result("planner_time", table + "\n\n" + breakdown)
    save_json("BENCH_planner", baseline_payload(results))

    for label, cached, precache, sweep, _work in results:
        assert cached.plan is not None, label
        assert precache.plan is not None, label
        assert sweep.plan is not None, label
        # The estimation cache must not change the answer at all.
        assert cached.plan == precache.plan, label
        assert repr(cached.plan) == repr(precache.plan), label
        # The profiling hooks must attribute the solve time to phases,
        # and the cache must report its hit/miss totals.
        assert cached.phase_times, label
        assert any(
            name.startswith("planner.") for name in cached.phase_times
        ), label
        assert cached.cache_stats.get("hits", 0) > 0, label
        # Heuristic at least 25% faster (the paper's 28.57% claim scale).
        assert cached.wall_time < sweep.wall_time * 0.75, label
        # And it must not lose solution quality materially.
        assert (
            cached.plan.scalability >= sweep.plan.scalability * 0.95
        ), label

    by_label = {label: r for label, *r in results}
    cached, precache, _, _ = by_label["2tracks OPT-175B"]
    assert (
        precache.wall_time / cached.wall_time >= MIN_SPEEDUP_2TRACKS
    ), (
        f"2tracks OPT-175B speedup "
        f"{precache.wall_time / cached.wall_time:.2f}x "
        f"< {MIN_SPEEDUP_2TRACKS}x target"
    )
