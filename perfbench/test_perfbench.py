"""Tests of the benchmark's own reductions and tracer.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import measure
import tracing
from repro.scenario import ScenarioSpec
from workloads import PASSES, WORKLOADS, pass_seeds, spec_dict


def _pass(offered: int, ttft: list[float], n_ok: int) -> measure.PassResult:
    return measure.PassResult(
        setup_cpu_s=1.0,
        simulate_cpu_s=1.0,
        wall_s=2.0,
        ref_cpu_s=0.1,
        ref_wall_s=0.1,
        summary={"n_offered": offered, "n_finished": len(ttft),
                 "n_dropped": offered - len(ttft), "n_slo_ok": n_ok},
        ttft=np.array(ttft),
        tpot=np.full(len(ttft), 0.05),
    )


def test_pooled_attainment_counts_drops_as_misses():
    # Two of five offered met both limits; the two requests that never
    # finished count as misses, unlike a finished-only attainment (2/3).
    sim = measure.pool([_pass(5, [0.1, 0.2, 9.0], n_ok=2)])
    assert sim["slo_attainment"] == 0.4
    assert sim["finished_frac"] == 0.6
    both = measure.pool([_pass(5, [0.1, 0.2, 9.0], 2), _pass(3, [0.3] * 3, 3)])
    assert both["slo_attainment"] == 5 / 8
    assert both["n_finished"] == 6
    assert both["ttft_p50_s"] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        measure.pool([_pass(0, [], 0)])


def test_host_metrics_scale_out_host_speed():
    # The same passes on a host half as fast, reference included, give
    # the same metrics in reference seconds.
    fast = [_pass(10, [1.0] * 10, 10) for _ in range(3)]
    slow = [
        dataclasses.replace(p, setup_cpu_s=2 * p.setup_cpu_s,
                            simulate_cpu_s=2 * p.simulate_cpu_s,
                            wall_s=2 * p.wall_s, ref_cpu_s=2 * p.ref_cpu_s,
                            ref_wall_s=2 * p.ref_wall_s)
        for p in fast
    ]
    a, b = measure.host_metrics(fast), measure.host_metrics(slow)
    assert a == pytest.approx(b)
    # At reference speed the metrics are the host timings themselves.
    assert a == pytest.approx({"setup_s": 1.0, "host_req_per_s": 10.0,
                               "wall_s": 2.0})


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_supported_percentile_needs_ten_samples_beyond(n, expected):
    assert measure.supported_percentile(n) == expected


def _table(spans, names=("a", "b", "c")):
    """Build a SpanTable from (name, parent, start, end[, outer]) rows."""
    rows = [s if len(s) == 5 else (*s, 1) for s in spans]
    return tracing.SpanTable(
        names=names,
        name=np.array([names.index(r[0]) for r in rows], dtype=np.int64),
        parent=np.array([r[1] for r in rows], dtype=np.int64),
        outer=np.array([r[4] for r in rows], dtype=np.int8),
        start=np.array([r[2] for r in rows], dtype=float),
        end=np.array([r[3] for r in rows], dtype=float),
    )


def test_self_time_subtracts_direct_children_only():
    t = _table([
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("b", 0, 5.0, 7.0),
        ("c", 2, 5.5, 6.5),
    ]).layer_times()
    assert t["a"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert t["b"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert t["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_self_time_never_negative_and_recursion_counted_once():
    t = _table([
        # children over-cover the parent (clock granularity)
        ("a", -1, 0.0, 1.0),
        ("b", 0, 0.0, 0.7),
        ("c", 0, 0.5, 1.2),
        # b recursing into b: the inner span is not added to total_s
        ("b", -1, 2.0, 5.0),
        ("b", 3, 3.0, 4.0, 0),
    ]).layer_times()
    assert t["a"]["self_s"] == 0.0
    assert t["b"]["total_s"] == pytest.approx(0.7 + 3.0)
    assert t["b"]["self_s"] == pytest.approx(0.7 + 2.0 + 1.0)
    assert all(row["self_s"] >= 0.0 for row in t.values())


def test_wrapped_calls_record_nested_spans():
    tracer = tracing.Tracer(boundaries=(("outer", "m", "f"), ("inner", "m", "g")))

    def g():
        return sum(range(1000))

    def f():
        return g() + g()

    f = tracer.wrap("outer", f)
    g = tracer.wrap("inner", g)
    f()
    table = tracer.table()
    assert list(table.parent) == [-1, 0, 0]
    t = table.layer_times()
    assert t["outer"]["calls"] == 1 and t["inner"]["calls"] == 2
    assert t["outer"]["self_s"] <= t["outer"]["total_s"]


def _current(module: str, path: str):
    import importlib

    mod = importlib.import_module(module)
    if "." in path:
        cls_name, meth = path.split(".")
        return getattr(mod, cls_name).__dict__[meth]
    return getattr(mod, path)


def test_tracer_removes_every_wrapper():
    import repro.comm
    import repro.comm.scheme
    import repro.core.scheduler
    from repro.network.routing import RouteTable
    from repro.serving.router import registered_routers

    before = {b: _current(b[1], b[2]) for b in tracing.BOUNDARIES}
    aliases = (repro.comm.rank_switches, repro.core.scheduler.rank_switches)
    selects = {cls: cls.__dict__.get("select") for cls in registered_routers()}
    with tracing.Tracer() as tracer:
        for b, fn in before.items():
            assert _current(b[1], b[2]) is not fn or b[2] == "Router.select"
        # aliased re-exports and concrete router overrides are wrapped too
        assert repro.comm.rank_switches is repro.comm.scheme.rank_switches
        assert repro.core.scheduler.rank_switches is not aliases[1]
        for cls, fn in selects.items():
            if fn is not None:
                assert cls.__dict__["select"] is not fn
    assert {b: _current(b[1], b[2]) for b in tracing.BOUNDARIES} == before
    assert (repro.comm.rank_switches, repro.core.scheduler.rank_switches) == aliases
    assert {cls: cls.__dict__.get("select") for cls in registered_routers()} == selects
    assert "link_path" in RouteTable.__dict__
    n = len(tracer.table().start)
    from repro.scenario import build_runtime

    spec = spec_dict("storm-2tracks")
    spec["workload"]["duration"] = 5.0
    build_runtime(ScenarioSpec.from_dict(spec))
    assert len(tracer.table().start) == n


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spec_dicts_validate(workload):
    from repro.scenario import validate_spec

    assert validate_spec(spec_dict(workload, seed=11)) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_pass_times_both_phases_and_unwraps(workload):
    import repro.scenario.runner as runner
    from repro.serving.fleet import ReplicaFleet

    before = (runner.simulate_trace, ReplicaFleet.__dict__["run"])
    d = spec_dict(workload, seed=3)
    d["workload"]["duration"] = 10.0
    p = measure.run_pass(ScenarioSpec.from_dict(d))
    assert (runner.simulate_trace, ReplicaFleet.__dict__["run"]) == before
    assert p.setup_cpu_s > 0.0 and p.simulate_cpu_s > 0.0
    assert p.wall_s > 0.0
    s = p.summary
    assert s["n_finished"] + s["n_dropped"] == s["n_offered"] > 0
    assert s["program"]["offered"] == s["n_offered"]
    assert len(p.ttft) == s["n_finished"]


def test_pass_seeds_are_distinct_and_repeat():
    a = pass_seeds("storm-2tracks", 7)
    assert a == pass_seeds("storm-2tracks", 7)
    assert len(set(a)) == len(a) == PASSES["storm-2tracks"]
    assert not set(a) & set(pass_seeds("storm-2tracks", 8))
