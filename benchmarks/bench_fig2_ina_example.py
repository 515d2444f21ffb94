"""Fig. 2 — Homogeneous vs heterogeneous INA on the micro-topology.

Paper's example: aggregating 1 MB from GN1 in the 2-server topology.
Homogeneous INA aggregates at the core switch S1 — two Ethernet hops,
~160 us. Heterogeneous INA forwards over NVLink to the co-located GN2
and aggregates at the access switch S2 — ~90 us, "nearly 43 % lower".
We regenerate both paths and the full three-GPU all-reduce comparison.
"""

import pytest

from repro.comm import (
    CommContext,
    SchemeKind,
    estimate_group_step,
    ina_allreduce_time,
    ring_allreduce_time,
)
from repro.network import build_fig2_example
from repro.util import units
from repro.util.tables import format_table

from common import save_result

DATA = 1_000_000  # 1 MB, the figure's message size


def run_fig2() -> dict:
    built = build_fig2_example()
    homo = CommContext.from_built(built, heterogeneous=False)
    het = CommContext.from_built(built, heterogeneous=True)
    gn1, gn2 = built.server_gpus[0]
    gn3 = built.server_gpus[1][0]
    core = built.core_switches[0]
    acc = built.access_switches[0]

    # The figure's quoted quantities: GN1's collection-path latency.
    t_homo_path = homo.path_time(gn1, core, DATA)
    t_het_path = het.path_time(gn1, gn2, DATA) + het.path_time(
        gn2, acc, DATA
    )

    # Full 3-GPU all-reduce under each strategy, with the figure's
    # store-and-forward single-message arithmetic for INA.
    group = [gn1, gn2, gn3]
    t_ina_core = ina_allreduce_time(
        homo, group, core, DATA, pipelined=False
    )
    t_hybrid = estimate_group_step(
        het, group, DATA, SchemeKind.HYBRID
    ).step_time
    t_ring = ring_allreduce_time(homo, group, DATA)
    return {
        "homo_path": t_homo_path,
        "het_path": t_het_path,
        "reduction": 1 - t_het_path / t_homo_path,
        "ina_core": t_ina_core,
        "hybrid": t_hybrid,
        "ring": t_ring,
    }


@pytest.mark.benchmark(group="fig2")
def test_fig2_ina_example(benchmark):
    r = benchmark.pedantic(run_fig2, rounds=1, iterations=1)
    table = format_table(
        ["quantity", "latency", "paper"],
        [
            [
                "homogeneous collection path (GN1 -> S1)",
                units.fmt_seconds(r["homo_path"]),
                "~160 us",
            ],
            [
                "heterogeneous path (GN1 -NVLink-> GN2 -> S2)",
                units.fmt_seconds(r["het_path"]),
                "~90 us",
            ],
            ["reduction", f"{r['reduction']:.1%}", "~43%"],
            [
                "3-GPU all-reduce, INA at core",
                units.fmt_seconds(r["ina_core"]),
                "-",
            ],
            [
                "3-GPU all-reduce, hybrid",
                units.fmt_seconds(r["hybrid"]),
                "-",
            ],
            [
                "3-GPU all-reduce, ring",
                units.fmt_seconds(r["ring"]),
                "-",
            ],
        ],
        title="Fig. 2 — homogeneous vs heterogeneous aggregation (1 MB)",
    )
    print("\n" + table)
    save_result("fig2_ina_example", table)

    assert r["homo_path"] == pytest.approx(160e-6, rel=0.10)
    assert r["het_path"] == pytest.approx(90e-6, rel=0.15)
    assert r["reduction"] == pytest.approx(0.43, abs=0.10)
    # The figure's claim is about the collection path; for the full
    # 3-GPU all-reduce (GN3 alone on its server must cross the core
    # either way) hybrid matches homogeneous INA within ~10%.
    assert r["hybrid"] < r["ina_core"] * 1.1
    assert r["hybrid"] < r["ring"]
