"""Ablations on HeroServe's communication machinery.

* **online scheduler on/off** — HeroServe with the load-aware policy
  tables vs the same hybrid scheme statically re-estimated, under bursty
  background traffic: the online scheduler's dynamic path/mode switching
  is what recovers latency when links congest (§III-D);
* **hybrid vs single-mode** — per-group Eq. 7 selection against forcing
  INA-only or ring-only for a cross-server group across message sizes:
  the argmin must trace the lower envelope.
"""

import numpy as np
import pytest

from repro.baselines import HEROSERVE, build_system, simulate_trace
from repro.comm import (
    CommContext,
    SchemeKind,
    estimate_group_step,
    ina_allreduce_time,
    ring_allreduce_time,
    select_ina_switch,
    tree_allreduce_time,
    twostage_allreduce_time,
)
from repro.core import SLA_TESTBED_CHATBOT
from repro.core.controller import CentralController
from repro.llm import OPT_66B
from repro.obs import NULL_OBSERVER
from repro.network import build_testbed
from repro.serving import BackgroundTrafficConfig, ServingSimulator
from repro.serving.background import BackgroundTraffic
from repro.util.rng import make_rng
from repro.util.tables import format_table
from repro.workloads import generate_sharegpt_trace

from common import (
    TESTBED_PARALLEL,
    bench_seed,
    dump_observation,
    make_testbed_bank,
    maybe_observed_config,
    save_json,
    save_result,
)


def run_online_ablation():
    built = build_testbed()
    bank = make_testbed_bank(OPT_66B)
    rate = 2.0
    trace = generate_sharegpt_trace(
        rate, 90, make_rng(bench_seed(21)), bursty=True
    )
    system = build_system(
        HEROSERVE, built, OPT_66B, bank, SLA_TESTBED_CHATBOT,
        trace.representative_batch(8), arrival_rate=rate,
        forced_parallel=TESTBED_PARALLEL,
    )
    bg = BackgroundTrafficConfig(intensity=0.5, mean_gap=0.4)
    out = {}
    for online in (True, False):
        ctx = system.fresh_context()
        cfg, obs = maybe_observed_config()
        controller = (
            CentralController(
                ctx=ctx,
                scheme=system.spec.scheme,
                observer=(obs or NULL_OBSERVER),
            )
            if online
            else None
        )
        sim = ServingSimulator(
            ctx=ctx, plan=system.plan, model=OPT_66B, bank=bank,
            sla=SLA_TESTBED_CHATBOT, trace=trace, controller=controller,
            config=cfg,
        )
        BackgroundTraffic(
            built.topology, ctx.linkstate, sim.queue, bg, seed=bench_seed(5)
        ).start(trace.duration + 300)
        m = sim.run()
        dump_observation(
            f"ablation_scheduler-{'online' if online else 'static'}",
            obs,
            m,
        )
        out["online" if online else "static"] = {
            "attainment": m.attainment(),
            "ttft": m.mean_ttft(),
            "tpot": m.mean_tpot(),
        }
    return out


@pytest.mark.benchmark(group="ablation")
def test_ablation_online_scheduler(benchmark):
    res = benchmark.pedantic(run_online_ablation, rounds=1, iterations=1)
    rows = [
        [
            k,
            f"{v['attainment']:.2f}",
            f"{v['ttft'] * 1e3:.0f}",
            f"{v['tpot'] * 1e3:.1f}",
        ]
        for k, v in res.items()
    ]
    table = format_table(
        ["scheduler", "attainment", "TTFT ms", "TPOT ms"],
        rows,
        title=(
            "Ablation — load-aware online scheduler vs static hybrid, "
            "bursty arrivals + background bursts @ 2.0 req/s"
        ),
    )
    print("\n" + table)
    save_result("ablation_online_scheduler", table)
    # The online scheduler must not lose to the static variant.
    assert res["online"]["ttft"] <= res["static"]["ttft"] * 1.05
    assert res["online"]["attainment"] >= res["static"]["attainment"] - 0.02


def run_mode_envelope():
    built = build_testbed()
    ctx = CommContext.from_built(built, heterogeneous=True)
    group = built.topology.gpu_ids()[:8]
    sw = select_ina_switch(ctx, group)
    sizes = [2**k * 1_000_000 for k in range(0, 7)]  # 1..64 MB
    rows = []
    for d in sizes:
        t_ina = ina_allreduce_time(ctx, group, sw, d)
        t_ring = ring_allreduce_time(ctx, group, d)
        t_hyb = estimate_group_step(
            ctx, group, d, SchemeKind.HYBRID
        ).step_time
        t_two = twostage_allreduce_time(ctx, group, d)
        t_tree = tree_allreduce_time(ctx, group, d)
        rows.append((d, t_ina, t_ring, t_hyb, t_two, t_tree))
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_hybrid_envelope(benchmark):
    rows_raw = benchmark.pedantic(run_mode_envelope, rounds=1, iterations=1)
    rows = [
        [
            f"{d / 1e6:.0f} MB",
            f"{ti * 1e3:.2f}",
            f"{tr * 1e3:.2f}",
            f"{th * 1e3:.2f}",
            f"{t2 * 1e3:.2f}",
            f"{tt * 1e3:.2f}",
        ]
        for d, ti, tr, th, t2, tt in rows_raw
    ]
    table = format_table(
        [
            "message",
            "INA-only ms",
            "ring-only ms",
            "hybrid ms",
            "2stage ms",
            "tree ms",
        ],
        rows,
        title=(
            "Ablation — hybrid mode selection vs forced single mode "
            "(TP8 across two A100 servers)"
        ),
    )
    print("\n" + table)
    save_result("ablation_hybrid_envelope", table)
    sizes = [d for d, *_ in rows_raw]
    save_json(
        "BENCH_collectives",
        {
            "topology": "testbed (two A100 servers, TP8 cross-server)",
            "sizes_bytes": sizes,
            "times_s": {
                "ina_sync": [r[1] for r in rows_raw],
                "ring": [r[2] for r in rows_raw],
                "hybrid": [r[3] for r in rows_raw],
                "ring-2stage": [r[4] for r in rows_raw],
                "tree": [r[5] for r in rows_raw],
            },
        },
    )
    arr = np.array([(ti, tr, th, t2, tt) for _, ti, tr, th, t2, tt in rows_raw])
    # Hybrid must trace (or beat, thanks to NVLink offload) the envelope.
    assert np.all(arr[:, 2] <= np.minimum(arr[:, 0], arr[:, 1]) * 1.05)
    # The hierarchical ring moves (p-k)/p of the hops onto NVLink, so it
    # must never lose to the flat Ethernet ring on this testbed.
    assert np.all(arr[:, 3] <= arr[:, 1] * 1.05)
