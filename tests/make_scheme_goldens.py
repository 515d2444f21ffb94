"""Regenerate the registry-parity golden file.

``tests/data/golden_scheme_parity.json`` pins the pre-refactor behaviour
of the four classic schemes (ring / ina_sync / ina_async / hybrid): the
Eq. 7 group-step estimates for representative groups and the full
planner output (``repr(Plan)`` hashes) across seeds 0/7/13 on the
``testbed`` and ``2tracks`` topologies. The registry refactor
(``repro.comm.scheme``) must keep every value byte-identical — run this
script only when an *intentional* physics change lands, and explain the
regeneration in the commit message.

``tests/data/golden_scheme_rows.json`` pins the online policy-table rows
of every registered scheme: for each group (the representative groups
plus a 4+4 two-server split) the policy routes made once, with their
name, a hash of their *sorted* links and their live price under a fixed
seeded per-link load.

Usage::

    PYTHONPATH=src python tests/make_scheme_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from repro.comm import CommContext, SchemeKind, registered_schemes
from repro.comm.latency import estimate_group_step, price_group_step
from repro.core import SLA_TESTBED_CHATBOT
from repro.core.planner import OfflinePlanner, PlannerConfig
from repro.llm import OPT_66B, A100, V100, BatchSpec, CostModelBank
from repro.network import (
    LinkLoadTracker,
    build_testbed,
    build_xtracks_cluster,
)

OUT = os.path.join(os.path.dirname(__file__), "data", "golden_scheme_parity.json")
ROWS_OUT = os.path.join(
    os.path.dirname(__file__), "data", "golden_scheme_rows.json"
)

SEEDS = (0, 7, 13)
SCHEMES = ("ring", "ina_sync", "ina_async", "hybrid")
#: payloads spanning the latency- and bandwidth-dominated regimes
PAYLOADS = (65_536.0, 8_388_608.0)


def _topologies():
    return {
        "testbed": build_testbed(),
        "2tracks": build_xtracks_cluster(2, n_units=1),
    }


def _groups(built) -> dict[str, list[int]]:
    """Deterministic representative groups: cross-server, one-server,
    two-GPU, and a single-GPU degenerate group."""
    gpus = built.topology.gpu_ids()
    first_server = built.server_gpus[sorted(built.server_gpus)[0]]
    return {
        "cross8": list(gpus[:8]),
        "server0": list(first_server),
        "pair": [gpus[0], gpus[-1]],
        "solo": [gpus[0]],
    }


def _row_groups(built) -> dict[str, list[int]]:
    """The representative groups plus 4 GPUs on each of two servers."""
    servers = sorted(built.server_gpus)
    split = [g for s in servers[:2] for g in built.server_gpus[s][:4]]
    return {**_groups(built), "split4x2": split}


def seeded_load(built, seed: int = 0) -> LinkLoadTracker:
    """A tracker carrying a seeded 0-90 % load on every directed link."""
    ls = LinkLoadTracker(built.topology)
    rng = np.random.default_rng(seed)
    frac = rng.uniform(0.0, 0.9, size=len(built.topology.links))
    for lid, link in enumerate(built.topology.links):
        ls.register([lid], float(frac[lid] * link.capacity))
    return ls


def _rows(built) -> dict:
    out: dict = {}
    ls = seeded_load(built)
    for scheme in registered_schemes():
        base = CommContext.from_built(
            built, heterogeneous=scheme.heterogeneous
        )
        ctx = CommContext(
            built=built,
            route_table=base.route_table,
            linkstate=ls,
            heterogeneous=scheme.heterogeneous,
        )
        per_scheme: dict = {}
        for gname, gpus in _row_groups(built).items():
            per_scheme[gname] = [
                {
                    "name": scheme.policy_key(route.mode, route.switch),
                    "links_sha": hashlib.sha256(
                        repr(tuple(sorted(route.links))).encode()
                    ).hexdigest()[:16],
                    "price": {
                        f"{data:.0f}": repr(route.time(ctx, data))
                        for data in PAYLOADS
                    },
                }
                for route in scheme.policy_routes(ctx, gpus, 2)
            ]
        out[scheme.name] = per_scheme
    return out


def _estimates(built) -> dict:
    out: dict = {}
    for scheme_name in SCHEMES:
        scheme = SchemeKind(scheme_name)
        hetero = scheme == SchemeKind.HYBRID
        ctx = CommContext.from_built(built, heterogeneous=hetero)
        per_scheme: dict = {}
        for gname, gpus in _groups(built).items():
            for data in PAYLOADS:
                est = estimate_group_step(ctx, gpus, data, scheme)
                forced = price_group_step(
                    ctx, gpus, scheme, est.mode, est.ina_switch, data
                )
                per_scheme[f"{gname}@{data:.0f}"] = {
                    "mode": est.mode,
                    "ina_switch": est.ina_switch,
                    "step_time": repr(est.step_time),
                    "links_sha": hashlib.sha256(
                        repr(est.links).encode()
                    ).hexdigest()[:16],
                    "forced_time": repr(forced),
                }
        out[scheme_name] = per_scheme
    return out


def _plans(built) -> dict:
    out: dict = {}
    bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
    batch = BatchSpec.uniform(8, 256, 220)
    for scheme_name in SCHEMES:
        scheme = SchemeKind(scheme_name)
        hetero = scheme == SchemeKind.HYBRID
        ctx = CommContext.from_built(built, heterogeneous=hetero)
        for seed in SEEDS:
            planner = OfflinePlanner(
                ctx,
                OPT_66B,
                bank,
                SLA_TESTBED_CHATBOT,
                scheme,
                config=PlannerConfig(seed=seed, max_candi=6),
            )
            report = planner.plan(batch, arrival_rate=0.5)
            plan = report.plan
            key = f"{scheme_name}/seed{seed}"
            if plan is None:
                out[key] = {"plan": None}
                continue
            out[key] = {
                "repr_sha": hashlib.sha256(
                    repr(plan).encode()
                ).hexdigest(),
                "t_prefill": repr(plan.t_prefill),
                "t_decode": repr(plan.t_decode),
                "scalability": repr(plan.scalability),
                "t_network_prefill": repr(plan.prefill.t_network),
                "t_network_decode": repr(plan.decode.t_network),
            }
    return out


def main() -> None:
    golden: dict = {"topologies": {}}
    rows: dict = {"topologies": {}}
    for name, built in _topologies().items():
        golden["topologies"][name] = {
            "estimates": _estimates(built),
            "plans": _plans(built),
        }
        rows["topologies"][name] = _rows(built)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    for path, doc in ((OUT, golden), (ROWS_OUT, rows)):
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
