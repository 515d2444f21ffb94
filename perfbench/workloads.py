"""The benchmark's two workloads, as ``repro.scenario`` spec dicts.

All are open-loop: the trace generator draws Poisson arrivals on the
simulated clock, so it is never late. All run OPT-175B on A100s under
the ``sim-chatbot`` SLO. See ``README.md`` for why each was chosen,
which layers it stresses, and why ``scale-8tracks`` and ``chat-2tracks``
were left out.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 7

_BASE = {"model": "OPT-175B", "system": "HeroServe", "slo": "sim-chatbot"}
_TWO_TRACKS = {"kind": "xtracks", "tracks": 2, "n_units": 1}

#: Simulated trace length of one pass, in seconds, sized so a pass takes
#: two to four host seconds.
DURATION_S = {
    "sessions-fleet": 45.0,
    "storm-2tracks": 100.0,
}
#: Passes per run, each on its own trace drawn from the run's seed. The
#: simulated metrics pool the requests of all of them, so that no single
#: draw of prompt lengths or arrivals decides a run.
PASSES = {
    "sessions-fleet": 15,
    "storm-2tracks": 19,
}
WORKLOADS: tuple[str, ...] = tuple(DURATION_S)

#: Boundaries of ``tracing.BOUNDARIES`` that every workload exercises.
ON_ALL = (
    "workloads.build",
    "network.build",
    "core.planner.plan",
    "network.link_path",
    "network.available",
    "comm.path_time",
    "comm.rank_switches",
    "core.controller.tick",
    "core.controller.decide",
    "core.scheduler.refresh",
    "core.policy.refresh_penalties",
    "sim.step",
)
#: Boundaries that must also fire on one workload. Zero calls on a
#: boundary listed for a workload means a wrapper missed the attribute
#: its callers look up.
MAINLY_ON: dict[str, tuple[str, ...]] = {
    "sessions-fleet": ("serving.router.select",),
    "storm-2tracks": ("network.register", "network.release"),
}


def pass_seeds(name: str, seed: int) -> list[int]:
    """The trace seed of each pass of a run of ``name`` with ``seed``."""
    return [
        int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        for i in range(PASSES[name])
    ]


def _workload(generator: str, rate: float, name: str, seed: int) -> dict:
    return {
        "generator": generator,
        "rate": rate,
        "duration": DURATION_S[name],
        "seed": seed,
    }


def _storm_faults(seed: int, duration: float) -> dict:
    """An INA switch crash, a lossy degraded link and a server outage,
    spread over the run. The first two last a tenth of it.

    The outage lasts 0.15 of it, 15 s of a 100 s trace, longer than the KV
    retry budget's cumulative backoff (7 to 9 s) by a margin, so every
    transfer to the dead decode server that restarts after a prefill redo
    exhausts its budget and its requests are dropped. With a tenth, such a
    transfer could outlive the outage by a margin of jitter; then the
    redone requests finished with TTFTs of up to 45 s, and whether that
    happened moved the pooled p90 TTFT by up to a third.
    """
    hold = 0.1 * duration
    return {
        "seed": seed,
        "events": [
            {"time": 0.2 * duration, "kind": "switch_down",
             "target": "switch#0", "duration": hold},
            {"time": 0.45 * duration, "kind": "link_degrade",
             "target": "link#4", "duration": hold,
             "factor": 0.5, "loss": 0.05},
            {"time": 0.7 * duration, "kind": "server_down",
             "target": "server#1", "duration": 1.5 * hold},
        ],
    }


def spec_dict(name: str, seed: int = DEFAULT_SEED) -> dict:
    """The scenario spec of workload ``name`` with trace seed ``seed``."""
    if name == "sessions-fleet":
        return {
            **_BASE,
            "name": name,
            "topology": {"kind": "xtracks", "tracks": 2, "n_units": 2},
            "n_replicas": 3,
            "router": "network-aware",
            "workload": _workload("sessions", 0.4, name, seed),
        }
    if name == "storm-2tracks":
        return {
            **_BASE,
            "name": name,
            "topology": _TWO_TRACKS,
            "workload": _workload("sharegpt", 0.8, name, seed),
            # Intensity 0.4, not 0.7: stronger bursts stretch KV transfers
            # into retries often enough that p90 TTFT swings with the seed.
            # Register/release churn, one pair per link a burst touches,
            # does not depend on intensity.
            "background": {
                "intensity": 0.4,
                "mean_gap": 0.3,
                "mean_duration": 1.0,
                "links_per_burst": 8,
                "seed": seed,
            },
            "faults": _storm_faults(seed, DURATION_S[name]),
        }
    raise KeyError(f"unknown workload {name!r}; known: {list(WORKLOADS)}")
