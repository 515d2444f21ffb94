"""repro — a full reproduction of HeroServe (CLUSTER 2025).

HeroServe: "Scalable and Fast Inference Serving via Hybrid Communication
Scheduling on Heterogeneous Networks". The package provides:

* :mod:`repro.network` — heterogeneous topology, routing, fair-share flows;
* :mod:`repro.switch` — programmable-switch dataplane + SwitchML/ATP INA;
* :mod:`repro.comm` — ring / INA / hybrid collective latency models;
* :mod:`repro.llm` — OPT model zoo, memory model, fitted cost model;
* :mod:`repro.core` — the paper's offline planner and online scheduler;
* :mod:`repro.serving` — discrete-event serving simulator and metrics;
* :mod:`repro.workloads` — ShareGPT/LongBench-like trace generators;
* :mod:`repro.baselines` — HeroServe vs DistServe / DS-ATP / DS-SwitchML;
* :mod:`repro.obs` — tracing, metrics registry, profiling, logging;
* :mod:`repro.faults` — fault injection, health detection, failover.

Quickstart::

    from repro import quick_testbed
    system, metrics = quick_testbed()
    print(metrics.summary())
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.baselines import (
    ALL_SYSTEMS,
    DISTSERVE,
    DS_2STAGE,
    DS_ATP,
    DS_SWITCHML,
    EXTRA_SYSTEMS,
    HEROSERVE,
    build_system,
    simulate_trace,
)
from repro.comm import (
    CommContext,
    SchemeKind,
    get_scheme,
    registered_schemes,
)
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    HealthRegistry,
    poisson_plan,
)
from repro.core import (
    SLA_TESTBED_CHATBOT,
    CentralController,
    OfflinePlanner,
    OnlineReplanner,
    Plan,
    ReplanConfig,
    SlaSpec,
)
from repro.llm import (
    OPT_13B,
    OPT_66B,
    OPT_175B,
    BatchSpec,
    CostModelBank,
    ModelConfig,
)
from repro.network import build_testbed, build_xtracks_cluster
from repro.obs import (
    MetricsRegistry,
    Observer,
    PhaseProfiler,
    TraceRecorder,
    setup_logging,
)
from repro.serving import EngineConfig, ServingMetrics, find_max_rate
from repro.workloads import (
    generate_loadshift_trace,
    generate_longbench_trace,
    generate_sharegpt_trace,
)


def quick_testbed(
    rate: float = 0.5,
    duration: float = 60.0,
    seed: int = 0,
    engine_config: EngineConfig | None = None,
    fault_plan: "FaultPlan | None" = None,
    replan: "ReplanConfig | None" = None,
):
    """Plan and simulate HeroServe on the paper's testbed in one call.

    Returns ``(system, metrics)``. Meant for the README quickstart; the
    examples directory shows the full API. Pass
    ``EngineConfig(observer=Observer())`` to collect traces/metrics, a
    :class:`~repro.faults.FaultPlan` to inject faults mid-run, and a
    :class:`~repro.core.ReplanConfig` to arm load-triggered online
    replanning.
    """
    from repro.llm import A100, V100
    from repro.util.rng import make_rng

    built = build_testbed()
    bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
    trace = generate_sharegpt_trace(rate, duration, make_rng(seed))
    system = build_system(
        HEROSERVE,
        built,
        OPT_66B,
        bank,
        SLA_TESTBED_CHATBOT,
        trace.representative_batch(8),
        arrival_rate=rate,
    )
    metrics = simulate_trace(
        system,
        trace,
        engine_config=engine_config,
        fault_plan=fault_plan,
        replan=replan,
    )
    return system, metrics


__all__ = [
    "__version__",
    "ALL_SYSTEMS",
    "DISTSERVE",
    "DS_2STAGE",
    "DS_ATP",
    "DS_SWITCHML",
    "EXTRA_SYSTEMS",
    "HEROSERVE",
    "build_system",
    "simulate_trace",
    "CommContext",
    "SchemeKind",
    "get_scheme",
    "registered_schemes",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "HealthRegistry",
    "poisson_plan",
    "SLA_TESTBED_CHATBOT",
    "CentralController",
    "OfflinePlanner",
    "OnlineReplanner",
    "Plan",
    "ReplanConfig",
    "SlaSpec",
    "OPT_13B",
    "OPT_66B",
    "OPT_175B",
    "BatchSpec",
    "CostModelBank",
    "ModelConfig",
    "build_testbed",
    "build_xtracks_cluster",
    "MetricsRegistry",
    "Observer",
    "PhaseProfiler",
    "TraceRecorder",
    "setup_logging",
    "EngineConfig",
    "ServingMetrics",
    "find_max_rate",
    "generate_loadshift_trace",
    "generate_longbench_trace",
    "generate_sharegpt_trace",
    "quick_testbed",
]
