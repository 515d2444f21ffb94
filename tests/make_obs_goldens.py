"""Regenerate the observed-artifact goldens (sha256 per telemetry file).

Run from the repo root after an *intentional* change to what an
observed run records::

    PYTHONPATH=src python tests/make_obs_goldens.py

Four observed runs are pinned, each artifact by its sha256:

* ``replan-mid-fault-server`` — the ``python -m repro replan
  --mid-fault server`` scenario (SLO monitor, flight recorder and
  attribution collector attached): fault injection, requeue, every
  replan lifecycle event, an SLO alert;
* ``fleet-network-aware`` — a 3-replica ``network-aware`` sessions
  fleet with ``observer: {flight: true, attribution: true}``:
  ``routing_decision`` events;
* ``storm-2tracks`` — background bursts plus switch, link and server
  faults: health transitions, KV retries and dropped requests;
* ``failover-testbed`` — both testbed access switches crash under
  cross-server tensor parallelism: INA->ring failovers and back.

Per run: Chrome trace JSON, metrics JSON and ``.prom`` text, flight
JSONL, attribution payload, the ``render_text`` report, the HTML report
and the serving summary. ``tests/test_obs_goldens.py`` recomputes them
and compares.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

OUT = os.path.join(
    os.path.dirname(__file__), "data", "golden_obs_artifacts.json"
)

FLEET_SPEC = {
    "name": "golden-fleet",
    "model": "OPT-175B",
    "system": "HeroServe",
    "slo": "sim-chatbot",
    "topology": {"kind": "xtracks", "tracks": 2, "n_units": 2},
    "n_replicas": 3,
    "router": "network-aware",
    "workload": {
        "generator": "sessions", "rate": 0.4, "duration": 30.0, "seed": 7,
    },
    "observer": {"flight": True, "attribution": True},
}

STORM_SPEC = {
    "name": "golden-storm",
    "model": "OPT-175B",
    "system": "HeroServe",
    "slo": "sim-chatbot",
    "topology": {"kind": "xtracks", "tracks": 2, "n_units": 1},
    "workload": {
        "generator": "sharegpt", "rate": 0.8, "duration": 60.0, "seed": 7,
    },
    "background": {
        "intensity": 0.4, "mean_gap": 0.3, "mean_duration": 1.0,
        "links_per_burst": 8, "seed": 7,
    },
    "faults": {
        "seed": 7,
        "events": [
            {"time": 12.0, "kind": "switch_down", "target": "switch#0",
             "duration": 6.0},
            {"time": 27.0, "kind": "link_degrade", "target": "link#4",
             "duration": 6.0, "factor": 0.5, "loss": 0.05},
            {"time": 42.0, "kind": "server_down", "target": "server#1",
             "duration": 9.0},
        ],
    },
    "observer": {"flight": True, "attribution": True},
}

FAILOVER_SPEC = {
    "name": "golden-failover",
    "model": "OPT-66B",
    "system": "HeroServe",
    "slo": "testbed-chatbot",
    "topology": {"kind": "testbed"},
    "parallel": [8, 1, 8, 1],
    "arrival_rate": 2.0,
    "workload": {
        "generator": "sharegpt", "rate": 2.0, "duration": 20.0, "seed": 3,
    },
    "faults": {
        "seed": 3,
        "events": [
            {"time": 5.0, "kind": "switch_down", "target": "switch#0",
             "duration": 8.0},
            {"time": 5.0, "kind": "switch_down", "target": "switch#1",
             "duration": 8.0},
        ],
    },
    "observer": {"flight": True, "attribution": True},
}


def _replan_mid_fault_server():
    """The ``repro replan --mid-fault server`` run at its CLI defaults."""
    from repro import (
        OPT_66B,
        SLA_TESTBED_CHATBOT,
        CostModelBank,
        ReplanConfig,
        build_system,
        build_testbed,
        simulate_trace,
    )
    from repro.baselines import HEROSERVE
    from repro.core.plan import ParallelConfig
    from repro.faults import FaultEvent, FaultPlan
    from repro.llm import A100, V100
    from repro.obs import (
        AttributionCollector,
        FlightRecorder,
        Observer,
        SLOMonitor,
        default_slo_targets,
    )
    from repro.serving import EngineConfig
    from repro.util.rng import make_rng
    from repro.workloads import generate_loadshift_trace

    trace = generate_loadshift_trace(1.2, 0.5, 30.0, 60.0, make_rng(0))
    system = build_system(
        HEROSERVE,
        build_testbed(),
        OPT_66B,
        CostModelBank(OPT_66B, {"A100": A100, "V100": V100}),
        SLA_TESTBED_CHATBOT,
        trace.representative_batch(8),
        arrival_rate=1.2,
        forced_parallel=ParallelConfig(4, 2, 4, 2),
    )
    observer = Observer(
        slo=SLOMonitor(default_slo_targets(SLA_TESTBED_CHATBOT)),
        recorder=FlightRecorder(),
        attribution=AttributionCollector(),
    )
    metrics = simulate_trace(
        system,
        trace,
        engine_config=EngineConfig(observer=observer),
        fault_plan=FaultPlan(
            events=(
                FaultEvent(
                    time=42.8, kind="server_down", target="server#0",
                    duration=3.0,
                ),
            ),
            seed=0,
        ),
        replan=ReplanConfig(
            queue_high=3,
            pending_high=12,
            sustain_checks=4,
            cooldown_s=5.0,
            window_s=20.0,
            min_window_requests=4,
            target_parallel=ParallelConfig(8, 1, 8, 1),
        ),
    )
    return observer, metrics


def _scenario(spec: dict):
    from repro.scenario import ScenarioSpec, run_scenario

    res = run_scenario(ScenarioSpec.from_dict(spec))
    return res.observer, res.metrics


RUNS = {
    "replan-mid-fault-server": _replan_mid_fault_server,
    "fleet-network-aware": lambda: _scenario(FLEET_SPEC),
    "storm-2tracks": lambda: _scenario(STORM_SPEC),
    "failover-testbed": lambda: _scenario(FAILOVER_SPEC),
}


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def artifact_hashes(observer, metrics) -> dict[str, str]:
    """sha256 of every telemetry artifact one observed run produces."""
    from repro.obs import build_report_data, render_text, write_report

    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            name: os.path.join(tmp, name)
            for name in (
                "trace.json", "metrics.json", "metrics.prom",
                "flight.jsonl", "report.html",
            )
        }
        observer.export(
            trace_path=paths["trace.json"],
            metrics_path=paths["metrics.json"],
        )
        observer.export(metrics_path=paths["metrics.prom"])
        observer.recorder.write_jsonl(paths["flight.jsonl"])
        write_report(
            paths["report.html"], observer=observer, serving_metrics=metrics
        )
        for name, path in paths.items():
            with open(path, "rb") as fh:
                out[name] = _sha(fh.read())
    out["attribution"] = _sha(
        json.dumps(observer.attribution.to_payload(), sort_keys=True)
    )
    out["report.txt"] = _sha(
        render_text(
            build_report_data(observer=observer, serving_metrics=metrics)
        )
    )
    out["summary"] = _sha(json.dumps(metrics.summary(), sort_keys=True))
    return out


def main() -> None:
    payload = {name: artifact_hashes(*run()) for name, run in RUNS.items()}
    with open(OUT, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
