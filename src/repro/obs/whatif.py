"""What-if profiler: counterfactual bottleneck ranking.

PR 6's attribution answers *where the time went*; this module answers
*what a change would buy*. Given a completed run's per-request
:class:`~repro.obs.attribution.RequestAttribution` timelines, a
:class:`WhatIfProfiler` evaluates a catalog of resource interventions —
"NVLink 2x", "leader Ethernet 2x", "INA switch SRAM slots 4x", "prefill
compute 2x", ... — and predicts how each would move p50/p99 TTFT, TPOT
and throughput. Two estimators:

* **analytic** (:meth:`WhatIfProfiler.predict`) replays every request's
  component budget with the targeted resource rescaled. Link
  interventions use the congested-link tags attribution records on each
  all-reduce share: only the share fraction whose bottleneck link
  belongs to the targeted class is divided by ``k``. Queueing components
  are then scaled by the fleet-wide service-time ratio of their server
  (``queue_wait`` tracks the prefill service time, ``decode_wait`` the
  decode iteration time) — a first-order M/G/1-style approximation.
* **counterfactual re-simulation** (:meth:`WhatIfProfiler.resimulate`)
  perturbs the actual :class:`~repro.serving.engine.EngineConfig`
  (capacity scales on the run's LinkLoadTracker, compute/KV speedups,
  slot budgets, controller cadence) and re-runs the simulator with the
  same plan, trace and seeds. It is the ground truth the analytic
  numbers are validated against; the pinned tolerance is asserted by a
  golden test and by ``python -m repro whatif --validate`` in CI.

Interventions the analytic model knows it cannot help with stay honest:
``ina_slots`` and ``sched_tick`` predict zero first-order gain, and the
re-simulation confirms (or refutes) that for the topology at hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.attribution import AttributionCollector, RequestAttribution

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.baselines.systems import ServingSystem
    from repro.serving.engine import EngineConfig
    from repro.serving.metrics import ServingMetrics
    from repro.workloads.traces import Trace

__all__ = [
    "DEFAULT_CATALOG",
    "DEFAULT_TOLERANCE",
    "ERROR_FLOOR_FRAC",
    "TOLERANCES",
    "Intervention",
    "RunStats",
    "WhatIfEstimate",
    "WhatIfResult",
    "WhatIfProfiler",
    "render_ladder",
]

#: Relative-error tolerance on the Δp99-TTFT agreement between the
#: analytic estimate and the counterfactual re-simulation (the ISSUE 7
#: acceptance target). Per-resource overrides live in TOLERANCES.
DEFAULT_TOLERANCE = 0.15

#: The error denominator is floored at this fraction of the baseline
#: p99 TTFT, so interventions whose true effect is ~zero (e.g. INA
#: slots on a run whose live pricing never hits the slot window) are
#: judged on absolute, not relative, agreement.
ERROR_FLOOR_FRAC = 0.05

#: Resources whose first-order analytic model is known to be coarser
#: (queueing feedback on the scaled resource) get a wider, documented
#: tolerance; see docs/OBSERVABILITY.md ("What-if profiling").
TOLERANCES: dict[str, float] = {
    "compute:prefill": 0.35,
    "compute:decode": 0.35,
    "link:ethernet_access": 0.35,
    "kv_path": 0.35,
}


def tolerance_for(resource: str) -> float:
    """Pinned analytic-vs-resim tolerance for one resource."""
    return TOLERANCES.get(resource, DEFAULT_TOLERANCE)


@dataclass(frozen=True)
class Intervention:
    """One catalog entry: make ``resource`` ``factor``x faster/bigger."""

    key: str
    label: str
    #: ``link:<class>`` (Topology.link_classes names), ``compute:prefill``,
    #: ``compute:decode``, ``kv_path``, ``ina_slots`` or ``sched_tick``
    resource: str
    factor: float

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "resource": self.resource,
            "factor": self.factor,
        }


#: The heterogeneous-network upgrade catalog of ISSUE 7: every resource
#: class the paper's evaluation shows can become the binding one.
DEFAULT_CATALOG: tuple[Intervention, ...] = (
    Intervention(
        "nvlink_bw_2x", "NVLink bandwidth 2x", "link:nvlink", 2.0
    ),
    Intervention(
        "leader_eth_2x",
        "leader (GPU<->switch) Ethernet 2x",
        "link:ethernet_access",
        2.0,
    ),
    Intervention(
        "trunk_eth_2x",
        "inter-track trunk Ethernet 2x",
        "link:ethernet_trunk",
        2.0,
    ),
    Intervention(
        "ina_slots_4x", "INA switch SRAM slots 4x", "ina_slots", 4.0
    ),
    Intervention(
        "prefill_compute_2x",
        "prefill-cluster compute 2x",
        "compute:prefill",
        2.0,
    ),
    Intervention(
        "decode_compute_2x",
        "decode-cluster compute 2x",
        "compute:decode",
        2.0,
    ),
    Intervention(
        "kv_path_2x", "KV-transfer path 2x", "kv_path", 2.0
    ),
    Intervention(
        "sched_tick_4x",
        "scheduler tick 4x faster",
        "sched_tick",
        4.0,
    ),
)


@dataclass(frozen=True)
class RunStats:
    """The headline serving metrics one what-if run is judged on."""

    n_requests: int
    p50_ttft_s: float
    p99_ttft_s: float
    p50_tpot_s: float
    p99_tpot_s: float
    throughput_rps: float

    def to_dict(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "p50_ttft_s": round(self.p50_ttft_s, 6),
            "p99_ttft_s": round(self.p99_ttft_s, 6),
            "p50_tpot_s": round(self.p50_tpot_s, 6),
            "p99_tpot_s": round(self.p99_tpot_s, 6),
            "throughput_rps": round(self.throughput_rps, 6),
        }


def stats_from_metrics(metrics: "ServingMetrics") -> RunStats:
    """Headline stats from a run's finished requests.

    Percentiles are computed here (not via the metrics helpers) so the
    baseline, analytic and re-simulated sides all use one method.
    """
    reqs = metrics.finished
    if not reqs:
        return RunStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ttft = np.array([r.ttft for r in reqs])
    tpot = np.array([r.tpot for r in reqs])
    arrivals = np.array([r.arrival_time for r in reqs])
    finishes = np.array([r.finish_time for r in reqs])
    span = float(finishes.max() - arrivals.min())
    return RunStats(
        n_requests=len(reqs),
        p50_ttft_s=float(np.percentile(ttft, 50)),
        p99_ttft_s=float(np.percentile(ttft, 99)),
        p50_tpot_s=float(np.percentile(tpot, 50)),
        p99_tpot_s=float(np.percentile(tpot, 99)),
        throughput_rps=len(reqs) / span if span > 0 else 0.0,
    )


@dataclass
class WhatIfEstimate:
    """One intervention's predicted (and optionally re-simulated) gain."""

    intervention: Intervention
    baseline: RunStats
    predicted: RunStats
    resim: RunStats | None = None

    # -- deltas (positive = improvement) -------------------------------

    @property
    def d_p99_ttft_s(self) -> float:
        return self.baseline.p99_ttft_s - self.predicted.p99_ttft_s

    @property
    def d_throughput_rps(self) -> float:
        return (
            self.predicted.throughput_rps - self.baseline.throughput_rps
        )

    @property
    def resim_d_p99_ttft_s(self) -> float | None:
        if self.resim is None:
            return None
        return self.baseline.p99_ttft_s - self.resim.p99_ttft_s

    # -- validation ----------------------------------------------------

    @property
    def tolerance(self) -> float:
        return tolerance_for(self.intervention.resource)

    @property
    def rel_error(self) -> float | None:
        """|Δanalytic - Δresim| / max(|Δresim|, floor) on p99 TTFT.

        The floor (:data:`ERROR_FLOOR_FRAC` of the baseline p99) keeps
        near-zero-effect interventions from dividing by ~0.
        """
        d_resim = self.resim_d_p99_ttft_s
        if d_resim is None:
            return None
        floor = ERROR_FLOOR_FRAC * self.baseline.p99_ttft_s
        denom = max(abs(d_resim), floor)
        if denom <= 0.0:
            return 0.0
        return abs(self.d_p99_ttft_s - d_resim) / denom

    @property
    def within_tolerance(self) -> bool | None:
        err = self.rel_error
        if err is None:
            return None
        return err <= self.tolerance

    def to_dict(self) -> dict:
        out = {
            "intervention": self.intervention.to_dict(),
            "predicted": self.predicted.to_dict(),
            "delta": {
                "p99_ttft_s": round(self.d_p99_ttft_s, 6),
                "p50_ttft_s": round(
                    self.baseline.p50_ttft_s
                    - self.predicted.p50_ttft_s,
                    6,
                ),
                "p99_tpot_s": round(
                    self.baseline.p99_tpot_s
                    - self.predicted.p99_tpot_s,
                    6,
                ),
                "throughput_rps": round(self.d_throughput_rps, 6),
            },
        }
        if self.resim is not None:
            out["resim"] = self.resim.to_dict()
            out["resim_delta"] = {
                "p99_ttft_s": round(self.resim_d_p99_ttft_s, 6),
                "throughput_rps": round(
                    self.resim.throughput_rps
                    - self.baseline.throughput_rps,
                    6,
                ),
            }
            out["rel_error"] = round(self.rel_error, 6)
            out["tolerance"] = self.tolerance
            out["within_tolerance"] = self.within_tolerance
        return out


@dataclass
class WhatIfResult:
    """Ranked bottleneck ladder over the full intervention catalog."""

    baseline: RunStats
    rows: list[WhatIfEstimate] = field(default_factory=list)
    validated: bool = False

    @property
    def all_within_tolerance(self) -> bool:
        """True when every validated row agrees with its re-simulation."""
        return all(
            row.within_tolerance is not False for row in self.rows
        )

    def top(self, k: int | None = None) -> list[WhatIfEstimate]:
        return self.rows[: k if k is not None else len(self.rows)]

    def to_payload(self, meta: dict | None = None) -> dict:
        """Deterministic JSON-ready dump (``<run>-whatif.json``)."""
        return {
            "meta": dict(meta or {}),
            "validated": self.validated,
            "baseline": self.baseline.to_dict(),
            "interventions": [row.to_dict() for row in self.rows],
        }


class WhatIfProfiler:
    """Counterfactual profiler over one (system, trace) deployment.

    ``run_baseline()`` executes the observed baseline once (attaching
    its own attribution collector — results stay byte-identical to an
    unobserved run); ``ladder()`` then ranks the catalog analytically
    and, with ``validate=True``, re-simulates every intervention.
    """

    def __init__(
        self,
        system: "ServingSystem",
        trace: "Trace",
        base_config: "EngineConfig | None" = None,
        catalog: tuple[Intervention, ...] = DEFAULT_CATALOG,
    ) -> None:
        from repro.serving.engine import EngineConfig

        self.system = system
        self.trace = trace
        self.catalog = tuple(catalog)
        self.base_config = base_config or EngineConfig()
        self._classes = system.built.topology.link_classes()
        self._sens_cache: dict[tuple[str, str, str], float] = {}
        self.collector: AttributionCollector | None = None
        self.baseline_metrics: "ServingMetrics | None" = None
        self.baseline: RunStats | None = None

    # -- baseline ------------------------------------------------------

    def run_baseline(self) -> "ServingMetrics":
        """Execute the observed baseline run (attribution attached)."""
        from repro.baselines.systems import simulate_trace
        from repro.obs.observer import Observer

        collector = AttributionCollector()
        cfg = replace(
            self.base_config, observer=Observer(attribution=collector)
        )
        metrics = simulate_trace(
            self.system, self.trace, engine_config=cfg
        )
        self.collector = collector
        self.baseline_metrics = metrics
        self.baseline = stats_from_metrics(metrics)
        return metrics

    def _require_baseline(self) -> list[RequestAttribution]:
        if self.collector is None:
            self.run_baseline()
        return self.collector.finished

    # -- analytic estimator --------------------------------------------

    def _link_class(self, link_id: int | None) -> str | None:
        if link_id is None or not (
            0 <= link_id < len(self._classes)
        ):
            return None
        return self._classes[link_id]

    def _idle_class_fraction(
        self, cls: str, phase: str, policy: str
    ) -> float:
        """Fraction of one idle-network group step under ``policy``
        spent on class-``cls`` links.

        Calibrated, not assumed: the plan's stage groups are priced on a
        fresh idle context twice — once as-is, once with the class
        probe-scaled — and the observed speedup is inverted. This is how
        the analytic estimator credits stages the congestion tags cannot
        see (e.g. the NVLink first stage folded into a hybrid share
        whose bottleneck tag points at the Ethernet hop).
        """
        key = (cls, phase, policy)
        cached = self._sens_cache.get(key)
        if cached is not None:
            return cached
        from repro.comm.latency import allreduce_bytes, price_group_step

        plan = self.system.plan
        phase_plan = plan.prefill if phase == "prefill" else plan.decode
        # Representative payloads (K_in tokens / decode batch Q); the
        # *fraction* is insensitive to the exact size in the
        # bandwidth-dominated regime the tail lives in.
        tokens = 512 if phase == "prefill" else 64
        data = allreduce_bytes(self.system.model, tokens)
        mode, _, sw = policy.partition("@")
        # Policy names are scheduler-facing; forced pricing wants the
        # scheme's ethernet_mode vocabulary.
        mode = {
            "hybrid-ina": "ina",
            "hybrid-ring": "ring",
            "nvlink": "none",
        }.get(mode, mode)
        ina_switch = int(sw) if sw else None
        probe = 4.0
        frac = 0.0
        try:
            base_ctx = self.system.fresh_context()
            fast_ctx = self.system.fresh_context()
            fast_ctx.linkstate.scale_class(cls, probe)
            t1 = sum(
                price_group_step(
                    base_ctx, stage, plan.scheme, mode, ina_switch, data
                )
                for stage in phase_plan.stages
            )
            tk = sum(
                price_group_step(
                    fast_ctx, stage, plan.scheme, mode, ina_switch, data
                )
                for stage in phase_plan.stages
            )
            if t1 > 0.0:
                frac = (1.0 - tk / t1) / (1.0 - 1.0 / probe)
                frac = max(0.0, min(1.0, frac))
        except (ValueError, KeyError):
            # Unknown mode/class for this scheme: claim no sensitivity.
            frac = 0.0
        self._sens_cache[key] = frac
        return frac

    def _rescale(
        self, attr: RequestAttribution, iv: Intervention
    ) -> dict[str, float]:
        """One request's component budget under the intervention,
        before fleet-wide wait scaling."""
        comps = dict(attr.components)
        res, k = iv.resource, iv.factor
        if res.startswith("link:"):
            cls = res.split(":", 1)[1]
            for phase, comp in (
                ("prefill", "prefill_allreduce"),
                ("decode", "decode_allreduce"),
            ):
                shares = [
                    s for s in attr.allreduce if s.phase == phase
                ]
                total = sum(s.seconds for s in shares)
                if total <= 0.0 or comps[comp] <= 0.0:
                    continue
                new_total = 0.0
                for s in shares:
                    if self._link_class(s.bottleneck_link) == cls:
                        # Congested on the upgraded class: the whole
                        # share tracks that link's service rate.
                        new_total += s.seconds / k
                    else:
                        f = self._idle_class_fraction(
                            cls, phase, s.policy
                        )
                        new_total += s.seconds * (
                            1.0 - f * (1.0 - 1.0 / k)
                        )
                # Any non-share remainder (pipeline sync) is unscaled.
                comps[comp] = max(
                    0.0, comps[comp] - total + new_total
                )
            if cls == "ethernet_access":
                # The leader links are also every KV flow's first and
                # last hop — on the paper's topologies, its bottleneck.
                comps["kv_transfer"] /= k
        elif res == "compute:prefill":
            comps["prefill_compute"] /= k
        elif res == "compute:decode":
            comps["decode_compute"] /= k
        elif res == "kv_path":
            comps["kv_transfer"] /= k
        # ina_slots / sched_tick: no first-order per-request effect —
        # live policy pricing is slot-oblivious and the controller
        # refresh already outpaces policy drift. The resim validates.
        return comps

    def predict(self, iv: Intervention) -> RunStats:
        """Analytic estimate: replay attributions with ``iv`` applied."""
        attrs = self._require_baseline()
        if not attrs:
            return RunStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        scaled = [self._rescale(a, iv) for a in attrs]
        base = [a.components for a in attrs]

        def fleet_ratio(parts: tuple[str, ...]) -> float:
            old = sum(sum(c[p] for p in parts) for c in base)
            new = sum(sum(c[p] for p in parts) for c in scaled)
            return new / old if old > 0.0 else 1.0

        # Queueing feedback, first order: waiting time tracks the
        # service time of the server being waited on.
        r_pre = fleet_ratio(("prefill_compute", "prefill_allreduce"))
        r_dec = fleet_ratio(("decode_compute", "decode_allreduce"))
        for c in scaled:
            c["queue_wait"] *= r_pre
            c["decode_wait"] *= r_dec
        return self._stats_from_components(attrs, scaled)

    def _stats_from_components(
        self,
        attrs: list[RequestAttribution],
        comps: list[dict[str, float]],
    ) -> RunStats:
        if not attrs:
            return RunStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ttft = np.array(
            [
                c["queue_wait"]
                + c["fault_redo"]
                + c["prefill_compute"]
                + c["prefill_allreduce"]
                for c in comps
            ]
        )
        decode_lat = np.array(
            [
                c["kv_transfer"]
                + c["kv_retry_backoff"]
                + c["decode_wait"]
                + c["decode_compute"]
                + c["decode_allreduce"]
                for c in comps
            ]
        )
        # TPOT proxy: mean per-iteration decode time. It telescopes the
        # same way the real TPOT does, so percentile *ratios* transfer.
        iters = np.array([max(a.decode_iters, 1) for a in attrs])
        per_iter = np.array(
            [
                (c["decode_compute"] + c["decode_allreduce"]) / n
                for c, n in zip(comps, iters)
            ]
        )
        arrivals = np.array([a.arrival for a in attrs])
        finishes = arrivals + ttft + decode_lat
        span = float(finishes.max() - arrivals.min())
        base = self.baseline
        if base is not None and base.n_requests == len(attrs):
            # Anchor TPOT to the measured baseline values via the
            # proxy's percentile ratio (the proxy excludes KV/wait time
            # that the measured TPOT also excludes, but the anchoring
            # removes any residual constant bias).
            base_proxy = np.array(
                [
                    (
                        a.components["decode_compute"]
                        + a.components["decode_allreduce"]
                    )
                    / max(a.decode_iters, 1)
                    for a in attrs
                ]
            )
            p50_ratio = _safe_ratio(
                float(np.percentile(per_iter, 50)),
                float(np.percentile(base_proxy, 50)),
            )
            p99_ratio = _safe_ratio(
                float(np.percentile(per_iter, 99)),
                float(np.percentile(base_proxy, 99)),
            )
            p50_tpot = base.p50_tpot_s * p50_ratio
            p99_tpot = base.p99_tpot_s * p99_ratio
        else:
            p50_tpot = float(np.percentile(per_iter, 50))
            p99_tpot = float(np.percentile(per_iter, 99))
        return RunStats(
            n_requests=len(attrs),
            p50_ttft_s=float(np.percentile(ttft, 50)),
            p99_ttft_s=float(np.percentile(ttft, 99)),
            p50_tpot_s=p50_tpot,
            p99_tpot_s=p99_tpot,
            throughput_rps=len(attrs) / span if span > 0 else 0.0,
        )

    # -- counterfactual re-simulation ----------------------------------

    def perturbed_config(self, iv: Intervention) -> "EngineConfig":
        """The actual EngineConfig perturbation ``iv`` maps to."""
        from repro.comm.latency import DEFAULT_N_SLOTS
        from repro.obs.observer import NULL_OBSERVER

        base = replace(self.base_config, observer=NULL_OBSERVER)
        res, k = iv.resource, iv.factor
        if res.startswith("link:"):
            return replace(
                base, link_scale=((res.split(":", 1)[1], k),)
            )
        if res == "compute:prefill":
            return replace(base, prefill_compute_scale=k)
        if res == "compute:decode":
            return replace(base, decode_compute_scale=k)
        if res == "kv_path":
            return replace(base, kv_time_scale=k)
        if res == "ina_slots":
            return replace(base, n_slots=int(round(DEFAULT_N_SLOTS * k)))
        if res == "sched_tick":
            return replace(
                base,
                controller_period=self.base_config.controller_period / k,
            )
        raise ValueError(f"unknown intervention resource {res!r}")

    def resimulate(self, iv: Intervention) -> RunStats:
        """Ground truth: re-run the same plan/trace/seed, perturbed."""
        from repro.baselines.systems import simulate_trace

        metrics = simulate_trace(
            self.system, self.trace, engine_config=self.perturbed_config(iv)
        )
        return stats_from_metrics(metrics)

    # -- the ladder ----------------------------------------------------

    def ladder(self, validate: bool = False) -> WhatIfResult:
        """Rank the catalog by predicted Δp99 TTFT (ties: throughput)."""
        self._require_baseline()
        assert self.baseline is not None
        rows = [
            WhatIfEstimate(
                intervention=iv,
                baseline=self.baseline,
                predicted=self.predict(iv),
            )
            for iv in self.catalog
        ]
        if validate:
            for row in rows:
                row.resim = self.resimulate(row.intervention)
        rows.sort(
            key=lambda r: (
                -r.d_p99_ttft_s,
                -r.d_throughput_rps,
                r.intervention.key,
            )
        )
        return WhatIfResult(
            baseline=self.baseline, rows=rows, validated=validate
        )


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 1.0


def render_ladder(result: WhatIfResult, top: int | None = None) -> str:
    """The ranked bottleneck ladder as aligned text (CLI output)."""
    b = result.baseline
    lines = [
        (
            f"what-if bottleneck ladder over {b.n_requests} requests "
            f"(baseline p99 TTFT {b.p99_ttft_s:.4f}s, "
            f"p99 TPOT {b.p99_tpot_s * 1e3:.1f}ms, "
            f"throughput {b.throughput_rps:.3f} req/s)"
        )
    ]
    for rank, row in enumerate(result.top(top), start=1):
        d = row.d_p99_ttft_s
        pct = d / b.p99_ttft_s if b.p99_ttft_s > 0 else 0.0
        line = (
            f"{rank:>3}. {row.intervention.label:<36s}"
            f" Δp99 TTFT {d:+.4f}s ({pct:+.1%})"
            f"  Δthroughput {row.d_throughput_rps:+.3f} req/s"
        )
        if row.resim is not None:
            verdict = "ok" if row.within_tolerance else "DIVERGED"
            line += (
                f"  [resim {row.resim_d_p99_ttft_s:+.4f}s,"
                f" err {row.rel_error:.0%} <= {row.tolerance:.0%}"
                f" {verdict}]"
            )
        lines.append(line)
    if result.validated:
        lines.append(
            "validated: analytic vs re-simulated deltas "
            + (
                "all within tolerance"
                if result.all_within_tolerance
                else "DIVERGED beyond tolerance"
            )
        )
    return "\n".join(lines)
