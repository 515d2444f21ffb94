"""SLO targets, burn-rate evaluation and structured alerting.

The paper's §III-D monitoring agents exist so the fleet can *react*:
"are we meeting the TTFT/TPOT SLAs right now, and should anything
change?" This module answers that question on top of the PR-1
primitives, SRE-style:

* an :class:`SLOTarget` declares a per-request latency bound (TTFT or
  TPOT) together with an attainment *objective* (e.g. 90 % of requests
  under the bound — the paper's evaluation bar);
* an :class:`SLOMonitor` keeps rolling windows of per-request
  conformance in **simulation time** (never wall clock, so observed
  runs stay deterministic) and computes **burn rates** — the speed at
  which the error budget ``1 - objective`` is being consumed;
* alerting uses the multi-window rule from the Google SRE workbook: a
  severity fires only when the burn rate over a long window *and* over
  a short confirmation window (1/12 of the long one) both exceed the
  severity's threshold, so a transient blip neither pages nor does a
  real regression keep paging long after recovery;
* :class:`Alert` records flow through an :class:`AlertSink` that other
  components — the autoscaler, the background-traffic injector, tests
  — subscribe to, turning SLO burn into a feedback signal rather than
  a post-mortem artefact.

Burn rate 1.0 means the budget is consumed exactly at the sustainable
pace; with a 90 % objective the worst possible burn (every request
violating) is ``1 / (1 - 0.9) = 10``, so the default thresholds sit
well below that ceiling.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

__all__ = [
    "SLOTarget",
    "Alert",
    "AlertSink",
    "SLOMonitor",
    "default_slo_targets",
    "PAGE",
    "TICKET",
]

#: Alert severities, highest first.
PAGE = "page"
TICKET = "ticket"

#: Confirmation window = long window / this divisor (SRE workbook uses
#: 12: 1 h long window pairs with a 5 min short window).
SHORT_WINDOW_DIVISOR = 12.0


@dataclass(frozen=True)
class SLOTarget:
    """One declarative latency SLO over finished requests.

    ``metric`` names a per-request latency attribute (``ttft`` or
    ``tpot``); a request is *good* when that latency is at most
    ``threshold_s``. The target is met while at least ``objective`` of
    requests in a window are good.
    """

    metric: str
    threshold_s: float
    objective: float = 0.9
    #: fast (paging) evaluation window, simulation seconds
    fast_window_s: float = 300.0
    #: slow (ticketing) evaluation window, simulation seconds
    slow_window_s: float = 3600.0
    #: burn-rate thresholds per severity
    page_burn: float = 6.0
    ticket_burn: float = 2.0

    def __post_init__(self) -> None:
        if self.threshold_s <= 0:
            raise ValueError(f"threshold_s must be > 0, got {self.threshold_s}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective in (0, 1), got {self.objective}")
        if not 0 < self.fast_window_s <= self.slow_window_s:
            raise ValueError(
                "need 0 < fast_window_s <= slow_window_s, got "
                f"{self.fast_window_s}/{self.slow_window_s}"
            )
        if not 0 < self.ticket_burn <= self.page_burn:
            raise ValueError(
                "need 0 < ticket_burn <= page_burn, got "
                f"{self.ticket_burn}/{self.page_burn}"
            )

    @property
    def name(self) -> str:
        """Display name, e.g. ``ttft<=2.5s@90%``."""
        return (
            f"{self.metric}<={self.threshold_s:g}s@{self.objective:.0%}"
        )

    @property
    def error_budget(self) -> float:
        """Tolerated bad fraction ``1 - objective``."""
        return 1.0 - self.objective

    def is_good(self, latency_s: float) -> bool:
        return latency_s <= self.threshold_s


def default_slo_targets(sla, objective: float = 0.9) -> list[SLOTarget]:
    """TTFT + TPOT targets from an :class:`~repro.core.objective.SlaSpec`."""
    return [
        SLOTarget("ttft", sla.ttft, objective=objective),
        SLOTarget("tpot", sla.tpot, objective=objective),
    ]


@dataclass(frozen=True)
class Alert:
    """One burn-rate alert (or its resolution) at a simulation instant."""

    time: float
    slo: str
    metric: str
    severity: str          # PAGE | TICKET
    #: "firing" on the rising edge, "resolved" on the falling edge
    state: str
    burn_long: float
    burn_short: float
    window_s: float
    attainment: float      # over the severity's long window
    n_requests: int        # samples in the long window
    message: str

    @property
    def firing(self) -> bool:
        return self.state == "firing"


class AlertSink:
    """Fan-out target for alerts: keeps the log, notifies subscribers.

    Subscribers are callables taking one :class:`Alert`; the autoscaler
    and the background-traffic injector register theirs so SLO burn
    drives scale-out / burst back-off instead of raw utilisation.
    """

    def __init__(self) -> None:
        self.alerts: list[Alert] = []
        self._subscribers: list[Callable[[Alert], None]] = []

    def subscribe(self, callback: Callable[[Alert], None]) -> None:
        self._subscribers.append(callback)

    def emit(self, alert: Alert) -> None:
        self.alerts.append(alert)
        for cb in self._subscribers:
            cb(alert)

    def firing(self, severity: str | None = None) -> list[Alert]:
        """Alerts whose rising edge has not been resolved yet."""
        open_by_key: dict[tuple[str, str], Alert] = {}
        for a in self.alerts:
            key = (a.slo, a.severity)
            if a.firing:
                open_by_key[key] = a
            else:
                open_by_key.pop(key, None)
        out = list(open_by_key.values())
        if severity is not None:
            out = [a for a in out if a.severity == severity]
        return sorted(out, key=lambda a: a.time)


class _TargetState:
    """Rolling conformance window + alert edge state for one target."""

    __slots__ = ("target", "samples", "active")

    def __init__(self, target: SLOTarget) -> None:
        self.target = target
        #: (time, good) per finished request, pruned to slow_window_s
        self.samples: deque[tuple[float, bool]] = deque()
        #: severity -> currently firing?
        self.active: dict[str, bool] = {PAGE: False, TICKET: False}

    def record(self, ts: float, good: bool) -> None:
        self.samples.append((ts, good))
        self._prune(ts)

    def _prune(self, now: float) -> None:
        horizon = now - self.target.slow_window_s
        while self.samples and self.samples[0][0] < horizon:
            self.samples.popleft()

    def window_stats(self, now: float, window: float) -> tuple[int, int]:
        """(total, bad) over ``[now - window, now]``."""
        lo = now - window
        total = bad = 0
        for ts, good in reversed(self.samples):
            if ts < lo:
                break
            total += 1
            if not good:
                bad += 1
        return total, bad

    def burn_rate(self, now: float, window: float) -> float:
        """Error-budget consumption speed over the window (0 if empty)."""
        total, bad = self.window_stats(now, window)
        if total == 0:
            return 0.0
        return (bad / total) / self.target.error_budget


class SLOMonitor:
    """Evaluates burn rates on controller ticks; emits edge alerts.

    ``record_request`` is called per finished request (the observer's
    ``RequestFinished`` event); ``evaluate`` runs on the monitoring
    cadence (``EngineTick``) and returns the alerts that *changed
    state* this tick.
    """

    def __init__(
        self,
        targets: Iterable[SLOTarget],
        sink: AlertSink | None = None,
        min_samples: int = 5,
    ) -> None:
        targets = list(targets)
        if not targets:
            raise ValueError("need at least one SLOTarget")
        names = [t.name for t in targets]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO target names: {names}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.sink = sink or AlertSink()
        self.min_samples = min_samples
        self._states = [_TargetState(t) for t in targets]

    @property
    def targets(self) -> list[SLOTarget]:
        return [s.target for s in self._states]

    # -- recording -----------------------------------------------------------

    def record_request(self, ts: float, req) -> None:
        """Classify one finished request against every target."""
        for st in self._states:
            latency = getattr(req, st.target.metric)
            st.record(ts, st.target.is_good(latency))

    def observe(self, ts: float, metric: str, latency_s: float) -> None:
        """Record one raw latency sample for targets on ``metric``."""
        for st in self._states:
            if st.target.metric == metric:
                st.record(ts, st.target.is_good(latency_s))

    # -- evaluation ----------------------------------------------------------

    def burn_rates(self, now: float) -> dict[str, tuple[float, float]]:
        """``{target name: (fast-window burn, slow-window burn)}``."""
        return {
            st.target.name: (
                st.burn_rate(now, st.target.fast_window_s),
                st.burn_rate(now, st.target.slow_window_s),
            )
            for st in self._states
        }

    def attainment(self, now: float, name: str, window: float) -> float:
        """Good fraction over a window for the named target (nan if empty)."""
        for st in self._states:
            if st.target.name == name:
                total, bad = st.window_stats(now, window)
                if total == 0:
                    return float("nan")
                return 1.0 - bad / total
        raise KeyError(name)

    def _severity_condition(
        self, st: _TargetState, now: float, severity: str
    ) -> tuple[bool, float, float, float, int]:
        """(met, burn_long, burn_short, window, n) for one severity."""
        t = st.target
        if severity == PAGE:
            window, threshold = t.fast_window_s, t.page_burn
        else:
            window, threshold = t.slow_window_s, t.ticket_burn
        short = window / SHORT_WINDOW_DIVISOR
        burn_long = st.burn_rate(now, window)
        burn_short = st.burn_rate(now, short)
        total, _ = st.window_stats(now, window)
        met = (
            total >= self.min_samples
            and burn_long >= threshold
            and burn_short >= threshold
        )
        return met, burn_long, burn_short, window, total

    def evaluate(self, now: float) -> list[Alert]:
        """Run the multi-window rule; emit and return edge alerts."""
        edges: list[Alert] = []
        for st in self._states:
            st._prune(now)
            for severity in (PAGE, TICKET):
                met, b_long, b_short, window, total = (
                    self._severity_condition(st, now, severity)
                )
                was = st.active[severity]
                if met == was:
                    continue
                st.active[severity] = met
                t = st.target
                attain = (
                    self.attainment(now, t.name, window)
                    if total
                    else float("nan")
                )
                state = "firing" if met else "resolved"
                verb = (
                    "burning error budget"
                    if met
                    else "back within budget"
                )
                alert = Alert(
                    time=now,
                    slo=t.name,
                    metric=t.metric,
                    severity=severity,
                    state=state,
                    burn_long=b_long,
                    burn_short=b_short,
                    window_s=window,
                    attainment=attain,
                    n_requests=total,
                    message=(
                        f"[{severity}] {t.name} {verb}: "
                        f"burn {b_long:.1f}x over {window:g}s "
                        f"({b_short:.1f}x short-window), "
                        f"attainment {attain:.1%} over {total} requests"
                    ),
                )
                edges.append(alert)
                self.sink.emit(alert)
        return edges

    # -- export --------------------------------------------------------------

    def snapshot(self, now: float) -> dict:
        """JSON-serialisable view for the report renderer."""
        targets = []
        for st in self._states:
            t = st.target
            fast_total, fast_bad = st.window_stats(now, t.fast_window_s)
            slow_total, slow_bad = st.window_stats(now, t.slow_window_s)
            targets.append(
                {
                    "name": t.name,
                    "metric": t.metric,
                    "threshold_s": t.threshold_s,
                    "objective": t.objective,
                    "burn_fast": st.burn_rate(now, t.fast_window_s),
                    "burn_slow": st.burn_rate(now, t.slow_window_s),
                    "attainment_fast": (
                        1.0 - fast_bad / fast_total if fast_total else None
                    ),
                    "attainment_slow": (
                        1.0 - slow_bad / slow_total if slow_total else None
                    ),
                    "n_fast": fast_total,
                    "n_slow": slow_total,
                    "paging": st.active[PAGE],
                    "ticketing": st.active[TICKET],
                }
            )
        return {
            "time": now,
            "targets": targets,
            "alerts": [alert_to_dict(a) for a in self.sink.alerts],
        }


def alert_to_dict(a: Alert) -> dict:
    """Flatten an :class:`Alert` for JSON export."""
    return {
        "time": a.time,
        "slo": a.slo,
        "metric": a.metric,
        "severity": a.severity,
        "state": a.state,
        "burn_long": a.burn_long,
        "burn_short": a.burn_short,
        "window_s": a.window_s,
        "attainment": a.attainment,
        "n_requests": a.n_requests,
        "message": a.message,
    }
