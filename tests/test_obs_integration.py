"""End-to-end observability: observer-instrumented simulator runs.

The acceptance criteria of the telemetry layer:

* streamed TTFT/TPOT histograms agree with the exact
  :class:`ServingMetrics` reductions within one histogram bucket;
* attaching an :class:`Observer` changes *nothing* about the serving
  result — a run with the default, subscriber-less ``NULL_OBSERVER``
  produces a byte-identical ``summary()``;
* the trace contains well-formed, policy-labelled prefill / decode /
  KV-transfer / all-reduce spans, with group synchronisation spans
  nested inside their owning pass; and the Chrome export round-trips
  ``json.loads``;
* the planner run under an observer attributes its wall time to phases.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    HEROSERVE,
    SLA_TESTBED_CHATBOT,
    OPT_66B,
    CostModelBank,
    Observer,
    build_system,
    build_testbed,
    generate_sharegpt_trace,
    simulate_trace,
)
from repro.comm import CommContext, SchemeKind
from repro.core.planner import OfflinePlanner
from repro.llm import A100, V100, BatchSpec
from repro.obs.trace import ENGINE_PID, REQUEST_PID
from repro.serving import EngineConfig
from repro.util.rng import make_rng

RATE = 1.0
DURATION = 40.0


@pytest.fixture(scope="module")
def observed_run():
    """One HeroServe run with a live observer + its unobserved twin."""
    built = build_testbed()
    bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
    trace = generate_sharegpt_trace(RATE, DURATION, make_rng(3))
    system = build_system(
        HEROSERVE,
        built,
        OPT_66B,
        bank,
        SLA_TESTBED_CHATBOT,
        trace.representative_batch(8),
        arrival_rate=RATE,
    )
    observer = Observer()
    observed = simulate_trace(
        system, trace, engine_config=EngineConfig(observer=observer)
    )
    plain = simulate_trace(system, trace)
    return observer, observed, plain


class TestNoBehaviourChange:
    def test_summary_identical_with_and_without_observer(
        self, observed_run
    ):
        _, observed, plain = observed_run
        assert json.dumps(observed.summary(), sort_keys=True) == json.dumps(
            plain.summary(), sort_keys=True
        )


class TestHistogramsAgree:
    @pytest.mark.parametrize(
        "hist_name,exact",
        [
            ("repro_ttft_seconds", "p90_ttft"),
            ("repro_tpot_seconds", "p90_tpot"),
        ],
    )
    def test_p90_within_one_bucket(self, observed_run, hist_name, exact):
        observer, observed, _ = observed_run
        hist = observer.metrics.get(hist_name)
        exact_p90 = getattr(observed, exact)()
        lo, hi = hist.bucket_bounds(exact_p90)
        est = hist.quantile(0.9)
        assert lo <= est <= hi, (exact_p90, est, lo, hi)

    def test_histogram_count_matches_finished(self, observed_run):
        observer, observed, _ = observed_run
        hist = observer.metrics.get("repro_ttft_seconds")
        assert hist.count() == observed.n_finished


class TestCountersAgree:
    def test_batch_counters_match_metrics(self, observed_run):
        observer, observed, _ = observed_run
        m = observer.metrics
        assert (
            m.get("repro_prefill_batches_total").total()
            == observed.prefill_batches
        )
        assert (
            m.get("repro_decode_iterations_total").total()
            == observed.decode_iterations
        )
        assert (
            m.get("repro_requests_total").value(event="finished")
            == observed.n_finished
        )

    def test_policy_selections_labelled(self, observed_run):
        observer, _, _ = observed_run
        sel = observer.metrics.get("repro_policy_selections_total")
        assert sel.total() > 0
        labelsets = [dict(k) for k in sel._values]
        for labels in labelsets:
            assert {"group", "policy", "mode"} <= set(labels)


class TestSpans:
    def test_engine_tracks_populated(self, observed_run):
        observer, _, _ = observed_run
        tr = observer.trace
        for track in ("prefill", "decode", "kv_transfer", "allreduce"):
            assert tr.spans(track), f"no spans on track {track!r}"

    def test_spans_well_formed(self, observed_run):
        observer, _, _ = observed_run
        for span in observer.trace.spans():
            assert span.dur >= 0.0
            assert span.start >= 0.0
            assert span.name

    def test_allreduce_spans_policy_labelled(self, observed_run):
        observer, _, _ = observed_run
        for span in observer.trace.spans("allreduce"):
            assert span.name.startswith("allreduce:")
            assert span.args["policy"]
            assert span.args["mode"]
            assert span.args["phase"] in ("prefill", "decode")

    def test_engine_spans_carry_request_ids(self, observed_run):
        """Every batch/transfer/sync span names the requests inside it."""
        observer, _, _ = observed_run
        tr = observer.trace
        for track in ("prefill", "decode", "kv_transfer", "allreduce"):
            for span in tr.spans(track):
                rids = span.args["request_ids"]
                assert isinstance(rids, list), (track, span.name)
                assert rids, (track, span.name)
                assert all(isinstance(r, int) for r in rids)

    def test_allreduce_spans_carry_bottleneck(self, observed_run):
        """Sync spans name the congested link they were priced against."""
        observer, _, _ = observed_run
        spans = observer.trace.spans("allreduce")
        for span in spans:
            assert "bottleneck_link" in span.args
            assert "bottleneck_util" in span.args
            assert "switch" in span.args
        linked = [
            s for s in spans if s.args["bottleneck_link"] is not None
        ]
        assert linked, "no allreduce span recorded a bottleneck link"
        for span in linked:
            assert span.args["bottleneck_kind"]
            assert 0.0 <= span.args["bottleneck_util"] <= 1.0

    def test_lifecycle_spans_carry_request_id(self, observed_run):
        observer, _, _ = observed_run
        lanes = [
            s
            for s in observer.trace.spans("requests")
            if s.pid == REQUEST_PID and s.dur is not None
        ]
        assert lanes
        for span in lanes:
            assert span.args["request_id"] == span.tid

    def test_allreduce_nested_in_owning_pass(self, observed_run):
        """Group sync spans fall inside a pass span of the same phase."""
        observer, _, _ = observed_run
        tr = observer.trace
        eps = 1e-9
        passes = {
            "prefill": tr.spans("prefill"),
            "decode": tr.spans("decode"),
        }
        for ar in tr.spans("allreduce"):
            owners = passes[ar.args["phase"]]
            assert any(
                p.start - eps <= ar.start and ar.end <= p.end + eps
                for p in owners
            ), (ar.name, ar.start, ar.end)

    def test_request_lifecycle_swimlanes(self, observed_run):
        observer, observed, _ = observed_run
        lanes = [
            s
            for s in observer.trace.spans("requests")
            if s.pid == REQUEST_PID
        ]
        assert lanes
        decode_spans = [s for s in lanes if s.name == "decode"]
        assert len(decode_spans) == observed.n_finished
        assert all(s.tid is not None for s in lanes)

    def test_chrome_export_round_trips(self, observed_run, tmp_path):
        observer, _, _ = observed_run
        path = tmp_path / "trace.json"
        observer.export(trace_path=str(path))
        blob = json.loads(path.read_text())
        pids = {e["pid"] for e in blob["traceEvents"]}
        assert {ENGINE_PID, REQUEST_PID} <= pids
        assert blob["otherData"]["dropped_records"] == 0


class TestPlannerProfiling:
    def test_phase_times_populated(self):
        built = build_testbed()
        bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
        ctx = CommContext.from_built(built, heterogeneous=True)
        report = OfflinePlanner(
            ctx,
            OPT_66B,
            bank,
            SLA_TESTBED_CHATBOT,
            SchemeKind.HYBRID,
            observer=Observer(),
        ).plan(BatchSpec.uniform(8, 256, 220), arrival_rate=0.5)
        assert report.plan is not None
        phases = report.phase_times
        assert phases
        for expected in (
            "planner.candidates",
            "planner.objective",
            "grouping.kmeans",
        ):
            assert expected in phases, expected
        assert all(t >= 0.0 for t in phases.values())

    def test_phase_times_empty_without_observer(self):
        built = build_testbed()
        bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
        ctx = CommContext.from_built(built, heterogeneous=True)
        report = OfflinePlanner(
            ctx, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID
        ).plan(BatchSpec.uniform(8, 256, 220), arrival_rate=0.5)
        assert report.plan is not None
        assert report.phase_times == {}
