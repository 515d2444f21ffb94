"""What-if profiler (:mod:`repro.obs.whatif`).

Three load-bearing properties:

1. **No-op perturbations are exact** — an `EngineConfig` whose
   perturbation fields hold their defaults (or explicit neutral values)
   produces a byte-identical run, so plain runs never pay for the
   counterfactual machinery.
2. **The ladder is deterministic** — same system/trace/seed, same
   payload, bit for bit.
3. **The analytic estimator agrees with the counterfactual
   re-simulation** at the pinned operating points, within the pinned
   per-resource tolerances (the golden test; also enforced in CI via
   ``python -m repro whatif --validate``).
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.__main__ import WHATIF_SETTINGS, _build_whatif_deployment, main
from repro.baselines.systems import simulate_trace
from repro.obs import (
    DEFAULT_CATALOG,
    DEFAULT_TOLERANCE,
    Intervention,
    RunStats,
    WhatIfEstimate,
    WhatIfProfiler,
    WhatIfResult,
    render_ladder,
)
from repro.obs.whatif import ERROR_FLOOR_FRAC, TOLERANCES, tolerance_for
from repro.serving import EngineConfig


def deployment(topology="testbed", rate=None, duration=None, seed=7):
    args = SimpleNamespace(
        topology=topology, rate=rate, duration=duration, seed=seed
    )
    system, trace, _, _ = _build_whatif_deployment(args)
    return system, trace


@pytest.fixture(scope="module")
def profiler():
    """One short observed testbed baseline shared across cheap tests."""
    system, trace = deployment(rate=1.0, duration=20.0)
    p = WhatIfProfiler(system, trace)
    p.run_baseline()
    return p


def stats(p99_ttft=1.0, throughput=1.0):
    return RunStats(10, 0.5, p99_ttft, 0.01, 0.02, throughput)


class TestTolerances:
    def test_default_and_overrides(self):
        assert tolerance_for("link:nvlink") == DEFAULT_TOLERANCE
        assert tolerance_for("ina_slots") == DEFAULT_TOLERANCE
        for resource, tol in TOLERANCES.items():
            assert tolerance_for(resource) == tol
            assert tol > DEFAULT_TOLERANCE  # overrides only relax

    def test_rel_error_unvalidated_is_none(self):
        est = WhatIfEstimate(
            DEFAULT_CATALOG[0], stats(), stats(p99_ttft=0.9)
        )
        assert est.rel_error is None
        assert est.within_tolerance is None

    def test_rel_error_exact_agreement(self):
        est = WhatIfEstimate(
            DEFAULT_CATALOG[0],
            stats(),
            stats(p99_ttft=0.8),
            resim=stats(p99_ttft=0.8),
        )
        assert est.rel_error == 0.0
        assert est.within_tolerance is True

    def test_rel_error_floor_on_near_zero_deltas(self):
        """A tiny absolute disagreement on a ~zero-effect intervention
        is judged against the floor, not the ~zero resim delta."""
        base = stats(p99_ttft=1.0)
        nudge = ERROR_FLOOR_FRAC * 0.5  # half the floor
        est = WhatIfEstimate(
            DEFAULT_CATALOG[0],
            base,
            stats(p99_ttft=1.0 - nudge),
            resim=stats(p99_ttft=1.0),
        )
        # raw ratio would be nudge/0 = inf; floored it is 0.5
        assert est.rel_error == pytest.approx(0.5)
        assert est.within_tolerance is False  # 0.5 > 0.15

    def test_divergence_flags_result(self):
        good = WhatIfEstimate(
            DEFAULT_CATALOG[0],
            stats(),
            stats(p99_ttft=0.8),
            resim=stats(p99_ttft=0.8),
        )
        bad = WhatIfEstimate(
            DEFAULT_CATALOG[0],
            stats(),
            stats(p99_ttft=0.2),
            resim=stats(p99_ttft=0.9),
        )
        assert WhatIfResult(stats(), [good]).all_within_tolerance
        assert not WhatIfResult(stats(), [good, bad]).all_within_tolerance
        # unvalidated rows (within_tolerance None) never flag
        plain = WhatIfEstimate(
            DEFAULT_CATALOG[0], stats(), stats(p99_ttft=0.8)
        )
        assert WhatIfResult(stats(), [plain]).all_within_tolerance


class TestCatalog:
    def test_keys_unique_and_resources_known(self):
        keys = [iv.key for iv in DEFAULT_CATALOG]
        assert len(keys) == len(set(keys))
        for iv in DEFAULT_CATALOG:
            assert iv.factor > 1.0
            assert iv.resource.startswith("link:") or iv.resource in (
                "compute:prefill",
                "compute:decode",
                "kv_path",
                "ina_slots",
                "sched_tick",
            )

    def test_perturbed_config_covers_catalog(self, profiler):
        """Every catalog entry maps to a real EngineConfig field, and
        the mapping hits the field the resource names."""
        for iv in DEFAULT_CATALOG:
            cfg = profiler.perturbed_config(iv)
            assert not cfg.observer.active
            if iv.resource.startswith("link:"):
                cls = iv.resource.split(":", 1)[1]
                assert cfg.link_scale == ((cls, iv.factor),)
            elif iv.resource == "compute:prefill":
                assert cfg.prefill_compute_scale == iv.factor
            elif iv.resource == "compute:decode":
                assert cfg.decode_compute_scale == iv.factor
            elif iv.resource == "kv_path":
                assert cfg.kv_time_scale == iv.factor
            elif iv.resource == "ina_slots":
                from repro.comm.latency import DEFAULT_N_SLOTS

                assert cfg.n_slots == DEFAULT_N_SLOTS * iv.factor
            elif iv.resource == "sched_tick":
                assert cfg.controller_period == pytest.approx(
                    profiler.base_config.controller_period / iv.factor
                )

    def test_unknown_resource_rejected(self, profiler):
        with pytest.raises(ValueError, match="warp_drive"):
            profiler.perturbed_config(
                Intervention("w", "warp", "warp_drive", 2.0)
            )


class TestNoOpPerturbations:
    def test_neutral_config_byte_identical(self):
        """Explicit neutral perturbation values take the exact same
        code paths as the defaults — the acceptance criterion that
        plain runs remain byte-identical."""
        system, trace = deployment(rate=1.0, duration=20.0)
        plain = simulate_trace(
            system, trace, engine_config=EngineConfig()
        )
        neutral = simulate_trace(
            system,
            trace,
            engine_config=EngineConfig(
                link_scale=(("nvlink", 1.0), ("ethernet_access", 1.0)),
                prefill_compute_scale=1.0,
                decode_compute_scale=1.0,
                kv_time_scale=1.0,
                n_slots=None,
            ),
        )
        assert json.dumps(
            plain.summary(), sort_keys=True
        ) == json.dumps(neutral.summary(), sort_keys=True)


class TestAnalyticLadder:
    def test_baseline_matches_observed_run(self, profiler):
        assert profiler.baseline.n_requests > 0
        assert (
            profiler.baseline.n_requests
            == profiler.baseline_metrics.n_finished
        )

    def test_predictions_never_hurt(self, profiler):
        """The first-order model only removes time, never adds it."""
        for iv in DEFAULT_CATALOG:
            pred = profiler.predict(iv)
            assert (
                pred.p99_ttft_s
                <= profiler.baseline.p99_ttft_s + 1e-12
            ), iv.key
            assert (
                pred.throughput_rps
                >= profiler.baseline.throughput_rps - 1e-12
            ), iv.key

    def test_slot_and_tick_predict_zero_first_order(self, profiler):
        base = profiler.baseline
        for key in ("ina_slots_4x", "sched_tick_4x"):
            iv = next(i for i in DEFAULT_CATALOG if i.key == key)
            pred = profiler.predict(iv)
            # components telescope exactly, so the replayed stats match
            # the measured baseline to float rounding
            assert pred.p99_ttft_s == pytest.approx(
                base.p99_ttft_s, rel=1e-9
            ), key
            assert pred.p99_tpot_s == pytest.approx(
                base.p99_tpot_s, rel=1e-9
            ), key
            assert pred.throughput_rps == pytest.approx(
                base.throughput_rps, rel=1e-9
            ), key

    def test_ladder_sorted_by_p99_gain(self, profiler):
        result = profiler.ladder()
        gains = [row.d_p99_ttft_s for row in result.rows]
        assert gains == sorted(gains, reverse=True)
        assert not result.validated
        assert len(result.top(3)) == 3

    def test_ladder_payload_deterministic(self, profiler):
        """Fresh deployment, same seed — identical payload, bit for
        bit (the ``<run>-whatif.json`` reproducibility guarantee)."""
        system, trace = deployment(rate=1.0, duration=20.0)
        other = WhatIfProfiler(system, trace)
        meta = {"seed": 7}
        assert json.dumps(
            other.ladder().to_payload(meta), sort_keys=True
        ) == json.dumps(
            profiler.ladder().to_payload(meta), sort_keys=True
        )

    def test_render_ladder_shape(self, profiler):
        text = render_ladder(profiler.ladder(), top=3)
        lines = text.splitlines()
        assert "what-if bottleneck ladder" in lines[0]
        assert len(lines) == 4  # header + top-3, unvalidated: no footer
        assert lines[1].lstrip().startswith("1.")
        assert "Δp99 TTFT" in lines[1]


class TestGoldenValidation:
    """The acceptance golden: at the pinned operating points every
    catalog intervention's analytic Δp99 TTFT agrees with its
    counterfactual re-simulation within the pinned tolerance."""

    @pytest.mark.parametrize("topology", sorted(WHATIF_SETTINGS))
    def test_analytic_within_tolerance_of_resim(self, topology):
        system, trace = deployment(topology=topology)
        result = WhatIfProfiler(system, trace).ladder(validate=True)
        assert result.validated
        assert result.all_within_tolerance, render_ladder(result)
        # and the regime is interesting: something actionable on top
        assert result.rows[0].d_p99_ttft_s > 0
        assert result.rows[0].resim_d_p99_ttft_s > 0


class TestWhatIfCli:
    def test_whatif_writes_json_ladder(self, capsys, tmp_path):
        out = tmp_path / "wi.json"
        assert (
            main(
                [
                    "whatif",
                    "--duration",
                    "15",
                    "--top",
                    "3",
                    "--json",
                    str(out),
                ]
            )
            == 0
        )
        assert "bottleneck ladder" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["meta"]["topology"] == "testbed"
        assert payload["baseline"]["n_requests"] > 0
        assert len(payload["interventions"]) == len(DEFAULT_CATALOG)
        assert not payload["validated"]


class TestFromDirDegradation:
    """`report`/`explain --from-dir` must explain themselves and exit
    zero on missing or stale dumps — never traceback (satellite 1)."""

    def test_report_missing_dir(self, capsys, tmp_path):
        assert (
            main(
                [
                    "report",
                    "--from-dir",
                    str(tmp_path / "nope"),
                    "--out",
                    str(tmp_path / "r.html"),
                ]
            )
            == 0
        )
        assert "is not a directory" in capsys.readouterr().out

    def test_report_empty_dir(self, capsys, tmp_path):
        assert (
            main(
                [
                    "report",
                    "--from-dir",
                    str(tmp_path),
                    "--out",
                    str(tmp_path / "r.html"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "no *-flight.jsonl" in out
        assert not (tmp_path / "r.html").exists()

    def test_explain_old_format_dump(self, capsys, tmp_path):
        """A pre-PR7 digest-only dump degrades with a pointer, not a
        KeyError."""
        (tmp_path / "run-attribution.json").write_text(
            json.dumps({"slowest": []})
        )
        assert main(["explain", "--from-dir", str(tmp_path)]) == 0
        assert (
            "no per-request timelines" in capsys.readouterr().out
        )

    def test_explain_corrupt_dump(self, capsys, tmp_path):
        (tmp_path / "run-attribution.json").write_text("{not json")
        assert main(["explain", "--from-dir", str(tmp_path)]) == 0
        assert "cannot read" in capsys.readouterr().out

    def test_report_round_trips_a_real_dump(self, capsys, tmp_path):
        """An observed run dumped to disk replays into a full report
        (flight timeline + attribution + what-if section) offline."""
        from repro import quick_testbed
        from repro.obs import (
            AttributionCollector,
            FlightRecorder,
            Observer,
        )

        collector = AttributionCollector()
        observer = Observer(
            recorder=FlightRecorder(), attribution=collector
        )
        _, metrics = quick_testbed(
            rate=1.0,
            duration=20.0,
            seed=0,
            engine_config=EngineConfig(observer=observer),
        )
        observer.recorder.write_jsonl(
            str(tmp_path / "run-flight.jsonl")
        )
        (tmp_path / "run-attribution.json").write_text(
            json.dumps(collector.to_payload())
        )
        (tmp_path / "run-summary.json").write_text(
            json.dumps(metrics.summary())
        )
        out = tmp_path / "replay.html"
        assert (
            main(
                [
                    "report",
                    "--from-dir",
                    str(tmp_path),
                    "--run",
                    "run",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert "wrote" in capsys.readouterr().out
        html = out.read_text()
        assert "Critical-path attribution" in html
        assert "What-if: counterfactual bottleneck ladder" in html

    def test_explain_round_trips_a_real_dump(self, capsys, tmp_path):
        from repro import quick_testbed
        from repro.obs import AttributionCollector, Observer

        collector = AttributionCollector()
        _, _ = quick_testbed(
            rate=1.0,
            duration=20.0,
            seed=0,
            engine_config=EngineConfig(
                observer=Observer(attribution=collector)
            ),
        )
        (tmp_path / "run-attribution.json").write_text(
            json.dumps(collector.to_payload())
        )
        assert (
            main(
                ["explain", "--from-dir", str(tmp_path), "--slowest", "3"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "replaying" in out
        assert "dominant:" in out
