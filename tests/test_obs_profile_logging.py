"""Phase profiler and logging-config unit tests."""

from __future__ import annotations

import json
import logging

import pytest

from repro.obs.logging_config import (
    PACKAGE_LOGGER,
    get_logger,
    setup_logging,
    verbosity_to_level,
)
from repro.obs.profile import (
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    PhaseStat,
)


class TestPhaseProfiler:
    def test_record_accumulates(self):
        p = PhaseProfiler()
        p.record("a", 0.1)
        p.record("a", 0.2)
        stat = p.breakdown()["a"]
        assert stat.total == pytest.approx(0.3)
        assert stat.count == 2
        assert stat.mean == pytest.approx(0.15)

    def test_phase_context_times_body(self):
        p = PhaseProfiler()
        with p.phase("work"):
            pass
        times = p.phase_times()
        assert "work" in times
        assert times["work"] >= 0.0

    def test_phase_records_on_exception(self):
        p = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with p.phase("boom"):
                raise RuntimeError("x")
        assert p.breakdown()["boom"].count == 1

    def test_breakdown_sorted_by_total_desc(self):
        p = PhaseProfiler()
        p.record("small", 0.01)
        p.record("big", 1.0)
        assert list(p.breakdown()) == ["big", "small"]

    def test_record_handler_accumulates(self):
        p = PhaseProfiler()
        p.record("engine.link_load", 0.5)
        p.record("engine.link_load", 0.25)
        p.record_handler("decode_iter", 0.1)
        assert p.breakdown()["engine.link_load"].total == 0.75
        assert p.breakdown()["engine.link_load"].count == 2
        assert p.handlers()["decode_iter"].count == 1
        assert "decode_iter" not in p.breakdown()

    def test_snapshot_shape(self):
        p = PhaseProfiler()
        p.record("a", 0.1)
        p.record_handler("t", 0.2)
        p.count("engine.events_fired", 2)
        snap = p.snapshot()
        assert snap == {
            "phases": {"a": {"total_s": 0.1, "count": 1}},
            "handlers": {"t": {"total_s": 0.2, "count": 1}},
            "counters": {"engine.events_fired": 2},
        }
        assert json.loads(json.dumps(snap)) == snap

    def test_report_lists_handlers_and_counters(self):
        p = PhaseProfiler()
        p.record("engine.batch_formation", 0.002)
        p.record_handler("decode_iter", 0.004)
        p.count("engine.requests_finished", 3)
        text = p.report()
        assert "engine.batch_formation" in text
        assert "handler decode_iter" in text
        assert "engine.requests_finished" in text

    def test_reset(self):
        p = PhaseProfiler()
        p.record("a", 1.0)
        p.record_handler("t", 1.0)
        p.count("n")
        p.reset()
        assert p.snapshot() == NULL_PROFILER.snapshot()

    def test_report_mentions_phases(self):
        p = PhaseProfiler()
        p.record("grouping.kmeans", 0.25)
        assert "grouping.kmeans" in p.report()


class TestNullProfiler:
    def test_shared_context_is_allocation_free(self):
        n = NullProfiler()
        assert n.phase("a") is n.phase("b")

    def test_usable_as_context(self):
        with NULL_PROFILER.phase("x"):
            pass
        NULL_PROFILER.record_handler("t", 1.0)
        NULL_PROFILER.count("n")
        assert NULL_PROFILER.phase_times() == {}
        assert NULL_PROFILER.handlers() == {}
        assert NULL_PROFILER.counters() == {}

    def test_disabled_flag(self):
        assert NULL_PROFILER.enabled is False
        assert PhaseProfiler().enabled is True


def test_phase_stat_empty_mean_nan():
    import math

    assert math.isnan(PhaseStat().mean)


@pytest.fixture
def clean_package_logger():
    """Snapshot/restore the package logger so tests do not leak handlers."""
    logger = logging.getLogger(PACKAGE_LOGGER)
    saved_handlers = list(logger.handlers)
    saved_level = logger.level
    yield logger
    logger.handlers = saved_handlers
    logger.setLevel(saved_level)


class TestLogging:
    def test_verbosity_mapping(self):
        assert verbosity_to_level(0) == logging.WARNING
        assert verbosity_to_level(1) == logging.INFO
        assert verbosity_to_level(2) == logging.DEBUG
        assert verbosity_to_level(5) == logging.DEBUG

    def test_get_logger_namespaces_bare_names(self):
        assert get_logger("planner").name == "repro.planner"
        assert (
            get_logger("repro.serving.engine").name
            == "repro.serving.engine"
        )

    def test_library_stays_silent_by_default(self, clean_package_logger):
        has_null = any(
            isinstance(h, logging.NullHandler)
            for h in clean_package_logger.handlers
        )
        assert has_null

    def test_setup_idempotent(self, clean_package_logger):
        logger = setup_logging(1)
        n_before = len(logger.handlers)
        logger2 = setup_logging(2)
        assert logger2 is logger
        assert len(logger.handlers) == n_before
        assert logger.level == logging.DEBUG

    def test_setup_emits_to_stream(self, clean_package_logger):
        import io

        buf = io.StringIO()
        setup_logging(1, stream=buf)
        get_logger("test_module").info("hello observability")
        assert "hello observability" in buf.getvalue()
