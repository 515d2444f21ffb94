"""HTML/text report rendering: self-containment and section coverage.

Acceptance: ``write_report`` produces a *single self-contained* HTML
file — no external assets — with per-link utilisation sparklines, an
SLO attainment table and the alert log; ``render_text`` summarises the
same data for terminals.
"""

from __future__ import annotations

import json
import re
from html.parser import HTMLParser

import pytest

from repro.core.objective import SlaSpec
from repro.obs import AttributionCollector, Observer
from repro.obs import events as ev
from repro.obs.recorder import FlightRecorder, FlightSample
from repro.obs.report import (
    build_report_data,
    render_html,
    render_text,
    write_report,
)
from repro.obs.slo import SLOMonitor, SLOTarget
from repro.serving.metrics import ServingMetrics
from repro.serving.request import RequestState
from repro.workloads.traces import TraceRequest

VOID_TAGS = frozenset(
    {"meta", "br", "img", "input", "link", "hr",
     "circle", "rect", "polyline", "path", "line"}
)


class _WellFormed(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack: list[str] = []
        self.errors: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag not in VOID_TAGS:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in VOID_TAGS:
            return
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"unexpected </{tag}>")
        else:
            self.stack.pop()


def assert_well_formed(html_src: str) -> None:
    p = _WellFormed()
    p.feed(html_src)
    assert not p.errors, p.errors[:3]
    assert not p.stack, f"unclosed tags: {p.stack}"


def finished_request(rid: int, ttft: float, tpot: float) -> RequestState:
    tr = TraceRequest(
        request_id=rid, arrival_time=0.0, input_len=128, output_len=11
    )
    r = RequestState(trace=tr)
    r.prefill_start = 0.0
    r.first_token_time = ttft
    r.kv_done_time = ttft
    r.decode_start = ttft
    r.finish_time = ttft + 10 * tpot
    r.tokens_generated = 11
    return r


def synthetic_observer() -> Observer:
    slo = SLOMonitor(
        [SLOTarget("ttft", 0.5, fast_window_s=12.0, slow_window_s=60.0)]
    )
    rec = FlightRecorder()
    for i in range(20):
        rec.record(
            FlightSample(
                time=float(i),
                prefill_queue=i % 4,
                decode_pending=1,
                decode_active=2 + i % 3,
                prefill_busy=True,
                decode_busy=True,
                kv_used=10 * i,
                kv_capacity=400,
                link_util={"ethernet": (0.1 + 0.01 * i, 0.3 + 0.02 * i)},
                busy_links=[(5, "ethernet", 0.3 + 0.02 * i)],
                policy_tables={
                    "0-1": {
                        "policies": ["ring", "ina@1"],
                        "b": [0.1, 0.2],
                        "selections": [i if i < 10 else 10, max(0, i - 10)],
                    }
                },
                switch_pressure={3: (0.2, 0.4)},
            )
        )
        slo.observe(float(i), "ttft", 5.0)
    slo.evaluate(19.0)
    return Observer(
        slo=slo, recorder=rec, attribution=synthetic_attribution()
    )


def synthetic_attribution() -> AttributionCollector:
    """Three requests fed through the collector's event subscriptions."""
    att = AttributionCollector()
    subs = att.subscriptions()

    def feed(e):
        subs[type(e)](e)

    for i in range(3):
        r = finished_request(i, 0.3 + 0.1 * i, 0.05)
        feed(ev.RequestArrival(r.arrival_time, r))
        feed(ev.PrefillSpan(r.prefill_start, 0.0, 1, 0, 0.0, 0.05, (i,)))
        feed(ev.AllreduceSpan(
            "prefill", 0.0, 0.05, (0,), "hybrid-ina@0", "", 1, 0.0, (i,),
            7, "ethernet", 0.6, 0,
        ))
        feed(ev.KvTransferSpan(0.0, 0.0, 1, 0, (i,)))
        feed(ev.DecodeSpan(0.0, 0.0, 1, 0, 0.0, 0.01, (i,)))
        feed(ev.RequestFinished(r.finish_time, r))
    return att


def synthetic_metrics() -> ServingMetrics:
    m = ServingMetrics(sla=SlaSpec(ttft=0.5, tpot=0.1))
    for i in range(10):
        m.record_finish(finished_request(i, 0.2 + 0.1 * i, 0.05))
    return m


@pytest.fixture(scope="module")
def report_data():
    return build_report_data(
        observer=synthetic_observer(),
        serving_metrics=synthetic_metrics(),
        title="test run",
        meta={"system": "HeroServe", "seed": 0},
    )


class TestBuildReportData:
    def test_sections_present(self, report_data):
        assert report_data["title"] == "test run"
        assert report_data["summary"]["finished"] == 10.0
        assert report_data["slo"]["targets"]
        assert report_data["slo"]["alerts"]
        assert report_data["flight"]["n_samples"] == 20

    def test_json_serialisable(self, report_data):
        json.dumps(report_data)

    def test_flight_series_and_flips(self, report_data):
        flight = report_data["flight"]
        assert len(flight["times"]) == 20
        assert set(flight["series"]) == {
            "prefill_queue",
            "decode_pending",
            "decode_active",
            "kv_utilization",
        }
        assert flight["top_links"] == [(5, "ethernet", pytest.approx(0.68))]
        assert any(f["to"] == "ina@1" for f in flight["policy_flips"])

    def test_without_observer(self):
        data = build_report_data(serving_metrics=synthetic_metrics())
        assert data["flight"] is None and data["slo"] is None
        html_src = render_html(data)
        assert_well_formed(html_src)
        assert "no SLO targets configured" in html_src
        assert "attribution disabled" in html_src


class TestAttributionSection:
    def test_data_populated(self, report_data):
        att = report_data["attribution"]
        assert att["n_requests"] == 3
        assert "queue_wait" in att["budget"]
        assert att["slowest"]
        worst = att["slowest"][0]
        # request 2 has the largest ttft in the synthetic set
        assert worst["request_id"] == 2
        assert worst["dominant"]
        assert worst["total_s"] == pytest.approx(
            sum(worst["components"].values())
        )

    def test_html_renders_bars_and_table(self, report_data):
        html_src = render_html(report_data)
        assert "Critical-path attribution" in html_src
        assert 'class="cpbar"' in html_src
        assert 'class="cplegend"' in html_src
        assert "Slowest requests" in html_src
        assert "p50 budget" in html_src and "p99 budget" in html_src

    def test_text_renders_budget(self, report_data):
        text = render_text(report_data)
        assert "critical path (3 requests attributed)" in text
        assert "slowest req 2:" in text


class TestRenderHtml:
    def test_well_formed_and_self_contained(self, report_data):
        html_src = render_html(report_data)
        assert_well_formed(html_src)
        assert not re.findall(
            r'(?:src|href)\s*=\s*"(?:https?:|//)', html_src
        )
        assert "@import" not in html_src

    def test_required_sections(self, report_data):
        html_src = render_html(report_data)
        for section in (
            "SLO attainment",
            "Alert log",
            "Cluster timeline",
            "Busiest links",
            "Policy-flip timeline",
        ):
            assert section in html_src, section

    def test_link_sparklines_rendered(self, report_data):
        html_src = render_html(report_data)
        assert "ethernet link util" in html_src
        assert html_src.count('<svg class="spark"') >= 5
        assert 'stroke="var(--series-1)"' in html_src

    def test_alert_rows_rendered(self, report_data):
        html_src = render_html(report_data)
        assert "burning error budget" in html_src
        assert '<span class="status page">' in html_src

    def test_embedded_data_payload(self, report_data):
        html_src = render_html(report_data)
        m = re.search(
            r'<script type="application/json" id="report-data">(.*?)'
            r"</script>",
            html_src,
            re.S,
        )
        assert m
        payload = json.loads(m.group(1))
        assert payload["title"] == "test run"

    def test_dark_mode_tokens(self, report_data):
        html_src = render_html(report_data)
        assert "prefers-color-scheme: dark" in html_src
        assert "--series-1: #2a78d6" in html_src
        assert "--series-1: #3987e5" in html_src


class TestRenderText:
    def test_summary_lines(self, report_data):
        text = render_text(report_data)
        assert "test run" in text
        assert "SLOs:" in text
        assert "alerts:" in text
        assert "flight recorder: 20 samples" in text
        assert "[PAGE]" in text

    def test_no_markup(self, report_data):
        text = render_text(report_data)
        # SLO names legitimately contain "<=", but no HTML should leak
        assert "<div" not in text and "<span" not in text
        assert "</" not in text


class TestWriteReport:
    def test_writes_single_file(self, tmp_path):
        out = tmp_path / "report.html"
        data = write_report(
            str(out),
            observer=synthetic_observer(),
            serving_metrics=synthetic_metrics(),
        )
        assert out.exists()
        assert list(tmp_path.iterdir()) == [out]
        assert data["summary"]["finished"] == 10.0
        assert_well_formed(out.read_text())
