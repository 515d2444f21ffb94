"""Observed runs export byte-identical telemetry.

Pins the sha256 of every artifact four observed runs produce (Chrome
trace, metrics JSON and text exposition, flight JSONL, attribution
payload, text and HTML report, summary) against
``tests/data/golden_obs_artifacts.json``. Regenerate with
``PYTHONPATH=src python tests/make_obs_goldens.py`` only after an
intentional change to what observation records.
"""

import json

import pytest

from tests.make_obs_goldens import OUT, RUNS, artifact_hashes

with open(OUT) as _fh:
    GOLDEN = json.load(_fh)


def test_golden_covers_every_run():
    assert sorted(GOLDEN) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_observed_artifacts_match_golden(name):
    observer, metrics = RUNS[name]()
    assert artifact_hashes(observer, metrics) == GOLDEN[name]
