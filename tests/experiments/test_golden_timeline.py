"""Golden timeline digests of the seed-0 study.

``tests/golden/timeline_seed0.json`` holds one SHA-256 per (suite, n)
over the canonical JSONL lines (:func:`~repro.obs.timeline.timeline_lines`)
of that slice of the seed-0 study's simulated-time timeline, in emission
order.  The record digests of ``test_golden.py`` pin makespans only;
these pin every allocation step, task start and finish, transfer and
max-min share rate of both runs of every cell, byte for byte.

There is no update flag.  On a mismatch the test prints the digests the
code now produces; changing the golden file needs a CHANGES.md line that
says why the timelines were meant to change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import run_study
from repro.obs.recorder import Recorder, recording
from repro.obs.timeline import Timeline, timeline_lines

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "timeline_seed0.json"
SIZES = (2000, 3000)
#: Engine re-solves of each suite's seed-0 study.  Every re-solve
#: counts once in ``engine.solver_calls`` and the ``engine.solve``
#: timing, however many of its actions reach the sharing solver.
RE_SOLVES = {"analytic": 1919, "profile": 1345, "empirical": 1795}


@pytest.fixture(scope="module", params=sorted(RE_SOLVES))
def observed_study(request, study_context):
    """``(suite, timeline records, recorder)`` of one seed-0 study."""
    suite = request.param
    # Calibrate outside the recording, so it holds the study alone.
    sim_suite = study_context.suite(suite)
    timeline = Timeline()
    recorder = Recorder(timeline=timeline)
    with recording(recorder):
        run_study(study_context.dags, [sim_suite], study_context.emulator)
    return suite, timeline.records, recorder


def test_study_timeline_matches_golden(observed_study):
    suite, records, _recorder = observed_study
    # Every record but the stream header belongs to one cell, so the
    # per-n digests cover the whole timeline.
    assert all("n" in r for r in records if r["kind"] != "meta")
    actual = {}
    for n in SIZES:
        h = hashlib.sha256()
        for line in timeline_lines([r for r in records if r.get("n") == n]):
            h.update(line.encode())
            h.update(b"\n")
        actual[f"{suite}/n={n}"] = h.hexdigest()
    golden = json.loads(GOLDEN.read_text())
    expected = {key: golden.get(key) for key in actual}
    if actual != expected:
        print("timeline digests now produced:")
        print(json.dumps(actual, indent=2, sort_keys=True))
    assert actual == expected


def test_every_re_solve_counts(observed_study):
    suite, _records, recorder = observed_study
    assert recorder.counters["engine.solver_calls"] == RE_SOLVES[suite]
    assert recorder.spans["engine.solve"].count == RE_SOLVES[suite]
