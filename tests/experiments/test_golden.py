"""Golden record digests of the seed-0 study.

``tests/golden/study_seed0.json`` holds one SHA-256 per (suite, n) over
every record of that slice of the seed-0 study, in grid order.  A digest
covers each record's fields with the makespans as ``float.hex``, so any
change to a schedule, a simulated or an emulated makespan, or the grid
order shows up here, bit for bit.

There is no update flag.  On a mismatch the test prints the digests the
code now produces; changing the golden file needs a CHANGES.md line that
says why the results were meant to change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cache import ResultCache
from repro.experiments.runner import run_study

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "study_seed0.json"
SUITES = ("analytic", "profile", "empirical")
SIZES = (2000, 3000)


def _digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(
            f"{r.dag_label}\t{r.n}\t{r.algorithm}\t{r.simulator}\t"
            f"{float(r.sim_makespan).hex()}\t{float(r.exp_makespan).hex()}\t"
            f"{r.total_alloc}\n".encode()
        )
    return h.hexdigest()


def _digests(study, suite: str) -> dict[str, str]:
    return {
        f"{suite}/n={n}": _digest(study.select(simulator=suite, n=n))
        for n in SIZES
    }


def _assert_golden(actual: dict[str, str]) -> None:
    golden = json.loads(GOLDEN.read_text())
    expected = {key: golden[key] for key in actual}
    if actual != expected:
        print("digests now produced:")
        print(json.dumps(actual, indent=2, sort_keys=True))
    assert actual == expected


@pytest.mark.parametrize("suite", SUITES)
def test_study_matches_golden(study_context, suite):
    _assert_golden(_digests(study_context.study(suite), suite))


def test_cached_profile_study_matches_golden(study_context, tmp_path):
    # The warm pass opens the directory afresh, as a new CLI run does,
    # so it replays every cell from disk.
    ctx = study_context
    for _pass in ("cold", "warm"):
        study = run_study(
            ctx.dags, [ctx.profile_suite], ctx.emulator,
            cache=ResultCache(tmp_path / "cache"),
        )
        _assert_golden(_digests(study, "profile"))
