"""Round-trip properties of the flamegraph/Chrome profile exporters."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.flame import (
    PROFILE_PID,
    chrome_profile_events,
    chrome_profile_trace,
    collapsed_stacks,
    parse_collapsed,
    paths_from_chrome,
)
from repro.obs.prof import Profiler
from repro.obs.recorder import SpanStats


def _profiler(paths: dict[tuple[str, ...], float]) -> Profiler:
    prof = Profiler()
    for path, seconds in paths.items():
        stats = prof.spans[path] = SpanStats()
        stats.add(seconds)
    return prof


# Frame names: dotted identifiers, never containing the ';' separator.
_frame = st.text(
    alphabet="abcdefgh.xyz_0123456789", min_size=1, max_size=8
).filter(lambda s: s.strip())
_path = st.lists(_frame, min_size=1, max_size=4).map(tuple)
_paths = st.dictionaries(
    _path,
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=0,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(_paths)
def test_collapsed_round_trip(paths):
    prof = _profiler(paths)
    parsed = parse_collapsed(collapsed_stacks(prof))
    # Every explicit path survives with its self time (total minus
    # direct explicit children, clamped at zero).
    assert set(parsed) == set(paths)
    totals = {p: int(round(s * 1e6)) for p, s in paths.items()}
    for path, self_us in parsed.items():
        child_sum = sum(
            us for p, us in totals.items()
            if len(p) == len(path) + 1 and p[: len(path)] == path
        )
        assert self_us == max(totals[path] - child_sum, 0)


@settings(max_examples=60, deadline=None)
@given(_paths)
def test_chrome_profile_round_trip(paths):
    prof = _profiler(paths)
    events = chrome_profile_events(prof)
    recovered = paths_from_chrome(events)
    # All explicit paths come back with their call counts; implicit
    # parents (prefixes never recorded themselves) appear with count 0.
    for path in paths:
        assert recovered[path] == 1
    for path, count in recovered.items():
        if path not in paths:
            assert count == 0
            assert any(
                p[: len(path)] == path and len(p) > len(path) for p in paths
            )


@settings(max_examples=60, deadline=None)
@given(_paths)
def test_chrome_profile_nesting_is_strict(paths):
    """Children fit inside their parent slice even under clock jitter."""
    events = [
        e for e in chrome_profile_events(_profiler(paths))
        if e["ph"] == "X"
    ]
    spans = {
        tuple(e["args"]["path"].split(";")): (e["ts"], e["ts"] + e["dur"])
        for e in events
    }
    for path, (start, end) in spans.items():
        if len(path) == 1:
            continue
        p_start, p_end = spans[path[:-1]]
        assert p_start <= start and end <= p_end


def test_self_time_clamped_when_children_exceed_parent():
    prof = _profiler({("a",): 0.001, ("a", "b"): 0.005})
    parsed = parse_collapsed(collapsed_stacks(prof))
    assert parsed[("a",)] == 0  # clamped, not negative
    assert parsed[("a", "b")] == 5000


def test_implicit_parent_materialized_in_chrome_lane():
    prof = _profiler({("root", "mid", "leaf"): 0.002})
    events = chrome_profile_events(prof)
    names = [e["name"] for e in events if e["ph"] == "X"]
    assert names == ["root", "mid", "leaf"]
    # The orphan's implicit ancestors carry their child's duration.
    slices = {e["name"]: e["dur"] for e in events if e["ph"] == "X"}
    assert slices["root"] == slices["mid"] == slices["leaf"] == 2000


def test_parse_collapsed_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 1"):
        parse_collapsed("no-value-here")
    with pytest.raises(ValueError, match="not an integer"):
        parse_collapsed("a;b twelve")


def test_chrome_profile_trace_document_shape():
    prof = _profiler({("a",): 0.001})
    doc = chrome_profile_trace(prof)
    assert doc["displayTimeUnit"] == "ms"
    meta = doc["traceEvents"][0]
    assert meta["ph"] == "M" and meta["pid"] == PROFILE_PID
    # The wall lane composes with the simulated-time timeline export
    # (pid 1) without pid collisions.
    assert PROFILE_PID != 1


def test_empty_profiler_exports_cleanly():
    prof = Profiler()
    assert collapsed_stacks(prof) == ""
    assert parse_collapsed("") == {}
    events = chrome_profile_events(prof)
    assert [e["ph"] for e in events] == ["M"]
    assert paths_from_chrome(events) == {}
