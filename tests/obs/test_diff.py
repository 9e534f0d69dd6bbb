"""Tests for the discrepancy explorer: decomposition, pairing, signs."""

import pytest

from repro.obs.diff import (
    COMPONENTS,
    decompose,
    diff_files,
    diff_timelines,
    render_diff,
    split_runs,
)
from repro.obs.timeline import Timeline, load_timeline


def _emit_run(
    tl,
    *,
    dag="d",
    algorithm="hcpa",
    role=None,
    chain=True,
    scale=1.0,
    startup=0.5,
):
    """One two-task run: task0 -> (xfer or host order) -> task1.

    With ``chain=True`` the tasks are linked by a redistribution taking
    ``1 * scale`` seconds; otherwise task1 queues behind task0 on the
    shared host.  All simulated times follow the engines' discipline:
    each element starts exactly when its gate finishes.
    """
    ctx = tl.context(role=role) if role else None
    if ctx:
        ctx.__enter__()
    tl.begin_run(dag=dag, algorithm=algorithm, model="m")
    t0_end = 2.0 * scale
    tl.task(0, (0,), 0.0, t0_end, 0.0)
    if chain:
        x_end = t0_end + 1.0 * scale
        tl.xfer(0, 1, t0_end, x_end, 0.1, 1e6)
        start1 = x_end
        hosts1 = (1,)
    else:
        start1 = t0_end
        hosts1 = (0,)
    makespan = start1 + 2.0 * scale
    tl.task(1, hosts1, start1, makespan, startup)
    tl.end_run(makespan=makespan, tasks=2, xfers=int(chain))
    if ctx:
        ctx.__exit__(None, None, None)
    return makespan


class TestDecompose:
    def test_chain_components_sum_exactly(self):
        tl = Timeline()
        makespan = _emit_run(tl, chain=True, startup=0.5)
        (run,) = split_runs(tl.records)
        comp = decompose(run)
        assert comp["exec"] == pytest.approx(3.5)
        assert comp["startup"] == pytest.approx(0.5)
        assert comp["redist"] == pytest.approx(1.0)
        assert comp["other"] == 0.0
        assert sum(comp.values()) == makespan  # exact, not approx

    def test_host_order_gate(self):
        tl = Timeline()
        makespan = _emit_run(tl, chain=False, startup=0.0)
        (run,) = split_runs(tl.records)
        comp = decompose(run)
        assert comp["exec"] == makespan
        assert comp["redist"] == 0.0
        assert sum(comp.values()) == makespan

    def test_gap_lands_in_other(self):
        tl = Timeline()
        tl.begin_run(dag="d", algorithm="hcpa", model="m")
        tl.task(0, (0,), 3.0, 5.0, 0.0)  # starts with no gate at t=3
        tl.end_run(makespan=5.0, tasks=1, xfers=0)
        (run,) = split_runs(tl.records)
        comp = decompose(run)
        assert comp["other"] == 3.0
        assert sum(comp.values()) == 5.0

    def test_empty_run(self):
        tl = Timeline()
        tl.begin_run(dag="d", algorithm="hcpa", model="m")
        tl.end_run(makespan=0.0, tasks=0, xfers=0)
        (run,) = split_runs(tl.records)
        assert decompose(run) == {name: 0.0 for name in COMPONENTS}


class TestSplitRuns:
    def test_metadata_and_membership(self):
        tl = Timeline()
        with tl.context(variant="analytic", n=2000):
            _emit_run(tl, dag="d1", algorithm="hcpa")
            _emit_run(tl, dag="d1", algorithm="mcpa", role="experiment")
        runs = split_runs(tl.records)
        assert len(runs) == 2
        assert runs[0].variant == "analytic" and runs[0].n == 2000
        assert runs[0].role == "sim" and runs[1].role == "experiment"
        assert set(runs[0].tasks) == {0, 1}
        assert set(runs[0].xfers) == {(0, 1)}
        # Scheduler records outside any run are ignored.
        tl.alloc(0, 2, 1.0, 1.0, 1)
        assert len(split_runs(tl.records)) == 2


class TestDiff:
    def _records(self, scale, *, hcpa_wins=True):
        tl = Timeline()
        with tl.context(variant="v", n=2000):
            _emit_run(tl, algorithm="hcpa", scale=scale)
            _emit_run(
                tl,
                algorithm="mcpa",
                scale=scale * (1.2 if hcpa_wins else 0.8),
            )
        return tl.records

    def test_components_sum_to_makespan_delta(self):
        a, b = self._records(1.0), self._records(1.5)
        diff = diff_timelines(a, b, role="sim")
        assert len(diff["pairs"]) == 2
        for pair in diff["pairs"]:
            assert sum(pair["components"].values()) == pytest.approx(
                pair["delta"], abs=1e-9
            )
            assert pair["delta"] > 0
        assert diff["unmatched_a"] == 0 and diff["unmatched_b"] == 0

    def test_wrong_sign_cells_flagged(self):
        a = self._records(1.0, hcpa_wins=True)
        b = self._records(1.0, hcpa_wins=False)
        diff = diff_timelines(a, b, role="sim")
        assert len(diff["wrong_sign"]) == 1
        cell = diff["wrong_sign"][0]
        assert cell["winner_a"] == "hcpa"
        assert cell["winner_b"] == "mcpa"
        assert cell["gap_a"] * cell["gap_b"] < 0

    def test_agreeing_signs_not_flagged(self):
        a, b = self._records(1.0), self._records(2.0)
        assert diff_timelines(a, b)["wrong_sign"] == []

    def test_movers_ranked_by_abs_delta(self):
        a, b = self._records(1.0), self._records(1.5)
        diff = diff_timelines(a, b, top=2)
        assert len(diff["movers"]) == 2
        deltas = [abs(m["delta"]) for m in diff["movers"]]
        assert deltas == sorted(deltas, reverse=True)

    def test_cross_variant_pairing_drops_variant(self):
        def records(variant):
            tl = Timeline()
            with tl.context(variant=variant, n=2000):
                _emit_run(tl, algorithm="hcpa")
            return tl.records

        diff = diff_timelines(records("analytic"), records("profile"))
        assert len(diff["pairs"]) == 1
        pair = diff["pairs"][0]
        assert pair["variant_a"] == "analytic"
        assert pair["variant_b"] == "profile"

    def test_role_filter_and_any(self):
        a = Timeline()
        _emit_run(a, role="experiment")
        b = Timeline()
        _emit_run(b, role="experiment")
        assert diff_timelines(a.records, b.records, role="sim")["pairs"] == []
        assert len(
            diff_timelines(a.records, b.records, role="experiment")["pairs"]
        ) == 1
        assert len(
            diff_timelines(a.records, b.records, role=None)["pairs"]
        ) == 1
        # 'any' keeps both roles but never pairs a run across them.
        sim = Timeline()
        _emit_run(sim, role="sim")
        across = diff_timelines(sim.records, a.records, role=None)
        assert across["pairs"] == []
        assert (across["unmatched_a"], across["unmatched_b"]) == (1, 1)

    def test_render_and_diff_files(self, tmp_path):
        for name, hcpa_wins in (("a.jsonl", True), ("b.jsonl", False)):
            tl = Timeline.to_file(tmp_path / name)
            for record in self._records(1.0, hcpa_wins=hcpa_wins):
                tl.sink.write(record)
            tl.close()
        text = diff_files(tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        assert "WRONG-SIGN" in text
        assert "makespan delta" in text
        no_flip = render_diff(
            diff_timelines(self._records(1.0), self._records(1.0)),
            "a", "b",
        )
        assert "wrong-sign cells: none" in no_flip


class TestDegenerateInputs:
    """Empty and run-less timelines are rejected with specific messages."""

    def test_empty_file_rejected(self, tmp_path):
        from repro.obs.report import TraceReadError

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceReadError, match="empty"):
            diff_files(empty, empty)

    def test_header_only_rejected(self, tmp_path):
        from repro.obs.report import TraceReadError

        header = tmp_path / "header.jsonl"
        header.write_text('{"kind": "meta", "schema": 1, "source": "repro"}\n')
        ok = tmp_path / "ok.jsonl"
        tl = Timeline.to_file(ok)
        tl.begin_run(dag="d", algorithm="hcpa", model="m")
        tl.task(0, (0,), 0.0, 1.0, 0.0)
        tl.end_run(makespan=1.0, tasks=1, xfers=0)
        tl.close()
        # The offending side is named whichever position it is in.
        for a, b in ((header, ok), (ok, header)):
            with pytest.raises(TraceReadError, match="no completed runs"):
                diff_files(a, b)
