"""Reproduction functions: one per table/figure of the paper.

Each ``figureN`` / ``tableN`` function takes a
:class:`~repro.experiments.context.StudyContext`, performs exactly the
computation behind the corresponding exhibit, and returns a plain data
object holding the rows/series the paper reports.  The benchmark
harness prints them; the integration tests assert their shape matches
the paper's findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.dag.analysis import dag_width, precedence_levels
from repro.experiments.comparison import (
    AlgorithmComparison,
    compare_algorithms,
    simulation_errors,
)
from repro.experiments.context import StudyContext
from repro.models.analytical import AnalyticalTaskModel
from repro.models.regression import HyperbolicFit, fit_hyperbolic
from repro.dag.graph import Task
from repro.dag.kernels import MATMUL
from repro.platform.personalities import cray_xt4
from repro.profiling.profiler import profile_redistribution, profile_startup
from repro.profiling.sparse import NAIVE_POWER_OF_TWO_PLAN, PAPER_PLAN
from repro.testbed.kernels_rt import CrayPdgemmGroundTruth
from repro.util.stats import BoxStats

__all__ = [
    "PAPER_WRONG",
    "table1",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "table2",
]


# ----------------------------------------------------------------------
# Table I — the DAG generation grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DagSummary:
    label: str
    num_tasks: int
    num_edges: int
    num_additions: int
    width: int
    levels: int
    n: int


@dataclass
class Table1:
    """The generated DAG set and its parameter grid."""

    parameters: dict
    dags: list[DagSummary] = field(default_factory=list)

    @property
    def total_instances(self) -> int:
        return len(self.dags)


def table1(ctx: StudyContext) -> Table1:
    """Generate the Table I DAG set and summarise every instance."""
    from repro.dag.generator import PAPER_GRID

    out = Table1(parameters=dict(PAPER_GRID))
    for params, graph in ctx.dags:
        additions = sum(1 for t in graph if t.kernel.name == "matadd")
        levels = precedence_levels(graph)
        out.dags.append(
            DagSummary(
                label=graph.name,
                num_tasks=len(graph),
                num_edges=graph.num_edges,
                num_additions=additions,
                width=dag_width(graph),
                levels=1 + max(levels.values()) if levels else 0,
                n=params.n,
            )
        )
    return out


# ----------------------------------------------------------------------
# Figures 1 / 5 / 7 — HCPA vs MCPA under the three simulators
# ----------------------------------------------------------------------
#: The paper's wrong HCPA-vs-MCPA comparisons (of 27 DAGs) per
#: simulator and matrix size n, printed beside ours in Figs. 1, 5, 7.
PAPER_WRONG = {
    "analytic": {2000: 16, 3000: 7},
    "profile": {2000: 2, 3000: 3},
    "empirical": {2000: 1, 3000: 6},
}


def figure1(ctx: StudyContext, n: int = 2000) -> AlgorithmComparison:
    """Analytical simulator vs experiment (paper: 16/27 wrong at n=2000)."""
    study = ctx.study("analytic")
    return compare_algorithms(study, simulator="analytic", n=n)


def figure5(ctx: StudyContext, n: int = 2000) -> AlgorithmComparison:
    """Profile-based simulator vs experiment (paper: 2-3/27 wrong)."""
    study = ctx.study("profile")
    return compare_algorithms(study, simulator="profile", n=n)


def figure7(ctx: StudyContext, n: int = 2000) -> AlgorithmComparison:
    """Empirical simulator vs experiment (paper: 1/27 and 6/27 wrong)."""
    study = ctx.study("empirical")
    return compare_algorithms(study, simulator="empirical", n=n)


# ----------------------------------------------------------------------
# Figure 2 — relative error of the analytical task-time model
# ----------------------------------------------------------------------
@dataclass
class Figure2:
    """Analytical-model prediction errors per processor count.

    ``java_errors[(n, p)]``: 1D matmul in Java on the Bayreuth cluster
    (paper: fluctuates without pattern, up to ~60 %).
    ``cray_errors[(n, p)]``: PDGEMM on the Cray XT4 (paper: ~10 %, up
    to 20 %).
    """

    java_errors: dict[tuple[int, int], float] = field(default_factory=dict)
    cray_errors: dict[tuple[int, int], float] = field(default_factory=dict)

    def max_java_error(self) -> float:
        return max(self.java_errors.values())

    def mean_cray_error(self) -> float:
        return float(np.mean(list(self.cray_errors.values())))

    def max_cray_error(self) -> float:
        return max(self.cray_errors.values())


def figure2(
    ctx: StudyContext,
    *,
    java_sizes: Sequence[int] = (2000, 3000),
    cray_sizes: Sequence[int] = (1024, 2048, 4096),
    trials: int = 5,
) -> Figure2:
    """Measure the analytical model's relative prediction error."""
    out = Figure2()
    model = AnalyticalTaskModel(ctx.platform)
    max_p = ctx.platform.num_nodes
    for n in java_sizes:
        for p in range(1, max_p + 1):
            measured = float(
                np.mean(ctx.emulator.measure_kernel("matmul", n, p, trials))
            )
            task = Task(task_id=0, kernel=MATMUL, n=n)
            predicted = model.duration(task, p)
            out.java_errors[(n, p)] = abs(predicted - measured) / measured

    cray_platform = cray_xt4(max_p)
    ground = CrayPdgemmGroundTruth(seed=ctx.seed, flops=cray_platform.flops)
    for n in cray_sizes:
        for p in range(1, max_p + 1):
            measured = ground.mean_time(n, p)
            # The paper's Cray model is pure compute (2n^3 / (p*FLOPS)).
            predicted = 2.0 * float(n) ** 3 / (p * cray_platform.flops)
            out.cray_errors[(n, p)] = abs(predicted - measured) / measured
    return out


# ----------------------------------------------------------------------
# Figure 3 — task startup overhead
# ----------------------------------------------------------------------
@dataclass
class Figure3:
    """Mean no-op startup overhead per processor count (20 trials)."""

    overheads: dict[int, float] = field(default_factory=dict)

    @property
    def is_monotone(self) -> bool:
        values = [self.overheads[p] for p in sorted(self.overheads)]
        return all(b >= a for a, b in zip(values, values[1:]))

    def bounds(self) -> tuple[float, float]:
        vals = list(self.overheads.values())
        return (min(vals), max(vals))


def figure3(ctx: StudyContext, *, trials: int = 20) -> Figure3:
    """Measure startup overheads for p = 1..N (paper: 0.8-1.6 s)."""
    return Figure3(overheads=profile_startup(ctx.emulator, trials=trials))


# ----------------------------------------------------------------------
# Figure 4 — redistribution overhead surface
# ----------------------------------------------------------------------
@dataclass
class Figure4:
    """Mean redistribution overhead over the (p_src, p_dst) grid."""

    grid: dict[tuple[int, int], float] = field(default_factory=dict)

    def dst_slope_vs_src_slope(self) -> tuple[float, float]:
        """Least-squares sensitivity of the overhead to p_dst and p_src.

        The paper's observation "the overhead depends mostly on p(dst)"
        translates to the first slope dominating the second.
        """
        keys = list(self.grid)
        A = np.column_stack(
            [
                [k[1] for k in keys],
                [k[0] for k in keys],
                np.ones(len(keys)),
            ]
        )
        y = np.array([self.grid[k] for k in keys])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return float(coef[0]), float(coef[1])


def figure4(ctx: StudyContext, *, trials: int = 3) -> Figure4:
    """Measure the redistribution-overhead grid (paper: 3 trials)."""
    return Figure4(grid=profile_redistribution(ctx.emulator, trials=trials))


# ----------------------------------------------------------------------
# Figure 6 — regression fits with and without outliers
# ----------------------------------------------------------------------
@dataclass
class Figure6:
    """Fit quality of the empirical matmul model, n = 3000 focus.

    ``naive``: hyperbolic fit over the power-of-two points (includes the
    p = 8 / p = 16 outliers); ``final``: the paper's outlier-avoiding
    points.  ``measured``: the full measured curve for reference;
    ``outlier_ps``: sample points the naive plan should have avoided.
    """

    n: int
    measured: dict[int, float] = field(default_factory=dict)
    naive_points: dict[int, float] = field(default_factory=dict)
    final_points: dict[int, float] = field(default_factory=dict)
    naive_fit: HyperbolicFit | None = None
    final_fit: HyperbolicFit | None = None

    #: Processor counts the paper identified as outliers (n = 3000).
    OUTLIER_PS = (8, 16)

    def rmse_over(self, points: dict[int, float], fit: HyperbolicFit) -> float:
        """Relative RMSE of a fit against measured points.

        Relative, because the hyperbolic regime spans two orders of
        magnitude (600 s at p = 1 down to 10 s at p = 15) and an
        absolute metric would see nothing but the p = 1 endpoint.
        """
        errs = [((fit(p) - t) / t) ** 2 for p, t in points.items()]
        return float(np.sqrt(np.mean(errs)))

    def _clean_points(self) -> dict[int, float]:
        """In-range hyperbolic measurements minus the known outliers.

        The quality criterion is how well a fit tracks the environment's
        *typical* behaviour inside the regime both plans sample
        (2 <= p <= 16); the outliers are exactly the points a model
        should not chase (the paper replaces them with p = 7 and 15).
        """
        return {
            p: t
            for p, t in self.measured.items()
            if 2 <= p <= PAPER_PLAN.split and p not in self.OUTLIER_PS
        }

    @property
    def naive_rmse(self) -> float:
        return self.rmse_over(self._clean_points(), self.naive_fit)

    @property
    def final_rmse(self) -> float:
        return self.rmse_over(self._clean_points(), self.final_fit)

    def naive_fit_goes_nonphysical(self) -> bool:
        """True when the outlier-chasing fit predicts a non-positive
        execution time somewhere in its own regime — the visually
        "poor quality" fit of the paper's Fig 6 (left)."""
        return any(
            self.naive_fit(p) <= 0 for p in range(2, PAPER_PLAN.split + 1)
        )


def figure6(ctx: StudyContext, *, n: int = 3000, trials: int = 3) -> Figure6:
    """Fit the hyperbolic branch from both sampling plans.

    The paper's Fig 6 (left) shows the poor fit caused by the p = 8 and
    p = 16 outliers; (right) the final fit after replacing them with
    p = 7 and p = 15.
    """
    out = Figure6(n=n)
    emu = ctx.emulator
    for p in range(1, ctx.platform.num_nodes + 1):
        out.measured[p] = float(np.mean(emu.measure_kernel("matmul", n, p, trials)))

    def sample(ps: Sequence[int]) -> dict[int, float]:
        return {p: out.measured[p] for p in ps}

    out.naive_points = sample(NAIVE_POWER_OF_TWO_PLAN.matmul_low)
    out.final_points = sample(PAPER_PLAN.matmul_low)
    out.naive_fit = fit_hyperbolic(
        list(out.naive_points), list(out.naive_points.values())
    )
    out.final_fit = fit_hyperbolic(
        list(out.final_points), list(out.final_points.values())
    )
    return out


# ----------------------------------------------------------------------
# Figure 8 — simulation error distributions
# ----------------------------------------------------------------------
@dataclass
class Figure8:
    """Box-whisker makespan error [%] per simulator and algorithm."""

    boxes: dict[tuple[str, str], BoxStats] = field(default_factory=dict)

    def median(self, simulator: str, algorithm: str) -> float:
        return self.boxes[(simulator, algorithm)].median


def figure8(ctx: StudyContext) -> Figure8:
    """Error statistics over all 54 DAGs x 2 algorithms x 3 simulators."""
    study = ctx.full_study()
    out = Figure8()
    for simulator in ("analytic", "profile", "empirical"):
        for algorithm in ("hcpa", "mcpa"):
            out.boxes[(simulator, algorithm)] = simulation_errors(
                study, simulator=simulator, algorithm=algorithm
            )
    return out


# ----------------------------------------------------------------------
# Table II — the fitted empirical models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table2Row:
    quantity: str
    fitted: tuple[float, ...]
    paper: tuple[float, ...]


@dataclass
class Table2:
    rows: list[Table2Row] = field(default_factory=list)

    def row(self, quantity: str) -> Table2Row:
        for r in self.rows:
            if r.quantity == quantity:
                return r
        raise KeyError(quantity)


#: The paper's printed Table II coefficients (hyperbolic coefficients
#: normalised to a/p + b form — the paper writes n=2000 as a/(2p) + b).
PAPER_TABLE2 = {
    "matmul n=2000 hyp": (239.44 / 2.0, 3.43),
    "matmul n=2000 lin": (0.08, 1.93),
    "matmul n=3000 hyp": (537.91, -25.55),
    "matmul n=3000 lin": (-0.09, 11.47),
    "matadd n=2000": (22.99, 0.03),
    "matadd n=3000": (73.59, 0.38),
    "redistribution startup": (0.00788, 0.10858),
    "task startup": (0.03, 0.65),
}


def table2(ctx: StudyContext) -> Table2:
    """Fit the empirical models and compare coefficients to Table II."""
    suite = ctx.empirical_suite
    task_model = suite.task_model
    out = Table2()
    for n in (2000, 3000):
        mm = task_model.curve("matmul", n)
        out.rows.append(
            Table2Row(
                quantity=f"matmul n={n} hyp",
                fitted=(mm.low.a, mm.low.b),
                paper=PAPER_TABLE2[f"matmul n={n} hyp"],
            )
        )
        out.rows.append(
            Table2Row(
                quantity=f"matmul n={n} lin",
                fitted=(mm.high.a, mm.high.b),
                paper=PAPER_TABLE2[f"matmul n={n} lin"],
            )
        )
        ma = task_model.curve("matadd", n)
        out.rows.append(
            Table2Row(
                quantity=f"matadd n={n}",
                fitted=(ma.low.a, ma.low.b),
                paper=PAPER_TABLE2[f"matadd n={n}"],
            )
        )
    out.rows.append(
        Table2Row(
            quantity="redistribution startup",
            fitted=(
                suite.redistribution_model.fit.a,
                suite.redistribution_model.fit.b,
            ),
            paper=PAPER_TABLE2["redistribution startup"],
        )
    )
    out.rows.append(
        Table2Row(
            quantity="task startup",
            fitted=(suite.startup_model.fit.a, suite.startup_model.fit.b),
            paper=PAPER_TABLE2["task startup"],
        )
    )
    return out
