"""Fig 7 bench: HCPA vs MCPA under the empirical simulator.

Paper result: 1/27 wrong at n = 2000 and 6/27 at n = 3000 — the
n = 3000 errors trace back to schedules allocating p = 16, where the
regression is a poor fit to the outlier-laden reality.
"""

import pytest

from repro.experiments.comparison import compare_algorithms
from repro.experiments.figures import PAPER_WRONG
from repro.experiments.reporting import render_comparison
from repro.experiments.runner import run_study


@pytest.mark.parametrize("n,paper_wrong", sorted(PAPER_WRONG["empirical"].items()))
def test_fig7_empirical_vs_experiment(benchmark, ctx, emit, n, paper_wrong):
    dags = [(p, g) for p, g in ctx.dags if p.n == n]
    suite = ctx.empirical_suite

    def run():
        study = run_study(dags, [suite], ctx.emulator)
        return compare_algorithms(study, simulator="empirical", n=n)

    cmp = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"fig7_empirical_n{n}", render_comparison(cmp, paper_wrong=paper_wrong))
    if n == 2000:
        assert cmp.num_wrong <= 8
    else:
        # The outliers make n = 3000 harder for the regression model.
        assert 3 <= cmp.num_wrong <= 9
