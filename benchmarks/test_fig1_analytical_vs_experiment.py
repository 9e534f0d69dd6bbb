"""Fig 1 bench: HCPA vs MCPA under the analytical simulator.

Paper result: the simulation outcome is the opposite of the experiment
for 16/27 DAGs at n = 2000 (60 %) and 7/27 at n = 3000 (26 %) — the
analytical simulator "simply does not produce meaningful results".
"""

import pytest

from repro.experiments.comparison import compare_algorithms
from repro.experiments.figures import PAPER_WRONG
from repro.experiments.reporting import render_comparison
from repro.experiments.runner import run_study


@pytest.mark.parametrize("n,paper_wrong", sorted(PAPER_WRONG["analytic"].items()))
def test_fig1_analytical_vs_experiment(benchmark, ctx, emit, n, paper_wrong):
    dags = [(p, g) for p, g in ctx.dags if p.n == n]

    def run():
        study = run_study(dags, [ctx.analytic_suite], ctx.emulator)
        return compare_algorithms(study, simulator="analytic", n=n)

    cmp = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"fig1_analytic_n{n}", render_comparison(cmp, paper_wrong=paper_wrong))
    assert cmp.num_dags == 27
    # Shape: a large fraction of comparisons comes out wrong.
    if n == 2000:
        assert cmp.num_wrong >= 8
    else:
        assert 3 <= cmp.num_wrong <= 12
