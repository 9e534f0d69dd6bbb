"""Fig 5 bench: HCPA vs MCPA under the profile-based simulator.

Paper result: only 2/27 wrong at n = 2000 and 3/27 at n = 3000, with
the wrong cases "well below 10 %" apart; HCPA produces shorter
schedules than MCPA for n = 2000.
"""

import pytest

from repro.experiments.comparison import compare_algorithms
from repro.experiments.figures import PAPER_WRONG
from repro.experiments.reporting import render_comparison
from repro.experiments.runner import run_study


@pytest.mark.parametrize("n,paper_wrong", sorted(PAPER_WRONG["profile"].items()))
def test_fig5_profile_vs_experiment(benchmark, ctx, emit, n, paper_wrong):
    dags = [(p, g) for p, g in ctx.dags if p.n == n]
    suite = ctx.profile_suite  # calibration outside the timed region

    def run():
        study = run_study(dags, [suite], ctx.emulator)
        return compare_algorithms(study, simulator="profile", n=n)

    cmp = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"fig5_profile_n{n}", render_comparison(cmp, paper_wrong=paper_wrong))
    assert cmp.num_wrong <= 3
