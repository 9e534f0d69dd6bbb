"""End-to-end integration tests: the paper's headline findings.

The sign-flip counts are pinned exactly at seed 0; the other assertions
encode the *shape* of the paper's results (see EXPERIMENTS.md for the
full paper-vs-measured accounting):

* the analytical simulator's HCPA-vs-MCPA predictions are wrong for a
  large fraction of DAGs (paper: 59 % at n = 2000, 26 % at n = 3000);
* the profile-based simulator is nearly always right (2-3 / 27);
* the empirical simulator sits in between, with the n = 3000 outliers
  hurting it more (paper: 1 / 27 at n = 2000, 6 / 27 at n = 3000);
* simulation errors differ by orders of magnitude between the
  analytical and the refined simulators (Fig 8).
"""

import pytest

from repro.experiments import figures


@pytest.fixture(scope="module")
def ctx(study_context):
    return study_context


class TestHeadlineSignFlips:
    """Exact seed-0 counts of wrong HCPA-vs-MCPA predictions (of 27).

    Any change to a schedule or a makespan that moves a count fails
    here; each message names the paper's count beside ours.
    """

    def test_analytic_simulator_unreliable_at_2000(self, ctx):
        c = figures.figure1(ctx, n=2000)
        assert c.num_dags == 27
        assert c.num_wrong == 13, (
            f"analytic, n=2000: {c.num_wrong}/27 wrong (paper: 16/27)"
        )

    def test_analytic_simulator_wrong_at_3000(self, ctx):
        c = figures.figure1(ctx, n=3000)
        assert c.num_wrong == 7, (
            f"analytic, n=3000: {c.num_wrong}/27 wrong (paper: 7/27)"
        )

    def test_profile_simulator_reliable(self, ctx):
        c2000 = figures.figure5(ctx, n=2000)
        c3000 = figures.figure5(ctx, n=3000)
        assert c2000.num_wrong == 1, (
            f"profile, n=2000: {c2000.num_wrong}/27 wrong (paper: 2/27)"
        )
        assert c3000.num_wrong == 1, (
            f"profile, n=3000: {c3000.num_wrong}/27 wrong (paper: 3/27)"
        )

    def test_empirical_simulator_between(self, ctx):
        c2000 = figures.figure7(ctx, n=2000)
        c3000 = figures.figure7(ctx, n=3000)
        assert c2000.num_wrong == 5, (
            f"empirical, n=2000: {c2000.num_wrong}/27 wrong (paper: 1/27)"
        )
        # The p=8/p=16 outliers make n=3000 harder for the regression
        # model (paper: 6/27, twice the profile simulator's errors).
        assert c3000.num_wrong == 6, (
            f"empirical, n=3000: {c3000.num_wrong}/27 wrong (paper: 6/27)"
        )

    def test_refined_simulators_beat_analytical(self, ctx):
        analytic = (
            figures.figure1(ctx, n=2000).num_wrong
            + figures.figure1(ctx, n=3000).num_wrong
        )
        profile = (
            figures.figure5(ctx, n=2000).num_wrong
            + figures.figure5(ctx, n=3000).num_wrong
        )
        assert profile < analytic / 2

    def test_flips_concentrate_at_small_sim_differences(self, ctx):
        c = figures.figure1(ctx, n=2000)
        flipped = [abs(d.rel_sim) for d in c.dags if d.sign_flipped]
        kept = [abs(d.rel_sim) for d in c.dags if not d.sign_flipped]
        import numpy as np

        assert np.median(flipped) < np.median(kept)


class TestErrorMagnitudes:
    def test_figure8_ordering(self, ctx):
        f8 = figures.figure8(ctx)
        for alg in ("hcpa", "mcpa"):
            analytic = f8.median("analytic", alg)
            profile = f8.median("profile", alg)
            empirical = f8.median("empirical", alg)
            # Orders of magnitude: analytic >> empirical >= profile.
            assert analytic > 8 * profile
            assert analytic > 4 * empirical
            assert profile < empirical

    def test_profile_errors_under_ten_percent(self, ctx):
        # Paper: "under 10% error on average" for the profile simulator.
        f8 = figures.figure8(ctx)
        for alg in ("hcpa", "mcpa"):
            assert f8.boxes[("profile", alg)].mean < 10.0

    def test_analytic_errors_tens_of_percent(self, ctx):
        f8 = figures.figure8(ctx)
        for alg in ("hcpa", "mcpa"):
            assert f8.boxes[("analytic", alg)].median > 30.0


class TestWinnerNarrative:
    def test_hcpa_competitive_at_2000_under_profile_sim(self, ctx):
        # Paper (Fig 5): "HCPA produces shorter schedules than MCPA for
        # n = 2,000" — in our environment HCPA wins at least a large
        # minority of the 27 comparisons.
        c = figures.figure5(ctx, n=2000)
        assert c.challenger_experimental_wins >= 9

    def test_agreement_between_sim_and_exp_shapes(self, ctx):
        # For the profile simulator the relative makespans must be
        # strongly correlated between simulation and experiment.
        import numpy as np

        c = figures.figure5(ctx, n=2000)
        sims = np.array([d.rel_sim for d in c.dags])
        exps = np.array([d.rel_exp for d in c.dags])
        assert np.corrcoef(sims, exps)[0, 1] > 0.8
