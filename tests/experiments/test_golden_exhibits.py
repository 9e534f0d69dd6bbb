"""The paper exhibits ``repro figures`` writes are the committed ones.

``benchmarks/output/`` holds the text of the paper's 13 tables and
figures as the benchmarks render them.  ``repro figures`` renders the
same exhibits from the seed-0 study with the same renderers, so every
file it writes must equal its committed counterpart byte for byte.

There is no update flag.  On a mismatch the test prints the text the
code now writes; changing a committed exhibit needs a CHANGES.md line
that says why the results were meant to change.
"""

from __future__ import annotations

from pathlib import Path

from repro.cli import main

COMMITTED = Path(__file__).resolve().parents[2] / "benchmarks" / "output"

#: ``repro figures --out`` file name -> committed exhibit file name.
EXHIBITS = {
    "table1": "table1_dag_generation",
    "fig1_2000": "fig1_analytic_n2000",
    "fig1_3000": "fig1_analytic_n3000",
    "fig2": "fig2_analytical_error",
    "fig3": "fig3_startup_overhead",
    "fig4": "fig4_redistribution_overhead",
    "fig5_2000": "fig5_profile_n2000",
    "fig5_3000": "fig5_profile_n3000",
    "fig6": "fig6_regression_fit",
    "fig7_2000": "fig7_empirical_n2000",
    "fig7_3000": "fig7_empirical_n3000",
    "fig8": "fig8_error_boxplot",
    "table2": "table2_regression_models",
}


def test_figures_write_the_committed_exhibits(tmp_path, capsys):
    assert main(["figures", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.txt" for name in EXHIBITS
    )
    mismatched = []
    for name, exhibit in EXHIBITS.items():
        text = (tmp_path / f"{name}.txt").read_bytes()
        if text != (COMMITTED / f"{exhibit}.txt").read_bytes():
            mismatched.append(exhibit)
            print(f"===== {exhibit}.txt now reads =====")
            print(text.decode())
    assert not mismatched, mismatched
