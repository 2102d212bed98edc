"""Smoke test: the read-only demos run to completion against this checkout.

Demo 05 is left out because it rewrites the committed files under reports/.
"""

import pytest

from conftest import REPO_ROOT, run_python

DEMOS = [
    "01_portfolio_and_validation.py",
    "02_banding_and_loss_distribution.py",
    "03_tail_quantiles_and_contributions.py",
    "04_monte_carlo_cross_check.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    result = run_python([str(REPO_ROOT / "demos" / demo)], tmp_path)
    assert result.returncode == 0, result.stderr
