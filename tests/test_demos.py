"""Smoke test: the demos run to completion against this checkout.

Demo 05 rewrites the committed files under reports/, so it runs in a copy
of demos/ and data/, and its JSON and Markdown are compared with the
committed ones.
"""

import json
import re
import shutil

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


def test_reference_reproduction_matches_committed_report(tmp_path):
    for folder in ("demos", "data"):
        shutil.copytree(REPO_ROOT / folder, tmp_path / folder)
    result = run_python([str(tmp_path / "demos" / "05_reference_reproduction.py")], tmp_path)
    assert result.returncode == 0, result.stderr
    fresh, committed = (
        json.loads((root / "reports" / "tail_reproduction.json").read_text(encoding="utf-8"))
        for root in (tmp_path, REPO_ROOT)
    )
    for got, want in zip(fresh["runs"], committed["runs"]):
        # the truncation mass is round-off; the mean is compared to 1e-9 relative
        del got["truncation_mass"], want["truncation_mass"]
        got_mean, want_mean = got.pop("mean"), want.pop("mean")
        assert got_mean == pytest.approx(want_mean, rel=1e-9, abs=0.0)
    assert fresh == committed
    # the Markdown too, whose version line would otherwise go stale unseen; only its truncation masses are round-off
    fresh_md, committed_md = (
        re.sub(r"truncation mass \S+", "truncation mass X", (root / "reports" / "tail_reproduction.md").read_text())
        for root in (tmp_path, REPO_ROOT)
    )
    assert fresh_md == committed_md
