import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import agririsk as ar

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
HEADER = "id,name,exposure,mean_loss_rate,loss_rate_stddev,crop_ratio,livestock_ratio,expected_loss"


def run_python(args, cwd) -> subprocess.CompletedProcess:
    """Run ``python *args`` in ``cwd`` with this checkout's ``src`` first on PYTHONPATH.

    Existing PYTHONPATH entries are kept after it, made absolute, so that a
    relative entry such as ``src`` still resolves in another working directory.
    An import failure exits 1, the CLI's model-error code, so a run that could
    not import agririsk fails the test here instead of passing an exit-code check.
    """
    existing = os.environ.get("PYTHONPATH")
    entries = [os.path.abspath(p) for p in existing.split(os.pathsep)] if existing else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), *entries]))
    result = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)
    if "No module named 'agririsk'" in result.stderr:
        pytest.fail(f"subprocess could not import agririsk:\n{result.stderr}")
    return result


def run_cli(args, cwd) -> subprocess.CompletedProcess:
    """Run ``python -m agririsk.cli *args`` in ``cwd`` against this checkout."""
    return run_python(["-m", "agririsk.cli", *args], cwd)


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def bundled_portfolio() -> ar.Portfolio:
    return ar.load_portfolio(ar.bundled_dataset_path())


@pytest.fixture(scope="session")
def bundled_run() -> ar.Run:
    """The CLI's default pipeline: bundled dataset, crop-livestock, unit 1, FFT, auto grid."""
    return ar.run_pipeline()


@pytest.fixture(scope="session")
def bundled_banded(bundled_run) -> ar.BandedPortfolio:
    return bundled_run.banded


@pytest.fixture(scope="session")
def bundled_dist(bundled_run) -> ar.LossDistribution:
    return bundled_run.dist


def single_sector(rows: str, unit: float = 1.0) -> tuple[ar.SectoredPortfolio, ar.BandedPortfolio]:
    """Sectored and banded views of portfolio CSV rows, without expected_loss, as one sector."""
    portfolio = ar.parse_portfolio(HEADER.rsplit(",", 1)[0] + "\n" + rows)
    sectored = ar.assign_sectors(portfolio, ar.SectorAssignment("single"))
    return sectored, ar.band_exposures(sectored, unit)


def make_banded(sectors, unit: float = 1.0) -> ar.BandedPortfolio:
    """Hand-built banded portfolio: sectors = [(name, cv, [(v, eps), ...])].

    Each (v, eps) is one sub-exposure of its own synthetic obligor, so
    contribution reporting stays well-defined; subs sharing a level form one band.
    """
    obligor_ids, subs = [], []
    for k, (name, _, bands) in enumerate(sectors):
        for i, (v, eps) in enumerate(sorted(bands)):
            subs.append((len(obligor_ids), k, v, eps))
            obligor_ids.append(f"{name}-{i}")
    obligor, sector, level, epsilon = (np.array(col) for col in zip(*subs))
    return ar.BandedPortfolio(
        unit=unit,
        names=tuple(name for name, _, _ in sectors),
        cv=[cv for _, cv, _ in sectors],
        obligor_ids=tuple(obligor_ids),
        sub_obligor=obligor,
        sub_sector=sector,
        sub_level=level,
        sub_epsilon=epsilon.astype(float),
    )


def raw_parts(banded: ar.BandedPortfolio) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, tuple | None]]:
    """Each part that carries loss as (levels, epsilon, mu, gamma), part 0 first, none folded.

    Read straight from the model's columns (part, v, eps, mu, alpha, beta), so
    oracles built on it do not rest on the code that folds parts into the pool:
    gamma is None for the unmixed part 0 and (alpha, beta) for the k-th gamma sector.
    """
    c = banded._cumulant
    gammas = [None, *zip(c.alpha.tolist(), c.beta.tolist())]
    return [(c.v[c.part == k], c.eps[c.part == k], c.mu[c.part == k], gammas[k]) for k in np.unique(c.part).tolist()]
