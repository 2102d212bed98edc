"""The command line's run contract on seeded books and flags; tests/soak_contract.py runs the same cases longer."""

import pytest

import soak_contract


# each seed's first 100 cases held a run that warned before it refused, or before it succeeded
@pytest.mark.parametrize("seed", [4, 5, 6])
def test_runs_end_in_finite_output_or_a_one_line_refusal(tmp_path, seed):
    problem = soak_contract.first_broken(seed, 100, tmp_path / "case")
    assert problem is None, problem
