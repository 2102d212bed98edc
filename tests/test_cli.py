import json
from pathlib import Path

import pytest

import agririsk as ar
from agririsk.errors import InputError

from conftest import HEADER, REPO_ROOT, SRC, run_cli, run_python


def test_subprocess_imports_this_checkout(tmp_path):
    result = run_python(["-c", "import agririsk; print(agririsk.__file__)"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.strip()).resolve().is_relative_to(SRC.resolve())


def test_import_loads_no_scipy(tmp_path):
    code = "import sys, agririsk, agririsk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestValidate:
    def test_bundled_dataset(self, tmp_path):
        result = run_cli(["validate"], tmp_path)
        assert result.returncode == 0
        assert "3 finding(s)" in result.stdout
        assert "ratio_sum" in result.stdout
        for country in ("ELL", "HUN", "UKI"):
            assert country in result.stdout

    def test_duplicate_ids_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{HEADER}\nESP,A,1,0.1,0,1,0,\nESP,B,2,0.1,0,1,0,\n")
        result = run_cli(["validate", "--input", "bad.csv"], tmp_path)
        assert result.returncode == 2
        assert "duplicate" in result.stderr

    def test_byte_order_mark_accepted(self, tmp_path):
        # spreadsheets save "CSV UTF-8" with a leading BOM
        data = (REPO_ROOT / "data" / "table1_eu22.csv").read_bytes()
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + data)
        result = run_cli(["validate", "--input", "bom.csv"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "3 finding(s)" in result.stdout

    def test_missing_file_exit_2(self, tmp_path):
        result = run_cli(["validate", "--input", "nope.csv"], tmp_path)
        assert result.returncode == 2

    def test_garbled_file_exit_2(self, tmp_path):
        (tmp_path / "junk.csv").write_bytes(b"\xff\xfe\x00\x01binary")
        result = run_cli(["validate", "--input", "junk.csv"], tmp_path)
        assert result.returncode == 2

    def test_field_over_csv_limit_exit_2(self, tmp_path):
        (tmp_path / "long.csv").write_text(f'{HEADER}\nAAA,"{"x" * 140_000}",100,0.10,0.01,1,0,10.0\n')
        result = run_cli(["validate", "--input", "long.csv"], tmp_path)
        assert result.returncode == 2
        assert "row 2: malformed CSV: field larger than field limit" in result.stderr

    def test_non_finite_number_exit_2(self, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text(f"{HEADER}\nAAA,A,100,0.10,nan,1,0,10.0\n")
        result = run_cli(["validate", "--input", "nan.csv"], tmp_path)
        assert result.returncode == 2
        assert "loss_rate_stddev must be finite" in result.stderr

    def test_inconsistent_expected_loss_exit_1(self, tmp_path):
        bad = tmp_path / "off.csv"
        bad.write_text(f"{HEADER}\nAAA,A,100,0.10,0.01,1,0,99.0\n")
        result = run_cli(["validate", "--input", "off.csv"], tmp_path)
        assert result.returncode == 1
        assert "expected_loss_mismatch" in result.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--unit", "nan"],
        ["analyze", "--unit", "inf"],
        ["analyze", "--sector-rate", "crop=nan,0.01"],
        ["analyze", "--sector-rate", "crop=inf,0.01"],
        ["analyze", "--sector-rate", "crop=0.03,nan"],
        ["validate", "--input", "off.csv", "--tolerance", "nan"],
        ["validate", "--input", "off.csv", "--tolerance", "inf"],
    ],
)
def test_non_finite_flag_exit_2(tmp_path, args):
    # declared expected loss 5x off (gap 0.8 of it): an error finding at any tolerance below 0.8
    (tmp_path / "off.csv").write_text(f"{HEADER}\nAAA,A,100,0.10,0.01,1,0,50.0\n")
    result = run_cli(args, tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    assert "finite" in result.stderr


def test_negative_seed_exit_2(tmp_path):
    result = run_cli(["simulate", "--unit", "10", "--n-draws", "1000", "--seed", "-1"], tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    assert "seed must be >= 0" in result.stderr


@pytest.mark.parametrize(
    "levels, message",
    [((0.1, 0.1), "must not repeat a level"), ((1.5,), r"must lie in \(0, 1\)"), ((), "at least one level")],
)
def test_run_pipeline_checks_levels(levels, message):
    # a repeated level gave contributions.csv two columns of one name; 1.5 failed only in the report
    with pytest.raises(InputError, match=message):
        ar.run_pipeline(unit=10, levels=levels)


# stddev 1e-160 (1e-170) against mean 0.03: the gamma shape (mean/stddev)**2 overflows a float
@pytest.mark.parametrize(
    "args, message",
    [
        (["--sector-rate", "crop=0.03,1e-160"], "sector 'crop': rate volatility 1e-160"),
        (["--input", "tiny.csv", "--sector-mode", "per-obligor"], "sector 'AAA': rate volatility 1e-170"),
    ],
)
def test_unrepresentable_gamma_shape_exit_2(tmp_path, args, message):
    (tmp_path / "tiny.csv").write_text(f"{HEADER}\nAAA,A,100,0.03,1e-170,1,0,3.0\n")
    result = run_cli(["analyze", "--unit", "10", *args], tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr == f"{message} is too small for a gamma shape\n"


@pytest.mark.parametrize("backend", ["fft", "panjer"])
@pytest.mark.parametrize("grid", [[], ["--grid", "4096"]])
def test_gamma_scale_too_large_exit_2(tmp_path, backend, grid):
    # stddev 1e8 against mean 0.03: beta ~ 1e18, so rho = beta/(1+beta) rounds to 1
    args = ["analyze", "--unit", "10", "--sector-rate", "crop=0.03,1e8", "--backend", backend, *grid]
    result = run_cli(args, tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr == "sector 'crop': rate volatility 100000000.0 is too large for a gamma scale\n"
    assert not (tmp_path / "out").exists()


def test_gamma_scale_refused_where_rho_stays_below_one(tmp_path):
    # beta ~ 1.5e16 left rho just below 1, and the run ended in the grid rule's "use a larger unit"
    result = run_cli(["analyze", "--unit", "10", "--sector-rate", "crop=0.03,5e6"], tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert result.stderr == "sector 'crop': rate volatility 5000000.0 is too large for a gamma scale\n"


@pytest.mark.parametrize("mean", ["1e-200", "1e-310"])
def test_gamma_scale_refused_where_cv_or_its_square_overflows(tmp_path, mean):
    # stddev / mean = 1e208 squares past the largest double; 1e8 / 1e-310 overflows already
    (tmp_path / "spiky.csv").write_text(f"{HEADER}\nAAA,A,100,{mean},1e8,1,0,\nBBB,B,100,0.03,0.02,1,0,\n")
    result = run_cli(["analyze", "--input", "spiky.csv", "--sector-mode", "per-obligor"], tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert result.stderr == "sector 'AAA': rate volatility 100000000.0 is too large for a gamma scale\n"


def test_gamma_pole_overflow_warns_nothing(tmp_path):
    # beta * d(t) overflows to inf near the top of the pole search, which is only "above the pole"
    result = run_cli(["analyze", "--unit", "1e4", "--sector-rate", "crop=0.03,1000"], tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert result.stderr.startswith("the loss tail needs a grid of")


@pytest.mark.parametrize("unit, rows", [("1e160", None), ("1e155", "A,A,100,0.05,0.01,0.5,0.5\nB,B,100,0,0,0.5,0.5\n")],
                         ids=["bundled", "zero-rate"])
def test_unit_whose_square_overflows_exit_1(tmp_path, unit, rows):
    # Python's unit**2 raised OverflowError; a zero-rate obligor's 0 * inf is NaN, refused without a warning
    args = ["analyze", "--unit", unit]
    if rows:
        (tmp_path / "zero.csv").write_text(HEADER.rsplit(",", 1)[0] + "\n" + rows, encoding="utf-8")
        args += ["--input", "zero.csv"]
    result = run_cli(args, tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    message = f"total variance contribution overflows at unit {float(unit)!r}; use a smaller unit (--unit)\n"
    assert result.stderr == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("unit", ["1e155", "1e160"])
def test_dist_unit_whose_square_overflows_exit_1(tmp_path, unit):
    # moments' unit**2 raised OverflowError; unit * unit is inf, and the variance is refused before any file
    result = run_cli(["dist", "--unit", unit], tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stderr == f"pmf variance overflows at unit {float(unit)!r}; use a smaller unit (--unit)\n"
    assert result.stdout == ""
    assert not (tmp_path / "out").exists()


# discount factors e^1000 (overflows) and e^100 (a grid beyond numpy's array limits)
@pytest.mark.parametrize("rate", ["-1000", "-100"])
def test_discount_rate_at_or_below_minus_one_exit_2(tmp_path, rate):
    result = run_cli(["analyze", "--unit", "10", "--rate", rate, "--horizon", "1"], tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    assert "discount rate must be > -1" in result.stderr


def test_discounted_exposure_overflow_names_the_first_obligor(tmp_path):
    # e^709.5 is finite, but 800.12 * e^709.5 is not: the discounted portfolio is checked as it is built
    result = run_cli(["analyze", "--rate", "-0.5", "--horizon", "1419"], tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert result.stderr == "obligor BGR: exposure must be finite, got inf\n"


def test_discount_factor_underflow_names_rate_and_horizon(tmp_path):
    # e^-800 is 0.0 in doubles: every exposure became 0 and the first obligor took the blame
    result = run_cli(["analyze", "--rate", "800", "--horizon", "1"], tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert result.stderr.strip() == "discount factor underflows to 0 at rate 800.0 over horizon 1.0"


class TestAnalyze:
    def test_default_run_writes_reports(self, tmp_path):
        result = run_cli(["analyze"], tmp_path)
        assert result.returncode == 0
        for name in ("report.json", "quantiles.csv", "contributions.csv"):
            assert (tmp_path / "out" / name).exists()
        lines = (tmp_path / "out" / "quantiles.csv").read_text().strip().splitlines()
        assert len(lines) == 8  # header + 7 default levels
        contributions = (tmp_path / "out" / "contributions.csv").read_text().strip().splitlines()
        assert len(contributions) == 1 + 22 + 1

    def test_backends_agree(self, tmp_path):
        fft = run_cli(["analyze", "--unit", "10", "--backend", "fft", "--out", "f"], tmp_path)
        panjer = run_cli(["analyze", "--unit", "10", "--backend", "panjer", "--out", "p"], tmp_path)
        assert fft.returncode == 0 and panjer.returncode == 0
        q_fft = (tmp_path / "f" / "quantiles.csv").read_bytes()
        q_panjer = (tmp_path / "p" / "quantiles.csv").read_bytes()
        assert q_fft == q_panjer

    def test_explicit_zero_discount_matches_default(self, tmp_path):
        base = run_cli(["analyze", "--unit", "10", "--out", "a"], tmp_path)
        explicit = run_cli(
            ["analyze", "--unit", "10", "--rate", "0", "--horizon", "0", "--out", "b"], tmp_path
        )
        assert base.returncode == 0 and explicit.returncode == 0
        a = (tmp_path / "a" / "quantiles.csv").read_bytes()
        b = (tmp_path / "b" / "quantiles.csv").read_bytes()
        assert a == b

    def test_share_underflowing_to_zero_matches_a_zero_ratio(self, tmp_path):
        # 1e-5 * 1e-320 underflows to 0.0: the crop sub of A carries nothing and is left out
        header = HEADER.rsplit(",", 1)[0]
        (tmp_path / "under.csv").write_text(f"{header}\nA,a,0.00001,0.02,0.01,1e-320,1\nB,b,100,0.03,0.02,0.5,0.5\n")
        (tmp_path / "zero.csv").write_text(f"{header}\nA,a,0.00001,0.02,0.01,0,1\nB,b,100,0.03,0.02,0.5,0.5\n")
        runs = [run_cli(["analyze", "--input", f"{name}.csv", "--unit", "1", "--out", name], tmp_path)
                for name in ("under", "zero")]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout.replace("under", "zero") == runs[1].stdout
        for name in ("quantiles.csv", "contributions.csv"):
            assert (tmp_path / "under" / name).read_bytes() == (tmp_path / "zero" / name).read_bytes()
        under, zero = (json.loads((tmp_path / name / "report.json").read_text()) for name in ("under", "zero"))
        assert under["config"].pop("input") == "under.csv"
        assert zero["config"].pop("input") == "zero.csv"
        assert under == zero

    def test_nonpositive_unit_exit_2(self, tmp_path):
        result = run_cli(["analyze", "--unit", "0"], tmp_path)
        assert result.returncode == 2
        assert "unit must be" in result.stderr

    def test_bad_level_exit_2(self, tmp_path):
        result = run_cli(["analyze", "--levels", "1.5"], tmp_path)
        assert result.returncode == 2

    @pytest.mark.parametrize("command", [["analyze"], ["simulate", "--n-draws", "1000"]])
    def test_repeated_level_exit_2(self, tmp_path, command):
        # a repeated level used to give contributions.csv two columns of one name
        result = run_cli([*command, "--unit", "10", "--levels", "0.1,0.05,0.10"], tmp_path)
        assert result.returncode == 2
        assert "must not repeat a level" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_repeated_sector_rate_exit_2(self, tmp_path):
        # the last value used to win silently
        args = ["analyze", "--unit", "10", "--sector-rate", "crop=0.03,0.02", "--sector-rate", "crop=0.05,0.01"]
        result = run_cli(args, tmp_path)
        assert result.returncode == 2
        assert "--sector-rate repeats sector 'crop'" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_grid_too_small_for_a_level_exit_1(self, tmp_path):
        # at 16384 points the 1% quantile read 11151 instead of 11577; the first level refused is 10%
        result = run_cli(["analyze", "--unit", "1", "--grid", "16384"], tmp_path)
        assert result.returncode == 1, result.stdout
        assert "tail bound" in result.stderr and "level 0.1" in result.stderr
        assert not (tmp_path / "out" / "quantiles.csv").exists()

    def test_uncertified_quantiles_exit_1(self, tmp_path):
        # tail bound 2.27e-2 at 16384 points: 10% and 5% read 5460 and 7049 instead of 5489 and 7095
        result = run_cli(["analyze", "--unit", "1", "--grid", "16384", "--levels", "0.1,0.05"], tmp_path)
        assert result.returncode == 1, result.stdout
        assert "Traceback" not in result.stderr
        assert "plus tail bound 2.266e-02 exceeds level 0.1" in result.stderr
        assert not (tmp_path / "out" / "quantiles.csv").exists()

    def test_grid_of_any_length_backends_agree(self, tmp_path):
        runs = [run_cli(["analyze", "--grid", "100000", "--backend", backend, "--out", backend], tmp_path)
                for backend in ("fft", "panjer")]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr + runs[1].stderr
        assert (tmp_path / "fft" / "quantiles.csv").read_bytes() == (tmp_path / "panjer" / "quantiles.csv").read_bytes()
        assert json.loads((tmp_path / "fft" / "report.json").read_text())["config"]["grid_size"] == 100000

    def test_level_deeper_than_the_auto_grid_certifies_exit_1(self, tmp_path):
        # the auto grid's bound is 8.9e-13 at 78125 points; the 1e-10 quantile's survival is 9.999e-11
        result = run_cli(["analyze", "--unit", "1", "--levels", "0.1,0.01,1e-10"], tmp_path)
        assert result.returncode == 1, result.stdout
        assert "grid too small to certify" in result.stderr and "exceeds level 1e-10" in result.stderr
        assert not (tmp_path / "out" / "quantiles.csv").exists()
        # a larger explicit grid certifies it: tail bound 1.1e-16 at 100000 points
        larger = run_cli(["analyze", "--unit", "1", "--levels", "0.1,0.01,1e-10", "--grid", "100000"], tmp_path)
        assert larger.returncode == 0, larger.stderr


class TestSimulate:
    def test_seed_repeatability_byte_identical(self, tmp_path):
        args = ["simulate", "--unit", "10", "--n-draws", "50000", "--seed", "42"]
        first = run_cli(args + ["--out", "r1"], tmp_path)
        second = run_cli(args + ["--out", "r2"], tmp_path)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout.replace("r1", "X") == second.stdout.replace("r2", "X")
        assert (tmp_path / "r1" / "mc_summary.json").read_bytes() == (
            tmp_path / "r2" / "mc_summary.json"
        ).read_bytes()

    def test_zero_draws_exit_2(self, tmp_path):
        result = run_cli(["simulate", "--n-draws", "0"], tmp_path)
        assert result.returncode == 2

    def test_dump_samples(self, tmp_path):
        result = run_cli(
            ["simulate", "--unit", "10", "--n-draws", "1000", "--dump-samples", "samples.csv"],
            tmp_path,
        )
        assert result.returncode == 0
        lines = (tmp_path / "samples.csv").read_text().strip().splitlines()
        assert lines[0] == "loss"
        assert len(lines) == 1001
        # each line a plain float: the repr of a numpy 2 scalar reads np.float64(...), which float() refuses
        run = ar.run_pipeline(unit=10.0)
        expected = ar.simulate(run.banded, ar.SimConfig(n_draws=1000, seed=42), run.sectored).samples
        assert [float(line) for line in lines[1:]] == expected.tolist()


class TestDist:
    def test_pmf_dump_and_printed_moments(self, tmp_path):
        result = run_cli(["dist", "--unit", "10"], tmp_path)
        assert result.returncode == 0
        csv_path = tmp_path / "out" / "distribution.csv"
        assert csv_path.exists()
        printed_mean = float(
            next(line for line in result.stdout.splitlines() if line.startswith("mean")).split()[1]
        )
        assert printed_mean == pytest.approx(1525.03, abs=0.5)
        # mean recomputed from the dumped pmf must match the printed value exactly
        rows = csv_path.read_text().strip().splitlines()[1:]
        mean = sum(float(r.split(",")[1]) * float(r.split(",")[2]) for r in rows)
        assert mean == pytest.approx(printed_mean, rel=1e-12)

    def test_truncation_mass_printed(self, tmp_path):
        result = run_cli(["dist", "--unit", "10"], tmp_path)
        line = next(l for l in result.stdout.splitlines() if l.startswith("truncation_mass"))
        assert abs(float(line.split()[1])) < 1e-9

    def test_tail_bound_printed_after_truncation_mass(self, tmp_path):
        result = run_cli(["dist", "--unit", "10"], tmp_path)
        lines = result.stdout.splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("truncation_mass"))
        assert lines[at + 1].startswith("tail_bound ")
        assert 0.0 < float(lines[at + 1].split()[1]) <= 1e-12
