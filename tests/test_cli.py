import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import agririsk as ar
from agririsk import cli
from agririsk.cli import _pipeline_args, build_parser, main
from agririsk.errors import InputError

from conftest import HEADER, REPO_ROOT, SRC, run_cli, run_python


def test_subprocess_imports_this_checkout(tmp_path):
    result = run_python(["-c", "import agririsk; print(agririsk.__file__)"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.strip()).resolve().is_relative_to(SRC.resolve())


def test_package_import_leaves_the_cli_unloaded(tmp_path):
    # the pipeline is engine code, so agririsk exports it without importing the command line
    names = "'Run' in vars(agririsk), 'run_pipeline' in vars(agririsk), 'agririsk.cli' in sys.modules"
    code = f"import sys, agririsk; print({names})"
    result = run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True True False\n"


@pytest.mark.parametrize("command", ["analyze", "dist", "simulate"])
def test_every_pipeline_keyword_is_a_flag_with_its_default(command):
    parser = build_parser()
    assert _pipeline_args(parser.parse_args([command]), parser) == ar.run_pipeline.__kwdefaults__


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


def test_run_pipeline_checks_backend():
    with pytest.raises(InputError, match=r"^backend must be one of panjer, fft, got 'x'$"):
        ar.run_pipeline(backend="x")


def _report(run: ar.Run) -> ar.RiskReport:
    return ar.build_report(run.portfolio, run.banded, run.dist, run.levels, run.config, run.findings)


@pytest.mark.parametrize("unit, same", [(np.float32(1.0), 1.0), (1, 1.0), (np.int64(10), 10.0)])
def test_unit_of_any_number_type_runs_as_its_float(unit, same):
    # a float32 unit gave a float32 mean, 1524.94, and report.json a TypeError, as an np.int64 one did;
    # an int unit wrote whole money as ints
    report, want = _report(ar.run_pipeline(unit=unit)), _report(ar.run_pipeline(unit=same))
    # the text holds the moments, quantiles and contributions, each number as repr writes it
    assert report.to_json() == want.to_json()
    table = report.contributions
    numbers = (report.moments.mean, report.moments.variance, table.total_expected_loss, *table.totals)
    assert all(type(x) is float for x in numbers)
    if same == 1.0:
        assert report.moments.mean == 1524.9400000555952


def test_numpy_scalar_keywords_reach_the_report_as_python_numbers():
    run = ar.run_pipeline(unit=10.0, rate=np.float32(0.03), horizon=np.float32(1.0), grid=np.int64(8000),
                          tolerance=np.float32(0.02), sector_rates={"crop": (np.float32(0.03), np.float64(0.01))})
    config = json.loads(_report(run).to_json())["config"]
    assert config == dict(run.config, tail_bound=run.dist.tail_bound, truncation_mass=run.dist.truncation_mass)
    assert (config["rate"], config["horizon"], config["grid_size"]) == (float(np.float32(0.03)), 1.0, 8000)
    assert config["tolerance"] == float(np.float32(0.02))
    assert config["sector_rates"] == {"crop": [float(np.float32(0.03)), 0.01]}
    assert all(type(v) in (str, float, int, list, dict) for v in run.config.values())


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


def test_gamma_scale_underflowing_to_zero_runs_on_both_backends(tmp_path, capsys):
    # crop's gamma scale cv**2 * mu underflows to 0, so its count is 0: the FFT took its factor as 1, and Panjer
    # refused with "rho must lie in (0, 1), got 0.0"
    book = tmp_path / "zero-scale.csv"
    book.write_text(f"{HEADER.rsplit(',', 1)[0]}\nA,a,100,1e-20,1e-20,1,0\nC,c,300,1e-20,1e-20,1,0\nB,b,100,0.05,0.02,0,1\n")
    for backend in ("fft", "panjer"):
        args = ["analyze", "--input", str(book), "--backend", backend, "--sector-rate", "crop=1e-10,2e-164"]
        assert main([*args, "--out", str(tmp_path / backend)]) == 0, capsys.readouterr().err
    assert (tmp_path / "fft" / "quantiles.csv").read_bytes() == (tmp_path / "panjer" / "quantiles.csv").read_bytes()


def test_subnormal_gamma_scale_warns_nothing(tmp_path, capsys):
    # beta is about 1e-320, so 1/beta overflowed in the tail bound's pole with a RuntimeWarning on a run that succeeds
    book = tmp_path / "subnormal.csv"
    book.write_text(f"{HEADER.rsplit(',', 1)[0]}\nA,a,100,1e-20,1e-170,1,0\nB,b,100,0.05,0.02,0,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["analyze", "--input", str(book), "--sector-mode", "per-obligor", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert status == 0, captured.err
    assert captured.err == ""


@pytest.mark.parametrize("row, args, status, message", [
    # 1e307 * 1e8 overflowed in the amount-weighted sector volatility, with a RuntimeWarning before the refusal
    ("A,a,1e307,0.5,1e8,1,0", ["--sector-mode", "single", "--unit", "1e300"], 2,
     "sector 'portfolio': rate volatility inf is too large for a gamma scale"),
    # 1.5e308 / 0.2 overflowed in the band levels, with a RuntimeWarning before the refusal
    ("A,a,1.5e308,0.5,0.01,0,1", ["--unit", "0.2"], 1, "an exposure spans inf units; use a larger unit (--unit)"),
], ids=["volatility", "level"])
def test_overflow_refused_in_one_line(tmp_path, row, args, status, message):
    (tmp_path / "big.csv").write_text(f"{HEADER.rsplit(',', 1)[0]}\n{row}\n")
    result = run_python(["-W", "error", "-m", "agririsk.cli", "analyze", "--input", "big.csv", *args], tmp_path)
    assert result.returncode == status, result.stdout + result.stderr
    assert result.stderr == message + "\n"
    assert not (tmp_path / "out").exists()


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


def test_exposures_summing_past_the_largest_float_exit_2(tmp_path):
    # simulate took P(loss > inf) and exited 1 with an OverflowError traceback
    header = HEADER.rsplit(",", 1)[0]
    (tmp_path / "over.csv").write_text(f"{header}\nA,a,1e308,0.1,0.05,0.5,0.5\nB,b,1e308,0.1,0.05,0.5,0.5\n")
    result = run_cli(["simulate", "--input", "over.csv", "--unit", "1e306", "--n-draws", "1000"], tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr == "total exposure overflows: the exposures sum past 1.7976931348623157e+308\n"


# one obligor of 1.5e308: at unit 1e306 each of its two sectors sits at level 75, and the auto grid is 1215 points
ONE_CSV = HEADER.rsplit(",", 1)[0] + "\nA,a,1.5e308,0.5,0.1,0.5,0.5\n"


@pytest.mark.parametrize("mode", ["poisson-banded", "bernoulli-exact"])
def test_grid_past_the_largest_float_exit_1(tmp_path, mode):
    # 1214 units of 1e306 is inf: the analytic column read inf from 0.05 down and the run exited 0
    (tmp_path / "one.csv").write_text(ONE_CSV)
    args = ["-W", "error", "-m", "agririsk.cli", "simulate", "--input", "one.csv", "--unit", "1e306"]
    result = run_python([*args, "--n-draws", "1000", "--mc-mode", mode], tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stderr == "a 1215-point loss grid overflows at unit 1e+306; use a smaller unit (--unit)\n"
    assert not (tmp_path / "out").exists()


def test_variance_contribution_overflow_warns_nothing(tmp_path):
    # 151 units of 1e306 is finite, so the grid stands; the contributions' products overflowed with a RuntimeWarning
    (tmp_path / "one.csv").write_text(ONE_CSV)
    args = ["-W", "error", "-m", "agririsk.cli", "analyze", "--input", "one.csv", "--unit", "1e306", "--grid", "152"]
    result = run_python(args, tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stderr == "total variance contribution overflows at unit 1e+306; use a smaller unit (--unit)\n"


# ten obligors of 1.5e307: every sample is finite, but a thousand of them sum past the largest float
TEN_CSV = HEADER.rsplit(",", 1)[0] + "\n" + "".join(f"R{i},r{i},1.5e307,0.01,0.005,0.5,0.5\n" for i in range(10))


@pytest.mark.parametrize("mode", ["poisson-banded", "bernoulli-exact"])
def test_sample_mean_past_the_largest_float_exit_1(tmp_path, capsys, mode):
    # the sample mean and stddev overflowed with a RuntimeWarning, and mc_summary.json held "mean": Infinity
    (tmp_path / "ten.csv").write_text(TEN_CSV)
    out = tmp_path / "out"
    args = ["simulate", "--input", str(tmp_path / "ten.csv"), "--unit", "1e306", "--grid", "175",
            "--levels", "0.1,0.05", "--n-draws", "1000", "--mc-mode", mode, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(args)
    captured = capsys.readouterr()
    assert status == 1, captured.out + captured.err
    assert captured.err == (
        "mc_summary.json would hold a number that is not finite, "
        "such as a sample mean or stddev past the largest float\n"
    )
    assert captured.out == ""
    assert not (out / "mc_summary.json").exists()


def test_report_with_a_non_finite_number_exit_1(tmp_path, capsys, monkeypatch):
    # no flag reaches it (run_pipeline refuses a non-finite rate), so the run's config is given one here
    def pipeline(**kwargs):
        run = ar.run_pipeline(**kwargs)
        return dataclasses.replace(run, config=dict(run.config, rate=math.inf))

    monkeypatch.setattr(cli, "run_pipeline", pipeline)
    out = tmp_path / "out"
    status = main(["analyze", "--unit", "10", "--out", str(out)])
    captured = capsys.readouterr()
    assert status == 1, captured.out + captured.err
    assert captured.err == "report.json would hold a number that is not finite, such as a config value\n"
    assert captured.out == ""
    assert not out.exists()


def test_nul_in_a_name_reaches_both_report_files(tmp_path, capsys):
    # the csv reader keeps the NUL; contributions.csv writes it raw and report.json as \u0000, so the
    # writers' NUL padding of the numbers must never touch an id or a name
    book = tmp_path / "nul.csv"
    book.write_text(f"{HEADER}\nA,a\x00b,100,0.03,0.01,0.6,0.4,3.0\nB,\x00,50,0.02,0.01,1,0,1.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(book), "--unit", "1", "--out", str(out)]) == 0, capsys.readouterr().err
    csv_rows = (out / "contributions.csv").read_bytes().split(b"\n")
    assert csv_rows[1].startswith(b"A,a\x00b,") and csv_rows[2].startswith(b"B,\x00,")
    rows = json.loads((out / "report.json").read_text(encoding="utf-8"))["contributions"]["rows"]
    assert [row["name"] for row in rows] == ["a\x00b", "\x00"]


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

    def test_printed_quantiles_are_the_file(self, tmp_path):
        result = run_cli(["analyze", "--unit", "10"], tmp_path)
        assert result.returncode == 0, result.stderr
        printed = result.stdout[result.stdout.index("exceedance_prob,loss\n"):result.stdout.index("wrote ")]
        assert printed.encode() == (tmp_path / "out" / "quantiles.csv").read_bytes()

    def test_backends_agree(self, tmp_path):
        fft = run_cli(["analyze", "--unit", "10", "--backend", "fft", "--out", "f"], tmp_path)
        panjer = run_cli(["analyze", "--unit", "10", "--backend", "panjer", "--out", "p"], tmp_path)
        assert fft.returncode == 0 and panjer.returncode == 0
        q_fft = (tmp_path / "f" / "quantiles.csv").read_bytes()
        q_panjer = (tmp_path / "p" / "quantiles.csv").read_bytes()
        assert q_fft == q_panjer

    def test_zero_loss_book_runs_on_both_backends(self, tmp_path):
        # loss rates all 0: every quantile and contribution is 0; analyze refused it while dist ran it
        (tmp_path / "zero.csv").write_text(HEADER.rsplit(",", 1)[0] + "\nA,a,100,0,0,1,0\nB,b,50,0,0,0,1\n")
        for backend in ("fft", "panjer"):
            result = run_cli(["analyze", "--input", "zero.csv", "--backend", backend, "--out", backend], tmp_path)
            assert result.returncode == 0, result.stderr
        assert (tmp_path / "fft" / "quantiles.csv").read_bytes() == (tmp_path / "panjer" / "quantiles.csv").read_bytes()
        rows = (tmp_path / "fft" / "contributions.csv").read_text().splitlines()[1:]
        assert [row.split(",", 2)[2] for row in rows] == [",".join(["0.000000"] * 8)] * 3

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

    def test_dump_samples_inside_out(self, tmp_path, capsys):
        # the samples are written after --out is made, and the wrote line names only --out's own file
        out = tmp_path / "out"
        status = main(["simulate", "--unit", "10", "--n-draws", "1000", "--out", str(out),
                       "--dump-samples", str(out / "s.csv")])
        captured = capsys.readouterr()
        assert status == 0, captured.err
        assert sorted(path.name for path in out.iterdir()) == ["mc_summary.json", "s.csv"]
        assert captured.out.splitlines()[-1] == f"wrote mc_summary.json to {out}"

    def test_dump_samples_into_a_missing_directory_exit_2(self, tmp_path, capsys):
        # --out's files are written first; the samples' path of its own then fails, and nothing is printed
        out = tmp_path / "out"
        status = main(["simulate", "--unit", "10", "--n-draws", "1000", "--out", str(out),
                       "--dump-samples", str(tmp_path / "nodir" / "s.csv")])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.count("\n") == 1 and "No such file or directory" in captured.err
        assert captured.out == ""
        assert [path.name for path in out.iterdir()] == ["mc_summary.json"]


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


def test_moments_do_not_move_with_the_openblas_thread_count(tmp_path, monkeypatch):
    """report.json and dist's printed lines are byte-identical on one OpenBLAS thread and on two.

    A BLAS dot of more than about 10,000 entries splits across threads and rounds differently; the moments
    sum in numpy's own loop. A numpy not built on OpenBLAS ignores the variable, and the runs are then alike.
    """
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = f"threads-{threads}"
        analyze = run_cli(["analyze", "--unit", "1", "--out", out], tmp_path)
        dist = run_cli(["dist", "--out", out], tmp_path)
        assert analyze.returncode == dist.returncode == 0, analyze.stderr + dist.stderr
        outputs.append(((tmp_path / out / "report.json").read_bytes(), dist.stdout.replace(out, "OUT")))
    assert outputs[0] == outputs[1]
