import csv
import functools
import importlib
import io
import itertools
import math
import operator
import random
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import agririsk as ar
from agririsk.errors import InputError

from conftest import HEADER
from test_analytics import synthetic_book

portfolio_module = importlib.import_module("agririsk.portfolio")

BGR_ROW = "BGR,Bulgaria,800.12,0.0312,0.0072,0.65,0.35,24.96"

# the columns of a two-obligor portfolio, the second without a declared expected loss
TWO = dict(
    ids=("XXX", "YYY"), names=("X", "Y"), exposure=[100.0, 50.0], mean_loss_rate=[0.02, 0.03],
    loss_rate_stddev=[0.01, 0.0], crop_ratio=[0.5, 1.0], livestock_ratio=[0.5, 0.0],
    expected_loss_declared=[2.0, math.nan],
)


def make_portfolio(**overrides):
    """A one-obligor portfolio built from columns; each override gives one field's value."""
    values = dict(
        exposure=100.0, mean_loss_rate=0.02, loss_rate_stddev=0.01, crop_ratio=0.5, livestock_ratio=0.5,
        expected_loss_declared=math.nan,
    )
    values.update(overrides)
    return ar.Portfolio(("XXX",), ("Test",), **{name: [value] for name, value in values.items()})


class TestParse:
    def test_single_row(self):
        p = ar.parse_portfolio(f"{HEADER}\n{BGR_ROW}\n")
        assert p.ids == ("BGR",)
        assert p.names == ("Bulgaria",)
        assert p.exposure.tolist() == [800.12]
        assert p.mean_loss_rate.tolist() == [0.0312]
        assert p.loss_rate_stddev.tolist() == [0.0072]
        assert p.expected_loss_declared.tolist() == [24.96]

    def test_columns_hold_float_of_each_cell(self):
        # float()'s own grammar: surrounding space, digit separators, non-ASCII digits; an empty declared cell is NaN
        extra = ["AAA, Ä ,1_000, .5 ,0,١,0,", "BBB,B,2e3,0.25,1E-2,0.5,0.5, 7 "]
        text = ar.bundled_dataset_path().read_text(encoding="utf-8") + "\n".join(extra) + "\n"
        rows = [[cell.strip() for cell in row] for row in csv.reader(io.StringIO(text))][1:]
        p = ar.parse_portfolio(text)
        assert list(p.ids) == [r[0] for r in rows] and list(p.names) == [r[1] for r in rows]
        for j, f in enumerate(fields(ar.Portfolio)[2:], start=2):
            column = [float(r[j]) if r[j] else math.nan for r in rows]
            assert np.array_equal(getattr(p, f.name), column, equal_nan=True), f.name

    def test_header_only_is_empty_portfolio(self):
        # loadtxt warns when it reads no rows; a header followed by blank lines must not reach it
        for text in (HEADER + "\n", HEADER, f"{HEADER}\n\n\n", f"{HEADER}\r\n \r\n"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InputError, match="^empty portfolio: header only$"):
                    ar.parse_portfolio(text)

    def test_blank_text_is_empty_portfolio(self):
        with pytest.raises(InputError, match="empty portfolio"):
            ar.parse_portfolio("")

    def test_duplicate_ids_rejected(self):
        text = f"{HEADER}\nESP,Spain,1.0,0.1,0.0,1.0,0.0,\nESP,Spain2,2.0,0.1,0.0,1.0,0.0,\n"
        with pytest.raises(InputError, match="duplicate obligor id 'ESP'"):
            ar.parse_portfolio(text)

    def test_malformed_cell_names_row_and_column(self):
        text = f"{HEADER}\nAAA,A,100,0.1,0.0,1.0,0.0,\nBBB,B,oops,0.1,0.0,1.0,0.0,\n"
        with pytest.raises(InputError, match="row 3.*exposure"):
            ar.parse_portfolio(text)

    def test_malformed_cell_names_its_row_once(self):
        text = f"{HEADER}\nAAA,A,oops,0.1,0.0,1.0,0.0,\n"
        with pytest.raises(InputError, match=r"^row 2: malformed exposure: 'oops'$"):
            ar.parse_portfolio(text)

    def test_expected_loss_column_optional(self):
        text = HEADER.rsplit(",", 1)[0] + "\nAAA,A,100,0.1,0.0,1.0,0.0\n"
        p = ar.parse_portfolio(text)
        assert math.isnan(p.expected_loss_declared[0])

    def test_rating_column_parsed_and_ignored(self):
        text = f"{HEADER},rating\nAAA,A,100,0.1,0.0,1.0,0.0,10.0,BB+\n"
        p = ar.parse_portfolio(text)
        assert p.exposure[0] == 100.0

    def test_unknown_column_rejected(self):
        with pytest.raises(InputError, match="unknown column"):
            ar.parse_portfolio(f"{HEADER},surprise\nAAA,A,100,0.1,0.0,1.0,0.0,10.0,x\n")

    def test_repeated_column_rejected(self):
        # the second expected_loss column was ignored: a declared 999 against 24.96 gave no finding
        text = f"{HEADER},expected_loss\n{BGR_ROW},999\n"
        with pytest.raises(InputError, match=r"^bad header: repeated column 'expected_loss'$"):
            ar.parse_portfolio(text)

    def test_rates_are_fractions_not_percent(self):
        with pytest.raises(InputError, match="mean_loss_rate"):
            ar.parse_portfolio(f"{HEADER}\nAAA,A,100,3.12,0.0,1.0,0.0,\n")


# (data rows, the message): the first faulty row is named, by its first fault
PRECEDENCE = [
    # a range error in row 2 wins over a malformed cell in row 3
    (["AAA,A,0,0.1,0.0,1.0,0.0,", "BBB,B,oops,0.1,0.0,1.0,0.0,"], "row 2: obligor AAA: exposure must be > 0, got 0.0"),
    # 1. malformed cells, in column order, then the declared expected loss
    (["AAA,A,1,zz,0.0,1.0,yy,q"], "row 2: malformed mean_loss_rate: 'zz'"),
    (["AAA,A,inf,0.1,0.0,1.0,yy,q"], "row 2: malformed livestock_ratio: 'yy'"),
    ([",A,0,0.1,0.0,1.0,0.0,q"], "row 2: malformed expected_loss: 'q'"),
    # 2. an empty id
    ([",A,nan,0.1,0.0,1.0,0.0,"], "row 2: obligor id must be non-empty"),
    # 3. a non-finite value, in column order, then the declared expected loss
    (["AAA,A,1,inf,nan,1.0,0.0,"], "row 2: obligor AAA: mean_loss_rate must be finite, got inf"),
    (["AAA,A,0,2,-1,1.0,0.0,-inf"], "row 2: obligor AAA: expected_loss_declared must be finite, got -inf"),
    # 4.-8. exposure, mean rate, stddev, crop ratio, livestock ratio
    (["AAA,A,0,2,-1,2,2,"], "row 2: obligor AAA: exposure must be > 0, got 0.0"),
    (["AAA,A,1,2,-1,2,2,"], "row 2: obligor AAA: mean_loss_rate must be in [0, 1], got 2.0"),
    (["AAA,A,1,0.1,-1,2,2,"], "row 2: obligor AAA: loss_rate_stddev must be >= 0, got -1.0"),
    (["AAA,A,1,0.1,0.0,2,2,"], "row 2: obligor AAA: crop_ratio must be in [0, 1], got 2.0"),
    (["AAA,A,1,0.1,0.0,1.0,-1,"], "row 2: obligor AAA: livestock_ratio must be in [0, 1], got -1.0"),
    # a duplicate id only when every row passes
    (["AAA,A,1,0.1,0.0,1.0,0.0,", "AAA,B,1,0.1,0.0,1.0,0.0,", "CCC,C,0,0.1,0.0,1.0,0.0,"],
     "row 4: obligor CCC: exposure must be > 0, got 0.0"),
    (["AAA,A,1,0.1,0.0,1.0,0.0,", "AAA,B,1,0.1,0.0,1.0,0.0,"], "duplicate obligor id 'AAA'"),
    # a row of another length only when every row before it passes
    (["AAA,A,0,0.1,0.0,1.0,0.0,", "BBB,B,1,0.1"], "row 2: obligor AAA: exposure must be > 0, got 0.0"),
    (["AAA,A,1,0.1,0.0,1.0,0.0,", "BBB,B,1,0.1", "CCC,C,0,0.1,0.0,1.0,0.0,"], "row 3: expected 8 fields, got 4"),
]


@pytest.mark.parametrize("rows, message", PRECEDENCE)
def test_parse_error_precedence(rows, message):
    with pytest.raises(InputError) as raised:
        ar.parse_portfolio("\n".join([HEADER, *rows]) + "\n")
    assert str(raised.value) == message


def parse_outcome(parse, text):
    """A parser's result as comparable values, the float columns as bytes so that NaN compares; or its message."""
    try:
        p = parse(text)
    except InputError as error:
        return str(error)
    return (p.ids, p.names, *(getattr(p, f.name).tobytes() for f in fields(p)[2:]))


def refuse_row_pass(monkeypatch):
    """Make _parse_rows raise, so that a parse that falls back to it fails."""
    def refuse(csv_text):
        raise AssertionError("parse_portfolio fell back to _parse_rows")
    monkeypatch.setattr(portfolio_module, "_parse_rows", refuse)


# name pieces: quoting, doubled quotes, line breaks of each kind, a comment sign, whitespace that strip() removes
NAME_PIECES = ["a", "Bé", "農", " ", ",", '"', '""', "\n", "\r\n", "\r", "#", "\t", "x y", "\x1c"]
# cells float() reads and numpy's reader refuses, or that no reader accepts
ODD_CELLS = ["inf", "-inf", "nan", "1_000", "١", "٣.5", "", " ", "abc", "1e400", "0x1", "+.5", "1.5."]


def fuzz_document(rng: random.Random) -> str:
    """One portfolio CSV text: mostly well formed, with the syntax and faults the two readers might read apart."""
    def cell(value):
        value = rng.choice(ODD_CELLS) if rng.random() < 0.005 else value
        value = f'"{value}"' if rng.random() < 0.1 else value
        return rng.choice(["", "", " ", "\t"]) + value + rng.choice(["", "", " ", "\t"])

    def name():
        text, r = "".join(rng.choice(NAME_PIECES) for _ in range(rng.randrange(6))), rng.random()
        if r < 0.1:  # unquoted: a quote mid-cell, or text after a closing quote
            return text + rng.choice(["", '"x"', 'y"z'])
        quoted = '"' + text.replace('"', '""') + '"'
        return " " + quoted if r < 0.15 else quoted  # csv reads a quote after a space as text

    valid = [(), ("expected_loss",), ("rating",), ("expected_loss", "rating"), ("rating", "expected_loss")]
    extras = rng.choice(valid * 4 + [("surprise",), ("expected_loss", "expected_loss")])
    header = portfolio_module.CSV_COLUMNS + extras
    lines = [",".join(rng.choice(["", " "]) + h for h in header)]
    for i in range(rng.randrange(1, 9)):
        if rng.random() < 0.06:
            lines.append(rng.choice(["", "", "   ", "\t", ",,,,,,,", " , ,"]))
        crop = rng.random()
        cells = {
            "id": cell(f"O{rng.randrange(40) if rng.random() < 0.05 else i}"), "name": name(),
            "exposure": cell(repr(round(rng.lognormvariate(1, 1), rng.randrange(1, 8)))),
            "mean_loss_rate": cell(f"{rng.random() * 0.1:.{rng.randrange(1, 12)}f}"),
            "loss_rate_stddev": cell(repr(rng.random() * 0.05)),
            "crop_ratio": cell(repr(crop)), "livestock_ratio": cell(repr(1 - crop)),
            "expected_loss": rng.choice(["", "nan", " ", cell(repr(rng.random()))] + [repr(rng.random() * 10)] * 20),
            "rating": rng.choice(["A", "BB", '"B,b"', "", " C "]), "surprise": "x",
        }
        row = [cells[h] for h in header]
        lines.append(",".join(row[: -1 if rng.random() < 0.02 else None]))
    ending = rng.choice(["\n"] * 8 + ["\r\n"])
    return ending.join(lines) + rng.choice([ending, ""])


@pytest.mark.parametrize("seed", range(5))
def test_fast_path_matches_the_row_pass(seed, monkeypatch):
    # both readers give the same columns, NaN included, or the same message; counts keep the fuzz from degenerating
    rng, fast, refused = random.Random(seed), 0, 0
    row_pass = portfolio_module._parse_rows
    fallbacks = []
    monkeypatch.setattr(portfolio_module, "_parse_rows", lambda text: fallbacks.append(text) or row_pass(text))
    for _ in range(400):
        text = fuzz_document(rng)
        expected, fallbacks[:] = parse_outcome(row_pass, text), []
        assert parse_outcome(ar.parse_portfolio, text) == expected, text
        fast += not fallbacks
        refused += isinstance(expected, str)
    assert fast >= 40 and refused >= 40, (fast, refused)


def test_fast_path_taken(monkeypatch):
    # the C reader alone parses the bundled data and a 20,000-row book of awkward ids and names
    book = synthetic_book(20_000, seed=5)
    book = replace(book, expected_loss_declared=book.exposure * book.mean_loss_rate)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([*portfolio_module.CSV_COLUMNS, "expected_loss", "rating"])
    columns = (getattr(book, f.name).tolist() for f in fields(book)[2:])
    writer.writerows(map(list, zip(book.ids, book.names, *(map(repr, c) for c in columns), itertools.cycle("AB"))))
    refuse_row_pass(monkeypatch)
    assert parse_outcome(ar.parse_portfolio, out.getvalue()) == parse_outcome(lambda text: book, "")
    assert len(ar.load_portfolio(ar.bundled_dataset_path())) == 22


def test_blank_lines_read_without_a_warning(monkeypatch):
    text = f"{HEADER}\n\n{BGR_ROW}\n\r\n\nCYP,Cyprus,328.82,0.068,0.034,0.49,0.51,22.49\n\n"
    refuse_row_pass(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ar.parse_portfolio(text).ids == ("BGR", "CYP")


@pytest.mark.parametrize("length", [csv.field_size_limit(), csv.field_size_limit() + 1])
def test_field_size_limit_holds_on_both_paths(length):
    # csv refuses a field over its limit; the C reader has none, and hands such a file to the row pass
    text = f'{HEADER},rating\n{BGR_ROW},A\nCYP,"{"x" * length}",328.82,0.068,0.034,0.49,0.51,22.49,B\n'
    if length > csv.field_size_limit():
        with pytest.raises(InputError, match=rf"^row 3: malformed CSV: field larger than field limit \({length - 1}\)"):
            ar.parse_portfolio(text)
    else:
        assert ar.parse_portfolio(text).names == ("Bulgaria", "x" * length)


def test_bare_carriage_returns_name_the_row():
    with pytest.raises(InputError, match=r"^row 2: malformed CSV: new-line character seen in unquoted field"):
        ar.parse_portfolio(f"{HEADER}\n{BGR_ROW}\rCYP,Cyprus,328.82,0.068,0.034,0.49,0.51,22.49\r")


class TestRecordInvariants:
    def test_nonpositive_exposure_rejected(self):
        with pytest.raises(InputError):
            make_portfolio(exposure=0.0)

    def test_negative_stddev_rejected(self):
        with pytest.raises(InputError):
            make_portfolio(loss_rate_stddev=-0.1)

    def test_ratio_outside_unit_interval_rejected(self):
        with pytest.raises(InputError):
            make_portfolio(crop_ratio=1.2)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "column",
        ["exposure", "mean_loss_rate", "loss_rate_stddev", "crop_ratio", "livestock_ratio", "expected_loss"],
    )
    def test_non_finite_cell_rejected(self, column, text):
        cells = BGR_ROW.split(",")
        cells[HEADER.split(",").index(column)] = text
        with pytest.raises(InputError, match=rf"row 2: obligor BGR: {column}\w* must be finite"):
            ar.parse_portfolio(f"{HEADER}\n{','.join(cells)}\n")

    def test_empty_portfolio_rejected(self):
        with pytest.raises(InputError, match="empty portfolio"):
            ar.Portfolio((), (), *[()] * 6)

    @pytest.mark.parametrize(
        "field, value, message",
        [("exposure", 0.0, "exposure must be > 0, got 0.0"),
         ("mean_loss_rate", math.nan, "mean_loss_rate must be finite, got nan"),
         ("expected_loss_declared", math.inf, "expected_loss_declared must be finite, got inf"),
         ("livestock_ratio", -0.5, "livestock_ratio must be in [0, 1], got -0.5")],
    )
    def test_construction_names_the_first_bad_obligor(self, field, value, message):
        # parse_portfolio's rules and messages, without its row prefix
        with pytest.raises(InputError, match=rf"^obligor YYY: {re.escape(message)}$"):
            ar.Portfolio(**dict(TWO, **{field: [TWO[field][0], value]}))
        with pytest.raises(InputError, match=rf"^obligor XXX: {re.escape(message)}$"):
            ar.Portfolio(**dict(TWO, **{field: [value, value]}))

    def test_columns_become_float64_arrays(self):
        p = ar.Portfolio(**TWO)
        assert p.ids == ("XXX", "YYY") and p.names == ("X", "Y")
        for f in fields(ar.Portfolio)[2:]:
            column = getattr(p, f.name)
            assert column.dtype == np.float64 and column.tolist()[:1] == TWO[f.name][:1]
        assert math.isnan(p.expected_loss_declared[1])  # NaN: no declared expected loss

    @pytest.mark.parametrize("field", ["names", "exposure", "expected_loss_declared"])
    def test_columns_of_another_length_refused(self, field):
        with pytest.raises(InputError, match="^portfolio: ids, names and each numeric column need one entry per"):
            ar.Portfolio(**dict(TWO, **{field: TWO[field][:1]}))

    def test_empty_or_repeated_id_refused(self):
        with pytest.raises(InputError, match="^obligor id must be non-empty$"):
            ar.Portfolio(**dict(TWO, ids=("XXX", "")))
        with pytest.raises(InputError, match="^duplicate obligor id 'XXX'$"):
            ar.Portfolio(**dict(TWO, ids=("XXX", "XXX")))


def validate_reference(p: ar.Portfolio, tol: float) -> list:
    """validate_portfolio's rules, obligor by obligor in Python floats."""
    findings = []
    columns = (p.exposure, p.mean_loss_rate, p.crop_ratio, p.livestock_ratio, p.expected_loss_declared)
    for oid, x, rate, crop, livestock, declared in zip(p.ids, *(c.tolist() for c in columns)):
        if not math.isnan(declared) and abs(x * rate - declared) / max(declared, 1.0) > tol:
            message = f"exposure * mean_loss_rate = {x * rate:.6g} but declared expected loss is {declared:.6g}"
            findings.append(ar.ValidationFinding("expected_loss_mismatch", "error", oid, message))
        if not (1.0 - tol) <= crop + livestock <= (1.0 + tol):
            message = f"crop_ratio + livestock_ratio = {crop + livestock:.6g}; "
            message += "ratios are renormalized in crop-livestock mode"
            findings.append(ar.ValidationFinding("ratio_sum", "warning", oid, message))
    return findings


class TestValidate:
    def test_findings_match_a_loop_reference(self):
        rng = np.random.default_rng(5)
        n = 400
        exposure, rate = rng.lognormal(3.0, 1.5, n), rng.uniform(0.0, 0.1, n)
        declared = exposure * rate * rng.choice([1.0, 1.005, 1.5, 0.5, -1.0], n)
        declared[rng.random(n) < 0.2] = math.nan
        crop, livestock = rng.choice([0.3, 0.5, 0.6, 0.0], n), rng.choice([0.4, 0.5, 0.7, 1.0], n)
        p = ar.Portfolio(tuple(f"O{i}" for i in range(n)), ("x",) * n, exposure, rate, rate, crop, livestock, declared)
        for tol in (0.0, 0.003, 0.02, 0.3, 2.0):
            findings = ar.validate_portfolio(p, tol)
            assert findings == validate_reference(p, tol)
        assert {f.kind for f in ar.validate_portfolio(p, 0.003)} == {"expected_loss_mismatch", "ratio_sum"}

    def test_bulgaria_consistent(self):
        p = ar.parse_portfolio(f"{HEADER}\n{BGR_ROW}\n")
        assert ar.validate_portfolio(p, tol=0.02) == []

    def test_spain_mismatch_beyond_tight_tolerance(self):
        # 8494.09 * 0.0435 = 369.4929 vs declared 369.23: relative gap 7.12e-4
        row = "ESP,Spain,8494.09,0.0435,0.0248,0.64,0.36,369.23"
        p = ar.parse_portfolio(f"{HEADER}\n{row}\n")
        tight = ar.validate_portfolio(p, tol=5e-4)
        assert [f.kind for f in tight] == ["expected_loss_mismatch"]
        assert tight[0].severity == "error"
        assert ar.validate_portfolio(p, tol=0.02) == []

    def test_uk_ratio_sum_flagged(self):
        row = "UKI,UK,1398.33,0.0056,0.0116,0.44,0.60,7.83"
        p = ar.parse_portfolio(f"{HEADER}\n{row}\n")
        findings = ar.validate_portfolio(p, tol=0.02)
        assert [f.kind for f in findings] == ["ratio_sum"]
        assert findings[0].severity == "warning"

    def test_bundled_dataset_findings(self, bundled_portfolio):
        findings = ar.validate_portfolio(bundled_portfolio, tol=0.02)
        assert sorted(f.obligor_id for f in findings) == ["ELL", "HUN", "UKI"]
        assert all(f.kind == "ratio_sum" for f in findings)

    def test_bundled_total_expected_loss(self, bundled_portfolio):
        assert abs(bundled_portfolio.total_expected_loss - 1525.03) <= 0.5

    def test_totals_add_left_to_right(self, bundled_portfolio):
        # Python 3.12's builtin sum is compensated: it gave ...6131 here
        p = bundled_portfolio
        assert p.total_expected_loss == 1524.9400000566127
        assert p.total_expected_loss == functools.reduce(operator.add, (p.exposure * p.mean_loss_rate).tolist())
        assert p.total_exposure == functools.reduce(operator.add, p.exposure.tolist())


class TestDiscount:
    def test_zero_rate_is_exact_identity(self, bundled_portfolio):
        out = ar.discount_exposures(bundled_portfolio, ar.DiscountSpec(0.0, 5.0))
        assert out.exposure.tolist() == bundled_portfolio.exposure.tolist()

    def test_zero_horizon_is_exact_identity(self):
        p = make_portfolio(exposure=100.0)
        out = ar.discount_exposures(p, ar.DiscountSpec(0.05, 0.0))
        assert out.exposure[0] == 100.0

    def test_one_year_at_five_percent(self):
        p = make_portfolio(exposure=100.0)
        out = ar.discount_exposures(p, ar.DiscountSpec(0.05, 1.0))
        assert out.exposure[0] == pytest.approx(100.0 * math.exp(-0.05), rel=1e-15)

    def test_overflowing_exposure_refused_by_name(self, bundled_portfolio):
        # the factor e^709.5 is finite; the discounted portfolio is checked as it is built
        with pytest.raises(InputError, match=r"^obligor BGR: exposure must be finite, got inf$"):
            ar.discount_exposures(bundled_portfolio, ar.DiscountSpec(-0.5, 1419.0))

    def test_negative_horizon_rejected(self):
        with pytest.raises(InputError):
            ar.DiscountSpec(0.05, -1.0)

    @pytest.mark.parametrize(
        "rate, horizon",
        [(math.nan, 1.0), (0.05, math.inf), (-math.inf, 1.0), (-1.0, 1.0), (-1000.0, 1.0), (-0.5, 2000.0)],
    )
    def test_non_finite_rate_at_most_minus_one_or_overflowing_factor_rejected(self, rate, horizon):
        with pytest.raises(InputError):
            ar.DiscountSpec(rate, horizon)

    def test_rate_just_above_minus_one_accepted(self):
        assert ar.DiscountSpec(-0.999, 1.0).factor == pytest.approx(math.exp(0.999), rel=1e-15)

    def test_other_fields_unchanged(self, bundled_portfolio):
        out = ar.discount_exposures(bundled_portfolio, ar.DiscountSpec(0.03, 2.0))
        assert out.mean_loss_rate.tolist() == bundled_portfolio.mean_loss_rate.tolist()
        assert out.expected_loss_declared.tolist() == bundled_portfolio.expected_loss_declared.tolist()


class TestAssignSectors:
    def test_cyprus_crop_livestock_split(self):
        row = "CYP,Cyprus,328.82,0.0684,0.0340,0.49,0.51,22.49"
        p = ar.parse_portfolio(f"{HEADER}\n{row}\n")
        sectored = ar.assign_sectors(p, ar.SectorAssignment("crop-livestock"))
        amounts = {s.name: s.subs[0]["amount"] for s in sectored.sectors}
        assert amounts["crop"] == pytest.approx(161.1218, abs=1e-4)
        assert amounts["livestock"] == pytest.approx(167.6982, abs=1e-4)
        assert amounts["crop"] + amounts["livestock"] == pytest.approx(328.82, rel=1e-12)

    def test_single_mode_keeps_full_exposure(self, bundled_portfolio):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("single"))
        assert len(sectored.sectors) == 1
        assert sectored.sectors[0].name == "portfolio"
        assert sectored.sectors[0].subs["amount"].tolist() == bundled_portfolio.exposure.tolist()

    def test_per_obligor_cardinality(self, bundled_portfolio):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("per-obligor"))
        assert len(sectored.sectors) == 22
        p = bundled_portfolio
        rates = zip(p.mean_loss_rate.tolist(), p.loss_rate_stddev.tolist())
        for sector, oid, (mean, stddev) in zip(sectored.sectors, p.ids, rates):
            assert sector.name == oid
            assert sector.mean_rate == mean
            assert sector.stddev_rate == stddev

    def test_hungary_ratios_renormalized(self):
        row = "HUN,Hungary,3382.78,0.0096,0.0354,0.60,0.10,32.62"
        p = ar.parse_portfolio(f"{HEADER}\n{row}\n")
        sectored = ar.assign_sectors(p, ar.SectorAssignment("crop-livestock"))
        amounts = {s.name: s.subs[0]["amount"] for s in sectored.sectors}
        assert amounts["crop"] == pytest.approx(3382.78 * 6.0 / 7.0, rel=1e-12)
        assert amounts["livestock"] == pytest.approx(3382.78 / 7.0, rel=1e-12)

    @pytest.mark.parametrize("mode", ar.portfolio.SECTOR_MODES)
    def test_sub_exposures_sum_to_exposure(self, bundled_portfolio, mode):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode))
        sums = {oid: 0.0 for oid in sectored.obligor_ids}
        for sector in sectored.sectors:
            for sub in sector.subs:
                sums[sectored.obligor_ids[sub["obligor"]]] += sub["amount"]
        for oid, exposure in zip(bundled_portfolio.ids, bundled_portfolio.exposure.tolist()):
            assert sums[oid] == pytest.approx(exposure, rel=1e-9)

    def test_zero_mean_with_volatility_rejected(self):
        p = make_portfolio(mean_loss_rate=0.0, loss_rate_stddev=0.05)
        with pytest.raises(InputError, match="zero mean rate"):
            ar.assign_sectors(p, ar.SectorAssignment("per-obligor"))

    @pytest.mark.parametrize(
        "mean, stddev, message",
        [(0.0, 0.05, "zero mean rate with positive volatility"), (-0.01, 0.0, "rates must be nonnegative"),
         (0.02, -0.01, "rates must be nonnegative")],
    )
    def test_hand_built_sector_rates_refused(self, mean, stddev, message):
        # a zero mean rate must not band into a Poisson sector with its volatility dropped
        with pytest.raises(InputError, match=f"^sector 's': {message}"):
            ar.SectoredPortfolio(("s",), [mean], [stddev], ("A",), np.array([(0, 0, 100.0, mean)], ar.SUB_DTYPE))

    @pytest.mark.parametrize(
        "subs",
        [((0, 0, 100.0, 0.02),), np.array([100.0]), np.array([[(0, 0, 100.0, 0.02)]], ar.SUB_DTYPE),
         np.array([(0, 0, 100.0, 0.02)],
                  [("obligor", np.int32), ("sector", np.int64), ("amount", float), ("loss_rate", float)]),
         np.array([(100.0, 0, 0, 0.02)],
                  [("amount", float), ("obligor", np.int64), ("sector", np.int64), ("loss_rate", float)])],
        ids=["tuple", "float", "2-d", "int32-obligor", "field-order"],
    )
    def test_subs_of_another_dtype_refused(self, subs):
        with pytest.raises(InputError, match="^sectored portfolio: subs must be a 1-d array of"):
            ar.SectoredPortfolio(("s",), [0.02], [0.01], ("A",), subs)

    # three sectors s, t, u of obligors A and B, one sub each: the columns (names, mean, stddev, ids, subs)
    GOOD = (("s", "t", "u"), [0.02, 0.03, 0.04], [0.01, 0.0, 0.02], ("A", "B"),
            [(0, 0, 100.0, 0.02), (1, 1, 50.0, 0.03), (0, 2, 80.0, 0.04)])
    ORDER = r"^sub-exposure sector indexes must run in order within 0..2$"

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (1, [0.02, 0.03], r"^sectored portfolio: names, mean_rate and stddev_rate need one entry per sector$"),
            (2, [[0.01, 0.0, 0.02]], r"need one entry per sector$"),
            (4, [(0, 0, 100.0, 0.02), (1, 3, 50.0, 0.03)], ORDER),
            (4, [(0, -1, 100.0, 0.02)], ORDER),
            (4, [(0, 0, 100.0, 0.02), (1, 2, 50.0, 0.03), (0, 1, 80.0, 0.04)], ORDER),
            (1, [0.02, -0.01, 0.0], r"^sector 't': rates must be nonnegative$"),
            (2, [0.01, -0.5, 0.02], r"^sector 't': rates must be nonnegative$"),
            (1, [0.02, 0.03, 0.0], r"^sector 'u': zero mean rate with positive volatility has no gamma"),
            (2, [0.01, 0.01, -0.02], r"^sector 'u': rates must be nonnegative$"),
            (1, [0.0, 0.03, -0.01], r"^sector 's': zero mean rate with positive volatility has no gamma"),
        ],
        ids=["mean-length", "stddev-2d", "sector-above", "sector-below", "sector-order",
             "negative-mean", "negative-stddev", "zero-mean-volatile", "last-negative", "first-of-two"],
    )
    def test_construction_names_the_first_bad_sector(self, column, value, message):
        columns = list(self.GOOD)
        columns[column] = value
        columns[4] = np.array(columns[4], ar.SUB_DTYPE)
        with pytest.raises(InputError, match=message):
            ar.SectoredPortfolio(*columns)

    def test_columns_become_float64_arrays(self):
        sectored = ar.SectoredPortfolio(*self.GOOD[:4], np.array(self.GOOD[4], ar.SUB_DTYPE))
        assert sectored.names == ("s", "t", "u") and sectored.obligor_ids == ("A", "B")
        for rates in (sectored.mean_rate, sectored.stddev_rate):
            assert isinstance(rates, np.ndarray) and rates.dtype == np.float64
        assert [s.subs["amount"].tolist() for s in sectored.sectors] == [[100.0], [50.0], [80.0]]

    @pytest.mark.parametrize("mode", ar.portfolio.SECTOR_MODES)
    def test_subs_are_slices_of_one_table(self, bundled_portfolio, mode):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode))
        table = sectored.subs
        assert all(s.subs.base is table for s in sectored.sectors)
        assert np.concatenate([s.subs for s in sectored.sectors]).tobytes() == table.tobytes()
        ids = [sectored.obligor_ids[i] for i in table["obligor"]]
        rates = dict(zip(bundled_portfolio.ids, bundled_portfolio.mean_loss_rate.tolist()))
        assert table["loss_rate"].tolist() == [rates[oid] for oid in ids]

    def test_sector_rates_are_amount_weighted(self, bundled_portfolio):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("crop-livestock"))
        means, stddevs = bundled_portfolio.mean_loss_rate.tolist(), bundled_portfolio.loss_rate_stddev.tolist()
        for sector in sectored.sectors:
            amount = sector.subs["amount"]
            # the amount-weighted sums, added one sub at a time in table order
            weight = mean = stddev = 0.0
            for x, i in zip(amount.tolist(), sector.subs["obligor"].tolist()):
                weight, mean, stddev = weight + x, mean + x * means[i], stddev + x * stddevs[i]
            assert (sector.mean_rate, sector.stddev_rate) == (mean / weight, stddev / weight)

    def test_zero_ratios_cannot_split(self):
        p = make_portfolio(crop_ratio=0.0, livestock_ratio=0.0)
        with pytest.raises(InputError, match="cannot split"):
            ar.assign_sectors(p, ar.SectorAssignment("crop-livestock"))

    def test_override_unknown_sector_rejected(self, bundled_portfolio):
        assignment = ar.SectorAssignment("single", {"typo": (0.02, 0.01)})
        with pytest.raises(InputError, match="unknown sectors"):
            ar.assign_sectors(bundled_portfolio, assignment)

    def test_per_obligor_overrides_rejected(self):
        with pytest.raises(InputError, match="per-obligor"):
            ar.SectorAssignment("per-obligor", {"XXX": (0.02, 0.01)})

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError, match="unknown sector mode"):
            ar.SectorAssignment("triple")

    def test_sector_rate_override_applies(self, bundled_portfolio):
        assignment = ar.SectorAssignment("crop-livestock", {"crop": (0.03, 0.011)})
        sectored = ar.assign_sectors(bundled_portfolio, assignment)
        rates = {s.name: (s.mean_rate, s.stddev_rate) for s in sectored.sectors}
        assert rates["crop"] == (0.03, 0.011)
        assert rates["livestock"] != (0.03, 0.011)


class TestSectorViews:
    """The Sector and BandedSector views, built on demand, against the columns they are built from."""

    @pytest.mark.parametrize("mode", ar.portfolio.SECTOR_MODES)
    @pytest.mark.parametrize("book", ["bundled", "book-200"])
    def test_views_match_the_columns(self, bundled_portfolio, mode, book):
        portfolio = bundled_portfolio if book == "bundled" else synthetic_book(200, 17)
        sectored = ar.assign_sectors(portfolio, ar.SectorAssignment(mode))
        banded = ar.band_exposures(sectored, 1.0)
        views = sectored.sectors
        assert [s.name for s in views] == list(sectored.names) == list(banded.names)
        assert [s.mean_rate for s in views] == sectored.mean_rate.tolist()
        assert [s.stddev_rate for s in views] == sectored.stddev_rate.tolist()
        assert all(s.subs.base is sectored.subs and np.all(s.subs["sector"] == k) for k, s in enumerate(views))
        assert b"".join(s.subs.tobytes() for s in views) == sectored.subs.tobytes()
        banded_views = banded.sectors
        assert [s.name for s in banded_views] == list(banded.names)
        assert [s.params.cv for s in banded_views] == banded.cv.tolist()
        assert [s.params.is_poisson for s in banded_views] == (banded.cv == 0.0).tolist()
        merged: dict = {}  # (sector, level) -> epsilon, added in table order
        for k, v, eps in zip(banded.sub_sector.tolist(), banded.sub_level.tolist(), banded.sub_epsilon.tolist()):
            merged[k, v] = merged.get((k, v), 0.0) + eps
        got = {(k, b.v): b.epsilon for k, s in enumerate(banded_views) for b in s.bands}
        assert got == merged
        assert all([b.v for b in s.bands] == sorted(b.v for b in s.bands) for s in banded_views)
