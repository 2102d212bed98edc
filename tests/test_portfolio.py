import math

import numpy as np
import pytest

import agririsk as ar
from agririsk.errors import InputError

from conftest import HEADER

BGR_ROW = "BGR,Bulgaria,800.12,0.0312,0.0072,0.65,0.35,24.96"


def make_obligor(**overrides):
    fields = dict(
        id="XXX", name="Test", exposure=100.0, mean_loss_rate=0.02,
        loss_rate_stddev=0.01, crop_ratio=0.5, livestock_ratio=0.5,
    )
    fields.update(overrides)
    return ar.ObligorRecord(**fields)


class TestParse:
    def test_single_row(self):
        p = ar.parse_portfolio(f"{HEADER}\n{BGR_ROW}\n")
        o = p.obligors[0]
        assert o.id == "BGR"
        assert o.name == "Bulgaria"
        assert o.exposure == 800.12
        assert o.mean_loss_rate == 0.0312
        assert o.loss_rate_stddev == 0.0072
        assert o.expected_loss_declared == 24.96

    def test_header_only_is_empty_portfolio(self):
        with pytest.raises(InputError, match="empty portfolio"):
            ar.parse_portfolio(HEADER + "\n")

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
        assert p.obligors[0].expected_loss_declared is None

    def test_rating_column_parsed_and_ignored(self):
        text = f"{HEADER},rating\nAAA,A,100,0.1,0.0,1.0,0.0,10.0,BB+\n"
        p = ar.parse_portfolio(text)
        assert p.obligors[0].exposure == 100.0

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


class TestRecordInvariants:
    def test_nonpositive_exposure_rejected(self):
        with pytest.raises(InputError):
            make_obligor(exposure=0.0)

    def test_negative_stddev_rejected(self):
        with pytest.raises(InputError):
            make_obligor(loss_rate_stddev=-0.1)

    def test_ratio_outside_unit_interval_rejected(self):
        with pytest.raises(InputError):
            make_obligor(crop_ratio=1.2)

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
            ar.Portfolio(obligors=())


class TestValidate:
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


class TestDiscount:
    def test_zero_rate_is_exact_identity(self, bundled_portfolio):
        out = ar.discount_exposures(bundled_portfolio, ar.DiscountSpec(0.0, 5.0))
        assert [o.exposure for o in out] == [o.exposure for o in bundled_portfolio]

    def test_zero_horizon_is_exact_identity(self):
        p = ar.Portfolio(obligors=(make_obligor(exposure=100.0),))
        out = ar.discount_exposures(p, ar.DiscountSpec(0.05, 0.0))
        assert out.obligors[0].exposure == 100.0

    def test_one_year_at_five_percent(self):
        p = ar.Portfolio(obligors=(make_obligor(exposure=100.0),))
        out = ar.discount_exposures(p, ar.DiscountSpec(0.05, 1.0))
        assert out.obligors[0].exposure == pytest.approx(100.0 * math.exp(-0.05), rel=1e-15)

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
        for before, after in zip(bundled_portfolio, out):
            assert after.mean_loss_rate == before.mean_loss_rate
            assert after.expected_loss_declared == before.expected_loss_declared


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
        assert sectored.sectors[0].subs["amount"].tolist() == [o.exposure for o in bundled_portfolio]

    def test_per_obligor_cardinality(self, bundled_portfolio):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("per-obligor"))
        assert len(sectored.sectors) == 22
        for sector, obligor in zip(sectored.sectors, bundled_portfolio):
            assert sector.name == obligor.id
            assert sector.mean_rate == obligor.mean_loss_rate
            assert sector.stddev_rate == obligor.loss_rate_stddev

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
        for obligor in bundled_portfolio:
            assert sums[obligor.id] == pytest.approx(obligor.exposure, rel=1e-9)

    def test_zero_mean_with_volatility_rejected(self):
        p = ar.Portfolio(obligors=(make_obligor(mean_loss_rate=0.0, loss_rate_stddev=0.05),))
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
            ar.Sector("s", mean, stddev, np.array([(0, 100.0, mean)], ar.SUB_DTYPE))

    @pytest.mark.parametrize(
        "subs",
        [((0, 100.0, 0.02),), np.array([100.0]), np.array([[(0, 100.0, 0.02)]], ar.SUB_DTYPE),
         np.array([(0, 100.0, 0.02)], [("obligor", np.int32), ("amount", float), ("loss_rate", float)]),
         np.array([(100.0, 0, 0.02)], [("amount", float), ("obligor", np.int64), ("loss_rate", float)])],
        ids=["tuple", "float", "2-d", "int32-obligor", "field-order"],
    )
    def test_subs_of_another_dtype_refused(self, subs):
        with pytest.raises(InputError, match="^sector 's': subs must be a 1-d array of"):
            ar.Sector("s", 0.02, 0.01, subs)

    @pytest.mark.parametrize("mode", ar.portfolio.SECTOR_MODES)
    def test_subs_are_slices_of_one_table(self, bundled_portfolio, mode):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode))
        table = sectored.sectors[0].subs.base
        assert all(s.subs.base is table for s in sectored.sectors)
        assert np.concatenate([s.subs for s in sectored.sectors]).tobytes() == table.tobytes()
        ids = [sectored.obligor_ids[i] for i in table["obligor"]]
        rates = {o.id: o.mean_loss_rate for o in bundled_portfolio}
        assert table["loss_rate"].tolist() == [rates[oid] for oid in ids]

    def test_sector_rates_are_amount_weighted(self, bundled_portfolio):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("crop-livestock"))
        obligors = bundled_portfolio.obligors
        for sector in sectored.sectors:
            amount = sector.subs["amount"]
            members = [obligors[i] for i in sector.subs["obligor"]]
            # the amount-weighted sums, added one sub at a time in table order
            weight = mean = stddev = 0.0
            for x, o in zip(amount.tolist(), members):
                weight, mean, stddev = weight + x, mean + x * o.mean_loss_rate, stddev + x * o.loss_rate_stddev
            assert (sector.mean_rate, sector.stddev_rate) == (mean / weight, stddev / weight)

    def test_zero_ratios_cannot_split(self):
        p = ar.Portfolio(obligors=(make_obligor(crop_ratio=0.0, livestock_ratio=0.0),))
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
