"""Trade-off analysis: mAP aggregation, Pareto fronts, latency projection."""
import json
import re
from fractions import Fraction

import pytest

from pillarcost.analysis import (
    AnalysisError, DesignPoint, TimingProfile, amdahl, amdahl_max,
    default_dataset_path, fmt2, load_points, map_of, pareto_front, project_fps,
    ratio_table,
)

CLASSES = ("Car", "Pedestrian", "Cyclist")
DIFFS = ("Easy", "Moderate", "Hard")


MALFORMED_JSON = {"too_deep": "[" * 100_000, "int_over_digit_limit": "[" + "9" * 5000 + "]",
                  "truncated": "{", "empty": ""}


def point(name, gmadds, ap_value, **kw):
    ap = {(c, d): Fraction(ap_value) for c in CLASSES for d in DIFFS}
    return DesignPoint(name=name, gmadds=Fraction(gmadds), ap=ap, **kw)


class TestRound2:
    """``fmt2`` rounds half up to two decimals, exactly at any size."""

    @pytest.mark.parametrize("value,expect", [
        (Fraction(1, 3), 0.33), (Fraction(2, 3), 0.67),
        (Fraction(1, 8), 0.13), (Fraction(5, 2), 2.5),
        (2.675, 2.68), (1.605, 1.61),
    ])
    def test_half_up(self, value, expect):
        assert fmt2(value) == f"{expect:.2f}"

    @pytest.mark.parametrize("value,text", [
        (10 ** 25 + 7 + Fraction(1, 8), "10000000000000000000000007.13"),
        (Fraction(1249999999999999999999999999999, 10 ** 31), "0.12"),
    ])
    def test_rounds_the_exact_value_not_a_28_digit_quotient(self, value, text):
        assert fmt2(value) == text

    @pytest.mark.parametrize("whole_digits", [26, 27, 28, 40, 300])
    def test_a_value_of_any_size_rounds_half_up(self, whole_digits):
        whole = 10 ** (whole_digits - 1) + 7
        for cents, expect in ((Fraction(1, 8), 13), (Fraction(1, 200), 1),
                              (Fraction(9999, 10000), 100)):
            total = 100 * whole + expect
            want = f"{total // 100}.{total % 100:02d}"
            assert fmt2(whole + cents) == want
            assert fmt2(-whole - cents) == "-" + want

    def test_a_value_past_the_float_range_prints_its_digits(self):
        assert fmt2(10 ** 5000 + Fraction(1, 8)) == "1" + "0" * 5000 + ".13"


class TestDesignPoint:
    def test_rejects_non_positive_cost(self):
        with pytest.raises(AnalysisError):
            point("x", 0, 50)
        # nan is not <= 0 either; pareto_front would put it on the front, and
        # ratio_table cannot take the exact ratio of inf
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(AnalysisError, match="^x: gmadds must be positive$"):
                DesignPoint("x", value)
        # finite however large: compared exactly, not through a float
        assert DesignPoint("x", Fraction(10 ** 400)).gmadds == 10 ** 400

    def test_rejects_out_of_range_ap(self):
        with pytest.raises(AnalysisError):
            point("x", 1, 101)

    def test_keeps_its_own_copy_of_the_ap_dict(self):
        ap = {(c, d): Fraction(50) for c in CLASSES for d in DIFFS}
        checked = DesignPoint(name="x", gmadds=Fraction(1), ap=ap)
        ap[("Car", "Easy")] = Fraction(1000)  # out of range, after the check
        assert checked.ap[("Car", "Easy")] == 50
        assert map_of(checked) == 50

    @pytest.mark.parametrize("field", ["fps_backbone", "fps_total"])
    @pytest.mark.parametrize("value", [0, -5, Fraction(-1, 2), float("nan"), float("inf")],
                             ids=["zero", "minus5", "minus_half", "nan", "inf"])
    def test_rejects_non_positive_fps(self, field, value):
        with pytest.raises(AnalysisError, match=f"^x: {field} must be positive$"):
            point("x", 1, 50, **{field: value})
        for allowed in (None, Fraction(1, 100)):  # a missing value, a small one
            assert getattr(point("x", 1, 50, **{field: allowed}), field) == allowed


class TestMapOf:
    def test_class_scope_averages_three_cells(self):
        p = DesignPoint("x", Fraction(1), {
            ("Car", "Easy"): Fraction(90), ("Car", "Moderate"): Fraction(60),
            ("Car", "Hard"): Fraction(30)})
        assert map_of(p, "car") == 60
        assert map_of(p, "Car") == 60

    def test_overall_averages_nine_cells(self):
        assert map_of(point("x", 1, 42), "overall") == 42

    def test_missing_cell_reported(self):
        p = DesignPoint("x", Fraction(1), {("Car", "Easy"): Fraction(90)})
        with pytest.raises(AnalysisError, match=r"^x: missing AP entry \('Car', 'Moderate'\)$"):
            map_of(p, "car")

    def test_unknown_scope_rejected(self):
        with pytest.raises(AnalysisError):
            map_of(point("x", 1, 42), "truck")


class TestParetoFront:
    def test_dominated_point_excluded(self):
        pts = [point("cheap_good", 1, 60), point("dear_bad", 2, 50)]
        assert pareto_front(pts) == ["cheap_good"]

    def test_trade_off_keeps_both(self):
        pts = [point("cheap_bad", 1, 50), point("dear_good", 2, 60)]
        assert pareto_front(pts) == ["cheap_bad", "dear_good"]

    def test_equal_accuracy_keeps_cheaper_only(self):
        pts = [point("cheap", 1, 50), point("dear", 2, 50)]
        assert pareto_front(pts) == ["cheap"]

    def test_exact_duplicates_both_survive(self):
        pts = [point("a", 1, 50), point("b", 1, 50)]
        assert sorted(pareto_front(pts)) == ["a", "b"]

    def test_sorted_by_ascending_cost(self):
        pts = [point("dear", 3, 70), point("mid", 2, 60), point("cheap", 1, 50)]
        assert pareto_front(pts) == ["cheap", "mid", "dear"]

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            pareto_front([])


class TestAmdahl:
    def test_formula(self):
        assert amdahl(Fraction(1, 2), 2) == Fraction(4, 3)
        assert amdahl(Fraction(7, 10), 7) == Fraction(5, 2)

    def test_limit(self):
        assert amdahl_max(Fraction(1, 2)) == 2
        assert amdahl(Fraction(1, 2), float("inf")) == 2

    def test_monotone_in_stage_speedup(self):
        values = [amdahl(Fraction(2, 5), s) for s in (1, 2, 4, 8)]
        assert values == sorted(values)
        assert all(v < amdahl_max(Fraction(2, 5)) for v in values[1:])

    # Fraction refuses nan (ValueError) and the infinities (OverflowError)
    @pytest.mark.parametrize("p", [0, 1, Fraction(3, 2), -1, float("nan"), float("-inf"),
                                   float("inf")])
    def test_fraction_domain(self, p):
        with pytest.raises(AnalysisError, match=rf"^stage fraction must be in \(0, 1\), got {p}$"):
            amdahl_max(p)
        with pytest.raises(AnalysisError, match=rf"^stage fraction must be in \(0, 1\), got {p}$"):
            amdahl(p, 2)

    def test_speedup_domain(self):
        with pytest.raises(AnalysisError, match="^stage speedup must be positive, got 0$"):
            amdahl(Fraction(1, 2), 0)

    @pytest.mark.parametrize("speedup", [float("-inf"), float("nan")], ids=["-inf", "nan"])
    def test_nan_or_minus_infinite_speedup_is_refused(self, speedup):
        # Fraction raises OverflowError for -inf and ValueError for nan
        with pytest.raises(AnalysisError,
                           match=f"^stage speedup must be positive, got {speedup}$"):
            amdahl(Fraction(1, 2), speedup)


def profile(**fractions):
    return TimingProfile({k: Fraction(v) for k, v in fractions.items()},
                         base_latency_ms=Fraction(100))


class TestTimingProfile:
    def test_base_fps(self):
        assert profile(backbone="7/10").base_fps == 10

    def test_fractions_must_stay_within_budget(self):
        with pytest.raises(AnalysisError):
            profile(a="3/5", b="3/5")
        with pytest.raises(AnalysisError):
            profile(a=0)

    @pytest.mark.parametrize("latency", ["0", "-1", "-0.5"])
    def test_base_latency_must_be_positive(self, tmp_path, latency):
        # nan would project nan fps, and inf 0 fps
        for value in (Fraction(latency), float("nan"), float("inf")):
            with pytest.raises(AnalysisError, match="^base latency must be positive$"):
                TimingProfile({"backbone": Fraction(1, 2)}, base_latency_ms=value)
        path = tmp_path / "timing.json"
        path.write_text(f'{{"stage_fractions": {{"backbone": 0.5}}, '
                        f'"base_latency_ms": {latency}}}')
        with pytest.raises(AnalysisError) as info:
            TimingProfile.from_file(path)
        assert str(info.value) == f"{path}: bad timing profile: base latency must be positive"

    @pytest.mark.parametrize("latency, fps", [("0.5", 2000), ('"1/1000"', 10 ** 6)])
    def test_a_base_latency_under_one_ms_loads(self, tmp_path, latency, fps):
        # positive is the only bound: 0 is refused above, 0.5 ms is 2000 fps
        path = tmp_path / "timing.json"
        path.write_text(f'{{"stage_fractions": {{"backbone": 0.5}}, '
                        f'"base_latency_ms": {latency}}}')
        assert TimingProfile.from_file(path).base_fps == fps
        assert TimingProfile({}, Fraction(latency.strip('"'))).base_fps == fps

    def test_keeps_its_own_copy_of_the_fractions_dict(self):
        fractions = {"backbone": Fraction(1, 2), "head": Fraction(1, 4)}
        prof = TimingProfile(fractions, base_latency_ms=Fraction(100))
        fractions["backbone"] = Fraction(-1)  # negative, after the check
        fractions["head"] = Fraction(9, 10)  # and a sum over 1
        assert prof.stage_fractions == {"backbone": Fraction(1, 2), "head": Fraction(1, 4)}
        assert project_fps(prof, {"backbone": float("inf")}) == 20  # head and the rest

    def test_from_file(self, tmp_path):
        path = tmp_path / "timing.json"
        path.write_text(json.dumps({
            "base_latency_ms": 200, "stage_fractions": {"backbone": 0.5}}))
        prof = TimingProfile.from_file(path)
        assert prof.base_fps == 5
        assert prof.stage_fractions["backbone"] == Fraction(1, 2)

    def test_bad_file_reported(self, tmp_path):
        path = tmp_path / "timing.json"
        path.write_text("{}")
        with pytest.raises(AnalysisError):
            TimingProfile.from_file(path)

    def test_key_given_twice_reported(self, tmp_path):
        path = tmp_path / "timing.json"
        path.write_text('{"stage_fractions": {"backbone": 0.9, "backbone": 0.1}, '
                        '"base_latency_ms": 10}')
        with pytest.raises(AnalysisError) as info:
            TimingProfile.from_file(path)
        assert str(info.value) == f"{path}: key 'backbone' given twice"

    @pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON.keys())
    def test_malformed_json_reported_naming_the_path(self, tmp_path, text):
        path = tmp_path / "timing.json"
        path.write_text(text)
        with pytest.raises(AnalysisError, match=f"^{re.escape(str(path))}: malformed JSON: "):
            TimingProfile.from_file(path)

    @pytest.mark.parametrize("fraction, latency", [
        ('"abc"', "5"), ('"1/0"', "5"), ("NaN", "5"), ("0.5", "Infinity"),
    ])
    def test_value_that_is_not_a_fraction_reported(self, tmp_path, fraction, latency):
        path = tmp_path / "timing.json"
        path.write_text(f'{{"stage_fractions": {{"backbone": {fraction}}}, '
                        f'"base_latency_ms": {latency}}}')
        with pytest.raises(AnalysisError, match="bad timing profile"):
            TimingProfile.from_file(path)

    @pytest.mark.parametrize("fraction, latency", [
        ("1e-99999999", "5"), ("0.5", "1e99999999"), ('"1e-99999999"', "5"),
        ("0.5", '"1e99999999"'),
    ], ids=["fraction", "latency", "fraction_string", "latency_string"])
    def test_huge_decimal_exponent_reported(self, tmp_path, fraction, latency):
        path = tmp_path / "timing.json"
        path.write_text(f'{{"stage_fractions": {{"backbone": {fraction}}}, '
                        f'"base_latency_ms": {latency}}}')
        with pytest.raises(AnalysisError, match="'1e-?99999999' has a decimal exponent "
                                                "over 4300") as info:
            TimingProfile.from_file(path)
        assert str(info.value).startswith(f"{path}: ") and "\n" not in str(info.value)


class TestProjectFps:
    def test_matches_amdahl_for_single_stage(self):
        prof = profile(backbone="7/10", other="3/10")
        fps = project_fps(prof, {"backbone": 2})
        assert fps / prof.base_fps == amdahl(Fraction(7, 10), 2)

    def test_unprofiled_remainder_keeps_its_time(self):
        prof = profile(backbone="1/2")  # half the pipeline is unprofiled
        assert project_fps(prof, {"backbone": float("inf")}) == 20

    def test_unknown_stage_rejected(self):
        with pytest.raises(AnalysisError, match="^stage 'nms' not in timing profile$"):
            project_fps(profile(backbone="1/2"), {"nms": 2})

    def test_non_positive_speedup_rejected(self):
        with pytest.raises(AnalysisError, match="^stage 'backbone' speedup must be positive$"):
            project_fps(profile(backbone="1/2"), {"backbone": 0})

    @pytest.mark.parametrize("speedup", [float("-inf"), float("nan")], ids=["-inf", "nan"])
    def test_nan_or_minus_infinite_speedup_is_refused(self, speedup):
        with pytest.raises(AnalysisError, match="^stage 'backbone' speedup must be positive$"):
            project_fps(profile(backbone="1/2"), {"backbone": speedup})

    def test_everything_accelerated_away_rejected(self):
        prof = TimingProfile({"all": Fraction(1)}, Fraction(100))
        with pytest.raises(AnalysisError, match="^all pipeline time was accelerated away$"):
            project_fps(prof, {"all": float("inf")})


class TestRatioTable:
    def test_gmadds_ratio_is_base_over_x(self):
        pts = [point("base", 10, 50), point("lean", 2, 50)]
        assert ratio_table(pts, "gmadds")["lean"] == 5

    def test_fps_ratio_is_x_over_base(self):
        pts = [point("base", 10, 50, fps_total=Fraction(40)),
               point("lean", 2, 50, fps_total=Fraction(60))]
        table = ratio_table(pts, "fps_total")
        assert table["lean"] == Fraction(3, 2)
        assert table["base"] == 1

    def test_missing_metric_reported(self):
        pts = [point("base", 10, 50), point("lean", 2, 50)]
        with pytest.raises(AnalysisError, match="^base: metric 'fps_total' not measured$"):
            ratio_table(pts, "fps_total")
        with pytest.raises(AnalysisError, match=r"^unknown metric 'latency'; use one of "
                                                r"\('gmadds', 'fps_backbone', 'fps_total'\)$"):
            ratio_table(pts, "latency")

    def test_missing_base_reported(self):
        with pytest.raises(AnalysisError):
            ratio_table([point("lean", 2, 50)], "gmadds")


class TestLoadPoints:
    def test_shipped_dataset_loads(self):
        pts = load_points(default_dataset_path())
        assert len(pts) == 11
        by_name = {p.name: p for p in pts}
        assert by_name["base"].gmadds == Fraction("34.91")
        assert by_name["base"].ap[("Car", "Moderate")] == Fraction("73.88")

    def test_bare_list_accepted(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([{"name": "only", "gmadds": 1.5}]))
        (p,) = load_points(path)
        assert p.gmadds == Fraction("1.5")

    def test_bad_record_reported(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([{"name": "broken"}]))
        with pytest.raises(AnalysisError):
            load_points(path)

    def test_repeated_name_reported(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([{"name": "a", "gmadds": 1}, {"name": "b", "gmadds": 2},
                                    {"name": "a", "gmadds": 100}]))
        with pytest.raises(AnalysisError) as info:
            load_points(path)
        assert str(info.value) == f"{path}: design point name 'a' is given twice"

    def test_empty_dataset_reported(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text("[]")
        with pytest.raises(AnalysisError):
            load_points(path)

    @pytest.mark.parametrize("text, key", [
        ('[{"name": "base", "gmadds": 63.4, "gmadds": 1.0}]', "gmadds"),
        ('{"points": [], "points": [{"name": "a", "gmadds": 1}]}', "points"),
        ('[{"name": "a", "gmadds": 1, "ap": {"Car": {"Easy": 80, "Easy": 10}}}]', "Easy"),
    ], ids=["field", "top_level", "ap_cell"])
    def test_key_given_twice_reported(self, tmp_path, text, key):
        path = tmp_path / "pts.json"
        path.write_text(text)
        with pytest.raises(AnalysisError) as info:
            load_points(path)
        assert str(info.value) == f"{path}: key {key!r} given twice"

    @pytest.mark.parametrize("alias", ["Mod", "Mod."])
    def test_ap_cell_given_twice_through_an_alias_reported(self, tmp_path, alias):
        # "Mod" and "Mod." name the "Moderate" cell
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([{"name": "a", "gmadds": 1, "ap": {"Car": {
            "Easy": 80, alias: 70, "Moderate": 10, "Hard": 60}}}]))
        with pytest.raises(AnalysisError) as info:
            load_points(path)
        assert str(info.value) == (f"{path}: bad design point record: "
                                   "AP cell ('Car', 'Moderate') is given twice")

    @pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON.keys())
    def test_malformed_json_reported_naming_the_path(self, tmp_path, text):
        path = tmp_path / "pts.json"
        path.write_text(text)
        with pytest.raises(AnalysisError, match=f"^{re.escape(str(path))}: malformed JSON: "):
            load_points(path)

    @pytest.mark.parametrize("record", [
        '{"name": "x", "gmadds": Infinity}', '{"name": "x", "gmadds": "1/0"}',
        '{"name": "x", "gmadds": 1, "fps_total": NaN}',
        '{"name": ["x"], "gmadds": 1}', '{"name": 7, "gmadds": 1}',
    ], ids=["inf_gmadds", "zero_denominator", "nan_fps", "list_name", "int_name"])
    def test_bad_value_reported(self, tmp_path, record):
        path = tmp_path / "pts.json"
        path.write_text(f"[{record}]")
        with pytest.raises(AnalysisError, match="bad design point record"):
            load_points(path)

    @pytest.mark.parametrize("record", [
        '{"name": "x", "gmadds": 1e99999999}', '{"name": "x", "gmadds": "1e99999999"}',
        '{"name": "x", "gmadds": 1, "ap": {"Car": {"Easy": 1e-99999999}}}',
        '{"name": "x", "gmadds": 1, "fps_total": "1e-99999999"}',
    ], ids=["gmadds", "gmadds_string", "ap", "fps_string"])
    def test_huge_decimal_exponent_reported(self, tmp_path, record):
        path = tmp_path / "pts.json"
        path.write_text(f"[{record}]")
        with pytest.raises(AnalysisError, match="'1e-?99999999' has a decimal exponent "
                                                "over 4300") as info:
            load_points(path)
        assert str(info.value).startswith(f"{path}: ") and "\n" not in str(info.value)
