"""End-to-end acceptance checks against the published measurement tables.

Each test family states its tolerance inline. Reconstructed network costs
are checked in bands (unpublished configuration details make exact equality
impossible); pure table arithmetic is checked at rounding precision.
"""
import math
from fractions import Fraction

import pytest

from pillarcost.analysis import (
    TimingProfile, amdahl_max, default_dataset_path, load_points, map_of,
    fmt2, pareto_front, project_fps, ratio_table,
)
from pillarcost.arch import Variant, build_pointpillars
from pillarcost.cost import graph_cost
from pillarcost.graph import Conv, TensorShape
from pillarcost.shapes import NegativeOutputDim, infer_all, node_output_shape
from pillarcost.svg import render_scatter

POINTS = load_points(default_dataset_path())
BY_NAME = {p.name: p for p in POINTS}

# printed mAP table: variant -> (Overall, Car, Pedestrian, Cyclist)
PRINTED_MAP = {
    "base":         (62.04, 75.92, 45.46, 64.73),
    "CSPDarknet":   (62.37, 76.71, 44.98, 65.42),
    "Darknet":      (60.80, 76.28, 41.12, 65.00),
    "MobilenetV1":  (61.12, 74.63, 45.30, 63.42),
    "MobilenetV2":  (60.35, 74.96, 43.78, 62.31),
    "ResNet":       (60.92, 75.37, 42.94, 64.45),
    "ResNeXt":      (59.96, 75.53, 42.40, 61.95),
    "ShufflenetV1": (59.74, 74.84, 42.98, 61.74),
    "ShufflenetV2": (58.50, 74.30, 39.15, 62.06),
    "SqueezeNext":  (52.19, 66.81, 39.34, 50.43),
    "Xception":     (61.12, 76.13, 41.56, 65.66),
}

# printed speedup columns: variant -> (MAdd-Su, fps-B-Su, fps-Su)
PRINTED_RATIOS = {
    "base":         (1.00, 1.00, 1.00),
    "CSPDarknet":   (1.74, 1.00, 0.97),
    "Darknet":      (1.48, 1.02, 1.02),
    "MobilenetV1":  (3.95, 1.52, 1.11),
    "MobilenetV2":  (3.95, 1.50, 1.14),
    "ResNet":       (2.84, 1.35, 1.08),
    "ResNeXt":      (2.84, 1.16, 1.02),
    "ShufflenetV1": (3.57, 1.26, 1.06),
    "ShufflenetV2": (4.48, 1.56, 1.13),
    "SqueezeNext":  (2.38, 0.68, 0.81),
    "Xception":     (3.26, 1.03, 0.99),
}

SCOPE_COLUMN = {"overall": 0, "car": 1, "pedestrian": 2, "cyclist": 3}


# -- 1. mAP aggregation: all 44 printed cells within +-0.01 -----------------

@pytest.mark.parametrize("scope", list(SCOPE_COLUMN))
@pytest.mark.parametrize("name", sorted(PRINTED_MAP))
def test_map_table_cell_matches_printed_value(name, scope):
    printed = PRINTED_MAP[name][SCOPE_COLUMN[scope]]
    computed = float(fmt2(map_of(BY_NAME[name], scope)))
    assert computed == pytest.approx(printed, abs=0.01), \
        f"{name}/{scope}: recomputed {computed}, printed {printed}"


# -- 2. Pareto fronts: exact set equality -----------------------------------

@pytest.mark.parametrize("scope,expected", [
    ("overall", {"ShufflenetV2", "MobilenetV1", "CSPDarknet"}),
    ("car", {"ShufflenetV2", "MobilenetV2", "Xception", "CSPDarknet"}),
    ("pedestrian", {"ShufflenetV2", "MobilenetV1", "base"}),
    ("cyclist", {"ShufflenetV2", "MobilenetV1", "Xception"}),
])
def test_pareto_front_sets(scope, expected):
    assert set(pareto_front(POINTS, scope)) == expected


# -- 3. Base network reconstruction: params +-7%, MAdd +-12% ----------------

def test_base_reconstruction_within_bands():
    report = graph_cost(build_pointpillars(Variant.BASE))
    target_params = 4.83e6
    target_madds = 34.91e9
    print("\nreconstructed base network, per stage:")
    print(f"{'stage':<10} {'MAdd':>16} {'params':>10}")
    for stage, (madds, params) in sorted(report.per_stage().items()):
        print(f"{stage:<10} {madds:>16} {params:>10}")
    madd_dev = report.total_madds / target_madds - 1
    param_dev = report.total_params / target_params - 1
    print(f"total MAdd   {report.total_madds} ({madd_dev:+.2%} vs 34.91e9)")
    print(f"total params {report.total_params} ({param_dev:+.2%} vs 4.83e6)")
    assert abs(param_dev) <= 0.07
    assert abs(madd_dev) <= 0.12


# -- 4. Reconstructed MAdd speedups: ordering + pinned values +-15% ---------

def reconstructed_madds():
    return {v.value: graph_cost(build_pointpillars(v)).total_madds
            for v in Variant}


def test_reconstructed_madd_ordering_matches_printed_column():
    ours = reconstructed_madds()
    printed = {name: BY_NAME[name].gmadds for name in ours}
    # same ranking; printed ties (MobilenetV1/V2) may land in either order
    ours_order = sorted(ours, key=lambda n: (ours[n], n))
    printed_order = sorted(printed, key=lambda n: (printed[n], n))
    assert ours_order == printed_order


@pytest.mark.parametrize("name,printed", [
    ("CSPDarknet", 1.74), ("MobilenetV1", 3.95), ("ShufflenetV2", 4.48),
])
def test_reconstructed_madd_speedups_within_15_percent(name, printed):
    ours = reconstructed_madds()
    ratio = Fraction(ours["base"], ours[name])
    assert abs(float(ratio) / printed - 1) <= 0.15, \
        f"{name}: reconstructed speedup {float(ratio):.3f}, printed {printed}"


# -- 5. Ratio arithmetic on ingested data: every printed cell +-0.01 --------

@pytest.mark.parametrize("metric,column", [
    ("gmadds", 0), ("fps_backbone", 1), ("fps_total", 2),
])
@pytest.mark.parametrize("name", sorted(PRINTED_RATIOS))
def test_printed_speedup_columns(name, metric, column):
    table = ratio_table(POINTS, metric)
    printed = PRINTED_RATIOS[name][column]
    assert float(fmt2(table[name])) == pytest.approx(printed, abs=0.01)


def test_sample_division():
    table = ratio_table(POINTS, "fps_backbone")
    assert table["MobilenetV1"] == Fraction("194.9") / 128


# -- 6. Latency projections ------------------------------------------------

FPGA = TimingProfile.from_file(default_dataset_path().parent / "fpga_timing.json")


def test_limit_speedups():
    assert fmt2(amdahl_max(Fraction(7, 10))) == "3.33"
    computed = float(fmt2(amdahl_max(Fraction(39, 100))))
    assert computed == pytest.approx(1.64, abs=0.01)
    assert abs(computed - 1.61) <= 0.03  # printed figure, wider band


def test_projected_fps_from_fpga_profile():
    assert FPGA.base_latency_ms == Fraction("374.66")
    backbone_gone = project_fps(FPGA, {"backbone": float("inf")})
    rest_gone = project_fps(FPGA, {"other": float("inf")})
    assert float(backbone_gone) == pytest.approx(8.89, abs=0.02)
    assert float(rest_gone) == pytest.approx(3.82, abs=0.02)


# -- 7. Exhaustive small-convolution oracle sweep (exact, < 10 s) -----------

def sweep_oracle(spec: Conv, shape: TensorShape) -> int:
    """Count multiplies by walking every output pixel and kernel tap."""
    (out,) = node_output_shape(spec, [shape])
    in_per_group = shape.channels // spec.groups
    count = 0
    for _oy in range(out.height):
        for _ox in range(out.width):
            for _ky in range(spec.kernel_h):
                for _kx in range(spec.kernel_w):
                    count += out.channels * in_per_group
    if spec.has_bias:
        count += out.channels * out.pixels
    return count


def test_conv_madds_exhaustive_sweep():
    checked = 0
    for c_in in range(1, 5):
        for c_out in range(1, 5):
            common = math.gcd(c_in, c_out)
            groups = [g for g in range(1, common + 1) if common % g == 0]
            for g in groups:
                for k in (1, 3):
                    for s in (1, 2):
                        for h in range(1, 6):
                            for w in range(1, 6):
                                for bias in (False, True):
                                    spec = Conv(c_out, k, k, s, s, k // 2,
                                                k // 2, g, bias)
                                    shape = TensorShape(c_in, h, w)
                                    try:
                                        outs = node_output_shape(spec, [shape])
                                    except NegativeOutputDim:
                                        continue
                                    assert spec.madds([shape], outs) == \
                                        sweep_oracle(spec, shape)
                                    checked += 1
    assert checked > 3000


# -- 8. Structural invariants across all variants ---------------------------

def test_all_variants_validate_and_share_scaffolding():
    base_rows = None
    base_boundaries = None
    for variant in Variant:
        g = build_pointpillars(variant)
        shapes = infer_all(g)
        report = graph_cost(g)
        assert len(report.per_node) == len(g)
        rows = [c for c in report.per_node if not c.name.startswith("backbone.")]
        block_out = {}
        for i in range(len(g)):
            name = g.node(i).name
            if name.startswith("neck.") and name.endswith(".deconv"):
                (src, port), = g.node(i).inputs
                block_out[name] = shapes[(src, port)]
        if base_rows is None:
            base_rows, base_boundaries = rows, block_out
        else:
            assert rows == base_rows, f"{variant.value}: non-backbone stages differ"
            assert block_out == base_boundaries, \
                f"{variant.value}: block boundary shapes differ"


def test_randomized_graph_invariants_ten_thousand_cases():
    from test_properties import test_ten_thousand_random_dags_uphold_invariants
    test_ten_thousand_random_dags_uphold_invariants()


# -- 9. Determinism: byte-identical double build / cost / render ------------

def test_double_build_cost_render_identical():
    for variant in (Variant.BASE, Variant.SHUFFLENET_V2, Variant.CSPDARKNET):
        g1 = build_pointpillars(variant)
        g2 = build_pointpillars(variant)
        assert g1.to_json().encode() == g2.to_json().encode()
        r1, r2 = graph_cost(g1), graph_cost(g2)
        assert r1.to_csv().encode() == r2.to_csv().encode()
        assert r1.to_json().encode() == r2.to_json().encode()
    again = load_points(default_dataset_path())
    for scope in ("overall", "car", "pedestrian", "cyclist"):
        assert render_scatter(POINTS, scope).encode() == \
            render_scatter(again, scope).encode()
