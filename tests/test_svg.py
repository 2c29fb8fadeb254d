"""SVG scatter rendering: structure, highlighting, determinism."""
import re
from fractions import Fraction
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarcost.analysis import (AnalysisError, default_dataset_path,
                                 load_points, pareto_front)
from pillarcost.svg import _axis, _nice_ticks, _tick_labels, render_scatter

from test_analysis import point


def shipped_points():
    return load_points(default_dataset_path())


class TestRenderScatter:
    def test_is_well_formed_xml(self):
        root = ET.fromstring(render_scatter(shipped_points()))
        assert root.tag.endswith("svg")
        assert root.get("viewBox") == "0 0 800 600"
        # markup characters in a name are escaped, and the label reads back
        root = ET.fromstring(render_scatter([point("A<B & C>", 5, 50), point("D", 6, 40)]))
        labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "A<B & C> (50.00)" in labels

    @pytest.mark.parametrize("name", ["A\rB", "A\r\nB", "A\nB", "A\tB"],
                             ids=["cr", "crlf", "lf", "tab"])
    def test_a_line_break_in_a_name_reads_back_as_written(self, name):
        # a parser reads a written CR as LF, so a CR is written as &#13;
        root = ET.fromstring(render_scatter([point(name, 5, 50), point("D", 6, 40)]))
        labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert f"{name} (50.00)" in labels

    @pytest.mark.parametrize("char", [
        "\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ud800", "\udfff",
        "\ufffe", "\uffff"])
    def test_a_name_xml_cannot_hold_is_refused(self, char):
        name = f"A{char}B"
        with pytest.raises(AnalysisError) as info:
            render_scatter([point("D", 6, 40), point(name, 5, 50)])
        assert str(info.value) == f"cannot plot {name!r}: XML 1.0 cannot hold its name"

    @pytest.mark.parametrize("char", [
        "\t", "\n", "\r", " ", "\x7f", "\x85", "\ud7ff", "\ue000", "\ufffd",
        "\U00010000", "\U0010ffff"])
    def test_a_name_xml_can_hold_is_plotted(self, char):
        root = ET.fromstring(render_scatter([point("D", 6, 40), point(f"A{char}B", 5, 50)]))
        assert len(list(root.iter("{http://www.w3.org/2000/svg}circle"))) == 2

    def test_one_labeled_circle_per_point(self):
        points = shipped_points()
        doc = render_scatter(points)
        assert doc.count("<circle") == len(points)
        for p in points:
            assert re.search(rf">{re.escape(p.name)} \(", doc)

    def test_front_members_visually_distinguished(self):
        points = shipped_points()
        doc = render_scatter(points, "overall")
        front = pareto_front(points, "overall")
        highlighted = doc.count('stroke-width="2"')
        assert highlighted == len(front) == 3

    def test_single_point_is_its_own_front(self):
        doc = render_scatter([point("solo", 5, 50)])
        assert doc.count("<circle") == 1
        assert doc.count('stroke-width="2"') == 1

    def test_axes_are_labeled(self):
        doc = render_scatter(shipped_points())
        assert "GMAdd" in doc
        assert "mAP" in doc

    def test_byte_identical_re_render(self):
        points = shipped_points()
        assert render_scatter(points) == render_scatter(points)
        again = render_scatter(load_points(default_dataset_path()))
        assert render_scatter(points).encode() == again.encode()

    def test_scope_changes_layout(self):
        points = shipped_points()
        assert render_scatter(points, "car") != render_scatter(points, "cyclist")

    def test_no_volatile_content(self):
        doc = render_scatter(shipped_points())
        assert "id=" not in doc
        assert not re.search(r"\d{4}-\d{2}-\d{2}", doc)


class TestAxis:
    @pytest.mark.parametrize("values", [
        [7.8, 1.7e308],  # the padded range overflows
        [1.0, 1.5e308],  # the padded range fits, but the last tick would not
        [1e20],  # a step of a sixth of the range would not move a float
        [1e16, 1e16 + 2],
    ])
    def test_a_range_ticks_cannot_cross_is_refused(self, values):
        with pytest.raises(AnalysisError, match="float coordinates cannot resolve it$"):
            _axis(values)

    @pytest.mark.parametrize("values", [[5e-324], [1e15], [1.0, 5e307], [34.91, 7.8]])
    def test_an_accepted_range_gets_a_few_ticks(self, values):
        lo, hi = _axis(values)
        assert lo < min(values) <= max(values) < hi
        assert 3 <= len(_nice_ticks(lo, hi)) <= 13

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3))
    def test_ticks_are_distinct_and_within_half_a_step(self, values):
        try:
            lo, hi = _axis(values)
        except AnalysisError:
            return
        ticks = _nice_ticks(lo, hi)
        assert ticks and all(a < b for a, b in zip(ticks, ticks[1:]))
        half = (ticks[1] - ticks[0]) / 2 if len(ticks) > 1 else 0.0
        assert lo - half <= ticks[0] and ticks[-1] <= hi + half


def tick_labels(doc):
    """(x labels, y labels) in tick order."""
    return (re.findall(r'<text x="[^"]+" y="565" [^>]*>([^<]*)</text>', doc),
            re.findall(r'text-anchor="end" [^>]*>([^<]*)</text>', doc))


class TestTickLabels:
    def test_shipped_data_keeps_two_decimals(self):
        points = shipped_points()
        for scope in ("overall", "car", "pedestrian", "cyclist"):
            for labels in tick_labels(render_scatter(points, scope)):
                assert labels and all(re.fullmatch(r"\d+\.\d\d", label) for label in labels)

    def test_huge_values_get_short_labels(self):
        x, _ = tick_labels(render_scatter([point("a", 1, 50), point("b", 10**300, 60)]))
        assert x == ["0", "5e+299", "1e+300"]

    def test_tiny_values_get_distinct_labels(self):
        x, y = tick_labels(render_scatter([point("a", Fraction(1, 10**6), 50),
                                           point("b", Fraction(3, 10**6), 60)]))
        assert x == ["1e-06", "1.5e-06", "2e-06", "2.5e-06", "3e-06"]
        assert y == ["50.00", "55.00", "60.00"]

    def test_tiny_values_get_distinct_ticks_on_the_plot(self):
        doc = render_scatter([point("a", Fraction(1, 10**12), 50),
                              point("b", Fraction(3, 10**12), 60)])
        x, _ = tick_labels(doc)
        assert x == ["1e-12", "1.5e-12", "2e-12", "2.5e-12", "3e-12"]
        xs = [float(v) for v in re.findall(r'<text x="([^"]+)" y="565"', doc)]
        assert len(xs) == 5 and all(70 <= v <= 775 for v in xs)

    @pytest.mark.parametrize("ticks, labels", [
        ([1.0, 1.5, 2.0], ["1.00", "1.50", "2.00"]),
        ([9999999.0], ["9999999.00"]),  # ten characters
        ([10000000.0], ["1e+07"]),
        ([0.001, 0.002], ["0.001", "0.002"]),
        ([1.23456, 1.23457], ["1.23456", "1.23457"]),
        ([], []),
    ])
    def test_fewest_digits_that_tell_ticks_apart(self, ticks, labels):
        assert _tick_labels(ticks) == labels
