"""SVG scatter rendering: structure, highlighting, determinism."""
import re
import xml.etree.ElementTree as ET

import pytest

from pillarcost.analysis import (AnalysisError, default_dataset_path,
                                 load_points, pareto_front)
from pillarcost.svg import _axis, _nice_ticks, render_scatter

from test_analysis import point


def shipped_points():
    return load_points(default_dataset_path())


class TestRenderScatter:
    def test_is_well_formed_xml(self):
        root = ET.fromstring(render_scatter(shipped_points()))
        assert root.tag.endswith("svg")
        assert root.get("viewBox") == "0 0 800 600"

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
