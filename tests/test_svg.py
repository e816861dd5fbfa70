"""The SVG figures: deterministic, well-formed text."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ratekit.svg import curves as render_curve_svg


class TestRenderCurveSvg:
    def test_two_points_hit_plot_corners(self):
        svg = render_curve_svg([("d", [0.0, 1.0], [0.0, 1.0])], "x", "y")
        assert 'points="60.00,435.00 620.00,20.00"' in svg

    def test_deterministic(self):
        series = [("a", [0, 1, 2], [1, 0, 2]), ("b", [0, 1, 2], [2, 2, 0])]
        assert render_curve_svg(series, "x", "y") == render_curve_svg(series, "x", "y")

    def test_well_formed_xml(self):
        svg = render_curve_svg([("acc", [0, 0.5, 1], [0.9, 0.6, 0.5])], "frac", "acc")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            render_curve_svg([("d", [0.0], [0.0])], "x", "y")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_curve_svg([("d", [0.0, np.inf], [0.0, 1.0])], "x", "y")

    def test_two_series_plot_keeps_its_text(self):
        # the whole text, escaped label included, as the renderer wrote it in cli.py
        svg = render_curve_svg(
            [("AUC=0.9 & <x>", [0.0, 0.25, 1.0], [0.0, 0.75, 1.0]),
             ("b", [0, 0.5, 1], [0.5, -0.25, 2.5])],
            "false positive rate", "true positive rate",
        )
        assert svg == "\n".join([
            '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">',
            '<rect x="0" y="0" width="640" height="480" fill="white"/>',
            '<line x1="60" y1="435" x2="620" y2="435" stroke="black"/>',
            '<line x1="60" y1="435" x2="60" y2="20" stroke="black"/>',
            '<text x="340" y="472" text-anchor="middle" font-size="14">false positive rate</text>',
            '<text x="14" y="227" text-anchor="middle" font-size="14" '
            'transform="rotate(-90 14 227)">true positive rate</text>',
            '<text x="60" y="451" text-anchor="middle" font-size="11">0</text>',
            '<text x="620" y="451" text-anchor="middle" font-size="11">1</text>',
            '<text x="54" y="435" text-anchor="end" font-size="11">-0.25</text>',
            '<text x="54" y="30" text-anchor="end" font-size="11">2.5</text>',
            '<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
            'points="60.00,397.27 200.00,284.09 620.00,246.36"/>',
            '<text x="618" y="36" text-anchor="end" font-size="12" fill="#1f77b4">'
            'AUC=0.9 &amp; &lt;x&gt;</text>',
            '<polyline fill="none" stroke="#d62728" stroke-width="1.5" '
            'points="60.00,321.82 340.00,435.00 620.00,20.00"/>',
            '<text x="618" y="52" text-anchor="end" font-size="12" fill="#d62728">b</text>',
            "</svg>\n",
        ])
