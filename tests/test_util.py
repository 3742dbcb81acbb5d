"""Workload generators and report formatting."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.types import Image, validate_plane
from repro.util import images as imgs
from repro.util.tables import format_fraction_table, format_table
from repro.util.validation import (
    require,
    require_positive,
    require_power_of_two,
)


class TestGenerators:
    ALL = [
        ("gradient", lambda: imgs.gradient(64, 32)),
        ("checkerboard", lambda: imgs.checkerboard(64, 32)),
        ("step_edges", lambda: imgs.step_edges(64, 32)),
        ("noise", lambda: imgs.noise(64, 32, seed=1)),
        ("gaussian_blobs", lambda: imgs.gaussian_blobs(64, 32, seed=1)),
        ("natural_like", lambda: imgs.natural_like(64, 32, seed=1)),
        ("text_like", lambda: imgs.text_like(64, 32, seed=1)),
    ]

    @pytest.mark.parametrize("name,gen", ALL)
    def test_valid_planes(self, name, gen):
        """Every generator yields a plane the pipeline accepts."""
        plane = gen()
        assert plane.shape == (64, 32), name
        validate_plane(plane)  # raises on violation

    def test_gaussian_blobs_stay_in_range_for_every_seed(self):
        """The rescale to a 255 peak must not overshoot by an ulp."""
        for seed in range(200):
            plane = imgs.gaussian_blobs(64, 48, seed=seed)
            assert plane.max() <= 255.0, seed
            Image.from_array(plane)  # raises on an out-of-range pixel

    def test_deterministic_with_seed(self):
        a = imgs.natural_like(32, 32, seed=5)
        b = imgs.natural_like(32, 32, seed=5)
        assert np.array_equal(a, b)
        c = imgs.natural_like(32, 32, seed=6)
        assert not np.array_equal(a, c)

    def test_gradient_monotone(self):
        g = imgs.gradient(16, 32)
        assert np.all(np.diff(g[0]) >= 0)
        assert g[0, 0] == 0.0 and g[0, -1] == 255.0

    def test_vertical_gradient(self):
        g = imgs.gradient(32, 16, horizontal=False)
        assert np.all(np.diff(g[:, 0]) >= 0)

    def test_checkerboard_two_levels(self):
        b = imgs.checkerboard(16, 16, cell=4, low=10, high=200)
        assert set(np.unique(b)) == {10.0, 200.0}
        assert b[0, 0] != b[0, 4]

    def test_step_edges_count(self):
        s = imgs.step_edges(16, 64, n_steps=4)
        assert len(np.unique(s)) == 4

    def test_natural_like_spectrum_decays(self):
        """1/f content: low frequencies carry more power than high."""
        plane = imgs.natural_like(128, 128, seed=0)
        spec = np.abs(np.fft.fft2(plane - plane.mean()))
        low = spec[1:5, 1:5].mean()
        high = spec[40:60, 40:60].mean()
        assert low > 5 * high

    def test_video_sequence_correlated(self):
        frames = imgs.video_sequence(64, 64, 4, seed=2)
        assert len(frames) == 4
        # consecutive frames are near-duplicates, distant ones less so
        d01 = np.abs(frames[0] - frames[1]).mean()
        d03 = np.abs(frames[0] - frames[3]).mean()
        assert d01 < d03

    @pytest.mark.parametrize("call", [
        lambda: imgs.gradient(0, 16),
        lambda: imgs.checkerboard(16, 16, cell=0),
        lambda: imgs.step_edges(16, 16, n_steps=0),
        lambda: imgs.gaussian_blobs(16, 16, n_blobs=0),
        lambda: imgs.text_like(16, 16, line_height=2),
        lambda: imgs.text_like(16, 16, fill=1.5),
        lambda: imgs.video_sequence(16, 16, 0),
    ])
    def test_invalid_args_rejected(self, call):
        with pytest.raises(ValidationError):
            call()


class TestTables:
    def test_aligned_columns(self):
        text = format_table(["name", "value"],
                            [["a", 1.0], ["bbbb", 22.5]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # all same width

    def test_title_rendered(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_float_formatting(self):
        text = format_table(["x"], [[0.123456789]], floatfmt=".3g")
        assert "0.123" in text and "0.123456789" not in text

    def test_row_arity_checked(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])

    def test_fraction_table_percentages(self):
        text = format_fraction_table(
            ["s1", "s2"], {"256": {"s1": 0.25, "s2": 0.75}})
        assert "25.00%" in text and "75.00%" in text

    def test_fraction_table_missing_stage_is_zero(self):
        text = format_fraction_table(["s1", "s2"], {"256": {"s1": 1.0}})
        assert "0.00%" in text


class TestFormatSpeedup:
    def test_ratio(self):
        from repro.util.tables import format_speedup
        assert format_speedup(2.0, 1.0) == "2.00x"

    def test_zero_denominator(self):
        from repro.util.tables import format_speedup
        assert format_speedup(1.0, 0.0) == "inf"


class TestValidationHelpers:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValidationError, match="broken"):
            require(False, "broken")

    def test_require_positive(self):
        require_positive(1.0, "x")
        with pytest.raises(ValidationError):
            require_positive(0.0, "x")

    def test_require_power_of_two(self):
        require_power_of_two(64, "x")
        for bad in (0, -2, 3, 6):
            with pytest.raises(ValidationError):
                require_power_of_two(bad, "x")
