"""Frame transforms, geometry constants, unit conversions, the logistic sigmoid, and
worker processes."""

import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

import shotarc
from shotarc import core
from shotarc.core import (
    BALL_RADIUS_FT,
    COURT_WIDTH_FT,
    RELEASE_HEIGHT_PRIOR_FT,
    RIM_CENTER_FROM_BASELINE_FT,
    RIM_HEIGHT_FT,
    RIM_RADIUS_FT,
    UnknownHoopEndError,
    expit,
    feet_to_inches,
    from_local_frame,
    rim_center_xy,
    to_local_frame,
)


class TestLocalFrame:
    def test_rim_center_maps_to_origin_both_ends(self):
        for end in ("left", "right"):
            rx, ry = rim_center_xy(end)
            assert to_local_frame((rx, ry, 10.0), end) == (0.0, 0.0, 10.0)

    def test_handedness_consistent_across_ends(self):
        # one foot toward the near baseline ("court left" of the left rim)
        left_pt = (RIM_CENTER_FROM_BASELINE_FT - 1.0, COURT_WIDTH_FT / 2, 10.0)
        assert to_local_frame(left_pt, "left") == (-1.0, 0.0, 10.0)
        # mirrored point at the right rim lands at +1 in local coordinates
        right_pt = (94.0 - RIM_CENTER_FROM_BASELINE_FT + 1.0, COURT_WIDTH_FT / 2, 10.0)
        assert to_local_frame(right_pt, "right") == (-1.0, 0.0, 10.0)
        # and the same court point relative to each rim flips sign
        assert to_local_frame((RIM_CENTER_FROM_BASELINE_FT - 1.0, 25.0, 10.0), "left")[0] == -1.0

    def test_release_distance_preserved(self):
        # 23.75 ft from the right rim, at an arbitrary azimuth
        rx, ry = rim_center_xy("right")
        theta = 0.4
        pt = (rx - 23.75 * math.cos(theta), ry + 23.75 * math.sin(theta), 8.2)
        local = to_local_frame(pt, "right")
        assert np.hypot(local[0], local[1]) == pytest.approx(23.75, abs=1e-12)

    def test_unknown_hoop_end(self):
        with pytest.raises(UnknownHoopEndError):
            to_local_frame((0.0, 0.0, 0.0), "middle")

    @given(
        st.sampled_from(["left", "right"]),
        st.tuples(*[st.floats(-5, 99) for _ in range(2)], st.floats(0, 30)),
        st.tuples(*[st.floats(-5, 99) for _ in range(2)], st.floats(0, 30)),
    )
    def test_isometry(self, end, p, q):
        lp, lq = to_local_frame(p, end), to_local_frame(q, end)
        d_court = math.dist(p, q)
        d_local = math.dist(lp, lq)
        assert d_local == pytest.approx(d_court, abs=1e-12)

    @given(st.sampled_from(["left", "right"]),
           st.tuples(st.floats(-5, 99), st.floats(-5, 55), st.floats(0, 30)))
    def test_round_trip(self, end, p):
        back = from_local_frame(to_local_frame(p, end), end)
        assert back == pytest.approx(p, abs=1e-12)

    def test_coordinate_arrays_match_points_bit_for_bit(self):
        # shot extraction maps an (n, 3) ball window as to_local_frame(ball.T, end)
        ball = np.random.default_rng(3).uniform([-5.0, -5.0, 0.0], [99.0, 55.0, 30.0], (50, 3))
        for end in ("left", "right"):
            local = np.column_stack(to_local_frame(ball.T, end))
            expected = np.array([to_local_frame(tuple(p), end) for p in ball.tolist()])
            assert local.shape == (50, 3)
            np.testing.assert_array_equal(local, expected)


def degrees_to_radians(a_deg: float) -> float:
    return a_deg * math.pi / 180.0


def radians_to_degrees(a_rad: float) -> float:
    return a_rad * 180.0 / math.pi


class TestUnits:
    def test_feet_to_inches_examples(self):
        assert feet_to_inches(0.75) == 9.0
        assert feet_to_inches(0.0) == 0.0
        assert feet_to_inches(0.875) == 10.5

    def test_degree_radian_round_trip(self):
        for a in (0.0, 12.5, 45.0, 90.0, 180.0):
            assert radians_to_degrees(degrees_to_radians(a)) == pytest.approx(a, abs=1e-12)


class TestGeometry:
    def test_defaults(self):
        assert RIM_HEIGHT_FT == 10.0
        assert RIM_RADIUS_FT == 0.75
        assert BALL_RADIUS_FT == 0.3938
        assert RELEASE_HEIGHT_PRIOR_FT == 7.0


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestExpit:
    def test_bit_identical_to_scipy_on_normal_draws(self):
        x = np.random.default_rng(0).normal(size=1_000_000)
        assert np.array_equal(_bits(expit(x)), _bits(scipy.special.expit(x)))

    def test_extremes(self):
        x = np.array([-1000.0, 1000.0, -np.inf, np.inf, np.nan, 0.0, -0.0,
                      -709.78, -709.79, -745.2, 36.0, 37.0, -36.0, 5e-324])
        got, want = expit(x), scipy.special.expit(x)
        assert np.array_equal(_bits(got), _bits(want))
        assert got[0] == 0.0 and got[2] == 0.0 and got[1] == 1.0 and np.isnan(got[4])

    def test_overflow_is_silent(self):
        with np.errstate(all="raise"):
            assert expit(-1000.0) == 0.0

    @pytest.mark.parametrize("x", [0.3, -2, np.float64(-2.5), np.array(1.5)])
    def test_zero_d_gives_float64_scalar(self, x):
        got = expit(x)
        assert type(got) is np.float64
        assert _bits(got) == _bits(scipy.special.expit(x))

    def test_n_d_keeps_shape(self):
        x = np.linspace(-40.0, 40.0, 24).reshape(2, 3, 4)
        got = expit(x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.array_equal(_bits(got), _bits(scipy.special.expit(x)))


def _loaded_packages(imports: str, package: str) -> str:
    """The sorted ``package`` modules a fresh interpreter holds after ``imports``."""
    code = (f"import sys, {imports}; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    env = {**os.environ, "PYTHONPATH": str(Path(shotarc.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip()


def test_runtime_modules_do_not_import_scipy():
    assert _loaded_packages("shotarc.cli, shotarc.sim, shotarc.makeprob", "scipy") == "[]"


def test_ingest_loads_only_core():
    # tracking workers import shotarc.ingest; the package itself imports no stage
    assert _loaded_packages("shotarc.ingest", "shotarc") == str(
        ["shotarc", "shotarc.core", "shotarc.ingest"])


def _exit_without_a_message(conn):
    """A worker body that ends its process before it sends anything."""
    os._exit(0)


def test_worker_exiting_without_a_message_raises_and_is_joined():
    with pytest.raises(RuntimeError, match="^silent worker exited without a result$"):
        with core.worker_processes(_exit_without_a_message, [()]) as (conn,):
            core.receive(conn, "silent worker")
    assert multiprocessing.active_children() == []
