"""Path fitting, rim-plane crossing, and factor computation."""

import math

import numpy as np
import pytest

from shotarc.factors import (
    AscendingCrossingError,
    CrossingError,
    NoCrossingError,
    PathError,
    compute_shot_factors,
    fit_path_line,
    shot_factors,
)
from shotarc.trajectory import FittedTrajectory, fit_trajectory
from conftest import oracle_factors, oracle_path_line, parabola_shot

GRAVITY = 32.174


def surface(beta):
    return FittedTrajectory(np.asarray(beta, dtype=float), np.eye(6), 1.0, 1.0, 0.0, 10)


class TestPathLine:
    def test_axis_aligned(self):
        xy = np.column_stack([np.linspace(24.0, 1.0, 20), np.zeros(20)])
        pts = np.column_stack([xy, np.full(20, 9.0)])
        path = fit_path_line(pts)
        np.testing.assert_allclose(path.direction, [-1.0, 0.0], atol=1e-12)
        assert path.s_center - path.s_front_rim == pytest.approx(0.75)

    def test_exact_collinear_offset_line(self):
        x = np.linspace(20.0, 2.0, 15)
        pts = np.column_stack([x, x + 1.0, np.full(15, 9.0)])
        path = fit_path_line(pts)
        # every sample lies on the fitted line: no offset perpendicular to it
        normal = np.array([-path.direction[1], path.direction[0]])
        np.testing.assert_allclose((pts[:, :2] - path.anchor) @ normal, 0.0, atol=1e-9)

    def test_noisy_direction_recovery(self):
        rng = np.random.default_rng(0)
        errs = []
        for i in range(50):
            theta = rng.uniform(-1.0, 1.0)
            d_true = np.array([-math.cos(theta), -math.sin(theta)])
            s = np.linspace(0, 24, 30)
            xy = np.array([24 * -d_true + si * d_true for si in s])
            xy = xy + rng.normal(0, 0.05, xy.shape)
            path = fit_path_line(np.column_stack([xy, np.full(30, 9.0)]))
            cosang = abs(float(path.direction @ d_true))
            errs.append(math.degrees(math.acos(min(cosang, 1.0))))
        assert np.median(errs) < 0.5

    def test_coincident_samples_rejected(self):
        pts = np.tile([[3.0, 4.0, 9.0]], (10, 1))
        with pytest.raises(PathError):
            fit_path_line(pts)

    def test_too_few_samples(self):
        with pytest.raises(PathError):
            fit_path_line(np.array([[1.0, 2.0, 3.0]]))

    def test_endpoints_coincide_horizontally(self):
        # the samples spread, but the chord from first to last sample is zero
        pts = np.array([[5.0, 0.0, 8.0], [6.0, 0.5, 9.0], [7.0, 0.0, 9.5], [5.0, 0.0, 9.0]])
        with pytest.raises(PathError):
            fit_path_line(pts)


class TestRimPlaneCrossing:
    # path along +x through the origin: z(s) depends on beta via x(s) = s, and the
    # crossing coordinate is depth_ft + path.s_front_rim

    def _straight_path(self, anchor=(0.0, 0.0)):
        pts = np.column_stack([np.linspace(0, 30, 31), np.zeros(31), np.full(31, 9.0)])
        path = fit_path_line(pts)
        # place s = 0 at the requested anchor for easy algebra
        return type(path)(
            anchor=np.asarray(anchor, dtype=float),
            direction=np.array([1.0, 0.0]),
            s_front_rim=path.s_front_rim,
            s_center=path.s_center,
        )

    def test_factored_quadratic(self):
        # z(s) = 10 + (s - 2)(4 - s) -> roots 2 and 4, descending at 4
        path = self._straight_path()
        f = compute_shot_factors(surface([2.0, 6.0, 0.0, -1.0, 0.0, 0.0]), path)
        assert f.depth_ft + path.s_front_rim == pytest.approx(4.0, abs=1e-12)
        assert math.tan(math.radians(f.entry_angle_deg)) == pytest.approx(2.0, abs=1e-12)

    def test_peak_below_rim(self):
        # z(s) = 9.9 - (s - 3)^2 never reaches 10
        with pytest.raises(NoCrossingError):
            compute_shot_factors(surface([0.9, 6.0, 0.0, -1.0, 0.0, 0.0]), self._straight_path())

    def test_ascending_crossing_flagged(self):
        # upward-opening profile crosses 10 rising at its larger root
        with pytest.raises(AscendingCrossingError):
            compute_shot_factors(surface([11.0, -4.0, 0.0, 1.0, 0.0, 0.0]), self._straight_path())

    def test_flat_profile_never_crosses(self):
        # c2 = c1 = 0: z(s) = 9 everywhere
        with pytest.raises(NoCrossingError):
            compute_shot_factors(surface([9.0, 0.0, 0.0, 0.0, 0.0, 0.0]), self._straight_path())

    def test_simulated_parabola_matches_analytic_root(self):
        pts, release, truth = parabola_shot(depth_ft=0.95, lr_ft=0.12,
                                            entry_angle_deg=46.0, noise=0.0, seed=4)
        f = compute_shot_factors(fit_trajectory(pts, release), fit_path_line(pts))
        assert f.depth_ft == pytest.approx(0.95, abs=1e-6)
        assert f.entry_angle_deg == pytest.approx(46.0, abs=1e-5)


class TestShotFactors:
    def test_center_crossing_exact(self):
        # z = 10 + x along a path down the x-axis: slope -1 at the rim center
        pts = np.column_stack([np.linspace(24, 1, 24), np.zeros(24), np.full(24, 9.0)])
        path = fit_path_line(pts)
        fit = surface([10.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        f = compute_shot_factors(fit, path)
        assert f.depth_ft == pytest.approx(0.75, abs=1e-12)
        assert f.depth_in == pytest.approx(9.0, abs=1e-10)
        assert f.left_right_ft == pytest.approx(0.0, abs=1e-12)
        assert f.entry_angle_deg == pytest.approx(45.0, abs=1e-10)

    def test_left_right_sign_and_decoupling(self):
        # path 0.25 ft to the shooter's right of the rim center
        for depth_ft in (0.5, 0.75, 1.2):
            pts, release, _ = parabola_shot(depth_ft=depth_ft, lr_ft=0.25,
                                            entry_angle_deg=45.0, noise=0.0, seed=8)
            f = compute_shot_factors(fit_trajectory(pts, release), fit_path_line(pts))
            assert f.left_right_ft == pytest.approx(0.25, abs=1e-9)

    def test_projectile_oracle(self):
        # independent closed form: launch at 52 degrees from 23.75 ft out,
        # speed solved so the arc crosses rim height at the rim center
        theta = math.radians(52.0)
        dist, h0 = 23.75, 7.0
        # 10 = 7 + tan(theta) x - K x^2 with x = dist at the crossing
        K = (h0 + math.tan(theta) * dist - 10.0) / dist**2
        v = math.sqrt(GRAVITY / (2 * K * math.cos(theta) ** 2))
        vx = v * math.cos(theta)
        slope_at = math.tan(theta) - 2 * K * dist
        analytic_angle = math.degrees(math.atan(abs(slope_at)))
        assert slope_at < 0

        t = np.arange(int(dist / vx * 25.0) + 2) / 25.0
        x = vx * t
        z = h0 + math.tan(theta) * x - K * x**2
        pts = np.column_stack([dist - x, np.zeros_like(x), z])  # shooting toward origin
        fit = fit_trajectory(pts, (dist, 0.0))
        f = compute_shot_factors(fit, fit_path_line(pts))
        assert f.depth_ft == pytest.approx(0.75, abs=0.05)
        assert f.left_right_ft == pytest.approx(0.0, abs=0.05)
        assert f.entry_angle_deg == pytest.approx(analytic_angle, abs=0.5)

    def test_mirror_negates_lr_preserves_depth_angle(self):
        pts, release, _ = parabola_shot(depth_ft=0.9, lr_ft=0.2, entry_angle_deg=44.0,
                                        azimuth_rad=0.3, noise=0.0, seed=12)
        mirrored = pts.copy()
        mirrored[:, 1] *= -1.0
        f = compute_shot_factors(fit_trajectory(pts, release), fit_path_line(pts))
        release_m = (release[0], -release[1])
        g = compute_shot_factors(fit_trajectory(mirrored, release_m), fit_path_line(mirrored))
        assert g.left_right_ft == pytest.approx(-f.left_right_ft, abs=1e-9)
        assert g.depth_ft == pytest.approx(f.depth_ft, abs=1e-9)
        assert g.entry_angle_deg == pytest.approx(f.entry_angle_deg, abs=1e-9)

    def test_entry_angle_invariant_under_rotation(self):
        pts, release, _ = parabola_shot(depth_ft=0.8, lr_ft=0.1, entry_angle_deg=47.0,
                                        noise=0.0, seed=13)
        rot = math.radians(37.0)
        c, s = math.cos(rot), math.sin(rot)
        R = np.array([[c, -s], [s, c]])
        rotated = pts.copy()
        rotated[:, :2] = pts[:, :2] @ R.T
        f = compute_shot_factors(fit_trajectory(pts, release), fit_path_line(pts))
        g = compute_shot_factors(
            fit_trajectory(rotated, R @ np.asarray(release)), fit_path_line(rotated))
        assert g.entry_angle_deg == pytest.approx(f.entry_angle_deg, abs=1e-8)
        assert g.depth_ft == pytest.approx(f.depth_ft, abs=1e-8)

    def test_depth_equals_rim_radius_for_center_crossings_any_angle(self):
        for ang in (38.0, 45.0, 52.0):
            pts, release, _ = parabola_shot(depth_ft=0.75, lr_ft=0.0,
                                            entry_angle_deg=ang, noise=0.0, seed=21)
            f = compute_shot_factors(fit_trajectory(pts, release), fit_path_line(pts))
            assert f.depth_ft == pytest.approx(0.75, abs=1e-7)

    def test_noise_monotonicity_of_factor_error(self):
        rng = np.random.default_rng(3)
        medians = []
        for sigma in (0.15, 0.05, 0.0):
            errs = []
            for i in range(60):
                depth = rng.normal(0.75, 0.2)
                pts, release, _ = parabola_shot(depth_ft=depth, lr_ft=rng.normal(0, 0.15),
                                                entry_angle_deg=45.0, noise=sigma,
                                                seed=900 + i)
                f = compute_shot_factors(fit_trajectory(pts, release), fit_path_line(pts))
                errs.append(abs(f.depth_ft - depth))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


def test_mixed_block_matches_the_scalar_oracle_shot_by_shot():
    # one of each branch, beside a normal arc: (samples, beta)
    straight = np.column_stack([np.linspace(0, 30, 31), np.zeros(31), np.full(31, 9.0)])
    inward = np.column_stack([np.linspace(24, 1, 24), np.zeros(24), np.full(24, 9.0)])
    pts, release, _ = parabola_shot(depth_ft=0.9, lr_ft=-0.15, entry_angle_deg=47.0,
                                    azimuth_rad=0.4, noise=0.05, seed=31)
    shots = [
        (inward, [10.0, 1.0, 0.0, 0.0, 0.0, 0.0]),                  # linear, descending
        (straight, [9.0, 0.0, 0.0, 0.0, 0.0, 0.0]),                 # flat: short_airball
        (straight, [0.9, 6.0, 0.0, -1.0, 0.0, 0.0]),                # peak below the rim
        (np.array([[5.0, 0.0, 8.0], [6.0, 0.5, 9.0], [5.0, 0.0, 9.0]]),
         [10.0, 1.0, 0.0, 0.0, 0.0, 0.0]),                          # endpoints coincide
        (straight, [11.0, -4.0, 0.0, 1.0, 0.0, 0.0]),               # ascending root
        (pts, fit_trajectory(pts, release).beta),                   # a normal arc
    ]
    factors, flags = shot_factors([p for p, _ in shots], np.array([b for _, b in shots]))
    assert flags.tolist() == ["", "short_airball", "short_airball", "path_degenerate",
                              "ascending", ""]
    for (p, beta), got, flag in zip(shots, factors, flags):
        try:
            f = oracle_factors(surface(beta), oracle_path_line(p))
        except (PathError, CrossingError) as exc:
            assert flag == exc.flag and np.isnan(got).all()
            with pytest.raises(type(exc)):     # and the one-row API raises alike
                compute_shot_factors(surface(beta), fit_path_line(p))
            continue
        want = [f.depth_ft, f.left_right_ft, f.entry_angle_deg]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        g = compute_shot_factors(surface(beta), fit_path_line(p))
        np.testing.assert_allclose([g.depth_ft, g.left_right_ft, g.entry_angle_deg], want,
                                   rtol=0, atol=1e-9)
