import math

import numpy as np
import pytest

from bccrates import (
    Dmc,
    Frontier,
    GridSpec,
    GuardExceeded,
    secrecy_capacity,
    secrecy_frontier,
    secrecy_frontier_sim,
    supporting_line_value,
    upper_concave_hull,
)
from bccrates.channels import bec, bsc

LN2 = math.log(2.0)


def h(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p) if 0 < p < 1 else 0.0


def conv(x, y):
    return x * (1 - y) + (1 - x) * y


def closed_form_frontier(eps1, eps2, rd_grid, p_grid):
    """Independent oracle for a degraded symmetric pair: scan the no-prefix
    family (secrecy rate and input cost as functions of the input bias), take
    the per-budget maximum, then the time-sharing envelope."""
    rs = np.array([(h(conv(p, eps1)) - h(eps1)) - (h(conv(p, eps2)) - h(eps2))
                   for p in p_grid])
    rd = np.array([h(conv(p, eps2)) - h(eps2) for p in p_grid])
    raw = np.full(len(rd_grid), -np.inf)
    for cost, rate in zip(rd, rs):
        g = int(np.ceil(cost / (rd_grid[1] - rd_grid[0]) - 1e-9))
        if 0 <= g < len(raw):
            raw[g] = max(raw[g], rate)
        elif g < 0:
            raw[0] = max(raw[0], rate)
    curve = np.maximum.accumulate(raw)
    hull = upper_concave_hull(list(zip(rd_grid, curve)))
    return np.interp(rd_grid, hull.r_d, hull.r_s)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(prob_step=0.0)
        with pytest.raises(ValueError):
            GridSpec(prob_step=0.7)
        with pytest.raises(ValueError):
            GridSpec(mu_step=-1.0)

    def test_prob_grid_has_exact_endpoints(self):
        grid = GridSpec(prob_step=0.02).prob_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 51

    def test_mu_values(self):
        mus = GridSpec(mu_max=0.2, mu_step=0.05).mu_values()
        np.testing.assert_allclose(mus, [0.0, 0.05, 0.1, 0.15, 0.2], atol=1e-12)


class TestUpperConcaveHull:
    def test_single_point(self):
        front = upper_concave_hull([(0.3, 0.1)])
        assert front.points == ((0.3, 0.1),)

    def test_collinear_keeps_endpoints(self):
        front = upper_concave_hull([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
        assert front.points == ((0.0, 0.0), (1.0, 1.0))

    def test_idempotent(self):
        pts = [(0.0, 0.0), (0.2, 0.35), (0.4, 0.5), (0.6, 0.55), (1.0, 0.6)]
        once = upper_concave_hull(pts)
        twice = upper_concave_hull(once.points)
        assert once.points == twice.points

    def test_dominated_points_dropped_and_monotone(self):
        front = upper_concave_hull([(0.0, 0.2), (0.5, 0.1), (1.0, 0.9)])
        values = np.interp([0.0, 0.5, 1.0], front.r_d, front.r_s)
        assert values[1] >= 0.2  # the dip is filled by the envelope
        slopes = np.diff(front.r_s) / np.diff(front.r_d)
        assert np.all(np.diff(slopes) <= 1e-12)

    def test_frontier_validation(self):
        with pytest.raises(ValueError):
            Frontier(points=((0.2, 0.1), (0.2, 0.2)))
        with pytest.raises(ValueError):
            Frontier(points=())


class TestBscPairFrontier:
    GRID = GridSpec(prob_step=0.01)

    def test_matches_closed_form_family(self):
        front = secrecy_frontier(bsc(0.1), bsc(0.2), self.GRID, v_equals_x=True)
        oracle = closed_form_frontier(0.1, 0.2, front.r_d, self.GRID.prob_grid())
        np.testing.assert_allclose(front.r_s, oracle, atol=1e-12)

    def test_free_prefix_matches_no_prefix_for_degraded_pair(self):
        free = secrecy_frontier(bsc(0.1), bsc(0.2), self.GRID)
        fixed = secrecy_frontier(bsc(0.1), bsc(0.2), self.GRID, v_equals_x=True)
        assert np.all(free.r_s >= fixed.r_s - 1e-12)
        np.testing.assert_allclose(free.r_s, fixed.r_s, atol=2 * 0.01)

    def test_monotone_and_concave(self):
        front = secrecy_frontier(bsc(0.1), bsc(0.2), self.GRID)
        assert np.all(np.diff(front.r_s) >= -1e-12)
        slopes = np.diff(front.r_s) / np.diff(front.r_d)
        assert np.all(np.diff(slopes) <= 1e-9)

    def test_plateau_and_corner(self):
        front = secrecy_frontier(bsc(0.1), bsc(0.2), self.GRID)
        cs = h(0.2) - h(0.1)
        rd_star = LN2 - h(0.2)
        assert front.r_s[-1] == pytest.approx(cs, abs=1e-12)
        plateau = front.r_s[front.r_d >= rd_star + 0.01]
        np.testing.assert_allclose(plateau, cs, atol=1e-6)

    def test_sim_frontier_never_exceeds_and_matches_when_more_capable(self):
        ds = secrecy_frontier(bsc(0.1), bsc(0.2), self.GRID)
        sim = secrecy_frontier_sim(bsc(0.1), bsc(0.2), self.GRID)
        assert np.all(sim.r_s <= ds.r_s + 1e-12)
        np.testing.assert_allclose(sim.r_s, ds.r_s, atol=2 * 0.01)

    def test_raw_sweep_positive_below_corner_via_biased_inputs(self):
        raw = secrecy_frontier(bsc(0.1), bsc(0.2), self.GRID, hull=False)
        below = raw.r_d < (LN2 - h(0.2)) - 0.02
        assert raw.r_s[below].max() > 0.05

    def test_deterministic_csv_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        secrecy_frontier(bsc(0.1), bsc(0.2), GridSpec(prob_step=0.05)).write_csv(out1)
        secrecy_frontier(bsc(0.1), bsc(0.2), GridSpec(prob_step=0.05)).write_csv(out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.meta.json").exists()


class TestBscBecFrontier:
    GRID = GridSpec(prob_step=0.02)

    def test_sim_below_ds_with_gap(self):
        ds = secrecy_frontier(bsc(0.11), bec(0.45), self.GRID)
        sim = secrecy_frontier_sim(bsc(0.11), bec(0.45), self.GRID)
        assert np.all(sim.r_s <= ds.r_s + 1e-12)
        # the prefix layer is needed here, so simulating it costs extra budget
        assert np.max(ds.r_s - sim.r_s) > 1e-3

    def test_positive_capacity_needs_prefix(self):
        cap = secrecy_capacity(bsc(0.11), bec(0.45), GridSpec(prob_step=0.01))
        assert cap > 0.0
        no_prefix = secrecy_frontier(bsc(0.11), bec(0.45), self.GRID, v_equals_x=True)
        assert no_prefix.r_s[-1] == pytest.approx(0.0, abs=1e-12)


class TestSecrecyCapacity:
    def test_identical_channels(self):
        assert secrecy_capacity(bsc(0.2), bsc(0.2), GridSpec(prob_step=0.05)) == 0.0

    def test_degraded_bsc_pair(self):
        cap = secrecy_capacity(bsc(0.1), bsc(0.2), GridSpec(prob_step=0.01))
        assert cap == pytest.approx(h(0.2) - h(0.1), abs=1e-12)


class TestSupportingLine:
    def test_dual_upper_bounds_and_approximates_primal(self):
        # slopes above 2 never support this pair's frontier, so a short mu
        # grid keeps the scan cheap
        grid = GridSpec(prob_step=0.02, mu_max=2.0, mu_step=0.05)
        front = secrecy_frontier(bsc(0.1), bsc(0.2), grid)
        for rd in (0.05, 0.1, 0.192745, 0.4):
            dual = min(supporting_line_value(bsc(0.1), bsc(0.2), float(mu), rd, grid)
                       for mu in grid.mu_values())
            primal = front.evaluate(rd)
            assert dual >= primal - 1e-9
            assert dual - primal < 0.01

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            supporting_line_value(bsc(0.1), bsc(0.2), -0.5, 0.1)


class TestGeneralAlphabets:
    @staticmethod
    def ternary_pair():
        rng = np.random.default_rng(5)
        w_y = Dmc(rng.dirichlet(np.ones(3) * 5, size=3))
        w_z = w_y.compose(Dmc(rng.dirichlet(np.ones(3) * 5, size=3)))
        return w_y, w_z

    def test_full_grid_mode_runs_and_is_sane(self):
        w_y, w_z = self.ternary_pair()
        grid = GridSpec(prob_step=1.0 / 3.0, rd_step=0.05)
        front = secrecy_frontier(w_y, w_z, grid)
        assert front.provenance["backend"] == "python-general"
        assert front.r_s[0] >= 0.0
        assert np.all(np.diff(front.r_s) >= -1e-12)
        assert front.r_s[-1] <= math.log(3.0)
        sim = secrecy_frontier_sim(w_y, w_z, grid)
        assert np.all(sim.r_s <= front.r_s + 1e-12)

    def test_cell_guard(self):
        w_y, w_z = self.ternary_pair()
        with pytest.raises(GuardExceeded):
            secrecy_frontier(w_y, w_z, GridSpec(prob_step=0.02, cell_guard=10_000))

    def test_input_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            secrecy_frontier(bsc(0.1), Dmc(np.full((3, 3), 1.0 / 3.0)))
