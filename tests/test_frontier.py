import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from bccrates import (
    Dmc,
    Frontier,
    GridSpec,
    GuardExceeded,
    min_dummy_rate,
    secrecy_capacity,
    secrecy_frontier,
    secrecy_frontier_sim,
    supporting_line_value,
    upper_concave_hull,
)
from bccrates import frontier
from bccrates.channels import bec, bsc
from bccrates.frontier import BIN_FUZZ, fold_max
from bccrates.probability import _xlogx

import helpers
from helpers import (binary_cells, full_scan_sim_hull, grid_frontier, grid_supporting_line_value,
                     hull_chain, simplex_grid)

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

    @pytest.mark.parametrize("name", ["rd_step", "rd_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GridSpec(**{name: value})

    def test_budget_axis_guard(self):
        assert GridSpec(rd_step=0.5, rd_max=1.0).rd_axis(9.0).tolist() == [0.0, 0.5, 1.0]
        count = frontier.CELL_GUARD
        assert GridSpec(rd_step=1.0, rd_max=count - 1.0).rd_axis(0.0).size == count
        with pytest.raises(GuardExceeded, match="budget axis"):
            GridSpec(rd_step=1.0, rd_max=float(count)).rd_axis(0.0)
        with pytest.raises(GuardExceeded, match="budget axis"):
            GridSpec(rd_step=1e-9).rd_axis(math.log(4.0))

    def test_prob_grid_has_exact_endpoints(self):
        grid = GridSpec(prob_step=0.02).prob_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 51


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
        # slopes above 2 never support this pair's frontier, so a short slope
        # array keeps the scan cheap
        grid = GridSpec(prob_step=0.02)
        front = secrecy_frontier(bsc(0.1), bsc(0.2), grid)
        for rd in (0.05, 0.1, 0.192745, 0.4):
            dual = supporting_line_value(bsc(0.1), bsc(0.2), np.arange(41) * 0.05, rd, grid).min()
            primal = front.evaluate(rd)
            assert dual >= primal - 1e-9
            assert dual - primal < 0.01

    @pytest.mark.parametrize("w_y,w_z,slopes", [
        (bsc(0.1), bsc(0.2), np.arange(21) * 0.1),
        # this pair's frontiers rise by about 0.015 nats per nat of budget
        (bsc(0.11), bec(0.45), np.arange(21) * 0.0025),
    ], ids=["bsc0.1/bsc0.2", "bsc0.11/bec0.45"])
    def test_sim_dual_upper_bounds_sim_primal(self, w_y, w_z, slopes):
        grid = GridSpec(prob_step=0.02)
        sim = secrecy_frontier_sim(w_y, w_z, grid)
        ds = secrecy_frontier(w_y, w_z, grid)
        for rd in (0.05, 0.1, 0.192745, 0.381):
            dual = supporting_line_value(w_y, w_z, slopes, rd, grid, mode="sim").min()
            assert dual >= sim.evaluate(rd) - 1e-9
            assert dual - sim.evaluate(rd) < 0.01
        # where simulating the prefix costs more, the sim dual falls below
        # the ds frontier, which no ds dual can do
        if ds.evaluate(0.381) > sim.evaluate(0.381) + 1e-3:
            assert dual < ds.evaluate(0.381)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            supporting_line_value(bsc(0.1), bsc(0.2), 0.5, 0.1, mode="rd")

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            supporting_line_value(bsc(0.1), bsc(0.2), -0.5, 0.1)
        with pytest.raises(ValueError):
            supporting_line_value(bsc(0.1), bsc(0.2), np.array([0.0, 0.5, -0.5]), 0.1)

    @pytest.mark.parametrize("mu,r_d,match", [
        (math.nan, 0.1, "slope must be finite"),
        (np.array([0.0, math.inf]), 0.1, "slope must be finite"),
        (0.5, math.nan, "r_d must be finite"),
    ], ids=["nan-slope", "inf-slope", "nan-budget"])
    def test_non_finite_input_rejected(self, mu, r_d, match):
        # a NaN would pass through the maximum, and an infinite slope gives
        # 0 * inf at the pure input laws, where cost and r_d - cost are 0
        grid = GridSpec(prob_step=0.1)
        for mode in ("ds", "sim"):
            with pytest.raises(ValueError, match=match):
                supporting_line_value(bsc(0.1), bsc(0.2), mu, r_d, grid, mode=mode)

    @pytest.mark.parametrize("mode", ["ds", "sim"])
    def test_slope_array_matches_one_slope_per_table(self, mode):
        # each value of the grid oracle is the float of one cell table per
        # slope, as scalar calls give
        w_y, w_z, grid, r_d = bsc(0.11), bec(0.45), GridSpec(prob_step=0.1), 0.2
        slopes = np.array([0.0, 0.05, 0.3, 1.0, 7.5])
        values = grid_supporting_line_value(w_y, w_z, slopes, r_d, grid, mode=mode)
        assert values.shape == slopes.shape
        p = grid.prob_grid()
        for mu, value in zip(slopes, values):
            cells = binary_cells(w_y.matrix, w_z.matrix, p, p, p)
            want = float(np.max(cells["rs"] - float(mu) * (cells[f"rd_{mode}"] - r_d)))
            scalar = grid_supporting_line_value(w_y, w_z, float(mu), r_d, grid, mode=mode)
            assert isinstance(scalar, float) and scalar == want == value

    @pytest.mark.parametrize("mode", ["ds", "sim"])
    def test_scalar_matches_array_entry(self, mode):
        w_y, w_z, grid, r_d = bsc(0.11), bec(0.45), GridSpec(prob_step=0.05), 0.2
        slopes = np.array([[0.0, 0.05, 0.3], [1.0, 7.5, 0.3]])
        values = supporting_line_value(w_y, w_z, slopes, r_d, grid, mode=mode)
        assert values.shape == slopes.shape
        for mu, value in zip(slopes.ravel(), values.ravel()):
            scalar = supporting_line_value(w_y, w_z, float(mu), r_d, grid, mode=mode)
            assert isinstance(scalar, float) and scalar == value

    @pytest.mark.parametrize("mode", ["ds", "sim"])
    def test_budgets_broadcast_against_slopes(self, mode):
        # one lattice for every (slope, budget) entry, each the scalar call's float
        w_y, w_z, grid = bsc(0.11), bec(0.45), GridSpec(prob_step=0.05)
        slopes = np.array([0.0, 0.05, 0.3, 7.5])
        budgets = np.array([[0.0], [0.2], [0.7]])
        values = supporting_line_value(w_y, w_z, slopes, budgets, grid, mode=mode)
        assert values.shape == (3, 4)
        for (i, j), value in np.ndenumerate(values):
            scalar = supporting_line_value(w_y, w_z, float(slopes[j]), float(budgets[i, 0]),
                                           grid, mode=mode)
            assert scalar == value
        along = supporting_line_value(w_y, w_z, 0.3, budgets.ravel(), grid, mode=mode)
        assert along.tolist() == values[:, 2].tolist()
        with pytest.raises(ValueError, match="r_d must be finite"):
            supporting_line_value(w_y, w_z, slopes, np.array([0.1, math.inf, 0.2, 0.3]), grid,
                                  mode=mode)

    @pytest.mark.parametrize("step", [0.05, 0.02])
    def test_lattice_dual_certifies_the_frontier(self, step):
        # the slopes of the lattice hull's own edges (and 0) give the hulled
        # frontier at every budget; any slope gives at least the frontier
        # and at least the grid's supporting line.  One call per pair and
        # mode: each budget's row holds its own slopes, then the shared ones
        grid = GridSpec(prob_step=step)
        others = np.array([0.01, 0.1, 1.0, 10.0])
        for w_y, w_z in ENVELOPE_PAIRS:
            rd_grid, rd_step = frontier._budget_axis(w_y, w_z, grid)
            lattice = frontier._lattice(w_y, w_z, grid.k, grid.k, rd_step)
            hulls = {"ds": frontier._hull_vertices(lattice.cost, lattice.ds_rate()),
                     "sim": np.array(frontier._sim_hull(lattice, rd_grid.tolist())[0])}
            fronts = {"ds": secrecy_frontier(w_y, w_z, grid),
                      "sim": secrecy_frontier_sim(w_y, w_z, grid)}
            for mode, hull in hulls.items():
                vx, vy = hull.T
                edges = np.diff(vy) / np.diff(vx)
                front = fronts[mode]
                # the edges on either side of each budget, 0 where there is none
                i = np.searchsorted(vx, front.r_d)
                own = np.zeros((front.r_d.size, 3))
                for side, at in enumerate((i - 1, i)):
                    inside = (at >= 0) & (at < edges.size)
                    own[inside, side] = edges[at[inside]]
                slopes = np.append(edges[:3], others)
                rows = np.hstack([own, np.broadcast_to(slopes, (front.r_d.size, slopes.size))])
                dual = supporting_line_value(w_y, w_z, rows, front.r_d[:, None], grid, mode=mode)
                assert np.all(np.abs(dual[:, :3].min(axis=1) - front.r_s) <= 1e-9)
                assert np.all(dual >= front.r_s[:, None] - 1e-12)
                r_d = float(front.r_d[-1])
                grid_dual = grid_supporting_line_value(w_y, w_z, slopes, r_d, grid, mode)
                assert np.all(dual[-1, 3:] >= grid_dual - 1e-12)  # at the last budget

    def test_default_grid_returns_an_upper_bound(self):
        # the default grid's 40,001 input laws
        value = supporting_line_value(bsc(0.1), bsc(0.2), 1.0, 0.1)
        assert isinstance(value, float)
        assert value >= secrecy_frontier(bsc(0.1), bsc(0.2)).evaluate(0.1) - 1e-9


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
        assert front.provenance["backend"] == "python"
        assert front.r_s[0] >= 0.0
        assert np.all(np.diff(front.r_s) >= -1e-12)
        assert front.r_s[-1] <= math.log(3.0)
        sim = secrecy_frontier_sim(w_y, w_z, grid)
        assert np.all(sim.r_s <= front.r_s + 1e-12)

    def test_cell_guard(self):
        w_y, w_z = self.ternary_pair()
        with pytest.raises(GuardExceeded):
            secrecy_frontier(w_y, w_z, GridSpec(prob_step=0.02))

    @pytest.mark.parametrize("v_equals_x", [False, True])
    @pytest.mark.parametrize("hull", [True, False])
    def test_one_input_channels_give_the_origin(self, hull, v_equals_x):
        w_y, w_z = Dmc([[0.3, 0.7]]), Dmc([[0.5, 0.5]])
        for fn in (secrecy_frontier, secrecy_frontier_sim):
            front = fn(w_y, w_z, GridSpec(prob_step=0.1), hull=hull, v_equals_x=v_equals_x)
            assert front.points == ((0.0, 0.0),)
            assert front.provenance["input_size"] == 1

    def test_input_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            secrecy_frontier(bsc(0.1), Dmc(np.full((3, 3), 1.0 / 3.0)))


class TestSimplexLattice:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 10, 20])
    def test_matches_recursive_grid(self, m, k):
        oracle = simplex_grid(m, k)
        lattice = frontier._simplex_lattice(m, k)
        assert lattice.shape == (math.comb(k + m - 1, m - 1), m)
        np.testing.assert_allclose(lattice.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        # the same points: pair rows by their counts, then one ulp (of a
        # probability, 1.0) per coordinate, with the zeros exact
        counts = np.rint(lattice * k).astype(np.int64)
        assert np.all(counts.sum(axis=1) == k)
        assert counts.tolist() == frontier._simplex_counts(m, k).tolist()
        got = lattice[np.lexsort(counts.T)]
        want = oracle[np.lexsort(np.rint(oracle * k).astype(np.int64).T)]
        assert np.all(np.abs(got - want) <= np.spacing(1.0))
        assert np.array_equal(got == 0.0, want == 0.0)

    @pytest.mark.parametrize("step", [0.5, 1.0 / 3.0, 0.05, 0.01])
    def test_binary_grids_are_the_linspace(self, step):
        p = GridSpec(prob_step=step).prob_grid()
        k = len(p) - 1
        assert frontier._simplex_lattice(2, k).tobytes() == np.stack([p, 1.0 - p], 1).tobytes()

    def test_one_letter(self):
        assert frontier._simplex_lattice(1, 5).tolist() == [[1.0]]


def _oracle_general_sweep(w_y, w_z, grid, rd_step, n_rd, v_equals_x, mode):
    """The full-grid sweep that served inputs of 3 or more letters before the
    letter-plane sweep did: c/k grid values, matmul and einsum sums, cells
    appended one at a time in ``itertools.product`` order and flushed every
    2**16 // mx**2 cells."""
    mx = w_y.shape[0]
    k = max(1, round(1.0 / grid.prob_step))
    pv_grid = simplex_grid(mx, k)
    rows = simplex_grid(mx, k)
    hz_rows = -_xlogx(w_z).sum(axis=1)
    table = np.full(n_rd, -np.inf)

    def eval_chunk(pv, pxv):
        pyv = pxv @ w_y
        pzv = pxv @ w_z
        py = np.einsum("cv,cvy->cy", pv, pyv)
        pz = np.einsum("cv,cvz->cz", pv, pzv)
        hy = -_xlogx(py).sum(axis=1)
        hz = -_xlogx(pz).sum(axis=1)
        ivy = hy + np.einsum("cv,cvy->c", pv, _xlogx(pyv))
        ivz = hz + np.einsum("cv,cvz->c", pv, _xlogx(pzv))
        if mode == "ds":
            cost = hz - np.einsum("cv,cvx->cx", pv, pxv) @ hz_rows
        else:
            cost = ivz - np.einsum("cv,cvx->c", pv, _xlogx(pxv))
        fold_max(table, cost, ivy - ivz, rd_step)

    assert not v_equals_x
    chunk = max(1, 2**16 // (mx * mx))
    buf_pv, buf_rows = [], []
    for pv in pv_grid:
        for combo in itertools.product(range(len(rows)), repeat=mx):
            buf_pv.append(pv)
            buf_rows.append(rows[list(combo)])
            if len(buf_pv) >= chunk:
                eval_chunk(np.asarray(buf_pv), np.asarray(buf_rows))
                buf_pv, buf_rows = [], []
    if buf_pv:
        eval_chunk(np.asarray(buf_pv), np.asarray(buf_rows))
    return table


def _four_input_pair():
    rng = np.random.default_rng(9)
    return Dmc(rng.dirichlet(np.ones(3), size=4)), Dmc(rng.dirichlet(np.ones(2), size=4))


def _oracle_cell_sweep(w_y, w_z, prior, rows, rd_step, n_rd, mode):
    """The letter-plane sweep one cell at a time, in Python floats: every sum
    over input, cloud and output letters added left to right, P_X of the last
    input letter as 1 minus each of the others in turn, then the sort-based
    fold."""
    m = len(rows)

    def left_sum(terms):
        terms = list(terms)
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    xlogx = lambda x: float(_xlogx(x))
    entropy = lambda law: -left_sum(xlogx(x) for x in law)  # NumPy's order below 8 letters
    hz_rows = [entropy(row) for row in w_z.tolist()]

    def given(w, row):  # output law given one conditional input row
        return [left_sum(row[x] * w[x][k] for x in range(m)) for k in range(len(w[0]))]

    w_y, w_z = w_y.tolist(), w_z.tolist()
    rows = [r.tolist() for r in rows]
    laws_y = [[given(w_y, row) for row in r] for r in rows]
    laws_z = [[given(w_z, row) for row in r] for r in rows]

    def receiver(pv, laws):
        planes = [left_sum(pv[v] * laws[v][k] for v in range(m)) for k in range(len(laws[0]))]
        h = -xlogx(planes[0])
        for plane in planes[1:]:
            h -= xlogx(plane)
        return h, h - left_sum(pv[v] * entropy(laws[v]) for v in range(m))

    rs, costs = [], []
    for pv in prior.tolist():
        for combo in itertools.product(*(range(len(r)) for r in rows)):
            cell = [rows[v][i] for v, i in enumerate(combo)]
            _, ivy = receiver(pv, [laws_y[v][i] for v, i in enumerate(combo)])
            hz, ivz = receiver(pv, [laws_z[v][i] for v, i in enumerate(combo)])
            if mode == "ds":
                px = [left_sum(pv[v] * cell[v][x] for v in range(m)) for x in range(m - 1)]
                last = 1.0
                for share in px:
                    last -= share
                px.append(last)
                cost = hz - left_sum(px[x] * hz_rows[x] for x in range(m))
            else:
                cost = ivz
                for v in range(m):
                    cost = cost + pv[v] * entropy(cell[v])
            rs.append(ivy - ivz)
            costs.append(cost)
    table = np.full(n_rd, -np.inf)
    _oracle_fold_max(table, np.array(costs), np.array(rs), rd_step)
    return table


@pytest.mark.parametrize("pair,step,tol,cell_oracle", [
    (TestGeneralAlphabets.ternary_pair, 1.0 / 3.0, 2.3e-16, True),
    (TestGeneralAlphabets.ternary_pair, 0.25, 2.3e-16, False),
    (_four_input_pair, 0.5, 0.0, False),
], ids=["ternary-1/3", "ternary-0.25", "four-input-0.5"])
def test_general_sweep_matches_loop_oracle(monkeypatch, pair, step, tol, cell_oracle):
    # the letter-plane sweep (the grid oracle) moves frontiers of 3 or more
    # inputs by at most an ulp from the full-grid sweep (grid values i * (1/k)
    # for c/k, sums left to right for matmul), and not at all at step 0.5; at
    # step 1/3 it gives the bytes of its own per-cell loop
    w_y, w_z = pair()
    grid = GridSpec(prob_step=step, rd_step=0.01)

    def once_per_mode(oracle):  # the hull does not change the raw table
        tables = {}

        def sweep(w_y, w_z, prior, rows, rd_step, n_rd, mode):
            if mode not in tables:
                tables[mode] = oracle(w_y, w_z, prior, rows, rd_step, n_rd, mode)
            return tables[mode]
        return sweep

    full_grid = once_per_mode(lambda w_y, w_z, prior, rows, rd_step, n_rd, mode:
                              _oracle_general_sweep(w_y, w_z, grid, rd_step, n_rd, False, mode))
    cell_loop = once_per_mode(_oracle_cell_sweep)
    for mode in ("ds", "sim"):
        fn = lambda w_y, w_z, grid, hull: grid_frontier(w_y, w_z, grid, mode, False, hull)
        for hull in (True, False):
            got = fn(w_y, w_z, grid, hull=hull)
            with monkeypatch.context() as patch:
                patch.setattr(helpers, "sweep", full_grid)
                want = fn(w_y, w_z, grid, hull=hull)
            if tol == 0.0:
                assert got.points == want.points
            else:
                assert got.r_d.tobytes() == want.r_d.tobytes()
                assert np.max(np.abs(got.r_s - want.r_s)) <= tol
            if cell_oracle:
                with monkeypatch.context() as patch:
                    patch.setattr(helpers, "sweep", cell_loop)
                    loop = fn(w_y, w_z, grid, hull=hull)
                assert np.asarray(got.points).tobytes() == np.asarray(loop.points).tobytes()


def _oracle_fold_max(table, rd, rs, rd_step):
    """The sort-based fold the sweep used before ``np.maximum.at``: stable
    argsort by bin, then one ``maximum.reduceat`` per bin."""
    g = np.ceil(rd.ravel() / rd_step - BIN_FUZZ).astype(np.int64)
    np.clip(g, 0, None, out=g)
    keep = g < table.size
    g = g[keep]
    vals = rs.ravel()[keep]
    if g.size == 0:
        return
    order = np.argsort(g, kind="stable")
    gs = g[order]
    vs = vals[order]
    starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
    idx = gs[starts]
    table[idx] = np.maximum(table[idx], np.maximum.reduceat(vs, starts))


class TestFoldMax:
    def test_matches_sort_based_fold(self):
        # bins below 0 and past the table, many ties, +-0.0 and +-inf values;
        # np.array_equal, because a bin holding only +-0.0 ties may keep
        # either sign depending on the order of folding
        rng = np.random.default_rng(17)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, 0.25, -0.25])
        rd_step = 0.01
        for _ in range(300):
            size = int(rng.integers(1, 40))
            count = int(rng.integers(0, 200))
            bins = rng.integers(-5, size + 5, count)
            rd = bins * rd_step + rng.choice([0.0, -0.3, 0.3], count) * rd_step
            rs = np.where(rng.random(count) < 0.5, rng.choice(specials, count),
                          rng.normal(size=count).round(1))
            start = np.where(rng.random(size) < 0.5, -np.inf, rng.normal(size=size))
            expected = start.copy()
            _oracle_fold_max(expected, rd, rs, rd_step)
            table = start.copy()
            fold_max(table, rd.reshape(-1, 1), rs.reshape(-1, 1), rd_step)
            assert np.array_equal(table, expected)

    def test_out_of_range_bins(self):
        table = np.full(3, -np.inf)
        fold_max(table, np.array([-0.5, 0.0, 0.021, 0.035, 9.0]),
                 np.array([1.0, 0.5, 2.0, 3.0, 7.0]), 0.01)
        assert table.tolist() == [1.0, -np.inf, -np.inf]
        fold_max(table, np.array([0.019, 0.02]), np.array([4.0, 5.0]), 0.01)
        assert table.tolist() == [1.0, -np.inf, 5.0]


def _binary_sweep(w_y, w_z, p_grid, a_grid, b_grid, rd_step, n_rd, mode):
    """The sweep on the binary grids of (P_V(0), P_{X|V}(0|0), P_{X|V}(1|1))."""
    prior = np.stack([p_grid, 1.0 - p_grid], axis=1)
    rows = [np.stack([a_grid, 1.0 - a_grid], axis=1), np.stack([1.0 - b_grid, b_grid], axis=1)]
    return helpers.sweep(w_y, w_z, prior, rows, rd_step, n_rd, mode)


@pytest.mark.parametrize("batch_cells", [1, 4 * 21 * 21, 1 << 30])
def test_sweep_batches_fold_the_same_cells(monkeypatch, batch_cells):
    # one plane per batch, 4 planes per batch with a short last batch, and
    # all 21 planes in one batch give the same table bytes
    p = GridSpec(prob_step=0.05).prob_grid()
    for mode in ("ds", "sim"):
        args = (bsc(0.11).matrix, bec(0.45).matrix, p, p, p, 0.05, 30, mode)
        with monkeypatch.context() as patch:
            patch.setattr(helpers, "BATCH_CELLS", batch_cells)
            batched = _binary_sweep(*args)
        assert batched.tobytes() == _binary_sweep(*args).tobytes()


def _grid_frontiers():
    """``secrecy_frontier`` and ``secrecy_frontier_sim`` as the grid sweep gives
    them on every input alphabet: the oracle of the package's frontiers."""
    def frontier_fn(mode):
        return lambda w_y, w_z, grid, v_equals_x=False, hull=True: grid_frontier(
            w_y, w_z, grid, mode, v_equals_x, hull)
    return frontier_fn("ds"), frontier_fn("sim")


def _frontier_digest(w_y, w_z, prob_step, fns=(secrecy_frontier, secrecy_frontier_sim)):
    """SHA-256 over the little-endian float64 points of the eight frontiers of
    a pair: ds/sim x hull on/off x v_equals_x on/off."""
    digest = hashlib.sha256()
    grid = GridSpec(prob_step=prob_step)
    for fn in fns:
        for hull in (True, False):
            for v_equals_x in (True, False):
                front = fn(w_y, w_z, grid, v_equals_x=v_equals_x, hull=hull)
                digest.update(np.asarray(front.points, dtype="<f8").tobytes())
    return digest.hexdigest()


DIGEST_PAIRS = {
    "bsc0.1/bsc0.2": (bsc(0.1), bsc(0.2), 0.05),
    "bsc0.11/bec0.45": (bsc(0.11), bec(0.45), 0.05),
    "identity/bsc0.2": (Dmc.identity(2), bsc(0.2), 0.05),
    "ternary": (*TestGeneralAlphabets.ternary_pair(), 0.5),
    "bsc0.1/bsc0.2@0.01": (bsc(0.1), bsc(0.2), 0.01),
    "bsc0.11/bec0.45@0.01": (bsc(0.11), bec(0.45), 0.01),
}

# the grid sweep's frontiers, recorded from the sort-based fold and the
# two-cost sweep it replaced
FRONTIER_DIGESTS = {
    "bsc0.1/bsc0.2":
        "4b3bed61c143e900f4a419a0f082ee5fed5d7ecbb6f06aef6f7597947090d191",
    "bsc0.11/bec0.45":
        "dbe4564c2922b68c707664b1f581a59282f53aac83ca364d41ffa950ba770f90",
    "identity/bsc0.2":
        "06d42e5b7a65a0c2facb8b81509d3839498b9b6cbf8fc1edaaf26fdc935a0e18",
    "ternary":
        "f43ad814db3e4b68c23e15b60415cb12ca987d82fa992ee92a68ac0468e18ebf",
    # the two paper pairs at the step the benchmark and the CLI run, recorded
    # from the sweep that materialized each (P, A, B, m) output law
    "bsc0.1/bsc0.2@0.01":
        "6f81523af1bacaf26452613e32dcf56c8947eb1cab8076657a641277811e2bbf",
    "bsc0.11/bec0.45@0.01":
        "4456f84bd7f1c053e80d0517dafef734d451ebee7e9c162a35070df1d7ae5033",
}


@pytest.mark.parametrize("name", sorted(FRONTIER_DIGESTS))
def test_frontier_bytes_golden(name):
    assert _frontier_digest(*DIGEST_PAIRS[name], _grid_frontiers()) == FRONTIER_DIGESTS[name]


# the public frontiers of binary pairs with a free prefix (the lattice's), with
# V = X from the grid sweep
PUBLIC_DIGESTS = {
    "bsc0.1/bsc0.2":
        "c95946c8ccfde24da83b9f8a3ef2f859368dd4a72e23b601dd4afc1844823c25",
    "bsc0.11/bec0.45":
        "6135768ccf80e93b6618ca7ce07b883aa26e0c345ad8230bd2f239795a1bd8f9",
    "identity/bsc0.2":
        "02c0e7149f1b75ebe0ee09a8e30715cab95ad5139a286528f9840d3392d2f4fb",
    "bsc0.1/bsc0.2@0.01":
        "ebfc0078b295261872d37063965a0e5406b1ea03f0b148f363fabf7767b73913",
    "bsc0.11/bec0.45@0.01":
        "41ed6ac18cba9341103646138e5e77b4497ab4b04560f8f8db8b4fc973c6c68c",
}


def _grid_raw_sim(w_y, w_z, grid, v_equals_x=False, hull=True):
    """``secrecy_frontier_sim`` with its raw curve from the grid sweep."""
    return (secrecy_frontier_sim if hull else _grid_frontiers()[1])(
        w_y, w_z, grid, v_equals_x=v_equals_x, hull=hull)


def _grid_v_equals_x(public, grid_fn):
    """``public`` with its V = X frontiers from the grid sweep ``grid_fn``."""
    return lambda w_y, w_z, grid, v_equals_x=False, hull=True: (
        grid_fn if v_equals_x else public)(w_y, w_z, grid, v_equals_x=v_equals_x, hull=hull)


@pytest.mark.parametrize("name", sorted(PUBLIC_DIGESTS))
def test_public_frontier_bytes_golden(name):
    # recorded while raw sim and V = X were the grid sweep's, which stays their
    # oracle: the six free-prefix frontiers are byte-identical to those
    # recordings
    fns = [_grid_v_equals_x(fn, grid_fn)
           for fn, grid_fn in zip((secrecy_frontier, _grid_raw_sim), _grid_frontiers())]
    assert _frontier_digest(*DIGEST_PAIRS[name], fns) == PUBLIC_DIGESTS[name]


# the lattice's raw sim frontiers (free prefix) of the PUBLIC_DIGESTS pairs
RAW_SIM_DIGESTS = {
    "bsc0.1/bsc0.2":
        "0850f2ae5a331357f755c50380c4431f22b1f7e4f13aeaf71f67622bdd425c1a",
    "bsc0.11/bec0.45":
        "a73f9cbcac596b87a8a618b0dda1bbe33f570ddd95bc67615b94fa89b8065b5a",
    "identity/bsc0.2":
        "75144d0113cceee316f8ee045bf9bf893954ff40372a8745700c2e737eedd2f0",
    "bsc0.1/bsc0.2@0.01":
        "ef660b373107e0ba365bb420517a71dec400bdc0fb718a569872e03f429df58e",
    "bsc0.11/bec0.45@0.01":
        "bdaf09c77d76fd954cb30e7f3ea284bb0396e2a906b7528f306f01e6ceb866f7",
}


@pytest.mark.parametrize("name", sorted(RAW_SIM_DIGESTS))
def test_raw_sim_frontier_bytes_golden(name):
    w_y, w_z, step = DIGEST_PAIRS[name]
    front = secrecy_frontier_sim(w_y, w_z, GridSpec(prob_step=step), hull=False)
    digest = hashlib.sha256(np.asarray(front.points, dtype="<f8").tobytes()).hexdigest()
    assert digest == RAW_SIM_DIGESTS[name]


def _oracle_row_entropies(rows):
    return -_xlogx(rows).sum(axis=-1)


def _oracle_receiver(w, p, q, a, b):
    """Output law, entropy and I(V; output) as the sweep computed them before it
    went letter by letter: the (P, A, B, m) law, then a last-axis sum."""
    row0 = a * w[0] + (1.0 - a) * w[1]
    row1 = (1.0 - b) * w[0] + b * w[1]
    law = np.empty((len(p), len(row0), len(row1), row0.shape[1]))
    for k in range(row0.shape[1]):
        np.add(p * row0[:, k, None], q * row1[None, :, k], out=law[..., k])
    h = _oracle_row_entropies(law)
    return law, h, h - (p * _oracle_row_entropies(row0)[:, None]
                        + q * _oracle_row_entropies(row1)[None, :])


def _oracle_planes(w_y, w_z, p, a_grid, b_grid):
    q = 1.0 - p
    a, b = a_grid[:, None], b_grid[:, None]
    p_y, hy, ivy = _oracle_receiver(w_y, p, q, a, b)
    p_z, hz, ivz = _oracle_receiver(w_z, p, q, a, b)
    px0 = p * a + q * (1.0 - b_grid[None, :])
    hz_row0, hz_row1 = float(_oracle_row_entropies(w_z[0])), float(_oracle_row_entropies(w_z[1]))
    ha = _oracle_row_entropies(np.stack([a_grid, 1.0 - a_grid], axis=1))
    hb = _oracle_row_entropies(np.stack([b_grid, 1.0 - b_grid], axis=1))
    return {
        "rs": ivy - ivz,
        "rd_ds": hz - (px0 * hz_row0 + (1.0 - px0) * hz_row1),
        "rd_sim": ivz + p * ha[:, None] + q * hb[None, :],
        "ivy": ivy, "ivz": ivz, "p_y": p_y, "p_z": p_z, "hy": hy, "hz": hz,
    }


def _oracle_sweep_binary(w_y, w_z, p_grid, a_grid, b_grid, rd_step, n_rd, mode):
    """The law-materializing sweep, kept as the oracle of the sweep on binary grids:
    every field of every batch of planes, then the sort-based fold."""
    table = np.full(n_rd, -np.inf)
    batch = max(1, helpers.BATCH_CELLS // (len(a_grid) * len(b_grid)))
    for start in range(0, len(p_grid), batch):
        cells = _oracle_planes(w_y, w_z, p_grid[start:start + batch, None, None],
                               a_grid, b_grid)
        _oracle_fold_max(table, cells[f"rd_{mode}"], cells["rs"], rd_step)
    return table


def _random_binary_input_pair(outputs, seed):
    """Two seeded binary-input channels with ``outputs`` letters each; one
    letter of each eavesdropper row is zero, so some planes hold zeros."""
    rng = np.random.default_rng(seed)
    w_y = rng.dirichlet(np.ones(outputs), size=2)
    w_z = rng.dirichlet(np.ones(outputs), size=2)
    w_z[0, 0] = w_z[1, -1] = 0.0
    return w_y, w_z / w_z.sum(axis=1, keepdims=True)


ORACLE_PAIRS = {
    "bsc0.1/bsc0.2": lambda: (bsc(0.1).matrix, bsc(0.2).matrix),
    "bsc0.11/bec0.45": lambda: (bsc(0.11).matrix, bec(0.45).matrix),
    "identity/bsc0.2": lambda: (Dmc.identity(2).matrix, bsc(0.2).matrix),
    "random-3": lambda: _random_binary_input_pair(3, 31),
    "random-5": lambda: _random_binary_input_pair(5, 51),
    "random-7": lambda: _random_binary_input_pair(7, 71),
}


def _sweep_args(w_y, w_z, step, mode):
    p = GridSpec(prob_step=step).prob_grid()
    cap = min(math.log(2.0), math.log(w_z.shape[1])) + math.log(2.0)
    return w_y, w_z, p, p, p, step, int(math.ceil(cap / step)) + 1, mode


class TestLetterPlanes:
    """The sweep forms each output letter's plane and never the law; below 8
    letters it gives the oracle's bytes, from 8 letters up its entropy sum
    runs in another order than NumPy's pairwise last-axis sum."""

    @pytest.mark.parametrize("step", [0.05, 0.02, 0.01])
    @pytest.mark.parametrize("name", sorted(ORACLE_PAIRS))
    def test_sweep_matches_law_oracle_bytes(self, name, step):
        w_y, w_z = ORACLE_PAIRS[name]()
        for mode in ("ds", "sim"):
            args = _sweep_args(w_y, w_z, step, mode)
            assert _binary_sweep(*args).tobytes() == _oracle_sweep_binary(*args).tobytes()

    @pytest.mark.parametrize("name", sorted(ORACLE_PAIRS))
    def test_binary_cells_match_oracle_fields(self, name):
        w_y, w_z = ORACLE_PAIRS[name]()
        p = GridSpec(prob_step=0.05).prob_grid()
        cells = binary_cells(w_y, w_z, p, p, p)
        want = _oracle_planes(w_y, w_z, p[:, None, None], p, p)
        assert sorted(cells) == sorted(want)
        for key, value in want.items():
            flat = value.reshape(-1, *value.shape[3:])
            assert cells[key].shape == flat.shape
            assert cells[key].tobytes() == flat.tobytes(), key
        assert cells["p_y"].shape == (p.size ** 3, w_y.shape[1])
        assert cells["p_z"].shape == (p.size ** 3, w_z.shape[1])
        some = binary_cells(w_y, w_z, p, p, p, ("rs", "rd_sim"))
        assert list(some) == ["rs", "rd_sim"]
        assert all(some[key].tobytes() == cells[key].tobytes() for key in some)

    @pytest.mark.parametrize("outputs", [8, 12])
    def test_many_outputs_within_rounding(self, outputs):
        w_y, w_z = _random_binary_input_pair(outputs, 10 + outputs)
        for step in (0.05, 0.02):
            for mode in ("ds", "sim"):
                args = _sweep_args(w_y, w_z, step, mode)
                np.testing.assert_allclose(_binary_sweep(*args), _oracle_sweep_binary(*args),
                                           rtol=0.0, atol=1e-12)
        p = GridSpec(prob_step=0.05).prob_grid()
        cells = binary_cells(w_y, w_z, p, p, p)
        want = _oracle_planes(w_y, w_z, p[:, None, None], p, p)
        for key, value in want.items():
            np.testing.assert_allclose(cells[key], value.reshape(cells[key].shape),
                                       rtol=0.0, atol=1e-12, err_msg=key)


def _random_binary_pair(rng):
    """A binary-input pair with 2 to 4 outputs a receiver; a third of the
    eavesdropper channels have a zero entry."""
    w_y = Dmc(rng.dirichlet(np.ones(int(rng.integers(2, 5))), size=2))
    w_z = rng.dirichlet(np.ones(int(rng.integers(2, 5))), size=2)
    if rng.random() < 1 / 3:
        w_z[0, -1] = 0.0
    return w_y, Dmc(w_z / w_z.sum(axis=1, keepdims=True))


ENVELOPE_PAIRS = [(bsc(0.1), bsc(0.2)), (bsc(0.11), bec(0.45))] + [
    _random_binary_pair(np.random.default_rng([23, i])) for i in range(50)]


def _concave_nondecreasing(r_s):
    return np.all(np.diff(r_s) >= -1e-12) and np.all(np.diff(r_s, 2) <= 1e-12)


class TestDsEnvelope:
    """The lattice frontiers of binary inputs (``ds`` and ``sim``, hulled and
    raw) against the grid sweep they replace, which stays their oracle."""

    @pytest.mark.parametrize("step", [0.05, 0.02])
    def test_dominates_the_grid_frontier(self, step):
        grid = GridSpec(prob_step=step)
        grid_ds, grid_sim = _grid_frontiers()
        for w_y, w_z in ENVELOPE_PAIRS:
            ds, raw_ds = (secrecy_frontier(w_y, w_z, grid, hull=h) for h in (True, False))
            sim = secrecy_frontier_sim(w_y, w_z, grid)
            swept = {(fn, h): fn(w_y, w_z, grid, hull=h)
                     for fn in (grid_ds, grid_sim) for h in (True, False)}
            raw_sim = secrecy_frontier_sim(w_y, w_z, grid, hull=False)
            for front in (ds, raw_ds, sim, raw_sim):
                assert front.provenance["method"] == "envelope"
                assert front.r_d.tobytes() == swept[grid_ds, True].r_d.tobytes()
            assert np.all(ds.r_s >= swept[grid_ds, True].r_s - 1e-12)
            assert np.all(raw_ds.r_s >= swept[grid_ds, False].r_s - 1e-12)
            assert np.all(sim.r_s >= swept[grid_sim, True].r_s - 1e-12)
            assert np.all(sim.r_s >= swept[grid_sim, False].r_s - 1e-12)
            # raw sim folds the sweep's own cells: within rounding of it, both ways
            np.testing.assert_allclose(raw_sim.r_s, swept[grid_sim, False].r_s,
                                       rtol=0.0, atol=1e-12)
            assert np.all(sim.r_s <= ds.r_s + 1e-12)
            assert np.all(raw_ds.r_s <= ds.r_s + 1e-12)
            assert np.all(raw_sim.r_s <= sim.r_s + 1e-12)
            assert np.all(raw_sim.r_s <= raw_ds.r_s + 1e-12)
            # concave and nondecreasing, as a hulled frontier is
            assert _concave_nondecreasing(ds.r_s) and _concave_nondecreasing(sim.r_s)
            assert np.all(np.diff(raw_ds.r_s) >= 0.0) and np.all(np.diff(raw_sim.r_s) >= 0.0)

    @pytest.mark.parametrize("pair", [(bsc(0.1), bsc(0.2)), (bsc(0.11), bec(0.45))],
                             ids=["bsc", "bsc/bec"])
    def test_raw_sim_is_the_grid_sweep_at_the_benchmark_step(self, pair):
        grid = GridSpec(prob_step=0.01)
        raw_sim = secrecy_frontier_sim(*pair, grid, hull=False)
        swept = grid_frontier(*pair, grid, "sim", False, False)
        assert raw_sim.r_d.tobytes() == swept.r_d.tobytes()
        np.testing.assert_allclose(raw_sim.r_s, swept.r_s, rtol=0.0, atol=1e-12)
        assert np.all(raw_sim.r_s <= secrecy_frontier_sim(*pair, grid).r_s + 1e-12)
        assert np.all(raw_sim.r_s <= secrecy_frontier(*pair, grid, hull=False).r_s + 1e-12)
        # one (k + 1)^2 plane of cells per weight i / k with i <= k / 2
        assert raw_sim.provenance["cells_folded"] == 51 * 101**2
        assert raw_sim.provenance["x_points"] == 10_001
        assert raw_sim.provenance["split_points"] == 101

    def test_degraded_bsc_pair_reaches_its_capacity(self):
        # psi is concave for a degraded pair, so its envelope is the chord and
        # the top is h(0.2) - h(0.1) at the uniform input, cost ln 2 - h(0.2)
        front = secrecy_frontier(bsc(0.1), bsc(0.2), GridSpec(prob_step=0.01))
        assert front.r_s[-1] == pytest.approx(h(0.2) - h(0.1), abs=1e-12)
        assert front.r_s[0] == 0.0
        assert front.provenance["x_points"] == 10_001
        assert front.provenance["split_points"] == 101

    @pytest.mark.parametrize("step", [0.01, 0.002])
    def test_degraded_bsc_pair_has_no_gap(self, step):
        # a degraded pair needs no prefix, so simulating one costs nothing:
        # the continuum gap is 0, and both lattice frontiers meet
        grid = GridSpec(prob_step=step)
        ds = secrecy_frontier(bsc(0.1), bsc(0.2), grid)
        sim = secrecy_frontier_sim(bsc(0.1), bsc(0.2), grid)
        assert np.max(ds.r_s - sim.r_s) <= 1e-9
        assert np.all(sim.r_s <= ds.r_s + 1e-12)

    @pytest.mark.parametrize("pair, step, queries, vertices", [
        ((bsc(0.1), bsc(0.2)), 0.01, 192, 173), ((bsc(0.11), bec(0.45)), 0.01, 6, 4),
        ((bsc(0.1), bsc(0.2)), 0.05, 28, 25), ((bsc(0.11), bec(0.45)), 0.05, 2, 2),
        ((bsc(0.1), bsc(0.2)), 0.005, 416, 378), ((bsc(0.1), bsc(0.2)), 0.002, 1163, 1067)],
        ids=["bsc-0.01", "bec-0.01", "bsc-0.05", "bec-0.05", "bsc-0.005", "bsc-0.002"])
    def test_sim_slope_queries_are_pinned(self, pair, step, queries, vertices):
        # the degraded pair's hull bends at every input law, so its budgets
        # each take a few queries; the BEC pair's is a few straight edges
        sim = secrecy_frontier_sim(*pair, GridSpec(prob_step=step))
        assert sim.provenance["slope_queries"] == queries
        assert sim.provenance["hull_vertices"] == vertices
        assert sim.provenance["slope_tol"] == frontier.SLOPE_TOL

    @pytest.mark.parametrize("pairs, step", [
        (ENVELOPE_PAIRS, 0.05), (ENVELOPE_PAIRS, 0.02), (ENVELOPE_PAIRS, 0.01),
        (ENVELOPE_PAIRS[:2], 0.005), (ENVELOPE_PAIRS[:2], 0.002)],
        ids=["52-pairs-0.05", "52-pairs-0.02", "52-pairs-0.01", "paper-0.005", "paper-0.002"])
    def test_pruned_slope_search_is_the_full_scan(self, pairs, step):
        # each query scans only the laws that can beat its chord, and finds
        # the vertices, the query count and every frontier byte of the search
        # that scans every law
        grid = GridSpec(prob_step=step)
        for w_y, w_z in pairs:
            rd_grid, rd_step = frontier._budget_axis(w_y, w_z, grid)
            lattice = frontier._lattice(w_y, w_z, grid.k, grid.k, rd_step)
            vertices, queries = full_scan_sim_hull(lattice, rd_grid.tolist())
            assert frontier._sim_hull(lattice, rd_grid.tolist()) == (vertices, queries)
            sim = secrecy_frontier_sim(w_y, w_z, grid)
            assert sim.r_s.tobytes() == np.interp(rd_grid, *np.array(vertices).T).tobytes()
            assert sim.provenance["slope_queries"] == queries
            assert sim.provenance["hull_vertices"] == len(vertices)

    def test_scan_boxes_allow_for_rounding(self):
        # g = H(X|Z) rounds to a few ulps below 0 on nearly noiseless rows
        # (-2.2e-16 is seen), so a point can cost a hair less than I(X;Z) at
        # its law.  Here the top point (law 1, split at the pure rows) costs
        # exactly I(X;Z) there, and the vertex under its chord is law 1 split
        # at the middle row, 4e-16 cheaper: only the box's margin keeps law 1
        # in the scan of that chord, whose slope is 5,000
        delta = 1e-13
        lattice = frontier._Lattice(
            x=np.arange(5) / 4, psi=np.array([0.0, 0.5, delta, 0.0, 0.0]),
            cost=np.array([0.0, 1e-4, 0.2, 0.2, 0.0]), g=np.array([0.0, -8e-16, 0.0]),
            steps=np.arange(3), k=2)
        budgets = [0.0, 5e-5]
        found = frontier._sim_hull(lattice, budgets)
        assert found == full_scan_sim_hull(lattice, budgets)
        assert len(found[0]) == 3 and found[0][1][0] < lattice.cost[1]

    def test_grid_path_reports_its_method(self):
        # no path runs the grid sweep: V = X reads the tables at its prior
        # laws, one cell each, and larger alphabets fold the cells gathered
        # from the lattice, each reporting what it evaluated
        grid = GridSpec(prob_step=0.05)
        assert secrecy_frontier_sim(bsc(0.1), bsc(0.2), grid,
                                    hull=False).provenance["method"] == "envelope"
        for fn in (secrecy_frontier, secrecy_frontier_sim):
            for hull in (True, False):
                front = fn(bsc(0.1), bsc(0.2), grid, v_equals_x=True, hull=hull)
                assert front.provenance["method"] == "prior_laws"
                assert front.provenance["x_points"] == front.provenance["cells_folded"] == 21
                assert front.provenance["split_points"] == 2
        w_y, w_z = TestGeneralAlphabets.ternary_pair()
        for step, priors, rows in ((0.5, 2, 6), (0.25, 4, 15)):
            front = secrecy_frontier(w_y, w_z, GridSpec(prob_step=step))
            k = round(1 / step)
            assert front.provenance["method"] == "gather"
            assert front.provenance["x_points"] == math.comb(k * k + 2, 2)
            assert front.provenance["split_points"] == rows
            # priors with non-decreasing counts: (0, 0, 2), (0, 1, 1) at k = 2
            assert front.provenance["cells_folded"] == priors * rows**3
        front = secrecy_frontier(w_y, w_z, GridSpec(prob_step=0.5), v_equals_x=True)
        assert front.provenance["method"] == "prior_laws"
        assert front.provenance["x_points"] == front.provenance["cells_folded"] == 6

    def test_useless_eavesdropper(self):
        # I(X;Z) = 0 at every input: both costs are 0 with no prefix, so both
        # frontiers are the receiver's capacity at every budget
        w_y, w_z = bsc(0.1), Dmc([[0.3, 0.7], [0.3, 0.7]])
        grid = GridSpec(prob_step=0.05)
        cap = LN2 - h(0.1)
        for fn in (secrecy_frontier, secrecy_frontier_sim):
            front = fn(w_y, w_z, grid)
            np.testing.assert_allclose(front.r_s, cap, rtol=0.0, atol=1e-12)
        assert secrecy_frontier_sim(w_y, w_z, grid).provenance["hull_vertices"] == 1

    @pytest.mark.parametrize("shape", ["random", "concave", "convex", "wave"])
    def test_prefiltered_envelope_matches_plain_chain(self, shape):
        x = np.arange(2001) / 2000
        y = {"random": np.random.default_rng(4).normal(size=x.size),
             "concave": -(x - 0.3) ** 2, "convex": (x - 0.3) ** 2,
             "wave": np.sin(12.0 * x) + x}[shape]
        plain = np.interp(x, *hull_chain(x, y, lower=True))   # no pre-filter
        assert frontier._lower_envelope(x, y).tobytes() == plain.tobytes()

    @pytest.mark.parametrize("shape", ["random", "collinear", "steps", "arc-then-jump",
                                       "arcs-then-jumps", "concave", "two-points"])
    def test_vectorised_hull_matches_plain_chain(self, shape):
        # the passes give the plain chain's vertices; an arc that ends below a
        # jump loses one point a pass, so it reaches the chained fall-back
        rng = np.random.default_rng(7)
        x = np.arange(400) / 399
        arc = np.sqrt(x)
        y = {"random": rng.normal(size=x.size),
             "collinear": 3.0 * np.arange(400.0) + 1.0,
             "steps": np.floor(8.0 * x),
             "arc-then-jump": np.where(x < 0.99, arc, 50.0),
             "arcs-then-jumps": np.where(x < 0.5, arc, arc + 40.0) + 90.0 * (x == 1.0),
             "concave": -(x - 0.3) ** 2,
             "two-points": None}[shape]
        if y is None:
            x, y = x[:2], np.array([0.0, 1.0])
        vx, vy = hull_chain(x, y, lower=False)
        keep = frontier._upper_hull(x, y)
        assert x[keep].tolist() == vx.tolist() and y[keep].tolist() == vy.tolist()

    def test_lattice_guard(self):
        assert frontier._envelope_points(GridSpec(prob_step=1 / 2047)) == 2047**2 + 1
        for fn in (secrecy_frontier, secrecy_frontier_sim):
            for hull in (True, False):
                with pytest.raises(GuardExceeded, match="envelope lattice"):
                    fn(bsc(0.1), bsc(0.2), GridSpec(prob_step=1 / 2048), hull=hull)

    def test_binary_inputs_only(self):
        # the envelope and its supporting lines; larger alphabets gather cells
        w = Dmc.identity(3)
        with pytest.raises(ValueError, match="binary inputs"):
            supporting_line_value(w, w, 0.5, 0.1, GridSpec(prob_step=0.5))
        assert secrecy_frontier(w, w, GridSpec(prob_step=0.5)).provenance["method"] == "gather"


class TestGatheredFrontiers:
    """V = X frontiers (the tables at the input laws) and frontiers of three or
    more inputs (cells gathered from the lattice) against the grid sweep."""

    @staticmethod
    def assert_matches_the_grid(w_y, w_z, grid, v_equals_x):
        # at every budget, both ways, both modes, hull on and off
        for fn, grid_fn in zip((secrecy_frontier, secrecy_frontier_sim), _grid_frontiers()):
            for hull in (True, False):
                got = fn(w_y, w_z, grid, v_equals_x=v_equals_x, hull=hull)
                want = grid_fn(w_y, w_z, grid, v_equals_x=v_equals_x, hull=hull)
                assert got.r_d.tobytes() == want.r_d.tobytes()
                assert np.max(np.abs(got.r_s - want.r_s)) <= 1e-12

    @pytest.mark.parametrize("step", [0.05, 0.01])
    def test_binary_v_equals_x_matches_the_grid(self, step):
        for w_y, w_z in ENVELOPE_PAIRS:
            self.assert_matches_the_grid(w_y, w_z, GridSpec(prob_step=step), True)

    @staticmethod
    def random_ternary_pair():
        # not degraded, so the free prefix and simulating it both count
        rng = np.random.default_rng(3)
        return Dmc(rng.dirichlet(np.ones(3), size=3)), Dmc(rng.dirichlet(np.ones(3), size=3))

    @pytest.mark.parametrize("pair,step", [
        (TestGeneralAlphabets.ternary_pair, 0.5), (TestGeneralAlphabets.ternary_pair, 1 / 3),
        (TestGeneralAlphabets.ternary_pair, 0.25), (_four_input_pair, 0.5),
        (random_ternary_pair, 1 / 3),
    ], ids=["ternary-0.5", "ternary-1/3", "ternary-0.25", "four-input-0.5", "random-ternary-1/3"])
    @pytest.mark.parametrize("v_equals_x", [False, True], ids=["free", "v=x"])
    def test_larger_alphabets_match_the_grid(self, pair, step, v_equals_x):
        w_y, w_z = pair()
        self.assert_matches_the_grid(w_y, w_z, GridSpec(prob_step=step, rd_step=0.01), v_equals_x)

    def test_v_equals_x_guard(self):
        # V = X frontiers of every alphabet are held to the guard
        k = frontier.CELL_GUARD  # k + 1 binary input laws
        ternary = TestGeneralAlphabets.ternary_pair()
        for w_y, w_z, step in ((bsc(0.1), bsc(0.2), 1 / k), (*ternary, 1 / 3000)):
            for fn in (secrecy_frontier, secrecy_frontier_sim):
                with pytest.raises(GuardExceeded, match="envelope lattice"):
                    fn(w_y, w_z, GridSpec(prob_step=step, rd_step=0.1), v_equals_x=True)

    def test_tripped_guards_allocate_nothing_of_their_size(self):
        # k = 10^9: every guard is checked before an array of k entries exists
        grid = GridSpec(prob_step=1e-9, rd_step=0.1)
        pairs = ((bsc(0.1), bsc(0.2)), TestGeneralAlphabets.ternary_pair())
        tracemalloc.start()
        try:
            for (w_y, w_z), fn, hull, v_equals_x in itertools.product(
                    pairs, (secrecy_frontier, secrecy_frontier_sim), (True, False),
                    (True, False)):
                with pytest.raises(GuardExceeded):
                    fn(w_y, w_z, grid, hull=hull, v_equals_x=v_equals_x)
            with pytest.raises(GuardExceeded):
                supporting_line_value(bsc(0.1), bsc(0.2), 0.5, 0.1, grid)
            with pytest.raises(GuardExceeded):
                min_dummy_rate(bsc(0.1), bsc(0.2), 0.0, 0.1, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# the public frontiers as the package computes them, all eight of each pair:
# V = X from the tables at its input laws, and the ternary pair's free-prefix
# frontiers from the cells gathered off the lattice
GATHERED_DIGESTS = {
    "bsc0.1/bsc0.2":
        "ee6936a8c29e42ef01f05201d4ea63c643c10791eb2cbdd1fb2ed8596d00a528",
    "bsc0.1/bsc0.2@0.01":
        "0bd9de69a223752d8872357bb303b4b8af6773a0aa419eafd731966c8de89ba5",
    "bsc0.11/bec0.45":
        "a318fb75f3e64808c82c24954c6fc6b5440c5d70ddb8f9b15e0f6f63be950d57",
    "bsc0.11/bec0.45@0.01":
        "d30cd871551b49af87eb16a27708dd82e71a65ca879cfeed246df8c1ceaaa509",
    "identity/bsc0.2":
        "1d045a79121dc23c99e305d4afbb00b0f1be47dddcc2b119a228ff153379c196",
    "ternary":
        "061a244101a115800553f310c35e366aa8e4bb0a3c91b182cc7b32a52183d985",
}


@pytest.mark.parametrize("name", sorted(GATHERED_DIGESTS))
def test_gathered_frontier_bytes_golden(name):
    assert _frontier_digest(*DIGEST_PAIRS[name]) == GATHERED_DIGESTS[name]
