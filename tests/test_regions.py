import itertools
import math

import numpy as np
import pytest

from bccrates import (
    INFEASIBLE,
    Dmc,
    GridSpec,
    GuardExceeded,
    Pmf,
    RateQuad,
    check_deterministic_encoder,
    check_inner_bound,
    check_rate_quad,
    check_unlimited_randomness,
    informations,
    is_degraded,
    is_more_capable,
    min_dummy_rate,
    secrecy_frontier,
    single_chain,
    split_rates,
)
from bccrates import regions
from bccrates.channels import bec, bsc
from helpers import (binary_cells, grid_frontier, hull_chain, product_blocks, random_chain,
                     simplex_grid)

LN2 = math.log(2.0)


def h(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p) if 0 < p < 1 else 0.0


def fig_chain():
    """Constant common layer, V = X uniform, BSC(0.1)/BSC(0.2)."""
    return single_chain(Pmf.uniform(2), Dmc.identity(2), bsc(0.1), bsc(0.2))


def sample_member_quad(rng, chain, info=None):
    """Sample a quadruple inside the region from its closed-form caps.

    Returns None for chains whose secrecy gap is negative: those admit no
    member quadruple at any nonnegative confidential rate.
    """
    info = info or informations(chain)
    secrecy_gap = info.i_vy_given_u - info.i_vz_given_u
    if secrecy_gap < 0.0:
        return None
    common_cap = min(info.i_uy, info.i_uz)
    r_0 = float(rng.uniform(0.0, common_cap)) if common_cap > 0 else 0.0
    budget = info.i_vy_given_u + common_cap - r_0
    rs_cap = max(0.0, min(secrecy_gap, budget))
    r_s = float(rng.uniform(0.0, rs_cap)) if rs_cap > 0 else 0.0
    r_1 = float(rng.uniform(0.0, max(0.0, budget - r_s)))
    r_d = max(info.i_xz_given_v, info.i_xz_given_u - r_1) + float(rng.uniform(0.0, 0.5))
    return RateQuad(r_d=r_d, r_0=r_0, r_1=r_1, r_s=r_s)


class TestRateQuad:
    def test_nonnegative(self):
        with pytest.raises(ValueError):
            RateQuad(-0.1, 0.0, 0.0, 0.0)
        quad = RateQuad(math.inf, 0.0, 0.0, 0.0)
        assert math.isinf(quad.r_d)


class TestMembership:
    def test_origin_with_v_equal_x(self):
        # constant input, no prefix layer: every information term is zero
        chain = single_chain(Pmf.point_mass(2, 0), Dmc.identity(2), bsc(0.1), bsc(0.2))
        verdict = check_rate_quad(chain, RateQuad(0.0, 0.0, 0.0, 0.0))
        assert verdict.is_member
        assert verdict.slack("dummy_floor") == pytest.approx(0.0, abs=1e-12)

    def test_common_rate_violation_reported(self):
        chain = fig_chain()
        verdict = check_rate_quad(chain, RateQuad(1.0, 0.5, 0.0, 0.0))
        assert not verdict.is_member
        assert "common_rate" in verdict.violated()

    def test_figure_corner_point(self):
        chain = fig_chain()
        quad = RateQuad(0.192745, 0.0, 0.0, 0.175319)
        verdict = check_rate_quad(chain, quad)
        assert verdict.is_member
        # the confidential-rate and private-plus-dummy constraints are tight
        assert abs(verdict.slack("confidential_rate")) <= 1e-6
        assert abs(verdict.slack("private_plus_dummy")) <= 1e-6

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            chain = random_chain(rng)
            mv = chain.p_v_given_u.output_size
            perm = rng.permutation(mv)
            # relabel V: columns of V|U permuted, rows of X|V permuted consistently
            permuted = type(chain)(
                p_u=chain.p_u,
                p_v_given_u=Dmc(chain.p_v_given_u.matrix[:, perm]),
                p_x_given_v=Dmc(chain.p_x_given_v.matrix[perm, :]),
                w_y=chain.w_y,
                w_z=chain.w_z,
            )
            quad = sample_member_quad(rng, chain)
            if quad is None:
                quad = RateQuad(1.0, 0.0, 1.0, 0.0)
            v1 = check_rate_quad(chain, quad)
            v2 = check_rate_quad(permuted, quad)
            assert v1.is_member == v2.is_member
            for c1, c2 in zip(v1.constraints, v2.constraints):
                assert c1.slack == pytest.approx(c2.slack, abs=1e-10)


class TestRegionReductions:
    def test_unlimited_randomness_examples(self):
        chain = fig_chain()
        assert check_unlimited_randomness(chain, 0.0, 0.0, 0.0).is_member
        cs = h(0.2) - h(0.1)
        assert check_unlimited_randomness(chain, 0.0, 0.0, 0.1753).is_member
        assert not check_unlimited_randomness(chain, 0.0, 0.0, cs + 1e-3).is_member

    def test_infinite_budget_reduces_to_unlimited(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            chain = random_chain(rng)
            r = rng.uniform(0.0, 0.6, size=3)
            full = check_rate_quad(chain, RateQuad(math.inf, *r))
            reduced = check_unlimited_randomness(chain, *r)
            assert full.is_member == reduced.is_member

    def test_deterministic_encoder_examples(self):
        chain = fig_chain()
        ixz = LN2 - h(0.2)
        # zero private rate cannot protect the confidential message
        assert not check_deterministic_encoder(chain, 0.0, 0.0, 0.01).is_member
        assert check_deterministic_encoder(chain, 0.0, ixz + 0.01, 0.01).is_member
        boundary = check_deterministic_encoder(chain, 0.0, 0.192745, 0.175319)
        assert boundary.is_member
        assert abs(boundary.slack("confidential_rate")) < 1e-6
        assert abs(boundary.slack("private_floor")) < 1e-6

    def test_deterministic_rejects_prefixed_chains(self):
        chain = single_chain(Pmf.uniform(2), bsc(0.1), bsc(0.1), bsc(0.2))
        with pytest.raises(ValueError):
            check_deterministic_encoder(chain, 0.0, 0.0, 0.0)

    def test_zero_budget_reduces_to_deterministic(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            mu = int(rng.integers(1, 4))
            chain = type(fig_chain())(
                p_u=Pmf(rng.dirichlet(np.ones(mu))),
                p_v_given_u=Dmc(rng.dirichlet(np.ones(2), size=mu)),
                p_x_given_v=Dmc.identity(2),
                w_y=bsc(0.1),
                w_z=bsc(0.2),
            )
            r = rng.uniform(0.0, 0.4, size=3)
            full = check_rate_quad(chain, RateQuad(0.0, *r))
            reduced = check_deterministic_encoder(chain, *r)
            assert full.is_member == reduced.is_member


class TestRateSplitting:
    def test_case_none(self):
        chain = fig_chain()
        info = informations(chain)
        quad = RateQuad(r_d=0.25, r_0=0.0, r_1=info.i_vz_given_u + 0.001, r_s=0.0)
        split = split_rates(chain, quad)
        assert split.case == "none"
        assert split.shifted == quad

    def test_case_dummy_to_private(self):
        chain = fig_chain()
        info = informations(chain)
        quad = RateQuad(r_d=0.25, r_0=0.0, r_1=0.0, r_s=0.1)
        split = split_rates(chain, quad)
        assert split.case == "dummy_to_private"
        assert split.r_d == pytest.approx(info.i_vz_given_u, abs=1e-12)
        assert split.shifted.r_1 == pytest.approx(info.i_vz_given_u, abs=1e-12)
        assert check_inner_bound(chain, split.shifted).is_member

    def test_case_private_to_common(self):
        # informative common layer plus a degraded pair below it
        chain = type(fig_chain())(
            p_u=Pmf.uniform(2),
            p_v_given_u=bsc(0.1),
            p_x_given_v=Dmc.identity(2),
            w_y=bsc(0.05),
            w_z=bsc(0.25),
        )
        info = informations(chain)
        cap = min(info.i_uy, info.i_uz)
        secrecy = info.i_vy_given_u - info.i_vz_given_u
        assert cap > 0.0 and secrecy > 0.0
        r_s = 0.5 * secrecy
        r_1 = info.i_vy_given_u - r_s + 0.5 * cap  # overflows the satellite layer
        quad = RateQuad(r_d=info.i_xz_given_u + 1.0, r_0=0.0, r_1=r_1, r_s=r_s)
        assert check_rate_quad(chain, quad).is_member
        split = split_rates(chain, quad)
        assert split.case == "private_to_common"
        assert split.r_d == 0.0
        assert split.r_0 == pytest.approx(0.5 * cap, abs=1e-12)
        assert check_inner_bound(chain, split.shifted).is_member

    def test_rejects_non_members(self):
        chain = fig_chain()
        with pytest.raises(ValueError):
            split_rates(chain, RateQuad(0.0, 0.0, 0.0, 1.0))

    def test_informations_computed_once(self, monkeypatch):
        real = regions.informations
        calls = []

        def counted(chain):
            calls.append(chain)
            return real(chain)

        monkeypatch.setattr(regions, "informations", counted)
        split_rates(fig_chain(), RateQuad(r_d=0.25, r_0=0.0, r_1=0.0, r_s=0.1))
        assert len(calls) == 1

    def test_random_interior_quads_land_inside(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 300:
            chain = random_chain(rng)
            quad = sample_member_quad(rng, chain)
            if quad is None:
                continue
            checked += 1
            assert check_rate_quad(chain, quad).is_member
            split = split_rates(chain, quad)
            inner = check_inner_bound(chain, split.shifted)
            assert all(c.slack >= -1e-9 for c in inner.constraints), (
                chain, quad, split)


class TestChannelOrdering:
    def test_degraded_bsc_pair_is_more_capable(self):
        assert is_more_capable(bsc(0.1), bsc(0.2), 0.01)
        assert not is_more_capable(bsc(0.2), bsc(0.1), 0.01)

    def test_self_comparison(self):
        assert is_more_capable(bsc(0.3), bsc(0.3), 0.01)

    def test_bsc_vs_bec_orderings(self):
        assert not is_more_capable(bsc(0.11), bec(0.45), 0.01)
        assert is_more_capable(bec(0.45), bsc(0.11), 0.01)

    def test_degraded_bsc_closed_form(self):
        verdict = is_degraded(bsc(0.1), bsc(0.2))
        assert verdict.degraded
        assert verdict.method == "exact"
        np.testing.assert_allclose(verdict.intermediate.matrix, bsc(0.125).matrix,
                                   atol=1e-9)

    def test_self_degraded_via_identity(self):
        verdict = is_degraded(bec(0.45), bec(0.45))
        assert verdict.degraded
        assert verdict.intermediate.is_identity()

    def test_bsc_not_degraded_to_bec(self):
        verdict = is_degraded(bsc(0.11), bec(0.45))
        assert not verdict.degraded
        _assert_farkas(bsc(0.11), bec(0.45), verdict)

    def test_more_capable_yet_not_degraded(self):
        # BSC(eps) is degraded from BEC(delta) iff delta <= 2 eps; for
        # 2 eps < delta < h(eps) in bits the BEC is still more capable
        assert is_more_capable(bec(0.4), bsc(0.19), 0.01)
        verdict = is_degraded(bec(0.4), bsc(0.19))
        assert not verdict.degraded
        _assert_farkas(bec(0.4), bsc(0.19), verdict)
        assert is_degraded(bec(0.4), bsc(0.21)).degraded

    def test_degraded_implies_more_capable(self):
        rng = np.random.default_rng(12)
        for outputs in (2, 3, 4):
            for _ in range(20):
                w_y = Dmc(rng.dirichlet(np.ones(outputs), size=2))
                mid = Dmc(rng.dirichlet(np.ones(3), size=outputs))
                w_z = w_y.compose(mid)
                verdict = is_degraded(w_y, w_z)
                assert verdict.degraded
                _assert_witness(w_y, w_z, verdict)
                assert is_more_capable(w_y, w_z, 0.01)

    def test_independent_pairs_get_a_farkas_certificate(self):
        rng = np.random.default_rng(5)
        certified = 0
        for _ in range(40):
            mx, my, mz = rng.integers(2, 5, size=3)
            w_y = Dmc(rng.dirichlet(np.ones(my), size=mx))
            w_z = Dmc(rng.dirichlet(np.ones(mz), size=mx))
            verdict = is_degraded(w_y, w_z)
            if not is_more_capable(w_y, w_z, 0.05):     # degraded implies more capable
                assert not verdict.degraded
            if verdict.degraded:
                _assert_witness(w_y, w_z, verdict)
            else:
                _assert_farkas(w_y, w_z, verdict)
                certified += 1
        assert certified >= 30

    def test_grid_method_for_wider_outputs(self):
        w_y = bec(0.3)
        w_z = bec(0.3).compose(Dmc([[1.0, 0.0, 0.0],
                                    [0.0, 1.0, 0.0],
                                    [0.25, 0.25, 0.5]]))
        verdict = is_degraded(w_y, w_z, grid_step=0.25)
        assert verdict.method == "exact"
        assert verdict.degraded
        _assert_witness(w_y, w_z, verdict)

    # small blocks, a 2**16 block and the 2**11 block the grid search once used
    @pytest.mark.parametrize("block", [7, 1 << 16, 1 << 11])
    def test_grid_search_matches_loop(self, block):
        # the grid search over intermediates is the oracle: same verdict at its step;
        # searched in blocks of candidates, it finds the plain loop's least residual
        rng = np.random.default_rng(31)
        cases = [
            (bec(0.45), bsc(0.11), 0.05),
            (bec(0.2), bec(0.5), 0.2),
            (bec(0.5), Dmc([[0.5, 0.5], [0.5, 0.5]]), 0.25),  # many tied candidates
            (bec(0.3), bec(0.3).compose(Dmc([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                             [0.25, 0.25, 0.5]])), 0.25),
            (Dmc(rng.dirichlet(np.ones(3), size=2)), Dmc(rng.dirichlet(np.ones(2), size=2)), 0.1),
        ]
        for w_y, w_z, step in cases:
            verdict = is_degraded(w_y, w_z, grid_step=step)
            best = _oracle_degraded_grid(w_y, w_z, step)
            assert _blocked_degraded_grid(w_y, w_z, step, block) == best
            assert verdict.method == "exact"
            assert verdict.degraded == (best <= step)
            if verdict.degraded:
                _assert_witness(w_y, w_z, verdict)
                assert verdict.residual <= best
            else:
                _assert_farkas(w_y, w_z, verdict)

    @pytest.mark.parametrize("step", [0.0, -0.5, 2.0, math.nan])
    def test_grid_step_outside_half_unit_rejected(self, step):
        # a non-positive or oversized step would collapse to a 2-point grid
        with pytest.raises(ValueError):
            is_more_capable(bsc(0.1), bsc(0.2), step)
        with pytest.raises(ValueError):
            is_degraded(bec(0.2), bec(0.5), grid_step=step)


def _assert_witness(w_y, w_z, verdict):
    """A "degraded" verdict's intermediate reproduces W_Z within 1e-9."""
    assert verdict.residual <= 1e-9
    assert np.abs(w_y.matrix @ verdict.intermediate.matrix - w_z.matrix).max() <= 1e-9


def _assert_farkas(w_y, w_z, verdict):
    """Completed by row terms r_y = -max_z (W_Y^T G)[y, z], a "not degraded"
    certificate G gives a Farkas vector v = (G, r) of the system A t = b that
    stacks W_Y T = W_Z and T's row sums: A^T v <= tol and b^T v > m_Y tol.
    A solution t >= 0 would sum to m_Y and give b^T v = t^T A^T v <= m_Y tol,
    so no row-stochastic T gives W_Z."""
    g = verdict.certificate
    (mx, my), mz = w_y.matrix.shape, w_z.output_size
    assert verdict.intermediate is None and g.shape == (mx, mz)
    a = np.zeros((mx * mz + my, my * mz))
    for x, y, z in itertools.product(range(mx), range(my), range(mz)):
        a[x * mz + z, y * mz + z] = w_y.matrix[x, y]
    for y in range(my):
        a[mx * mz + y, y * mz:(y + 1) * mz] = 1.0
    b = np.concatenate([w_z.matrix.ravel(), np.ones(my)])
    v = np.concatenate([g.ravel(), -(w_y.matrix.T @ g).max(axis=1)])
    tol = 1e-15
    assert np.all(a.T @ v <= tol)
    assert b @ v > my * tol


def _oracle_degraded_grid(w_y, w_z, grid_step):
    """The least residual max |W_Y T - W_Z| over the grid of row-stochastic T,
    by a plain loop over intermediate channels."""
    rows = simplex_grid(w_z.output_size, max(1, round(1.0 / grid_step)))
    best = math.inf
    for combo in itertools.product(range(len(rows)), repeat=w_y.output_size):
        best = min(best, float(np.max(np.abs(w_y.matrix @ rows[list(combo)] - w_z.matrix))))
    return best


def _blocked_degraded_grid(w_y, w_z, grid_step, block):
    """The same least residual, with the candidates taken ``block`` at a time in
    ``itertools.product`` order and evaluated together."""
    rows = simplex_grid(w_z.output_size, max(1, round(1.0 / grid_step)))
    best = math.inf
    for combos in product_blocks((len(rows),) * w_y.output_size, block):
        residuals = np.abs(np.matmul(w_y.matrix, rows[combos]) - w_z.matrix).max(axis=(1, 2))
        best = min(best, float(residuals.min()))
    return best


class TestMinDummyRate:
    GRID = GridSpec(prob_step=0.01)

    def test_zero_rates_need_no_randomness(self):
        assert min_dummy_rate(bsc(0.1), bsc(0.2), 0.0, 0.0, self.GRID) == 0.0

    def test_capacity_point_needs_full_input_cost(self):
        cs = h(0.2) - h(0.1)
        value = min_dummy_rate(bsc(0.1), bsc(0.2), 0.0, cs - 1e-9, self.GRID)
        assert value == pytest.approx(LN2 - h(0.2), abs=0.02)

    def test_above_capacity_infeasible(self):
        result = min_dummy_rate(bsc(0.1), bsc(0.2), 0.0, 0.2, self.GRID)
        assert result is INFEASIBLE
        assert not result

    def test_positive_common_rate_requires_informative_common_layer(self):
        value = min_dummy_rate(bsc(0.1), bsc(0.2), 0.05, 0.02, self.GRID)
        assert not isinstance(value, type(INFEASIBLE))
        assert value >= 0.0
        # far more common rate than the channel supports
        assert min_dummy_rate(bsc(0.1), bsc(0.2), 5.0, 0.0, self.GRID) is INFEASIBLE

    @pytest.mark.parametrize("r_0,r_s", [(0.0, math.nan), (math.nan, 0.1), (-0.1, 0.0)])
    def test_nan_or_negative_rate_rejected(self, r_0, r_s):
        with pytest.raises(ValueError):
            min_dummy_rate(bsc(0.1), bsc(0.2), r_0, r_s, self.GRID)


def _oracle_min_dummy_grid(w_y, w_z, r_s, grid):
    """min_dummy_rate at r_0 = 0 as it was for every alphabet before the
    envelope: the least budget of the hulled grid frontier that reaches r_s."""
    front = grid_frontier(w_y, w_z, grid, "ds", False, True)
    if r_s > front.r_s[-1] + regions.SLACK_TOL:
        return INFEASIBLE
    return float(front.r_d[int(np.argmax(front.r_s >= r_s - regions.SLACK_TOL))])


def _continuum_floor(w_y, w_z, n_x=100_001):
    """The least input cost I(X;Z) of the continuum ds frontier at each r_s,
    from n_x input laws: rs(x) = psi(x) - (lower envelope of psi)(x) with
    psi = H(Y) - H(Z), then the upper concave hull over (cost, rs)."""
    x = np.linspace(0.0, 1.0, n_x)

    def entropy(w):
        law = np.outer(x, w.matrix[0]) + np.outer(1.0 - x, w.matrix[1])
        return -np.sum(np.where(law > 0.0, law * np.log(np.where(law > 0.0, law, 1.0)), 0.0),
                       axis=1)

    hz = entropy(w_z)
    psi = entropy(w_y) - hz
    rows = [-sum(p * math.log(p) for p in row if p > 0.0) for row in w_z.matrix]
    cost = hz - (x * rows[0] + (1.0 - x) * rows[1])
    rs = psi - np.interp(x, *hull_chain(x, psi, lower=True))
    order = np.argsort(cost, kind="stable")
    cost, rs = cost[order], np.maximum.accumulate(rs[order])
    last = np.append(cost[1:] != cost[:-1], True)
    vx, vy = hull_chain(cost[last], rs[last], lower=False)

    def inverse(r_s):
        if r_s <= vy[0]:
            return float(vx[0])
        i = int(np.argmax(vy >= r_s))
        return float(vx[i - 1] + (r_s - vy[i - 1]) * (vx[i] - vx[i - 1]) / (vy[i] - vy[i - 1]))

    return inverse


def _random_bsc_pair(rng):
    e1 = float(rng.uniform(0.01, 0.2))
    return bsc(e1), bsc(min(e1 + float(rng.uniform(0.02, 0.3)), 0.5))


class TestMinDummyEnvelope:
    """r_0 = 0 on binary inputs inverts the envelope frontier; the grid
    frontier's inverse is the oracle it may only improve on."""

    PAIRS = [(bsc(0.1), bsc(0.2)), (bsc(0.11), bec(0.45)), (bec(0.2), bsc(0.1))] + [
        _random_bsc_pair(np.random.default_rng([23, i])) for i in range(9)]

    @pytest.mark.parametrize("pair", range(len(PAIRS)))
    def test_between_continuum_floor_and_grid_inverse(self, pair):
        w_y, w_z = self.PAIRS[pair]
        floor = _continuum_floor(w_y, w_z)
        for step in (0.05, 0.02):
            grid = GridSpec(prob_step=step)
            top = secrecy_frontier(w_y, w_z, grid).r_s[-1]
            values = []
            for share in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0):
                r_s = share * top
                value = min_dummy_rate(w_y, w_z, 0.0, r_s, grid)
                grid_value = _oracle_min_dummy_grid(w_y, w_z, r_s, grid)
                assert value is not INFEASIBLE
                if grid_value is not INFEASIBLE:
                    assert value <= grid_value
                assert value >= floor(r_s) - 1e-9
                values.append(value)
            assert values == sorted(values)

    @pytest.mark.parametrize("pair", range(3))
    def test_infeasible_exactly_above_the_envelope_top(self, pair):
        w_y, w_z = self.PAIRS[pair]
        grid = GridSpec(prob_step=0.02)
        top = float(secrecy_frontier(w_y, w_z, grid).r_s[-1])
        tol = regions.SLACK_TOL
        assert min_dummy_rate(w_y, w_z, 0.0, top + 0.5 * tol, grid) is not INFEASIBLE
        assert min_dummy_rate(w_y, w_z, 0.0, top + 2.0 * tol, grid) is INFEASIBLE

    def test_grid_inverse_for_ternary_inputs(self):
        rng = np.random.default_rng(5)
        w_y = Dmc(rng.dirichlet(np.ones(3) * 5, size=3))
        w_z = w_y.compose(Dmc(rng.dirichlet(np.ones(3) * 5, size=3)))
        grid = GridSpec(prob_step=0.25)
        top = secrecy_frontier(w_y, w_z, grid).r_s[-1]
        for r_s in (0.0, 0.3 * top, 0.8 * top, top, top + 1e-6):
            assert min_dummy_rate(w_y, w_z, 0.0, r_s, grid) == \
                _oracle_min_dummy_grid(w_y, w_z, r_s, grid)
        # a common rate needs the binary pair search, whatever the capacity bound says
        with pytest.raises(ValueError, match="binary inputs"):
            min_dummy_rate(w_y, w_z, 5.0, 0.0, grid)

    def test_lattice_guard(self):
        with pytest.raises(GuardExceeded, match="envelope lattice"):
            min_dummy_rate(bsc(0.1), bsc(0.2), 0.0, 0.1, GridSpec(prob_step=1 / 2048))


class TestCapacityBound:
    @pytest.mark.parametrize("w, capacity", [
        (bsc(0.2), LN2 - h(0.2)), (bsc(0.0), LN2), (bec(0.45), 0.55 * LN2),
        (Dmc([[1.0, 0.0]]), 0.0)], ids=["bsc", "noiseless", "bec", "one-input"])
    def test_symmetric_channels_are_tight(self, w, capacity):
        assert capacity - 1e-15 <= regions._capacity_bound(w) <= capacity + 1e-12

    def test_bounds_every_input_law(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m_in, m_out = (int(v) for v in rng.integers(2, 5, size=2))
            w = rng.dirichlet(np.ones(m_out), size=m_in)
            w[0, 0] = 0.0 if rng.random() < 0.5 else w[0, 0]
            w = Dmc(w / w.sum(axis=1, keepdims=True))
            laws = rng.dirichlet(np.ones(m_in), size=200)
            out = laws @ w.matrix
            rows = -regions._xlogx(w.matrix).sum(axis=1)
            info = -regions._xlogx(out).sum(axis=1) - laws @ rows
            assert info.max() <= regions._capacity_bound(w) + 1e-12

    @pytest.mark.parametrize("pair", [(bsc(0.1), bsc(0.2)), (bsc(0.11), bec(0.45)),
                                      (bec(0.2), bsc(0.1))], ids=["bsc", "bsc/bec", "bec/bsc"])
    def test_infeasible_common_rate_skips_the_search(self, pair, monkeypatch):
        cap = min(regions._capacity_bound(w) for w in pair)
        r_0 = cap + 3e-9
        cells = regions._pair_search_cells(*pair, budget=1500)
        assert math.isinf(regions._pair_search(cells, r_0, 0.0))

        def no_search(*args):
            raise AssertionError("the pair search ran")

        monkeypatch.setattr(regions, "_pair_search", no_search)
        assert min_dummy_rate(*pair, r_0, 0.0) is INFEASIBLE
        assert min_dummy_rate(*pair, 0.3 + cap, 0.0) is INFEASIBLE


def _oracle_pair_search(cells, r_0, r_s):
    """The plain double loop over cells and 11 mixing weights, unpruned; ``inf``
    when no two-point mixture meets the rates."""
    lam_grid = np.linspace(0.0, 1.0, 11)
    rs_c, rd_c = cells["rs"], cells["rd_ds"]
    ivy_c = cells["ivy"]
    py_c, pz_c = cells["p_y"], cells["p_z"]
    hy_c, hz_c = cells["hy"], cells["hz"]
    best = math.inf
    for i in range(len(rs_c)):
        for lam in lam_grid:
            mix_y = lam * py_c[i] + (1.0 - lam) * py_c
            mix_z = lam * pz_c[i] + (1.0 - lam) * pz_c
            iuy = -regions._xlogx(mix_y).sum(axis=1) - (lam * hy_c[i] + (1.0 - lam) * hy_c)
            iuz = -regions._xlogx(mix_z).sum(axis=1) - (lam * hz_c[i] + (1.0 - lam) * hz_c)
            common_cap = np.minimum(iuy, iuz)
            ivy_u = lam * ivy_c[i] + (1.0 - lam) * ivy_c
            rs_u = lam * rs_c[i] + (1.0 - lam) * rs_c
            feasible = ((common_cap >= r_0 - regions.SLACK_TOL)
                        & (ivy_u + common_cap >= r_0 + r_s - regions.SLACK_TOL)
                        & (rs_u >= r_s - regions.SLACK_TOL))
            if not np.any(feasible):
                continue
            cost = lam * rd_c[i] + (1.0 - lam) * rd_c
            value = float(np.min(cost[feasible]))
            if value < best:
                best = value
    return best


def _largest_common_rate(cells):
    """max over weights and cell pairs of min(I(U;Y), I(U;Z))."""
    best = 0.0
    for lam in np.linspace(0.0, 1.0, 11):
        infos = []
        for p, hp in (("p_y", "hy"), ("p_z", "hz")):
            mix = lam * cells[p][:, None] + (1.0 - lam) * cells[p]
            infos.append(-regions._xlogx(mix).sum(axis=-1)
                         - (lam * cells[hp][:, None] + (1.0 - lam) * cells[hp]))
        best = max(best, float(np.minimum(*infos).max()))
    return best


def _pair(kind, rng):
    e1 = float(rng.uniform(0.02, 0.15))
    e2 = float(rng.uniform(0.1, 0.5))
    if kind == "bsc/bsc":
        return bsc(e1), bsc(min(e1 + e2 / 4, 0.45))
    if kind == "bsc/bec":
        return bsc(e1), bec(e2)
    return bec(e2 / 2), bsc(e1 + 0.05)


# (name, r_0, r_s as a share of the cloud's largest secrecy rate, r_s offset)
PAIR_SCENARIOS = [
    ("weights 0 and 1 not skipped", 1e-12, 0.3, 0.0),
    ("just below h(0.1)", h(0.1) - 1e-12, 0.0, 0.0),
    ("just above h(0.1)", h(0.1) + 3e-9, 0.0, 0.0),
    ("typical", 0.02, 0.2, 0.0),
    ("no secrecy", 0.08, 0.0, 0.0),
    ("infeasible by r_0", 0.5, 0.0, 0.0),
    ("infeasible by r_s", 0.01, 1.0, 1e-6),
]


class TestPairSearch:
    """The pruned, blocked two-point search against the plain double loop."""

    @pytest.mark.parametrize("kind", ["bsc/bsc", "bsc/bec", "bec/bsc"])
    @pytest.mark.parametrize("case", range(len(PAIR_SCENARIOS)))
    def test_matches_double_loop(self, kind, case):
        name, r_0, rs_share, rs_offset = PAIR_SCENARIOS[case]
        rng = np.random.default_rng([case, len(kind), ord(kind[-1])])
        w_y, w_z = _pair(kind, rng)
        cells = regions._pair_search_cells(w_y, w_z, budget=(125, 216, 343)[case % 3])
        r_s = rs_share * max(float(cells["rs"].max()), 0.0) + rs_offset
        expected = _oracle_pair_search(cells, r_0, r_s)
        assert regions._pair_search(cells, r_0, r_s) == expected, name
        if name.startswith("infeasible"):
            assert math.isinf(expected)

    @pytest.mark.parametrize("r_0, feasible", [(LN2 - 1e-12, True), (LN2 + 5e-10, True),
                                               (LN2 + 3e-9, False)])
    def test_noiseless_pair_meets_entropy_bound(self, r_0, feasible):
        # identical noiseless receivers: weight 1/2 on two opposite point masses
        # gives I(U;Y) = I(U;Z) = h(1/2) = ln 2 exactly, so r_0 up to ln 2 + 1e-9
        # passes the slack test and the weight must not be skipped
        cells = regions._pair_search_cells(bsc(0.0), bsc(0.0), budget=125)
        expected = _oracle_pair_search(cells, r_0, 0.0)
        assert regions._pair_search(cells, r_0, 0.0) == expected
        assert math.isfinite(expected) == feasible

    @pytest.mark.parametrize("pair", [(bsc(0.1), bsc(0.2)), (bsc(0.11), bec(0.45)),
                                      (bec(0.2), bsc(0.1))], ids=["bsc", "bsc/bec", "bec/bsc"])
    @pytest.mark.parametrize("offset", [-1e-12, 3e-9], ids=["feasible", "infeasible"])
    def test_common_rate_at_the_largest_feasible(self, pair, offset):
        # r_0 at the largest min(I(U;Y), I(U;Z)) of any mixture: the pair that
        # reaches it must survive the total-variation bound, and nothing above it
        cells = regions._pair_search_cells(*pair, budget=343)
        r_0 = _largest_common_rate(regions._distinct_cells(cells)) + offset
        expected = _oracle_pair_search(cells, r_0, 0.0)
        assert regions._pair_search(cells, r_0, 0.0) == expected
        assert math.isfinite(expected) == (offset < 0)

    def test_total_variation_bounds_the_common_information(self):
        cells = regions._distinct_cells(regions._pair_search_cells(bsc(0.11), bec(0.45),
                                                                   budget=343))
        every = slice(None)
        for lam in np.linspace(0.05, 0.95, 7):
            h_lam = -regions._xlogx(np.array([lam, 1.0 - lam])).sum()
            for p, hp in (("p_y", "hy"), ("p_z", "hz")):
                mix = lam * cells[p][:, None] + (1.0 - lam) * cells[p]
                info = (-regions._xlogx(mix).sum(axis=-1)
                        - (lam * cells[hp][:, None] + (1.0 - lam) * cells[hp]))
                bound = h_lam * regions._total_variation(cells[p], every)
                assert np.all(info <= bound + 1e-12)

    @pytest.mark.parametrize("kind", ["bsc/bsc", "bsc/bec", "bec/bsc"])
    @pytest.mark.parametrize("case", range(len(PAIR_SCENARIOS)))
    def test_shuffled_cloud_matches_double_loop(self, kind, case):
        # the search sorts the cloud by cost itself; the cloud's own order
        # must not matter
        name, r_0, rs_share, rs_offset = PAIR_SCENARIOS[case]
        rng = np.random.default_rng([case, len(kind), ord(kind[-1]), 7])
        w_y, w_z = _pair(kind, rng)
        cells = regions._pair_search_cells(w_y, w_z, budget=(125, 216, 343)[case % 3])
        order = rng.permutation(len(cells["rs"]))
        shuffled = {key: value[order] for key, value in cells.items()}
        r_s = rs_share * max(float(cells["rs"].max()), 0.0) + rs_offset
        expected = _oracle_pair_search(cells, r_0, r_s)
        assert regions._pair_search(shuffled, r_0, r_s) == expected, name

    @pytest.mark.parametrize("r_0, rs_share", [(1e-12, 0.0), (1e-12, 0.5), (0.01, 0.0)])
    def test_tied_costs_match_double_loop(self, r_0, rs_share):
        # a pure-noise eavesdropper makes every cost I(X;Z) about 0, so the
        # cost order is nearly all ties
        cells = regions._pair_search_cells(bsc(0.1), bsc(0.5), budget=343)
        assert np.abs(cells["rd_ds"]).max() < 1e-12
        r_s = rs_share * float(cells["rs"].max())
        expected = _oracle_pair_search(cells, r_0, r_s)
        assert regions._pair_search(cells, r_0, r_s) == expected

    @pytest.mark.parametrize("e1, e2", [(0.1, 0.2), (0.0731, 0.1642)])
    @pytest.mark.parametrize("r_0", [0.006, 0.028])
    @pytest.mark.parametrize("rs_share", [0.1, 0.3])
    def test_benchmark_shapes_match_double_loop(self, e1, e2, r_0, rs_share):
        # the shape of the benchmark's queries: BSC pairs, small r_0, r_s a
        # share of the secrecy capacity h(e2) - h(e1)
        cells = regions._pair_search_cells(bsc(e1), bsc(e2), budget=343)
        r_s = rs_share * (h(e2) - h(e1))
        expected = _oracle_pair_search(cells, r_0, r_s)
        assert math.isfinite(expected)
        assert regions._pair_search(cells, r_0, r_s) == expected

    @pytest.mark.parametrize("block", ["1", "64", "n-1", "n", "65536"])
    @pytest.mark.parametrize("r_0, r_s", [(0.02, 0.0), (0.01, 0.02), (0.3, 0.0)],
                             ids=["feasible", "secrecy", "infeasible"])
    def test_block_size_does_not_change_the_answer(self, monkeypatch, block, r_0, r_s):
        cells = regions._pair_search_cells(bsc(0.1), bsc(0.25), budget=64)
        n = len(regions._distinct_cells(cells)["rs"])
        size = {"n-1": n - 1, "n": n}.get(block) or int(block)
        pairs, plain = [], regions._xlogx   # pairs per evaluated block, from the entropy step

        def xlogx(x):
            if x.ndim > 1:
                pairs.append(x.size // x.shape[-1])
            return plain(x)

        monkeypatch.setattr(regions, "_PAIR_BLOCK", size)
        monkeypatch.setattr(regions, "_xlogx", xlogx)
        expected = _oracle_pair_search(cells, r_0, r_s)
        pairs.clear()
        assert regions._pair_search(cells, r_0, r_s) == expected
        assert max(pairs, default=0) <= size

    def test_duplicate_cells_dropped(self):
        cells = regions._pair_search_cells(bsc(0.1), bsc(0.2), budget=1500)
        assert len(cells["rs"]) == 1331
        assert len(regions._distinct_cells(cells)["rs"]) <= 1111

    def test_cloud_holds_only_the_pair_fields(self):
        # the cloud gathered from the lattice holds the fields the search
        # reads, in the grid sweep's cell order, within rounding of its floats
        for w_y, w_z, budget in ((bsc(0.11), bec(0.45), 1500), (bec(0.2), bsc(0.1), 64)):
            cells = regions._pair_search_cells(w_y, w_z, budget=budget)
            assert list(cells) == list(regions._PAIR_FIELDS)
            full = _oracle_cloud(w_y, w_z, budget)
            for key, value in cells.items():
                assert value.shape == full[key].shape, key
                np.testing.assert_allclose(value, full[key], rtol=0.0, atol=1e-15, err_msg=key)


# min_dummy_rate at r_0 > 0 on the full cloud, recorded from the unpruned loop;
# the last two, benchmark-shaped (r_0 0.006 and 0.028, r_s 0.1 and 0.3 of the
# secrecy capacity), from the search that formed every pair
MIN_DUMMY_COMMON = [
    (bsc(0.1), bsc(0.2), 0.05, 0.02, "0x1.651c828ab1f8bp-6"),
    (bsc(0.1), bsc(0.2), 0.01, 0.03, "0x1.0c24b18d772dfp-5"),
    (bsc(0.05), bsc(0.15), 0.02, 0.05, "0x1.aacc70280470cp-5"),
    (bsc(0.11), bec(0.45), 0.01, 0.002, "0x1.c972b562b9db8p-4"),
    (bsc(0.05), bec(0.5), 0.02, 0.01, "0x1.ddce3e8b0e831p-6"),
    (bec(0.2), bsc(0.1), 0.02, 0.001, "0x1.c3aedf879fccbp-10"),
    (bec(0.1), bsc(0.2), 0.1, 0.02, "0x1.0ce5b9ece7380p-7"),
    (bsc(0.11), bec(0.45), 0.03, 0.01, None),
    (bsc(0.1), bsc(0.2), 0.3, 0.0, None),
    (bsc(0.1), bsc(0.2), 0.006, 0.017532, "0x1.45cd658b6cc3fp-6"),
    (bsc(0.0731), bsc(0.1642), 0.028, 0.055495, "0x1.0e81a611b6745p-4"),
]


def _oracle_cloud(w_y, w_z, budget):
    """The cloud of ``regions._pair_search_cells`` from the grid sweep's cells,
    (n + 1)^3 of them for the largest n that fits ``budget``."""
    n = 1
    while (n + 2) ** 3 <= budget:
        n += 1
    p = np.linspace(0.0, 1.0, n + 1)
    return binary_cells(w_y.matrix, w_z.matrix, p, p, p, regions._PAIR_FIELDS)


@pytest.mark.parametrize("w_y, w_z, r_0, r_s, expected", MIN_DUMMY_COMMON)
def test_min_dummy_rate_common_golden(monkeypatch, w_y, w_z, r_0, r_s, expected):
    # recorded on the grid sweep's cloud, which stays the gathered cloud's oracle
    monkeypatch.setattr(regions, "_pair_search_cells", _oracle_cloud)
    value = min_dummy_rate(w_y, w_z, r_0, r_s)
    if expected is None:
        assert value is INFEASIBLE
    else:
        assert value == float.fromhex(expected)


# the same queries on the cloud gathered from the lattice: 4 of the 9 feasible
# values moved by at most 1.1e-16
MIN_DUMMY_COMMON_GATHERED = ["0x1.651c828ab1f8bp-6", "0x1.0c24b18d772dfp-5",
                             "0x1.aacc702804714p-5", "0x1.c972b562b9dbdp-4",
                             "0x1.ddce3e8b0e835p-6", "0x1.c3aedf879fecbp-10",
                             "0x1.0ce5b9ece7380p-7", None, None, "0x1.45cd658b6cc3fp-6",
                             "0x1.0e81a611b6745p-4"]


@pytest.mark.parametrize("case", range(len(MIN_DUMMY_COMMON)))
def test_min_dummy_rate_common_gathered_golden(case):
    w_y, w_z, r_0, r_s, oracle = MIN_DUMMY_COMMON[case]
    expected = MIN_DUMMY_COMMON_GATHERED[case]
    value = min_dummy_rate(w_y, w_z, r_0, r_s)
    assert (expected is None) == (oracle is None)
    if expected is None:
        assert value is INFEASIBLE
    else:
        assert value == float.fromhex(expected)
        assert abs(value - float.fromhex(oracle)) <= 1e-15
