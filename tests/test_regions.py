import math

import numpy as np
import pytest

from bccrates import (
    INFEASIBLE,
    Dmc,
    GridSpec,
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
    single_chain,
    split_rates,
)
from bccrates import regions
from bccrates.channels import bec, bsc

from helpers import random_chain

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
        assert not is_degraded(bsc(0.11), bec(0.45)).degraded

    def test_degraded_implies_more_capable(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            w_y = Dmc(rng.dirichlet(np.ones(2), size=2))
            mid = Dmc(rng.dirichlet(np.ones(3), size=2))
            w_z = w_y.compose(mid)
            assert is_degraded(w_y, w_z).degraded
            assert is_more_capable(w_y, w_z, 0.01)

    def test_grid_method_for_wider_outputs(self):
        w_y = bec(0.3)
        w_z = bec(0.3).compose(Dmc([[1.0, 0.0, 0.0],
                                    [0.0, 1.0, 0.0],
                                    [0.25, 0.25, 0.5]]))
        verdict = is_degraded(w_y, w_z, grid_step=0.25)
        assert verdict.method == "grid"
        assert verdict.degraded
        assert verdict.resolution == 0.25


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

    def test_duplicate_cells_dropped(self):
        cells = regions._pair_search_cells(bsc(0.1), bsc(0.2), budget=1500)
        assert len(cells["rs"]) == 1331
        assert len(regions._distinct_cells(cells)["rs"]) <= 1111


# min_dummy_rate at r_0 > 0 on the full cloud, recorded from the unpruned loop
MIN_DUMMY_COMMON = [
    (bsc(0.1), bsc(0.2), 0.05, 0.02, "0x1.651c828ab1f8bp-6"),
    (bsc(0.1), bsc(0.2), 0.01, 0.03, "0x1.0c24b18d772dfp-5"),
    (bsc(0.05), bsc(0.15), 0.02, 0.05, "0x1.aacc70280470cp-5"),
    (bsc(0.11), bec(0.45), 0.01, 0.002, "0x1.c972b562b9db8p-4"),
    (bsc(0.05), bec(0.5), 0.02, 0.01, "0x1.ddce3e8b0e831p-6"),
    (bec(0.2), bsc(0.1), 0.02, 0.001, "0x1.c3aedf879fccbp-10"),
    (bec(0.1), bsc(0.2), 0.1, 0.02, "0x1.0ce5b9ece7380p-7"),
    (bsc(0.11), bec(0.45), 0.03, 0.01, None),
]


@pytest.mark.parametrize("w_y, w_z, r_0, r_s, expected", MIN_DUMMY_COMMON)
def test_min_dummy_rate_common_golden(w_y, w_z, r_0, r_s, expected):
    value = min_dummy_rate(w_y, w_z, r_0, r_s)
    if expected is None:
        assert value is INFEASIBLE
    else:
        assert value == float.fromhex(expected)
