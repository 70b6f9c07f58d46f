import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from bccrates import (
    BccChain,
    Dmc,
    GuardExceeded,
    Pmf,
    decoder_error_bounds,
    decoding_thresholds,
    iid_sum_tail,
    informations,
    leakage_bound,
    minimize_leakage_bound,
    minimize_superposition_bound,
    mutual_information,
    optimize_theta,
    resolvability_bound,
    resolvability_exponent,
    resolvability_exponent_slope,
    single_chain,
    superposition_exponent,
    superposition_exponent_slope,
    superposition_resolvability_bound,
    theta_grid_default,
)
from bccrates import exponents
from bccrates.channels import bsc

from helpers import random_chain, random_dmc, random_pmf


def psi_single_oracle(theta, w, p):
    """Direct summation of the defining expression."""
    pz = p @ w
    total = 0.0
    for z in range(w.shape[1]):
        inner = sum(p[x] * w[x, z] ** (1.0 + theta) for x in range(w.shape[0]))
        if inner > 0.0:
            total += inner * pz[z] ** (-theta)
    return math.log(total)


def psi_super_oracle(theta, w, layer, prior):
    pzv = layer @ w
    total = 0.0
    for v in range(layer.shape[0]):
        for z in range(w.shape[1]):
            inner = sum(layer[v, x] * w[x, z] ** (1.0 + theta)
                        for x in range(w.shape[0]))
            if inner > 0.0:
                total += prior[v] * inner * pzv[v, z] ** (-theta)
    return math.log(total)


def _oracle_exponent(theta, channel, cond_input, prior):
    """The per-theta evaluation the exponent table replaced: one theta, its
    powers taken with a scalar exponent."""
    out_given_v = cond_input @ channel
    inner = cond_input @ np.power(channel, 1.0 + theta)
    support = inner > 0.0
    assert not np.any(support & (out_given_v == 0.0))
    tilt = np.zeros_like(inner)
    tilt[support] = inner[support] * np.power(out_given_v[support], -theta)
    return float(np.log(np.dot(prior, tilt.sum(axis=1))))


def _sparse_dmc(rng, m_in, m_out):
    """Random channel with about a third of its entries zero (BEC-like rows)."""
    matrix = rng.dirichlet(np.ones(m_out), size=m_in)
    matrix[rng.random(matrix.shape) < 0.35] = 0.0
    matrix[np.arange(m_in), rng.integers(m_out, size=m_in)] += 0.5  # no empty row
    return Dmc(matrix / matrix.sum(axis=1, keepdims=True))


TABLE_GRIDS = {
    "default": theta_grid_default(),
    "step_0.05": exponents._theta_grid(0.05),
    "step_0.5": exponents._theta_grid(0.5),
    "slope": np.array([exponents.SLOPE_STEP, -exponents.SLOPE_STEP]),
}

TERM_BUILDERS = {
    "resolvability": lambda law: exponents._resolvability_terms(3, law["w"], law["px"]),
    "superposition": lambda law: exponents._superposition_terms(
        3, 5, law["w"], law["layer"], law["prior"]),
    "leakage": lambda law: exponents._leakage_terms(3, 5, law["chain"]),
}


def _random_laws(seed, count):
    """Seeded laws with |U|, |V|, |X|, |Z| <= 5: every other one with sparse
    channels, every fourth with one-letter priors."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        mu, mv, mx, mz = (int(rng.integers(1, 6)) for _ in range(4))
        if i % 4 == 0:
            mu, mv = 1, 1
        dmc = _sparse_dmc if i % 2 else random_dmc
        layer, w = dmc(rng, mv, mx), dmc(rng, mx, mz)
        yield {"w": w, "layer": layer, "prior": random_pmf(rng, mv),
               "px": Pmf([1.0]) if mx == 1 else random_pmf(rng, mx),
               "chain": BccChain(random_pmf(rng, mu), dmc(rng, mu, mv), layer,
                                 dmc(rng, mx, 2), w)}


class TestExponentTable:
    @pytest.mark.parametrize("grid_name", TABLE_GRIDS)
    @pytest.mark.parametrize("builder", TERM_BUILDERS)
    def test_table_matches_per_theta_oracle_bit_for_bit(self, builder, grid_name):
        grid = TABLE_GRIDS[grid_name]
        assert grid_name == "slope" or 1.0 in grid  # theta = 1 squares and inverts
        for law in _random_laws(31, 40):
            for _, arrays in TERM_BUILDERS[builder](law):
                table = exponents._exponent_table(grid, *arrays)
                oracle = np.array([_oracle_exponent(t, *arrays) for t in grid.tolist()])
                assert table.tobytes() == oracle.tobytes()

    def test_scalar_exponents_and_slopes_match_oracle(self):
        grid = TABLE_GRIDS["default"]
        for law in _random_laws(32, 20):
            w, layer, prior, px = law["w"], law["layer"], law["prior"], law["px"]
            single = (w.matrix, px.probs[np.newaxis, :], np.ones(1))
            layered = (w.matrix, layer.matrix, prior.probs)
            for t in grid.tolist():
                assert resolvability_exponent(t, w, px) == _oracle_exponent(t, *single)
                assert superposition_exponent(t, w, layer, prior) == \
                    _oracle_exponent(t, *layered)
            step = exponents.SLOPE_STEP
            for slope, arrays in ((resolvability_exponent_slope(w, px), single),
                                  (superposition_exponent_slope(w, layer, prior), layered)):
                assert slope == (_oracle_exponent(step, *arrays)
                                 - _oracle_exponent(-step, *arrays)) / (2.0 * step)
            assert math.copysign(1.0, resolvability_exponent(0.0, w, px)) == 1.0
            assert resolvability_exponent(0.0, w, px) == 0.0
            assert superposition_exponent(0.0, w, layer, prior) == 0.0

    def test_minimized_bound_reads_the_table(self):
        chain = next(_random_laws(33, 1))["chain"]
        terms = exponents._leakage_terms(64, 16, chain)
        grid = TABLE_GRIDS["step_0.05"]
        rep = minimize_leakage_bound(9, 64, 16, chain, grid)
        for (size, arrays), theta, exp in zip(terms, (rep.theta, rep.theta_prime),
                                              rep.exponents):
            values = [exponents._bound_term(9, size, t, _oracle_exponent(t, *arrays))
                      for t in grid.tolist()]
            assert theta == grid[int(np.argmin(values))]
            assert exp == _oracle_exponent(theta, *arrays)

    @pytest.mark.parametrize("grid", [[0.5, 1.5], [-0.1, 0.5], [0.5, float("nan")]])
    def test_grid_outside_unit_interval_is_rejected(self, grid):
        with pytest.raises(ValueError):
            minimize_superposition_bound(4, 4, 4, bsc(0.2), bsc(0.1), Pmf.uniform(2), grid)


class TestExponentValues:
    def test_zero_at_theta_zero(self):
        assert resolvability_exponent(0.0, bsc(0.2), Pmf.uniform(2)) == 0.0
        assert superposition_exponent(0.0, bsc(0.2), bsc(0.1), Pmf.uniform(2)) == 0.0

    def test_input_independent_channel_vanishes(self):
        w = Dmc([[0.3, 0.7], [0.3, 0.7]])
        for theta in (0.1, 0.5, 1.0):
            assert resolvability_exponent(theta, w, Pmf([0.2, 0.8])) == pytest.approx(
                0.0, abs=1e-14)

    def test_single_fixture_direct_summation(self):
        value = resolvability_exponent(1.0, bsc(0.2), Pmf.uniform(2))
        oracle = psi_single_oracle(1.0, bsc(0.2).matrix, np.array([0.5, 0.5]))
        assert value == pytest.approx(oracle, abs=1e-14)
        assert value == pytest.approx(math.log(1.36), abs=1e-12)

    def test_super_reduces_to_single_for_trivial_prior(self):
        p_x = Pmf([0.3, 0.7])
        layer = Dmc([p_x.probs])
        for theta in (0.2, 0.7, 1.0):
            assert superposition_exponent(theta, bsc(0.2), layer, Pmf([1.0])) == \
                pytest.approx(resolvability_exponent(theta, bsc(0.2), p_x), abs=1e-14)

    def test_super_vanishes_for_identity_layer(self):
        for theta in (0.1, 0.6, 1.0):
            assert superposition_exponent(theta, bsc(0.2), Dmc.identity(2),
                                          Pmf.uniform(2)) == pytest.approx(0.0, abs=1e-14)

    def test_super_fixture_regression(self):
        value = superposition_exponent(1.0, bsc(0.2), bsc(0.1), Pmf.uniform(2))
        oracle = psi_super_oracle(1.0, bsc(0.2).matrix, bsc(0.1).matrix,
                                  np.array([0.5, 0.5]))
        assert value >= 0.0
        assert value == pytest.approx(oracle, abs=1e-14)
        assert value == pytest.approx(0.15563457978793005, abs=1e-12)

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            resolvability_exponent(1.5, bsc(0.2), Pmf.uniform(2))
        with pytest.raises(ValueError):
            superposition_exponent(-0.1, bsc(0.2), bsc(0.1), Pmf.uniform(2))


class TestExponentCalculus:
    def test_slopes_match_information_quantities(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            mv = int(rng.integers(2, 4))
            mx = int(rng.integers(2, 4))
            mz = int(rng.integers(2, 4))
            prior = random_pmf(rng, mv)
            layer = random_dmc(rng, mv, mx)
            w = random_dmc(rng, mx, mz)
            chain = single_chain(prior, layer, w, w)
            info = informations(chain)
            slope_super = superposition_exponent_slope(w, layer, prior)
            assert slope_super == pytest.approx(info.i_xz_given_v, abs=1e-5)
            p_x = chain.p_x
            slope_single = resolvability_exponent_slope(w, p_x)
            assert slope_single == pytest.approx(mutual_information(p_x, w), abs=1e-5)

    def test_cloud_layer_slope_matches_conditional_information(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            chain = random_chain(rng)
            info = informations(chain)
            slope = superposition_exponent_slope(chain.p_z_given_v, chain.p_v_given_u,
                                                 chain.p_u)
            assert slope == pytest.approx(info.i_vz_given_u, abs=1e-5)

    def test_two_fold_additivity(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            prior = random_pmf(rng, 2)
            layer = random_dmc(rng, 2, 2)
            w = random_dmc(rng, 2, 3)
            theta = float(rng.uniform(0.05, 1.0))
            single = superposition_exponent(theta, w, layer, prior)
            doubled = superposition_exponent(
                theta, Dmc(np.kron(w.matrix, w.matrix)),
                Dmc(np.kron(layer.matrix, layer.matrix)), Pmf(np.kron(prior.probs, prior.probs)))
            assert doubled == pytest.approx(2.0 * single, abs=1e-9)

    def test_monotone_and_convex_in_theta(self):
        rng = np.random.default_rng(24)
        thetas = np.linspace(0.0, 1.0, 11)
        for _ in range(30):
            prior = random_pmf(rng, 3)
            layer = random_dmc(rng, 3, 2)
            w = random_dmc(rng, 2, 3)
            vals = [superposition_exponent(float(t), w, layer, prior) for t in thetas]
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-10)
            assert np.all(np.diff(diffs) >= -1e-8)


class TestBounds:
    def test_single_bound_fixture(self):
        rep = resolvability_bound(1, 2, 1.0, bsc(0.2), Pmf.uniform(2))
        assert rep.term2 == 0.0
        assert rep.total == pytest.approx(0.5 * 1.36, abs=1e-12)

    def test_single_bound_independent_channel(self):
        w = Dmc([[0.4, 0.6], [0.4, 0.6]])
        for theta, size in ((0.5, 4), (1.0, 8)):
            rep = resolvability_bound(3, size, theta, w, Pmf.uniform(2))
            assert rep.total == pytest.approx(1.0 / (theta * size**theta), abs=1e-12)

    def test_single_bound_monotone_in_size(self):
        values = [resolvability_bound(2, m, 0.5, bsc(0.2), Pmf.uniform(2)).total
                  for m in (1, 2, 4, 8, 16)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_super_bound_trivial_prior(self):
        p_x = Pmf([0.3, 0.7])
        layer = Dmc([p_x.probs])
        rep = superposition_resolvability_bound(2, 4, 8, 0.5, 0.25, bsc(0.2), layer,
                                                Pmf([1.0]))
        # the cascaded cloud channel is input-independent, so its exponent is 0
        assert rep.term2 == pytest.approx(1.0 / (0.25 * 8**0.25), abs=1e-12)

    def test_super_bound_identity_layer(self):
        rep = superposition_resolvability_bound(3, 4, 4, 0.5, 0.5, bsc(0.2),
                                                Dmc.identity(2), Pmf.uniform(2))
        assert rep.term1 == pytest.approx(1.0 / (0.5 * 4**0.5), abs=1e-12)

    def test_super_bound_monotone_in_layer_sizes(self):
        base = superposition_resolvability_bound(3, 2, 2, 0.5, 0.5, bsc(0.2),
                                                 bsc(0.1), Pmf.uniform(2))
        more_m1 = superposition_resolvability_bound(3, 8, 2, 0.5, 0.5, bsc(0.2),
                                                    bsc(0.1), Pmf.uniform(2))
        more_m2 = superposition_resolvability_bound(3, 2, 8, 0.5, 0.5, bsc(0.2),
                                                    bsc(0.1), Pmf.uniform(2))
        assert more_m1.total < base.total
        assert more_m2.total < base.total

    def test_super_bound_recomputed_from_exponents(self):
        n, m1, m2, th, thp = 4, 4, 4, 1.0, 1.0
        w, layer, prior = bsc(0.2), bsc(0.1), Pmf.uniform(2)
        rep = superposition_resolvability_bound(n, m1, m2, th, thp, w, layer, prior)
        e1 = psi_super_oracle(th, w.matrix, layer.matrix, prior.probs)
        e2 = psi_single_oracle(thp, layer.compose(w).matrix, prior.probs)
        assert rep.term1 == pytest.approx(math.exp(n * e1) / (th * m1**th), abs=1e-12)
        assert rep.term2 == pytest.approx(math.exp(n * e2) / (thp * m2**thp), abs=1e-12)
        assert rep.total == rep.term1 + rep.term2

    def test_leakage_bound_constant_common_layer(self):
        # a constant U reduces the cloud term to the two-argument exponent form
        chain = single_chain(Pmf.uniform(2), bsc(0.1), bsc(0.1), bsc(0.2))
        n, th = 3, 0.5
        rep = leakage_bound(n, 8, 8, th, th, chain)
        e2 = psi_single_oracle(th, chain.p_z_given_v.matrix, chain.p_v.probs)
        assert rep.term2 == pytest.approx(math.exp(n * e2) / (th * 8**th), abs=1e-12)

    def test_leakage_bound_degenerate_layers(self):
        chain = BccChain(Pmf([1.0]), Dmc([[1.0]]), Dmc([[1.0, 0.0]]),
                         bsc(0.1), bsc(0.2))
        rep = leakage_bound(6, 8, 8, 0.5, 0.5, chain)
        assert rep.total == pytest.approx(2.0 / (0.5 * 8**0.5), abs=1e-12)

    def test_bound_report_lines(self):
        rep = resolvability_bound(1, 2, 1.0, bsc(0.2), Pmf.uniform(2))
        lines = rep.as_lines()
        assert any(line.startswith("total=") for line in lines)

    @pytest.mark.parametrize("name,term1,term2,theta,theta_prime", [
        ("single", "0x1.54af60ec30fc1p+1", "0x0.0p+0", 0.37, None),
        ("super", "0x1.d6df1e35542b3p+0", "0x1.72eaa7b2d2d7ep-1", 0.4, 0.7),
        ("leakage", "0x1.0f6d8d7cf3901p+1", "0x1.325a14d236188p+0", 0.3, 0.6),
        ("min_super", "0x1.259f43db5457fp+0", "0x1.b92f954c3be5ap+2", 0.69, 0.3),
        ("min_leakage", "0x1.eb6ec94ac901ep-4", "0x1.b20ee73a92c8fp+1", 0.92, 0.44),
    ])
    def test_bound_values_golden(self, name, term1, term2, theta, theta_prime):
        # values recorded before the bounds shared one term table and evaluator
        chain = BccChain(Pmf([0.4, 0.6]), bsc(0.25), bsc(0.1), bsc(0.1), bsc(0.2))
        rep = {
            "single": lambda: resolvability_bound(5, 3, 0.37, bsc(0.2), Pmf([0.3, 0.7])),
            "super": lambda: superposition_resolvability_bound(
                6, 4, 8, 0.4, 0.7, bsc(0.2), bsc(0.1), Pmf.uniform(2)),
            "leakage": lambda: leakage_bound(6, 8, 4, 0.3, 0.6, chain),
            "min_super": lambda: minimize_superposition_bound(
                30, 64, 8, bsc(0.2), bsc(0.1), Pmf.uniform(2)),
            "min_leakage": lambda: minimize_leakage_bound(40, 4096, 64, chain),
        }[name]()
        assert (rep.term1, rep.term2) == (float.fromhex(term1), float.fromhex(term2))
        assert (rep.theta, rep.theta_prime) == (theta, theta_prime)

    def test_report_exponents_and_decays(self):
        w, p = bsc(0.2), Pmf.uniform(2)
        rep = resolvability_bound(30, 5, 0.5, w, p)
        assert rep.exponents == (resolvability_exponent(0.5, w, p),)
        assert rep.decays == (rep.exponents[0] / 0.5 <= np.log(5) / 30 + 1e-12,)
        big = resolvability_bound(30, 10**6, 0.5, w, p)
        assert big.decays == (True,)
        assert resolvability_bound(30, 1, 0.5, w, p).decays == (False,)

    def test_overflowing_term_is_infinite(self):
        # n * E(theta) far past the largest float exponent
        rep = resolvability_bound(5000, 1, 1.0, bsc(0.01), Pmf.uniform(2))
        assert rep.term1 == math.inf
        # the search skips the thetas whose terms overflow
        rep = minimize_superposition_bound(5000, 1, 1, bsc(0.01), bsc(0.1), Pmf.uniform(2))
        assert (rep.theta, rep.theta_prime) == (0.01, 0.01)
        assert math.isfinite(rep.total)


class TestOptimizeTheta:
    def test_rate_below_information_never_certifies(self):
        w, p = bsc(0.2), Pmf.uniform(2)
        rate = mutual_information(p, w) - 0.05
        grid = theta_grid_default()
        margin = lambda t: resolvability_exponent(t, w, p) / t - rate
        assert all(margin(float(t)) > 0.0 for t in grid)
        res = optimize_theta(lambda t: resolvability_bound(5, 3, t, w, p).total,
                             grid, margin)
        assert res.certified is False

    def test_rate_above_information_certifies(self):
        w, p = bsc(0.2), Pmf.uniform(2)
        rate = mutual_information(p, w) + 0.1
        n = 60
        size = int(math.ceil(math.exp(n * rate)))
        margin = lambda t: resolvability_exponent(t, w, p) / t - rate
        res = optimize_theta(lambda t: resolvability_bound(n, size, t, w, p).total,
                             margin_fn=margin)
        assert res.certified is True
        # certified theta makes the bound decay geometrically with n
        b1 = resolvability_bound(n, size, res.theta, w, p).total
        b2 = resolvability_bound(2 * n, size**2, res.theta, w, p).total
        assert b2 < b1

    def test_certified_bound_decays_geometrically_in_blocklength(self):
        w, p = bsc(0.2), Pmf.uniform(2)
        rate = mutual_information(p, w) + 0.1
        theta = 0.2
        decay = resolvability_exponent(theta, w, p) - theta * rate
        assert decay < 0.0
        values = []
        for n in (20, 40, 60, 80):
            size = int(math.ceil(math.exp(n * rate)))
            values.append(resolvability_bound(n, size, theta, w, p).total)
        ratios = [b / a for a, b in zip(values, values[1:])]
        # per-20-letter factor approaches e^{20 * (exponent - theta * rate)}
        target = math.exp(20 * decay)
        for r in ratios:
            assert r == pytest.approx(target, rel=0.05)

    def test_independent_channel_certifies_at_any_rate(self):
        w = Dmc([[0.4, 0.6], [0.4, 0.6]])
        p = Pmf.uniform(2)
        margin = lambda t: resolvability_exponent(t, w, p) / t - 0.01
        res = optimize_theta(lambda t: resolvability_bound(4, 2, t, w, p).total,
                             margin_fn=margin)
        assert res.certified is True

    def test_certifies_at_some_grid_theta(self):
        # E(theta)/theta <= log(m1)/n holds at theta = 0.01 (margin -0.0098),
        # though term 1 is smallest at theta = 0.29 (margin +0.0113)
        n, m1 = 100, 4096
        w, layer, prior = bsc(0.2), bsc(0.1), Pmf.uniform(2)
        rate = math.log(m1) / n
        res = optimize_theta(
            lambda t: superposition_resolvability_bound(n, m1, 4, t, t, w, layer, prior).term1,
            margin_fn=lambda t: superposition_exponent(t, w, layer, prior) / t - rate)
        assert res.theta == 0.29
        assert res.margin == pytest.approx(-0.0098, abs=1e-4)
        assert res.certified is True

    def test_default_grid(self):
        np.testing.assert_array_equal(theta_grid_default(),
                                      np.round(np.arange(1, 101) * 0.01, 10))

    def test_first_argmin_wins_ties(self):
        res = optimize_theta(lambda t: 1.0, np.array([0.25, 0.5, 1.0]))
        assert res.theta == 0.25

    def test_separable_minimization_helpers(self):
        rep = minimize_superposition_bound(4, 4, 4, bsc(0.2), bsc(0.1), Pmf.uniform(2))
        grid = theta_grid_default()
        brute = min(
            superposition_resolvability_bound(4, 4, 4, float(t), float(tp), bsc(0.2),
                                              bsc(0.1), Pmf.uniform(2)).total
            for t in grid[::7] for tp in grid[::7])
        assert rep.total <= brute + 1e-12


def _kron_outcomes(probs, values, n):
    """Every outcome sequence by ``np.kron``: its probability, and its sum added
    letter by letter."""
    prob_n = reduce(np.kron, [np.asarray(probs, dtype=float)] * n)
    sum_n = reduce(lambda acc, v: (acc[:, None] + v[None, :]).ravel(),
                   [np.asarray(values, dtype=float)] * n)
    return prob_n, sum_n


def _oracle_kron_tail(probs, values, n, threshold):
    prob_n, sum_n = _kron_outcomes(probs, values, n)
    return float(prob_n[sum_n < threshold].sum())


def _near_tie_mass(probs, values, n, threshold):
    """(mass of outcomes whose float sum lies within the rounding bound of the
    threshold, the tail with those outcomes decided by their exact sums)."""
    values = np.asarray(values, dtype=float)
    prob_n, sums = _kron_outcomes(probs, values, n)
    idx = np.indices((len(values),) * n).reshape(n, -1).T
    mags = np.abs(values[idx]).sum(axis=1)
    near = np.abs(sums - threshold) <= 2 * (n + 1) * 2.0**-52 * mags
    below = sums < threshold
    for r in np.flatnonzero(near):
        below[r] = math.fsum([*values[idx[r]].tolist(), -threshold]) < 0.0
    return float(prob_n[near].sum()), float(prob_n[below].sum())


class TestIidSumTail:
    def test_type_classes_match_kron_enumeration(self):
        rng = np.random.default_rng(2024)
        clean = tied = 0
        for _ in range(400):
            k, n = int(rng.integers(2, 10)), int(rng.integers(1, 9))
            if k**n > 2**15:
                continue
            probs = rng.dirichlet(np.ones(k))
            values = rng.normal(size=k)
            if rng.random() < 0.3:
                values = np.round(values * 8) / 8  # dyadic: many exact ties
            # a threshold a few ulps from one of the sums the enumeration forms
            threshold = float(reduce(lambda a, v: a + v, values[rng.integers(0, k, size=n)]))
            for _ in range(int(rng.integers(0, 4))):
                threshold = float(np.nextafter(threshold, rng.choice([-np.inf, np.inf])))
            # and one between the sums, at a random offset from the first
            for alpha in (threshold, threshold + float(rng.normal())):
                tail, method, _ = iid_sum_tail(probs, values, n, alpha)
                assert method == "exact"
                near_mass, exact_oracle = _near_tie_mass(probs, values, n, alpha)
                assert abs(tail - exact_oracle) <= 1e-12
                diff = abs(tail - _oracle_kron_tail(probs, values, n, alpha))
                if near_mass == 0.0:
                    clean += 1
                    assert diff <= 1e-12
                else:
                    tied += 1  # only the near-tie classes may move the tail
                    assert diff <= near_mass + 1e-12
        assert clean > 50 and tied > 50

    def test_dyadic_exact_ties_are_not_below(self):
        probs = np.array([0.2, 0.5, 0.3])
        values = np.array([-1.0, 0.5, 2.0])
        for n in (1, 3, 6):
            for counts in ((n, 0, 0), (0, n, 0), (1, n - 1, 0), (0, n - 1, 1)):
                threshold = float(np.dot(counts, values))
                tail, _, _ = iid_sum_tail(probs, values, n, threshold)
                assert tail == pytest.approx(
                    _oracle_kron_tail(probs, values, n, threshold), abs=1e-12)
                above = iid_sum_tail(probs, values, n, np.nextafter(threshold, np.inf))[0]
                assert above > tail

    def test_duplicate_atom_values_merge(self):
        probs = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
        values = np.array([0.3, -0.7, 0.3, 1.1, -0.7])
        merged_probs = np.array([0.45, 0.4, 0.15])
        merged_values = np.array([-0.7, 0.3, 1.1])
        for n in (1, 4, 7):
            for threshold in (-2.0, 0.0, 0.35, 3.0):
                tail = iid_sum_tail(probs, values, n, threshold)[0]
                assert tail == pytest.approx(
                    iid_sum_tail(merged_probs, merged_values, n, threshold)[0], abs=1e-14)
                assert tail == pytest.approx(
                    _oracle_kron_tail(probs, values, n, threshold), abs=1e-12)

    def test_infinite_thresholds_and_one_letter(self):
        probs = np.array([0.6, 0.4])
        values = np.array([-3.0, 5.0])
        assert iid_sum_tail(probs, values, 5, -math.inf)[0] == 0.0
        assert iid_sum_tail(probs, values, 5, math.inf)[0] == pytest.approx(1.0, abs=1e-14)
        assert iid_sum_tail(probs, values, 5, math.nan)[0] == 0.0
        assert iid_sum_tail(probs, values, 1, 0.0) == (pytest.approx(0.6, abs=1e-15),
                                                       "exact", None)
        assert iid_sum_tail(probs, values, 1, -3.0)[0] == 0.0
        with pytest.raises(ValueError):
            iid_sum_tail(probs, values, 0, 0.0)

    def test_tiny_atom_in_log_domain(self):
        tiny = 1e-200
        probs = np.array([tiny, 0.5 - tiny, 0.5])
        values = np.array([-10.0, 0.0, 1.0])
        # (tiny, tiny) weighs 1e-400, below the least float, and the kron product
        # flushes it to zero; the mixed classes keep full relative accuracy
        assert iid_sum_tail(probs, values, 2, -15.0)[0] == 0.0
        tail = iid_sum_tail(probs, values, 2, -8.0)[0]
        assert tail == pytest.approx(2 * tiny * (1 - tiny), rel=1e-13)
        assert _oracle_kron_tail(probs, values, 2, -15.0) == 0.0

    def test_type_classes_in_combinations_order(self):
        for k, n in ((0, 3), (1, 5), (3, 1), (3, 4), (5, 3), (8, 7), (2, 9), (300, 2)):
            want = list(itertools.combinations_with_replacement(range(k), n))
            got = exponents._type_classes(k, n)
            assert got.shape == (n, math.comb(n + k - 1, n))
            assert [tuple(c) for c in got.T.tolist()] == want

    def test_exact_path_stays_within_base_to_the_n_floats(self):
        rng = np.random.default_rng(8)
        probs = rng.dirichlet(np.ones(8))
        values = rng.normal(size=8)
        tracemalloc.start()
        try:
            iid_sum_tail(probs, values, 7, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8**7

    @pytest.mark.parametrize("base,n,method", [(2, 22, "exact"), (2, 23, "monte_carlo"),
                                               (8, 7, "exact"), (8, 8, "monte_carlo")])
    def test_guard_switch_is_pinned(self, base, n, method):
        assert exponents.TAIL_ENUMERATION_GUARD == 2**22
        probs = np.full(base, 1.0 / base)
        values = np.arange(base, dtype=float)
        threshold = n * (base - 1) / 2.0
        if method == "monte_carlo":
            with pytest.raises(GuardExceeded):
                iid_sum_tail(probs, values, n, threshold)
        tail, got, ci = iid_sum_tail(probs, values, n, threshold, allow_mc=True,
                                     mc_trials=2000, seed=1)
        assert got == method
        assert (ci is None) == (method == "exact")
        if base == 2 and method == "exact":
            # sum < n/2 of n fair bits
            want = sum(math.comb(n, j) for j in range(n) if j < n / 2) / 2**n
            assert tail == pytest.approx(want, abs=1e-14)
        if method == "monte_carlo":
            # the Monte Carlo path is seeded: these estimates are fixed
            assert tail == {2: 0.499, 8: 0.4455}[base]

    def test_exact_matches_brute_force(self):
        probs = np.array([0.5, 0.3, 0.2])
        vals = np.array([-1.0, 0.25, 2.0])
        n = 3
        brute = 0.0
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if vals[i] + vals[j] + vals[k] < 0.5:
                        brute += probs[i] * probs[j] * probs[k]
        tail, method, ci = iid_sum_tail(probs, vals, n, 0.5)
        assert method == "exact"
        assert ci is None
        assert tail == pytest.approx(brute, abs=1e-14)

    def test_monte_carlo_fallback(self):
        probs = np.array([0.5, 0.5])
        vals = np.array([0.0, 1.0])
        # force the Monte Carlo path via the alphabet-size guard
        tail, method, ci = iid_sum_tail(probs, vals, 30, 12.0, alphabet_size=4,
                                        allow_mc=True, mc_trials=40_000, seed=5)
        exact = sum(math.comb(30, k) * 0.5**30 for k in range(12))
        assert method == "monte_carlo"
        assert ci[0] <= exact <= ci[1]
        with pytest.raises(GuardExceeded):
            iid_sum_tail(probs, vals, 30, 12.0, alphabet_size=4)


class TestDecoderBounds:
    @staticmethod
    def fixture_chain():
        return BccChain(Pmf.uniform(2), bsc(0.25), bsc(0.1), bsc(0.1), bsc(0.2))

    def test_single_letter_matches_enumeration(self):
        chain = self.fixture_chain()
        alphas = (0.01, 0.02, 0.03)
        rep = decoder_error_bounds(1, chain, (2, 2, 2), alphas)
        # brute-force the three tail probabilities over the per-letter joints
        pu = chain.p_u.probs
        pvu = chain.p_v_given_u.matrix
        pyv = chain.p_y_given_v.matrix
        pyu = chain.p_y_given_u.matrix
        pzu = chain.p_z_given_u.matrix
        py = chain.p_y.probs
        pz = chain.p_z.probs
        t1 = sum(pu[u] * pvu[u, v] * pyv[v, y]
                 for u in range(2) for v in range(2) for y in range(2)
                 if pyv[v, y] < math.exp(alphas[1]) * pyu[u, y])
        t2 = sum(chain.p_v.probs[v] * pyv[v, y]
                 for v in range(2) for y in range(2)
                 if pyv[v, y] < math.exp(alphas[2]) * py[y])
        t0 = sum(pu[u] * pzu[u, z]
                 for u in range(2) for z in range(2)
                 if pzu[u, z] < math.exp(alphas[0]) * pz[z])
        assert rep.tail_layer == pytest.approx(t1, abs=1e-12)
        assert rep.tail_base == pytest.approx(t2, abs=1e-12)
        assert rep.tail_common == pytest.approx(t0, abs=1e-12)
        assert rep.bob_bound == pytest.approx(
            t1 + t2 + 4 * math.exp(-alphas[1]) + 8 * math.exp(-alphas[2]), abs=1e-12)
        assert rep.eve_bound == pytest.approx(t0 + 2 * math.exp(-alphas[0]), abs=1e-12)

    def test_minus_infinity_thresholds(self):
        chain = self.fixture_chain()
        rep = decoder_error_bounds(2, chain, (2, 2, 2), (-math.inf,) * 3)
        assert rep.tail_common == rep.tail_layer == rep.tail_base == 0.0
        assert math.isinf(rep.bob_bound)
        assert rep.bob_bound_clamped == 1.0
        assert rep.eve_bound_clamped == 1.0

    def test_overflowing_miss_term_clamps(self):
        rep = decoder_error_bounds(2, self.fixture_chain(), (2, 4, 2), (-1000.0, 0.0, 0.0))
        assert rep.miss_common == math.inf
        assert rep.eve_bound_clamped == 1.0

    def test_blockwise_thresholds_shrink_tails(self):
        # the tails decay to zero by the law of large numbers; at desk scale
        # the lattice structure makes them non-monotone, so compare a short
        # block against a long Monte Carlo one
        chain = self.fixture_chain()
        sizes = (2, 2, 2)
        small = decoder_error_bounds(
            2, chain, sizes, decoding_thresholds(chain, 2, delta=0.05))
        large = decoder_error_bounds(
            120, chain, sizes, decoding_thresholds(chain, 120, delta=0.05),
            allow_mc=True, mc_trials=40_000, seed=2)
        assert large.method == "monte_carlo"
        assert large.tail_layer + large.ci["tail_layer"][1] - large.tail_layer \
            < small.tail_layer

    def test_threshold_defaults(self):
        chain = self.fixture_chain()
        info = informations(chain)
        a0, a1, a2 = decoding_thresholds(chain, 4, delta=0.1)
        assert a0 == pytest.approx(4 * (info.i_uz - 0.1), abs=1e-12)
        assert a1 == pytest.approx(4 * (info.i_vy_given_u - 0.1), abs=1e-12)
        assert a2 == pytest.approx(4 * (info.i_vy - 0.1), abs=1e-12)

    def test_nan_delta_is_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            decoding_thresholds(self.fixture_chain(), 4, delta=math.nan)

    @pytest.mark.parametrize("grid", [[0.0, 0.5], [0.5, math.nan], [-0.5, 0.5]])
    def test_theta_grid_outside_bound_domain(self, grid):
        # a bound term divides by theta, so theta = 0 is no grid point
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            minimize_leakage_bound(20, 4, 4, self.fixture_chain(), theta_grid=grid)

    def test_leakage_bound_minimization(self):
        chain = self.fixture_chain()
        rep = minimize_leakage_bound(6, 4, 4, chain)
        assert rep.total > 0.0
        grid = theta_grid_default()
        brute = min(leakage_bound(6, 4, 4, float(t), float(tp), chain).total
                    for t in grid[::11] for tp in grid[::11])
        assert rep.total <= brute + 1e-12
