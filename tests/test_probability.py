import functools
import math

import numpy as np
import pytest

from bccrates import (
    Dmc,
    Pmf,
    binary_entropy,
    entropy,
    kl_divergence,
    mutual_information,
    single_chain,
)
from bccrates import probability
from bccrates.channels import bsc

from helpers import chain_joint, cmi, joint_entropy, random_dmc, random_pmf

LN2 = math.log(2.0)


def h_oracle(p: float) -> float:
    # direct evaluation of the defining formula, independent of the library
    out = 0.0
    if p > 0.0:
        out -= p * math.log(p)
    if p < 1.0:
        out -= (1.0 - p) * math.log(1.0 - p)
    return out


class TestBinaryEntropy:
    def test_symmetry_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)

    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_direct_evaluation(self):
        assert binary_entropy(0.2) == pytest.approx(h_oracle(0.2), abs=1e-15)
        assert binary_entropy(0.2) == pytest.approx(0.5004024, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        # within the 1e-12 slack is fine
        assert binary_entropy(1.0 + 1e-13) == 0.0


def crossover(x: float, y: float) -> float:
    """Crossover probability of BSC(x) cascaded with BSC(y)."""
    return float(bsc(x).compose(bsc(y)).matrix[0, 1])


class TestBinaryConvolution:
    def test_identity_element(self):
        for x in (0.0, 0.3, 0.9):
            assert crossover(x, 0.0) == x

    def test_absorbing_element(self):
        for x in (0.0, 0.3, 0.9):
            assert crossover(x, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_direct_arithmetic(self):
        assert crossover(0.1, 0.2) == pytest.approx(0.26, abs=1e-15)

    def test_symmetric(self):
        assert crossover(0.13, 0.41) == pytest.approx(crossover(0.41, 0.13), abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            crossover(1.2, 0.1)


class TestKlDivergence:
    def test_identity_case(self):
        p = Pmf([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence(Pmf([1.0, 0.0]), Pmf([0.5, 0.5])) == pytest.approx(
            LN2, abs=1e-15)

    def test_direct_summation(self):
        oracle = 0.8 * math.log(0.8 / 0.5) + 0.2 * math.log(0.2 / 0.5)
        value = kl_divergence(Pmf([0.8, 0.2]), Pmf([0.5, 0.5]))
        assert value == pytest.approx(oracle, abs=1e-15)
        assert value == pytest.approx(LN2 - h_oracle(0.2), abs=1e-12)
        assert value == pytest.approx(0.1927450, abs=1e-6)

    def test_infinity_sentinel(self):
        assert kl_divergence(Pmf([0.5, 0.5]), Pmf([1.0, 0.0])) == math.inf

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(Pmf([1.0]), Pmf([0.5, 0.5]))

    def test_unchecked_form_matches_checked(self):
        # the simulators' array-only form: same sum, same inf rule
        rng = np.random.default_rng(12)
        for _ in range(100):
            p, q = rng.random(16), rng.random(16)
            p[rng.random(16) < 0.3] = 0.0
            q[rng.random(16) < 0.1] = 0.0
            p, q = p / p.sum(), q / q.sum()
            assert probability._kl(p, q) == kl_divergence(p, q)
            assert probability._kl(p, p) == kl_divergence(Pmf(p), Pmf(p))

    def test_nonnegative_with_equality_iff_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(2, 6))
            p, q = random_pmf(rng, m), random_pmf(rng, m)
            d = kl_divergence(p, q)
            assert d >= 0.0
            if np.max(np.abs(p.probs - q.probs)) <= 1e-12:
                assert d <= 1e-10


class TestMutualInformation:
    def test_noiseless_binary(self):
        assert mutual_information(Pmf.uniform(2), bsc(0.0)) == pytest.approx(
            LN2, abs=1e-12)

    def test_constant_output(self):
        w = Dmc([[1.0, 0.0], [1.0, 0.0]])
        assert mutual_information(Pmf([0.3, 0.7]), w) == pytest.approx(0.0, abs=1e-15)

    def test_brute_force_joint_oracle(self):
        p = Pmf.uniform(2)
        w = bsc(0.2)
        # oracle: sum over the joint of p(x,y) log(p(x,y)/(p(x)p(y)))
        joint = np.array([[0.5 * 0.8, 0.5 * 0.2], [0.5 * 0.2, 0.5 * 0.8]])
        py = joint.sum(axis=0)
        oracle = sum(
            joint[x, y] * math.log(joint[x, y] / (0.5 * py[y]))
            for x in range(2) for y in range(2))
        assert mutual_information(p, w) == pytest.approx(oracle, abs=1e-14)
        assert mutual_information(p, w) == pytest.approx(0.1927450, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information(Pmf.uniform(3), bsc(0.1))

    def test_bounds_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m_in = int(rng.integers(1, 6))
            m_out = int(rng.integers(1, 6))
            val = mutual_information(random_pmf(rng, m_in), random_dmc(rng, m_in, m_out))
            assert -1e-10 <= val <= min(math.log(max(m_in, 1)),
                                        math.log(max(m_out, 1))) + 1e-10


class TestConditionalMutualInformation:
    # the dense-joint oracle in tests/helpers.py that test_chain checks
    # informations() against
    def test_conditionally_independent(self):
        rng = np.random.default_rng(3)
        pc = rng.dirichlet(np.ones(3))
        pa_c = rng.dirichlet(np.ones(2), size=3)
        pb_c = rng.dirichlet(np.ones(4), size=3)
        probs = np.einsum("c,ca,cb->abc", pc, pa_c, pb_c)
        assert cmi(probs, "a", "b", "c", axes="abc") == pytest.approx(0.0, abs=1e-12)

    def test_constant_conditioner_degenerates(self):
        rng = np.random.default_rng(5)
        pab = rng.dirichlet(np.ones(6)).reshape(2, 3)
        with_cond = cmi(pab[:, :, None], "a", "b", "c", axes="abc")
        without = cmi(pab[:, :, None], "a", "b", axes="abc")
        assert with_cond == pytest.approx(without, abs=1e-12)

    def test_conditioning_on_input_kills_information(self):
        chain = single_chain(Pmf.uniform(2), Dmc.identity(2), bsc(0.1), bsc(0.2))
        assert cmi(chain_joint(chain), "x", "z", "v") == pytest.approx(0.0, abs=1e-12)

    def test_axis_errors(self):
        joint = np.full((2, 2), 0.25)
        with pytest.raises(ValueError):
            cmi(joint, "a", "a", axes="ab")
        with pytest.raises(ValueError):
            cmi(joint, "a", "nope", axes="ab")


class TestBuildJoint:
    def test_deterministic_layers_point_mass(self):
        chain = single_chain(Pmf.point_mass(2, 1), Dmc.identity(2),
                             Dmc.identity(2), Dmc.identity(2))
        joint = chain_joint(chain)
        assert joint[0, 1, 1, 1, 1] == 1.0
        assert joint.sum() == pytest.approx(1.0, abs=1e-15)

    def test_output_marginal_is_pushforward(self):
        rng = np.random.default_rng(9)
        chain = single_chain(random_pmf(rng, 3), random_dmc(rng, 3, 2),
                             random_dmc(rng, 2, 4), random_dmc(rng, 2, 3))
        joint = chain_joint(chain)
        np.testing.assert_allclose(joint.sum(axis=(0, 1, 2, 4)),
                                   chain.w_y.output(chain.p_x).probs, atol=1e-14)
        np.testing.assert_allclose(joint.sum(axis=(0, 1, 2, 3)),
                                   chain.w_z.output(chain.p_x).probs, atol=1e-14)

    def test_figure_chain_closed_forms(self):
        chain = single_chain(Pmf.uniform(2), Dmc.identity(2), bsc(0.1), bsc(0.2))
        joint = chain_joint(chain)
        assert cmi(joint, "x", "y") == pytest.approx(LN2 - h_oracle(0.1), abs=1e-12)
        assert cmi(joint, "x", "z") == pytest.approx(LN2 - h_oracle(0.2), abs=1e-12)


class TestConditionalEntropy:
    def test_deterministic_given_itself(self):
        chain = single_chain(Pmf.uniform(2), Dmc.identity(2), bsc(0.1), bsc(0.2))
        joint = chain_joint(chain)
        assert joint_entropy(joint, "xv") - joint_entropy(joint, "v") == pytest.approx(
            0.0, abs=1e-12)

    def test_independent_case(self):
        joint = np.full((2, 2), 0.25)
        h_a_given_b = joint_entropy(joint, "ab", "ab") - joint_entropy(joint, "b", "ab")
        assert h_a_given_b == pytest.approx(LN2, abs=1e-12)


class TestProductExtend:
    # i.i.d. extensions as the exponent tests build them: np.kron of the
    # letter laws, first letter most significant
    def test_uniform_cube(self):
        ext = Pmf(functools.reduce(np.kron, [Pmf.uniform(2).probs] * 3))
        np.testing.assert_allclose(ext.probs, np.full(8, 0.125), atol=1e-15)

    def test_channel_entry_product(self):
        ext = Dmc(np.kron(bsc(0.2).matrix, bsc(0.2).matrix))
        # input (0,0) -> index 0; output (0,1) -> index 1
        assert ext.matrix[0, 1] == pytest.approx(0.8 * 0.2, abs=1e-15)

    def test_normalization_preserved(self):
        # n-fold products stay inside the ingestion tolerance of Pmf and Dmc
        p = Pmf([0.1, 0.2, 0.7])
        for n in (2, 4, 8):
            probs = functools.reduce(np.kron, [p.probs] * n)
            assert abs(Pmf(probs).probs.sum() - 1.0) < 1e-9
        ext = Dmc(functools.reduce(np.kron, [bsc(0.3).matrix] * 12))
        assert np.max(np.abs(ext.matrix.sum(axis=1) - 1.0)) < 1e-9


class TestValidation:
    def test_negative_probability(self):
        with pytest.raises(ValueError):
            Pmf([-0.1, 1.1])

    @pytest.mark.parametrize("entries", [[math.nan, 1.0], [0.5, math.nan, 0.5],
                                         [math.inf, 1.0], [-math.inf, 1.0]])
    def test_non_finite_entries(self, entries):
        # nan fails every comparison, so a sum test alone would let it through
        with pytest.raises(ValueError):
            Pmf(entries)
        with pytest.raises(ValueError):
            Dmc([np.full(len(entries), 1.0 / len(entries)), entries])

    def test_bad_normalization(self):
        with pytest.raises(ValueError):
            Pmf([0.5, 0.6])

    def test_renormalized_flag(self):
        p = Pmf([0.5, 0.5 - 1e-13])  # off by less than the ingestion tolerance
        assert p.renormalized
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert not Pmf([0.5, 0.5]).renormalized

    def test_arrays_read_only(self):
        p = Pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.9
        w = bsc(0.1)
        with pytest.raises(ValueError):
            w.matrix[0, 0] = 0.5

    def test_dmc_row_validation(self):
        with pytest.raises(ValueError):
            Dmc([[0.5, 0.5], [0.7, 0.7]])

    def test_entropy_helper(self):
        assert entropy(Pmf.uniform(4)) == pytest.approx(math.log(4), abs=1e-12)


def test_xlogx_bits():
    # p log p with 0 off the positive reals, bit for bit the product p * log(p or 1)
    p = np.array([0.0, -0.0, 0.25, 1.0, 5e-324, 1e300, -0.5, np.inf, np.nan])
    want = p * np.log(np.where(p > 0.0, p, 1.0))
    got = probability._xlogx(p)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    grid = np.linspace(0.0, 1.0, 61).reshape(61, 1) * np.array([[1.0, 0.5, 0.0]])
    assert np.array_equal(probability._xlogx(grid), grid * np.log(np.where(grid > 0, grid, 1)))
    assert probability._xlogx([[0, 1]]).dtype == np.float64
