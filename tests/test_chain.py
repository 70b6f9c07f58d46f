import dataclasses
import math

import numpy as np
import pytest

from bccrates import (
    BccChain,
    ChainInformations,
    Dmc,
    Pmf,
    RateQuad,
    chain_v_equals_x,
    check_deterministic_encoder,
    check_inner_bound,
    check_rate_quad,
    check_unlimited_randomness,
    decoding_thresholds,
    informations,
    single_chain,
    split_rates,
)
from bccrates import regions
from bccrates.chain import MAX_AXIS_SIZE
from bccrates.channels import bsc
from bccrates.regions import SLACK_TOL

from helpers import chain_joint, cmi, joint_entropy, random_chain, random_dmc, random_pmf

LN2 = math.log(2.0)


def h(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p) if 0 < p < 1 else 0.0


class TestChainConstruction:
    def test_dimension_mismatches(self):
        with pytest.raises(ValueError):
            BccChain(Pmf.uniform(2), Dmc.identity(3), Dmc.identity(3),
                     bsc(0.1), bsc(0.2))
        with pytest.raises(ValueError):
            BccChain(Pmf.uniform(2), Dmc.identity(2), Dmc.identity(2),
                     bsc(0.1), Dmc.identity(3))

    def test_cardinality_guard(self):
        rng = np.random.default_rng(0)
        # |U| = 6 > |X| + 3 = 5 for binary X
        big_u = BccChain(
            random_pmf(rng, 6), random_dmc(rng, 6, 2), Dmc.identity(2),
            bsc(0.1), bsc(0.2))
        assert big_u.sizes[0] == 6  # allowed without enforcement
        with pytest.raises(ValueError):
            BccChain(random_pmf(rng, 6), random_dmc(rng, 6, 2), Dmc.identity(2),
                     bsc(0.1), bsc(0.2), enforce_cardinality=True)

    def test_axis_size_cap(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            single_chain(random_pmf(rng, 9), random_dmc(rng, 9, 2), bsc(0.1), bsc(0.2))

    def test_v_equals_x_helpers(self):
        chain = chain_v_equals_x(Pmf.uniform(2), bsc(0.3), bsc(0.1), bsc(0.2))
        assert chain.has_v_equal_x()
        assert not single_chain(Pmf.uniform(2), bsc(0.3), bsc(0.1), bsc(0.2)).has_v_equal_x()

    def test_derived_channels(self):
        chain = single_chain(Pmf.uniform(2), bsc(0.1), bsc(0.1), bsc(0.2))
        # V -> Y cascades the two symmetric layers
        np.testing.assert_allclose(chain.p_y_given_v.matrix, bsc(0.1 * 0.9 * 2).matrix,
                                   atol=1e-12)
        np.testing.assert_allclose(chain.p_x.probs, [0.5, 0.5], atol=1e-15)

    def test_derived_laws_are_composed_once(self):
        # each law is kept on first read and equals the law composed afresh
        rng = np.random.default_rng(24)
        for _ in range(50):
            chain = random_chain(rng)
            p_v = chain.p_v_given_u.output(chain.p_u)
            p_x = chain.p_x_given_v.output(p_v)
            p_y_given_v = chain.p_x_given_v.compose(chain.w_y)
            p_z_given_v = chain.p_x_given_v.compose(chain.w_z)
            fresh = {"p_v": p_v.probs, "p_x": p_x.probs,
                     "p_y": chain.w_y.output(p_x).probs, "p_z": chain.w_z.output(p_x).probs,
                     "p_y_given_v": p_y_given_v.matrix, "p_z_given_v": p_z_given_v.matrix,
                     "p_y_given_u": chain.p_v_given_u.compose(p_y_given_v).matrix,
                     "p_z_given_u": chain.p_v_given_u.compose(p_z_given_v).matrix}
            for name, want in fresh.items():
                law = getattr(chain, name)
                assert getattr(chain, name) is law, name
                got = law.probs if isinstance(law, Pmf) else law.matrix
                assert np.array_equal(got, want), name


class TestFigureChainInformations:
    def test_closed_forms(self):
        chain = single_chain(Pmf.uniform(2), Dmc.identity(2), bsc(0.1), bsc(0.2))
        info = informations(chain)
        assert info.i_xy == pytest.approx(LN2 - h(0.1), abs=1e-12)
        assert info.i_xz == pytest.approx(LN2 - h(0.2), abs=1e-12)
        assert info.i_vy_given_u == pytest.approx(LN2 - h(0.1), abs=1e-12)
        assert info.i_vz_given_u == pytest.approx(LN2 - h(0.2), abs=1e-12)
        assert info.i_uy == pytest.approx(0.0, abs=1e-12)
        assert info.i_xz_given_v == pytest.approx(0.0, abs=1e-12)
        assert info.h_x_given_v == pytest.approx(0.0, abs=1e-12)


class TestChainIdentities:
    def test_chain_rule_and_data_processing(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            chain = random_chain(rng)
            info = informations(chain)
            # layered decomposition of the eavesdropper information
            assert info.i_xz_given_u == pytest.approx(
                info.i_vz_given_u + info.i_xz_given_v, abs=1e-10)
            # processing the input through the prefix layer cannot help
            assert info.i_vy_given_u <= info.i_xy_given_u + 1e-10
            # entropy cost of simulating the prefix dominates its information
            assert info.i_xz_given_u <= info.i_vz_given_u + info.h_x_given_v + 1e-10

    def test_marginal_consistency(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            chain = random_chain(rng)
            joint = chain_joint(chain)
            np.testing.assert_allclose(joint.sum(axis=(1, 2, 3, 4)), chain.p_u.probs,
                                       atol=1e-13)
            np.testing.assert_allclose(joint.sum(axis=(0, 2, 3, 4)), chain.p_v.probs,
                                       atol=1e-13)
            np.testing.assert_allclose(joint.sum(axis=(0, 1, 2, 3)), chain.p_z.probs,
                                       atol=1e-13)


def _oracle_informations(chain: BccChain) -> ChainInformations:
    """Every term from the dense 5-D joint: 11 conditional mutual informations
    and one conditional entropy, each from re-summed marginals."""
    joint = chain_joint(chain)
    i = lambda a, b, given="": cmi(joint, a, b, given)
    return ChainInformations(
        i_uy=i("u", "y"),
        i_uz=i("u", "z"),
        i_vy=i("v", "y"),
        i_vz=i("v", "z"),
        i_xy=i("x", "y"),
        i_xz=i("x", "z"),
        i_vy_given_u=i("v", "y", "u"),
        i_vz_given_u=i("v", "z", "u"),
        i_xy_given_u=i("x", "y", "u"),
        i_xz_given_u=i("x", "z", "u"),
        i_xz_given_v=i("x", "z", "v"),
        h_x_given_v=joint_entropy(joint, "xv") - joint_entropy(joint, "v"),
    )


# (|U|, |V|, |X|, |Y|, |Z|) of the chains the benchmark's check queries draw
# (CHAIN_SIZES in perfbench/workloads.py)
CHAIN_SIZES = ((1, 2, 2, 2, 2), (2, 2, 2, 2, 3), (2, 3, 2, 3, 2), (1, 3, 3, 2, 2),
               (2, 2, 3, 3, 3), (3, 3, 2, 2, 4), (2, 4, 3, 2, 3), (3, 3, 3, 3, 3))
TWISTS = ("plain", "constant_u", "v_equals_x", "point_rows", "zero_v", "zero_x",
          "deterministic")


def _law(rng, m_in: int, m_out: int, point_share: float = 0.0) -> np.ndarray:
    """Random row-stochastic matrix; each row is a point mass with chance
    ``point_share``."""
    rows = rng.dirichlet(np.ones(m_out), size=m_in)
    hit = rng.random(m_in) < point_share
    rows[hit] = np.eye(m_out)[rng.integers(m_out, size=int(hit.sum()))]
    return rows


def _drop_letter(rng, rows: np.ndarray) -> np.ndarray:
    """The same rows with one output letter's mass moved onto another letter,
    so that letter has probability zero."""
    gone, kept = rng.choice(rows.shape[1], size=2, replace=False)
    rows = rows.copy()
    rows[:, kept] += rows[:, gone]
    rows[:, gone] = 0.0
    return rows


def _fuzz_chain(rng, sizes, twist: str) -> BccChain:
    mu, mv, mx, my, mz = sizes
    if twist == "constant_u":
        mu = 1
    if twist == "v_equals_x":
        mv = mx
    point_share = 0.5 if twist == "point_rows" else 0.0
    p_vu = _law(rng, mu, mv, point_share)
    p_xv = np.eye(mx) if twist == "v_equals_x" else _law(rng, mv, mx, point_share)
    if twist == "zero_v":
        p_vu = _drop_letter(rng, p_vu)
    if twist == "zero_x":
        p_xv = _drop_letter(rng, p_xv)
    channel_share = 1.0 if twist == "deterministic" else 0.0
    return BccChain(Pmf(rng.dirichlet(np.ones(mu))), Dmc(p_vu), Dmc(p_xv),
                    Dmc(_law(rng, mx, my, channel_share)),
                    Dmc(_law(rng, mx, mz, channel_share)))


def _fuzzed_chains():
    """Two chains per (shape, twist): the benchmark shapes, random shapes with
    axes up to MAX_AXIS_SIZE, and the largest shape."""
    rng = np.random.default_rng(2026)
    random_shapes = [tuple(int(m) for m in rng.integers([1, 2, 2, 2, 2], MAX_AXIS_SIZE + 1))
                     for _ in range(6)]
    for sizes in (*CHAIN_SIZES, *random_shapes, (MAX_AXIS_SIZE,) * 5):
        for twist in TWISTS:
            for _ in range(2):
                yield twist, _fuzz_chain(rng, sizes, twist)


def _random_quad(rng, info: ChainInformations) -> RateQuad:
    """Each rate uniform on [0, 1.3 x its cap], so quads fall on both sides."""
    scaled = lambda cap: float(rng.uniform(0.0, 1.3 * cap)) if cap > 0.0 else 0.0
    return RateQuad(r_d=scaled(info.i_xz_given_u),
                    r_0=scaled(min(info.i_uy, info.i_uz)),
                    r_1=scaled(info.i_vy_given_u),
                    r_s=scaled(info.i_vy_given_u - info.i_vz_given_u))


def _verdicts(chain: BccChain, quad: RateQuad):
    """(outcome, slacks) of every region check and the split on one quad."""
    verdicts = [check_rate_quad(chain, quad),
                check_unlimited_randomness(chain, quad.r_0, quad.r_1, quad.r_s),
                check_inner_bound(chain, quad)]
    if chain.has_v_equal_x():
        verdicts.append(check_deterministic_encoder(chain, quad.r_0, quad.r_1, quad.r_s))
    try:
        case = split_rates(chain, quad).case
    except ValueError:
        case = "outside"
    outcome = [(v.is_member, v.violated()) for v in verdicts] + [case]
    return outcome, [c.slack for v in verdicts for c in v.constraints]


class TestConditionalEntropyPath:
    def test_fields_match_joint_oracle(self):
        checked = 0
        for twist, chain in _fuzzed_chains():
            got = dataclasses.asdict(informations(chain))
            want = dataclasses.asdict(_oracle_informations(chain))
            for name, value in want.items():
                assert abs(got[name] - value) <= 1e-13, (twist, chain.sizes, name)
            checked += 1
        assert checked == 15 * len(TWISTS) * 2

    def test_verdicts_match_joint_oracle(self, monkeypatch):
        rng = np.random.default_rng(2027)
        cases = set()
        for twist, chain in _fuzzed_chains():
            oracle = _oracle_informations(chain)
            for _ in range(4):
                quad = _random_quad(rng, oracle)
                with monkeypatch.context() as patch:
                    patch.setattr(regions, "informations", lambda _chain: oracle)
                    want, slacks = _verdicts(chain, quad)
                # the split compares r_1 + r_s and r_1 against the layer terms
                # with no tolerance, so those margins must be clear as well
                margins = [s + SLACK_TOL for s in slacks] + [
                    quad.r_1 + quad.r_s - oracle.i_vy_given_u,
                    quad.r_1 - oracle.i_vz_given_u]
                if min(abs(m) for m in margins) < 1e-12:
                    continue
                assert _verdicts(chain, quad)[0] == want, (twist, chain.sizes, quad)
                cases.add(want[-1])
        assert cases == {"outside", "none", "dummy_to_private", "private_to_common"}

    def test_checks_never_build_the_joint(self):
        # the package has no joint builder to take (test_retired_names_stay_gone)
        chain = BccChain(Pmf.uniform(2), bsc(0.25), bsc(0.1), bsc(0.1), bsc(0.2))
        info = informations(chain)
        quad = RateQuad(r_d=info.i_xz_given_u, r_0=0.0, r_1=0.0, r_s=0.0)
        assert check_rate_quad(chain, quad).is_member
        assert split_rates(chain, quad).case == "dummy_to_private"
        alphas = decoding_thresholds(chain, 6)
        assert alphas[0] == pytest.approx(6 * (info.i_uz - 0.05), abs=1e-14)
