"""Closed-form checks of the benchmark's reference computations.

    python3 -m pytest perfbench/test_reference.py -q

These test the references, not bccrates, so they import nothing from it.
"""

import math

import numpy as np

import reference as ref

LN2 = math.log(2.0)


def h(p: float) -> float:
    return -p * math.log(p) - (1 - p) * math.log(1 - p) if 0 < p < 1 else 0.0


def bsc(e):
    return np.array([[1 - e, e], [e, 1 - e]])


def bec(d):
    return np.array([[1 - d, 0.0, d], [0.0, 1 - d, d]])


def test_front_value_and_inverse():
    front = ref.Front([0.0, 1.0, 2.0, 3.0, 0.5], [0.0, 2.0, 3.0, 3.0, 0.1])
    assert front.costs.tolist() == [0.0, 1.0, 2.0, 3.0]  # (0.5, 0.1) lies below
    assert front.value(0.5) == 1.0
    assert front.value(10.0) == 3.0
    assert front.inverse(2.5) == 1.5
    assert math.isinf(front.inverse(3.5))


def test_ds_frontier_of_degraded_bsc_pair():
    # plateau h(0.2) - h(0.1), reached at the uniform input, cost ln 2 - h(0.2)
    ds = ref.ds_frontier(bsc(0.1), bsc(0.2), 20_001)
    assert abs(ds.top - (h(0.2) - h(0.1))) < 1e-12
    assert abs(ds.inverse(ds.top) - (LN2 - h(0.2))) < 1e-12
    assert ds.costs[0] == 0.0 and ds.rates[0] == 0.0


def test_ds_frontier_of_identical_channels_is_zero():
    ds = ref.ds_frontier(bsc(0.2), bsc(0.2), 2001)
    assert np.all(np.abs(ds.rates) < 1e-15)


def test_ds_frontier_bsc_bec_capacity():
    # with an erasure eavesdropper the best V = X rate at input x is
    # h(x*eps) - h(eps) - (1 - delta) h(x); prefixing beats it where that is
    # not concave, and the plateau is its concave envelope's maximum
    eps, delta = 0.11, 0.45
    x = np.linspace(0.0, 1.0, 20_001)
    hv = np.vectorize(h)
    v_eq_x = hv(x * (1 - eps) + (1 - x) * eps) - h(eps) - (1 - delta) * hv(x)
    ds = ref.ds_frontier(bsc(eps), bec(delta), 20_001)
    assert ds.top >= v_eq_x.max() - 1e-15
    assert ds.top > 0.0


def test_sim_bracket_and_gap():
    # degraded pair: the prefix buys nothing, so sim meets ds
    ds = ref.ds_frontier(bsc(0.1), bsc(0.2), 20_001)
    slope = (ds.rates[1] - ds.rates[0]) / (ds.costs[1] - ds.costs[0])
    sim = ref.SimBracket(bsc(0.1), bsc(0.2), slope)
    assert abs(sim.lower.top - (h(0.2) - h(0.1))) < 1e-12
    lo, hi, _ = ref.continuum_gap(ds, sim)
    assert -1e-12 < lo <= hi < 1e-5
    # BSC(0.11)/BEC(0.45): the paper's suboptimality gap, 2.85e-3 nats
    ds = ref.ds_frontier(bsc(0.11), bec(0.45), 20_001)
    slope = (ds.rates[1] - ds.rates[0]) / (ds.costs[1] - ds.costs[0])
    sim = ref.SimBracket(bsc(0.11), bec(0.45), slope)
    lo, hi, at = ref.continuum_gap(ds, sim)
    assert 2.849e-3 < lo <= hi < 2.852e-3
    assert abs(at - 0.381) < 2e-3
    budgets = np.linspace(0.0, 1.2, 241)
    assert np.all(sim.lower.value(budgets[1:]) <= sim.upper(budgets[1:]) + 1e-15)


def test_symmetric_capacity_gap():
    # TSC(a) then TSC(b) is TSC(a + b - 3ab/2); C = ln 3 - H(row)
    def h3(e):
        return -(1 - e) * math.log(1 - e) - e * math.log(e / 2)
    a, b = 0.1, 0.2
    w_y = ref.ternary_symmetric(a)
    w_z = w_y @ ref.ternary_symmetric(b)
    np.testing.assert_allclose(w_z, ref.ternary_symmetric(a + b - 1.5 * a * b), atol=1e-15)
    gap = ref.symmetric_capacity_gap(w_y, w_z)
    assert abs(gap - (h3(a + b - 1.5 * a * b) - h3(a))) < 1e-12
    assert abs(ref.grid_secrecy_max(w_y, w_z, 30) - gap) < 1e-12
    assert ref.grid_secrecy_max(w_y, w_z, 4) < gap


def test_bec_bsc_orderings():
    assert ref.bec_bsc_degraded(0.4, 0.2) and not ref.bec_bsc_degraded(0.4, 0.19)
    gap = ref.bec_bsc_information_gap(0.45, 0.11, 0.001)
    assert abs(gap[500] - (h(0.11) - 0.45 * LN2)) < 1e-15
    assert gap[0] == 0.0 and gap[-1] == 0.0


def test_region_slacks_of_the_figure_chain():
    # constant U, V = X uniform, BSC(0.1)/BSC(0.2)
    info = ref.chain_informations(np.array([1.0]), np.array([[0.5, 0.5]]), np.eye(2),
                                  bsc(0.1), bsc(0.2))
    assert abs(info["i_vy_given_u"] - (LN2 - h(0.1))) < 1e-12
    assert abs(info["i_vz_given_u"] - (LN2 - h(0.2))) < 1e-12
    assert abs(info["i_xz_given_v"]) < 1e-12 and abs(info["i_uy"]) < 1e-12
    slacks = ref.region_slacks(info, 0.3, 0.0, 0.0, 0.1)
    assert abs(slacks["confidential_rate"] - (h(0.2) - h(0.1) - 0.1)) < 1e-12
    assert abs(slacks["private_plus_dummy"] - (0.3 - (LN2 - h(0.2)))) < 1e-12
    inner = ref.inner_slacks(info, 0.3, 0.0, 0.2, 0.1)
    assert abs(inner["layer_rate"] - (LN2 - h(0.1) - 0.3)) < 1e-12


def test_tail_programme_matches_binomial():
    p, n = 0.3, 12
    for t in (0, 3, 3.5, 12, 13):
        want = sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1) if k < t)
        assert abs(ref.iid_tail_dp([1 - p, p], [0.0, 1.0], n, t) - want) < 1e-14


def test_decoder_atoms_average_to_informations():
    rng = np.random.default_rng(3)
    layers = (rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3), size=2),
              rng.dirichlet(np.ones(2), size=3), rng.dirichlet(np.ones(2), size=2),
              rng.dirichlet(np.ones(3), size=2))
    info = ref.chain_informations(*layers)
    atoms = ref.decoder_atoms(*layers)
    for key, name in (("layer", "i_vy_given_u"), ("base", "i_vy"), ("common", "i_uz")):
        probs, values = atoms[key]
        assert abs(sum(probs) - 1.0) < 1e-12
        assert abs(np.dot(probs, values) - info[name]) < 1e-12


def test_output_divergence_of_one_codeword():
    # one word x: the output law is the product of its rows
    w = bsc(0.2)
    word = np.array([[0, 1, 1, 0, 0]])
    p_x = np.array([0.5, 0.5])
    want = sum(ref.divergence(w[x], p_x @ w) for x in word[0])
    assert abs(ref.output_divergence(word, w, p_x) - want) < 1e-12


def test_leakage_cases():
    # one message leaks nothing; two noiselessly separated messages leak ln 2
    same = np.zeros((1, 1, 1, 2, 3), dtype=int)
    same[0, 0, 0, 1] = [1, 0, 1]
    assert ref.leakage(same, bsc(0.2)) == 0.0
    apart = np.zeros((1, 1, 2, 1, 3), dtype=int)
    apart[0, 0, 1, 0] = [1, 1, 1]
    assert abs(ref.leakage(apart, np.eye(2)) - LN2) < 1e-15


def test_output_divergence_bracket():
    # one word: the bracket closes on n (ln 2 - h(0.2)) for a constant word
    lo, hi = ref.output_divergence_bracket(np.zeros((1, 400), dtype=int), bsc(0.2),
                                           np.array([0.5, 0.5]))
    assert lo == hi and abs(hi - 400 * (LN2 - h(0.2))) < 1e-9
    # several words: the enumeration lies inside, and the width is ln M
    rng = np.random.default_rng(3)
    words = rng.integers(0, 2, size=(4, 6))
    p_x = np.array([0.4, 0.6])
    lo, hi = ref.output_divergence_bracket(words, bsc(0.1), p_x)
    exact = ref.output_divergence(words, bsc(0.1), p_x)
    assert lo <= exact <= hi and abs(hi - lo - math.log(4)) < 1e-12
