"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[acceptance] criterion N PASS/FAIL`` line (run with
``pytest -s`` to see them on success).  All rates are in nats.
"""

import math
import time

import numpy as np

from bccrates import (
    BccChain,
    Dmc,
    GridSpec,
    Pmf,
    check_inner_bound,
    generate_bcc_codebook,
    informations,
    is_more_capable,
    mc_resolvability,
    minimize_leakage_bound,
    minimize_superposition_bound,
    exact_leakage,
    mutual_information,
    resolvability_exponent,
    resolvability_exponent_slope,
    secrecy_capacity,
    secrecy_frontier,
    secrecy_frontier_sim,
    simulate_bcc,
    split_rates,
    superposition_exponent,
    superposition_exponent_slope,
    trial_seed,
)
from bccrates.channels import bec, bsc

from helpers import random_chain, random_more_capable_pair
from test_regions import sample_member_quad

LN2 = math.log(2.0)


def h(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p) if 0 < p < 1 else 0.0


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num} {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_bsc_pair_frontier():
    """Degraded symmetric pair at grid step 0.002: plateau value and onset
    from the closed forms, positive rate below the onset, under 60 s."""
    grid = GridSpec(prob_step=0.002)
    target_rs = h(0.2) - h(0.1)            # 0.175319...
    onset = LN2 - h(0.2)                   # 0.192745...
    start = time.perf_counter()
    front = secrecy_frontier(bsc(0.1), bsc(0.2), grid)
    raw = secrecy_frontier(bsc(0.1), bsc(0.2), grid, hull=False)
    elapsed = time.perf_counter() - start

    max_rs = float(front.r_s.max())
    plateau = front.r_s[front.r_d >= onset]
    plateau_ok = bool(np.all(np.abs(plateau - target_rs) <= 2e-3))
    below = raw.r_d < onset
    positive_below = float(raw.r_s[below].max())

    ok = (abs(max_rs - target_rs) <= 2e-3 and plateau_ok
          and positive_below > 0.0 and elapsed < 60.0)
    report(1, ok, f"max r_s {max_rs:.6f} (target {target_rs:.6f}), plateau ok "
                  f"{plateau_ok}, best raw r_s below onset {positive_below:.4f}, "
                  f"{elapsed:.1f} s")
    assert abs(max_rs - target_rs) <= 2e-3
    assert plateau_ok
    assert positive_below > 0.0
    assert elapsed < 60.0


def test_criterion_2_bsc_bec_orderings():
    """Capability orderings for BSC(0.11)/BEC(0.45) on a 0.001 input grid,
    positive secrecy capacity, and the validity window, under 60 s."""
    start = time.perf_counter()
    y_over_z = is_more_capable(bsc(0.11), bec(0.45), 0.001)
    z_over_y = is_more_capable(bec(0.45), bsc(0.11), 0.001)
    capacity = secrecy_capacity(bsc(0.11), bec(0.45), GridSpec(prob_step=0.005))
    elapsed = time.perf_counter() - start
    eps, delta = 0.11, 0.45
    window = 4 * eps * (1 - eps) * LN2 < delta * LN2 < h(eps)
    ok = (not y_over_z) and z_over_y and capacity > 0.0 and window and elapsed < 60.0
    report(2, ok, f"receiver-over-eavesdropper {y_over_z}, reverse {z_over_y}, "
                  f"capacity {capacity:.6f}, window {window}, {elapsed:.1f} s")
    assert not y_over_z
    assert z_over_y
    assert capacity > 0.0
    assert window
    assert elapsed < 60.0


def _lower_hull(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull vertices of points sorted by ``xs``."""
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (xs[b] - xs[a]) * (ys[i] - ys[a]) - (xs[i] - xs[a]) * (ys[b] - ys[a]) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return np.array(hull)


def _concave_front(costs: np.ndarray, rates: np.ndarray):
    """Vertices of the nondecreasing upper concave hull of (cost, rate) points."""
    order = np.lexsort((-rates, costs))
    c = costs[order]
    r = np.maximum.accumulate(rates[order])
    keep = _lower_hull(c, -r)
    return c[keep], r[keep]


def _bsc_bec_continuum_gap(eps: float, delta: float, n_x: int = 2001, n_mu: int = 201):
    """Largest gap between the convexified ``ds`` and ``sim`` frontiers of the
    BSC(eps)/BEC(delta) pair, computed from closed forms in the input law
    x = P_X(0) on an ``n_x``-point grid (Csiszar-Korner / Nair envelopes).

    With psi(x) = H(Y) - H(Z) = h(x*eps) - h(delta) - (1-delta) h(x), the best
    confidential rate at input law x is psi - (lower convex envelope of psi),
    at ``ds`` cost I(X;Z) = (1-delta) h(x).  The ``sim`` cost
    I(V;Z) + H(X|V) = (1-delta) h(x) + delta E[h(x_V)] depends on V, so that
    frontier is bracketed by Lagrangian duality over slopes mu in [0, s0],
    s0 the initial ``ds`` slope (no slope above it supports ``sim``): the dual
    value max_x [psi - (1-delta) mu h - env(psi + delta mu h)] gives an upper
    line, its maximizer an achievable point.

    Returns ``(gap_lo, gap_hi, at, sim_width)``: the gap bracket, the budget
    of the primal maximum, and the widest sim primal/dual bracket, all taken
    over the hull vertices of both frontiers.
    """
    h_vec = np.vectorize(h, otypes=[float])
    x = np.linspace(0.0, 1.0, n_x)
    hx = h_vec(x)
    psi = h_vec(x * (1.0 - eps) + (1.0 - x) * eps) - h(delta) - (1.0 - delta) * hx
    v = _lower_hull(x, psi)
    ds_c, ds_r = _concave_front((1.0 - delta) * hx, psi - np.interp(x, x[v], psi[v]))
    s0 = (ds_r[1] - ds_r[0]) / (ds_c[1] - ds_c[0])

    mus = np.linspace(0.0, s0, n_mu)
    duals = np.empty(n_mu)
    sim_c, sim_r = [0.0], [0.0]
    for k, mu in enumerate(mus):
        g = psi + delta * mu * hx
        v = _lower_hull(x, g)
        lagrangian = psi - (1.0 - delta) * mu * hx - np.interp(x, x[v], g[v])
        i = int(np.argmax(lagrangian))
        duals[k] = lagrangian[i]
        # V splits x[i] between the two envelope vertices around it
        j = min(int(np.searchsorted(x[v], x[i], side="right")) - 1, len(v) - 2)
        left, right = v[j], v[j + 1]
        w = (x[right] - x[i]) / (x[right] - x[left])
        sim_c.append((1.0 - delta) * hx[i]
                     + delta * (w * hx[left] + (1.0 - w) * hx[right]))
        sim_r.append(psi[i] - (w * psi[left] + (1.0 - w) * psi[right]))
    sim_c, sim_r = _concave_front(np.array(sim_c), np.array(sim_r))

    budgets = np.union1d(ds_c, sim_c)
    ds = np.interp(budgets, ds_c, ds_r)
    sim_lo = np.interp(budgets, sim_c, sim_r)
    sim_hi = np.min(duals[:, None] + mus[:, None] * budgets[None, :], axis=0)
    gap_lo = float(np.max(ds - sim_hi))
    gap_hi = float(np.max(ds - sim_lo))
    at = float(budgets[int(np.argmax(ds - sim_lo))])
    return gap_lo, gap_hi, at, float(np.max(sim_hi - sim_lo))


def test_criterion_3_suboptimality_gap():
    """Prefix-simulation frontier sits below the coding frontier on a shared
    grid, and their largest gap is the continuum gap.

    Both frontiers are convexified (time sharing through the cloud variable,
    which both regions admit).  The reference gap is computed independently
    from the binary-input closed forms (``_bsc_bec_continuum_gap``): about
    2.85e-3 nats near r_d 0.381.  The grid gap must land within 2.5e-4 nats
    of it, about twice the shift of binning a frontier of slope <= 0.023 one
    0.005 budget step up, and its location within one budget step.  A gap of
    zero (``sim`` charged like ``ds``) or the 8.78e-3 of an unhulled ``sim``
    frontier fails, and an unhulled ``ds`` frontier breaks the ordering.
    """
    grid = GridSpec(prob_step=0.005)
    ds = secrecy_frontier(bsc(0.11), bec(0.45), grid)
    sim = secrecy_frontier_sim(bsc(0.11), bec(0.45), grid)
    np.testing.assert_array_equal(ds.r_d, sim.r_d)
    pointwise = bool(np.all(sim.r_s <= ds.r_s + 1e-12))
    gap = float(np.max(ds.r_s - sim.r_s))
    at = float(ds.r_d[int(np.argmax(ds.r_s - sim.r_s))])
    rd_step = float(ds.r_d[1] - ds.r_d[0])
    ref_lo, ref_hi, ref_at, sim_width = _bsc_bec_continuum_gap(0.11, 0.45)
    ok = (pointwise and sim_width < 1e-4
          and ref_lo - 2.5e-4 < gap < ref_hi + 2.5e-4
          and abs(at - ref_at) <= rd_step + 1e-12)
    report(3, ok, f"pointwise below {pointwise}, max gap {gap:.6f} at r_d {at:.3f}; "
                  f"continuum gap in [{ref_lo:.6f}, {ref_hi:.6f}] at r_d {ref_at:.4f} "
                  f"(sim bracket {sim_width:.1e})")
    assert pointwise
    assert sim_width < 1e-4
    assert ref_lo - 2.5e-4 < gap < ref_hi + 2.5e-4
    assert abs(at - ref_at) <= rd_step + 1e-12


def test_criterion_4_chain_rule_and_nesting():
    """Layered identities over 1000 random chains with alphabets up to 4."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        chain = random_chain(rng)
        info = informations(chain)
        chain_rule = abs(info.i_xz_given_u - info.i_vz_given_u - info.i_xz_given_v)
        nesting = info.i_xz_given_u - (info.i_vz_given_u + info.h_x_given_v)
        processing = info.i_vy_given_u - info.i_xy_given_u
        worst = max(worst, chain_rule, nesting, processing)
        assert chain_rule <= 1e-10
        assert nesting <= 1e-10
        assert processing <= 1e-10
    report(4, True, f"1000 chains, worst identity residual {worst:.2e}")


def test_criterion_5_exponent_calculus():
    """Exponent zero value, slopes, additivity, and convexity over 200 fixtures."""
    rng = np.random.default_rng(515)
    thetas = np.linspace(0.0, 1.0, 11)
    worst_slope = 0.0
    worst_add = 0.0
    for _ in range(200):
        chain = random_chain(rng)
        info = informations(chain)
        w = chain.w_z
        layer = chain.p_x_given_v
        prior = chain.p_v

        assert superposition_exponent(0.0, w, layer, prior) == 0.0
        assert resolvability_exponent(0.0, w, chain.p_x) == 0.0

        s_single = resolvability_exponent_slope(w, chain.p_x)
        s_super = superposition_exponent_slope(w, layer, prior)
        s_cloud = superposition_exponent_slope(chain.p_z_given_v, chain.p_v_given_u,
                                               chain.p_u)
        d1 = abs(s_single - mutual_information(chain.p_x, w))
        d2 = abs(s_super - info.i_xz_given_v)
        d3 = abs(s_cloud - info.i_vz_given_u)
        worst_slope = max(worst_slope, d1, d2, d3)
        assert max(d1, d2, d3) <= 1e-5

        theta = float(rng.uniform(0.1, 1.0))
        once = superposition_exponent(theta, w, layer, prior)
        twice = superposition_exponent(theta, Dmc(np.kron(w.matrix, w.matrix)),
                                       Dmc(np.kron(layer.matrix, layer.matrix)),
                                       Pmf(np.kron(prior.probs, prior.probs)))
        worst_add = max(worst_add, abs(twice - 2.0 * once))
        assert abs(twice - 2.0 * once) <= 1e-9

        values = [superposition_exponent(float(t), w, layer, prior) for t in thetas]
        assert np.all(np.diff(values, 2) >= -1e-8)
        single_vals = [resolvability_exponent(float(t), w, chain.p_x) for t in thetas]
        assert np.all(np.diff(single_vals, 2) >= -1e-8)
    report(5, True, f"200 fixtures, worst slope residual {worst_slope:.2e}, "
                    f"worst additivity residual {worst_add:.2e}")


def test_criterion_6_resolvability_bound_domination():
    """Mean exact divergence over 200 codebooks stays below the optimized
    two-layer bound for every (n, m) configuration, under 5 minutes."""
    prior = Pmf.uniform(2)
    layer = bsc(0.1)
    w_z = bsc(0.2)
    start = time.perf_counter()
    results = []
    for n in (2, 4, 6):
        for m in (2, 4):
            sim = mc_resolvability(prior, layer, w_z, n, m, m,
                                   trials=200, master_seed=60)
            bound = minimize_superposition_bound(n, m, m, w_z, layer, prior)
            results.append((n, m, sim.mean, bound.total))
            assert sim.mean <= bound.total, (n, m, sim.mean, bound.total)
    elapsed = time.perf_counter() - start
    detail = "; ".join(f"n={n} m={m}: {mean:.4f} <= {total:.4f}"
                       for n, m, mean, total in results)
    report(6, elapsed < 300.0, f"{detail} ({elapsed:.1f} s)")
    assert elapsed < 300.0


def test_criterion_7_leakage_bound_domination():
    """Three-layer code at n=6, sizes (2,4,2,4): mean exact leakage over 200
    codebooks stays below the optimized leakage bound; one confidential
    message leaks exactly zero."""
    chain = BccChain(Pmf.uniform(2), bsc(0.25), bsc(0.1), bsc(0.1), bsc(0.2))
    rep = simulate_bcc(chain, (2, 4, 2, 4), 6, trials=200, master_seed=70)
    bound = minimize_leakage_bound(6, 4, 4, chain)
    single = [exact_leakage(generate_bcc_codebook(chain, (2, 4, 1, 4), 6,
                                                  seed=trial_seed(71, t)))
              for t in range(20)]
    ok = rep.mean_leakage <= bound.total and all(v == 0.0 for v in single)
    report(7, ok, f"mean leakage {rep.mean_leakage:.6f} <= bound {bound.total:.6f}; "
                  f"single-message leakage all zero: {all(v == 0.0 for v in single)}")
    assert rep.mean_leakage <= bound.total
    assert all(v == 0.0 for v in single)


def test_criterion_8_rate_splitting():
    """1000 random member quadruples: the shifted quadruple lands in the
    inner region with slack >= -1e-9 and case labels follow the definitions."""
    rng = np.random.default_rng(888)
    checked = 0
    cases = {"none": 0, "dummy_to_private": 0, "private_to_common": 0}
    worst = math.inf
    while checked < 1000:
        chain = random_chain(rng)
        quad = sample_member_quad(rng, chain)
        if quad is None:
            continue
        checked += 1
        info = informations(chain)
        split = split_rates(chain, quad)
        in_layer = quad.r_1 + quad.r_s <= info.i_vy_given_u
        covered = quad.r_1 >= info.i_vz_given_u
        expected = ("none" if in_layer and covered
                    else "dummy_to_private" if in_layer
                    else "private_to_common")
        assert split.case == expected
        cases[split.case] += 1
        inner = check_inner_bound(chain, split.shifted)
        slack = min(c.slack for c in inner.constraints)
        worst = min(worst, slack)
        assert slack >= -1e-9, (chain, quad, split)
    report(8, True, f"1000 quads split ({cases}), worst inner slack {worst:.2e}")


def test_criterion_9_more_capable_collapse():
    """For 20 random more-capable pairs the no-prefix frontier matches the
    free-prefix frontier within twice the grid step at every budget."""
    rng = np.random.default_rng(909)
    step = 0.01
    grid = GridSpec(prob_step=step)
    worst = 0.0
    for _ in range(20):
        w_y, w_z = random_more_capable_pair(rng)
        assert is_more_capable(w_y, w_z, 0.01)
        free = secrecy_frontier(w_y, w_z, grid)
        fixed = secrecy_frontier(w_y, w_z, grid, v_equals_x=True)
        diff = float(np.max(np.abs(free.r_s - fixed.r_s)))
        worst = max(worst, diff)
        assert diff <= 2 * step, diff
    report(9, True, f"20 pairs, worst frontier deviation {worst:.5f} "
                    f"(tolerance {2 * step})")
