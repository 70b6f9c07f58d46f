"""Reference computations the benchmark checks bccrates against.

Everything here is NumPy and the standard library only.  Nothing is imported
from ``bccrates``: the frontier references come from the binary-input closed
forms in x = P_X(0) (Csiszar-Korner / Nair concave envelopes), the region
references from a joint law built with ``einsum``, the tails from a dynamic
programme over distinct sums, and the codebook figures from brute-force
enumeration of every output sequence.  All quantities are in nats.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def xlogx(p):
    p = np.asarray(p, dtype=float)
    return p * np.log(np.where(p > 0.0, p, 1.0))


def entropy(p, axis=-1):
    """Shannon entropy along ``axis`` (nats)."""
    return -xlogx(p).sum(axis=axis)


def binary_entropy(p):
    return entropy(np.stack([np.asarray(p, dtype=float), 1.0 - np.asarray(p, dtype=float)]),
                   axis=0)


# ---------------------------------------------------------------- envelopes

def _lower_hull_indices(xs, ys) -> list[int]:
    """Vertices of the lower convex hull of points already sorted by ``xs``."""
    xs = xs.tolist()
    ys = ys.tolist()
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (xs[b] - xs[a]) * (ys[i] - ys[a]) - (xs[i] - xs[a]) * (ys[b] - ys[a]) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def lower_convex_envelope(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Greatest convex function below the samples, evaluated at ``xs`` (sorted)."""
    v = _lower_hull_indices(xs, ys)
    return np.interp(xs, xs[v], ys[v])


class Front:
    """Nondecreasing concave piecewise-linear curve given by its vertices."""

    def __init__(self, costs, rates):
        costs = np.asarray(costs, dtype=float)
        rates = np.asarray(rates, dtype=float)
        order = np.lexsort((-rates, costs))
        c = costs[order]
        r = np.maximum.accumulate(rates[order])
        keep = _lower_hull_indices(c, -r)
        self.costs = c[keep]
        self.rates = r[keep]

    def value(self, r_d):
        """Curve value at ``r_d``; below the first vertex nothing is achievable."""
        r_d = np.asarray(r_d, dtype=float)
        out = np.interp(r_d, self.costs, self.rates)
        return np.where(r_d < self.costs[0], -np.inf, out)

    def inverse(self, r_s: float) -> float:
        """Smallest budget at which the curve reaches ``r_s`` (inf if never)."""
        if r_s > self.rates[-1]:
            return math.inf
        if r_s <= self.rates[0]:
            return float(self.costs[0])
        j = int(np.searchsorted(self.rates, r_s, side="left"))
        c0, c1 = self.costs[j - 1], self.costs[j]
        s0, s1 = self.rates[j - 1], self.rates[j]
        return float(c0 + (r_s - s0) * (c1 - c0) / (s1 - s0))

    @property
    def top(self) -> float:
        return float(self.rates[-1])


# ------------------------------------------------------ binary-input frontiers

def _binary_forms(w_y, w_z, n_x: int):
    """x grid, psi = H(Y) - H(Z), H(Z) and the X-to-Z row entropies."""
    w_y = np.asarray(w_y, dtype=float)
    w_z = np.asarray(w_z, dtype=float)
    x = np.linspace(0.0, 1.0, n_x)
    hy = entropy(x[:, None] * w_y[0] + (1.0 - x[:, None]) * w_y[1])
    hz = entropy(x[:, None] * w_z[0] + (1.0 - x[:, None]) * w_z[1])
    return x, hy - hz, hz, entropy(w_z)


def ds_frontier(w_y, w_z, n_x: int = 100_001) -> Front:
    """Continuum ``ds`` frontier of a binary-input pair.

    At input law x the best confidential rate over prefixes V is
    psi(x) - (lower convex envelope of psi)(x), at cost I(X;Z); time sharing
    over x gives the concave hull.
    """
    x, psi, hz, hz_rows = _binary_forms(w_y, w_z, n_x)
    cost = hz - (x * hz_rows[0] + (1.0 - x) * hz_rows[1])
    return Front(cost, psi - lower_convex_envelope(x, psi))


class SimBracket:
    """Lagrangian bracket of the ``sim`` frontier (cost I(V;Z) + H(X|V)).

    For each slope mu, max over x of F_mu - (lower envelope of G_mu) with
    F_mu = psi - mu H(Z) and G_mu = psi - mu (H(Z) - h) is the dual value;
    its maximiser, V split between the two envelope vertices around x, is an
    achievable (primal) point.  ``lower`` is the hull of the primal points
    and ``upper(r_d)`` = min over mu of dual + mu r_d.  Slopes run over
    [0, max_slope]; the initial slope of the ``ds`` frontier is enough,
    since ``sim`` lies below ``ds`` and both start at the origin.
    """

    def __init__(self, w_y, w_z, max_slope: float, n_x: int = 2001, n_mu: int = 201):
        x, psi, hz, _ = _binary_forms(w_y, w_z, n_x)
        hx = binary_entropy(x)
        self.mus = np.linspace(0.0, max_slope, n_mu)
        self.duals = np.empty(n_mu)
        costs, rates = [0.0], [0.0]
        for k, mu in enumerate(self.mus):
            g = psi - mu * (hz - hx)
            v = _lower_hull_indices(x, g)
            lagrangian = psi - mu * hz - np.interp(x, x[v], g[v])
            i = int(np.argmax(lagrangian))
            self.duals[k] = lagrangian[i]
            j = min(max(int(np.searchsorted(x[v], x[i], side="right")) - 1, 0), len(v) - 2)
            left, right = v[j], v[j + 1]
            w = (x[right] - x[i]) / (x[right] - x[left])
            costs.append(hz[i] - w * (hz[left] - hx[left])
                         - (1.0 - w) * (hz[right] - hx[right]))
            rates.append(psi[i] - w * psi[left] - (1.0 - w) * psi[right])
        self.lower = Front(costs, rates)

    def upper(self, r_d):
        r_d = np.atleast_1d(np.asarray(r_d, dtype=float))
        return np.min(self.duals[:, None] + self.mus[:, None] * r_d[None, :], axis=0)


def continuum_gap(ds: Front, sim: SimBracket):
    """(gap_lo, gap_hi, at): bracket on max over r_d of ds - sim, and where."""
    budgets = np.union1d(ds.costs, sim.lower.costs)
    top = ds.value(budgets)
    lo_gap = top - sim.upper(budgets)
    hi_gap = top - np.maximum(sim.lower.value(budgets), 0.0)
    return float(np.max(lo_gap)), float(np.max(hi_gap)), float(budgets[np.argmax(hi_gap)])


# -------------------------------------------------------- general alphabets

def mutual_information(p_x, w) -> float:
    p_x = np.asarray(p_x, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(entropy(p_x @ w) - p_x @ entropy(w))


def simplex_grid(dim: int, k: int) -> np.ndarray:
    """Probability vectors of length ``dim`` with entries in multiples of 1/k."""
    pts = [c for c in itertools.product(range(k + 1), repeat=dim) if sum(c) == k]
    return np.asarray(pts, dtype=float) / k


def grid_secrecy_max(w_y, w_z, k: int) -> float:
    """max of I(X;Y) - I(X;Z) over input laws on the 1/k simplex grid."""
    grid = simplex_grid(np.asarray(w_y).shape[0], k)
    w_y = np.asarray(w_y, dtype=float)
    w_z = np.asarray(w_z, dtype=float)
    iy = entropy(grid @ w_y) - grid @ entropy(w_y)
    iz = entropy(grid @ w_z) - grid @ entropy(w_z)
    return float(np.max(iy - iz))


def symmetric_capacity_gap(w_y, w_z) -> float:
    """C_Y - C_Z for a pair of symmetric channels with Z degraded from Y.

    Uniform input achieves both capacities, and for a degraded pair it also
    maximises I(X;Y) - I(X;Z), so this is the secrecy capacity.
    """
    m = np.asarray(w_y).shape[0]
    uniform = np.full(m, 1.0 / m)
    return mutual_information(uniform, w_y) - mutual_information(uniform, w_z)


def ternary_symmetric(e: float) -> np.ndarray:
    """Ternary symmetric channel: symbol kept with 1-e, else uniform on the others."""
    return (1.0 - e) * np.eye(3) + (e / 2.0) * (np.ones((3, 3)) - np.eye(3))


# --------------------------------------------------------------- orderings

def bec_bsc_degraded(delta: float, eps: float) -> bool:
    """Is BSC(eps) a degraded version of BEC(delta)?  (eps <= 1/2)

    An intermediate sending 0 -> 1 and 1 -> 0 with probability a and the
    erasure to a fair coin gives crossover (1-delta) a + delta/2, and no
    intermediate does better, so the answer is eps >= delta/2.
    """
    return delta / 2.0 <= eps <= 0.5


def bec_bsc_information_gap(delta: float, eps: float, step: float) -> np.ndarray:
    """I_BEC(x) - I_BSC(x) on the input grid with the given step."""
    k = max(1, round(1.0 / step))
    x = np.linspace(0.0, 1.0, k + 1)
    hx = binary_entropy(x)
    i_bec = (1.0 - delta) * hx
    i_bsc = binary_entropy(x * (1.0 - eps) + (1.0 - x) * eps) - binary_entropy(eps)
    return i_bec - i_bsc


# ------------------------------------------------------------------ regions

def chain_joint(p_u, p_vu, p_xv, w_y, w_z) -> np.ndarray:
    return np.einsum("u,uv,vx,xy,xz->uvxyz", p_u, p_vu, p_xv, w_y, w_z)


def _cmi(joint: np.ndarray, a: int, b: int, given: tuple[int, ...]) -> float:
    """I(A;B|C) from the (u, v, x, y, z) joint by marginal entropies."""
    def h(keep):
        drop = tuple(i for i in range(joint.ndim) if i not in keep)
        return float(-xlogx(joint.sum(axis=drop)).sum())
    c = set(given)
    return h(c | {a}) + h(c | {b}) - h(c | {a, b}) - h(c)


def chain_informations(p_u, p_vu, p_xv, w_y, w_z) -> dict:
    """The information terms of the region inequalities, from the joint law."""
    j = chain_joint(p_u, p_vu, p_xv, w_y, w_z)
    U, V, X, Y, Z = range(5)
    return {
        "i_uy": _cmi(j, U, Y, ()),
        "i_uz": _cmi(j, U, Z, ()),
        "i_vy": _cmi(j, V, Y, ()),
        "i_vy_given_u": _cmi(j, V, Y, (U,)),
        "i_vz_given_u": _cmi(j, V, Z, (U,)),
        "i_xz_given_u": _cmi(j, X, Z, (U,)),
        "i_xz_given_v": _cmi(j, X, Z, (V,)),
    }


def region_slacks(info: dict, r_d: float, r_0: float, r_1: float, r_s: float) -> dict:
    """Slack of each of the five inequalities of the region with a budget."""
    common = min(info["i_uy"], info["i_uz"])
    return {
        "common_rate": common - r_0,
        "total_rate": info["i_vy_given_u"] + common - (r_0 + r_1 + r_s),
        "confidential_rate": info["i_vy_given_u"] - info["i_vz_given_u"] - r_s,
        "private_plus_dummy": r_1 + r_d - info["i_xz_given_u"],
        "dummy_floor": r_d - info["i_xz_given_v"],
    }


def inner_slacks(info: dict, r_d: float, r_0: float, r_1: float, r_s: float) -> dict:
    """Slack of each inequality of the superposition inner region."""
    return {
        "common_rate": info["i_uz"] - r_0,
        "layer_rate": info["i_vy_given_u"] - (r_1 + r_s),
        "total_rate": info["i_vy"] - (r_0 + r_1 + r_s),
        "private_floor": r_1 - info["i_vz_given_u"],
        "dummy_floor": r_d - info["i_xz_given_v"],
    }


# -------------------------------------------------------------------- tails

def iid_tail_dp(probs, values, n: int, threshold: float) -> float:
    """P(sum of n i.i.d. atoms < threshold) by a programme over distinct sums.

    Sums are formed left to right, one letter at a time, and merged when
    bitwise equal, so each distinct sum is the same float a left-to-right
    enumeration would form.
    """
    dist = {0.0: 1.0}
    for _ in range(n):
        nxt: dict[float, float] = {}
        for s, p in dist.items():
            for q, v in zip(probs, values):
                key = s + float(v)
                nxt[key] = nxt.get(key, 0.0) + p * float(q)
        dist = nxt
    return float(sum(p for s, p in dist.items() if s < threshold))


def decoder_atoms(p_u, p_vu, p_xv, w_y, w_z):
    """(probs, log-ratios) of the three decoder tests, on their supports.

    Layer test: (u, v, y) with log P(y|v) - log P(y|u); base test: (v, y)
    with log P(y|v) - log P(y); common test: (u, z) with log P(z|u) - log P(z).
    """
    p_u, p_vu, p_xv = (np.asarray(a, dtype=float) for a in (p_u, p_vu, p_xv))
    w_y, w_z = np.asarray(w_y, dtype=float), np.asarray(w_z, dtype=float)
    pyv = p_xv @ w_y
    pyu = p_vu @ pyv
    pzu = p_vu @ p_xv @ w_z
    p_v = p_u @ p_vu
    py = p_v @ pyv
    pz = p_u @ pzu
    out = {}
    atoms = []
    for u in range(p_u.size):
        for v in range(p_v.size):
            for y in range(py.size):
                atoms.append((p_u[u] * p_vu[u, v] * pyv[v, y],
                              math.log(pyv[v, y]) - math.log(pyu[u, y]) if pyv[v, y] > 0 else 0.0))
    out["layer"] = atoms
    out["base"] = [(p_v[v] * pyv[v, y],
                    math.log(pyv[v, y]) - math.log(py[y]) if pyv[v, y] > 0 else 0.0)
                   for v in range(p_v.size) for y in range(py.size)]
    out["common"] = [(p_u[u] * pzu[u, z],
                      math.log(pzu[u, z]) - math.log(pz[z]) if pzu[u, z] > 0 else 0.0)
                     for u in range(p_u.size) for z in range(pz.size)]
    return {k: ([p for p, _ in a if p > 0.0], [v for p, v in a if p > 0.0])
            for k, a in out.items()}


# ---------------------------------------------------------------- codebooks

@functools.lru_cache(maxsize=None)
def sequences(size: int, n: int) -> np.ndarray:
    """Every sequence of length ``n`` over ``range(size)``, one per row."""
    return np.array(list(itertools.product(range(size), repeat=n)), dtype=np.int64)


def block_output_law(words: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Uniform mixture over ``words`` (count, n) of the product channel law,
    one entry per output sequence, enumerated explicitly."""
    words = np.asarray(words)
    w = np.asarray(w, dtype=float)
    outs = sequences(w.shape[1], words.shape[1])
    # probs[c, o] = prod_t w[words[c, t], outs[o, t]]
    probs = w[words[:, None, :], outs[None, :, :]].prod(axis=2)
    return probs.mean(axis=0)


def divergence(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    s = p > 0.0
    if np.any(q[s] == 0.0):
        return math.inf
    return float(np.sum(p[s] * np.log(p[s] / q[s])))


def output_divergence(x_words: np.ndarray, w_z, p_x) -> float:
    """D(block output of the codebook || i.i.d. output of ``p_x``)."""
    x_words = np.asarray(x_words)
    n = x_words.shape[-1]
    w_z = np.asarray(w_z, dtype=float)
    law = block_output_law(x_words.reshape(-1, n), w_z)
    p_z = np.asarray(p_x, dtype=float) @ w_z
    return divergence(law, p_z[sequences(w_z.shape[1], n)].prod(axis=1))


def leakage(x_words: np.ndarray, w_z) -> float:
    """I(S; Z^n) of a (K, L, S, A, n) codebook with uniform messages."""
    x_words = np.asarray(x_words)
    size_s, n = x_words.shape[2], x_words.shape[-1]
    laws = [block_output_law(x_words[:, :, s].reshape(-1, n), w_z) for s in range(size_s)]
    mix = np.mean(laws, axis=0)
    return float(np.mean([divergence(law, mix) for law in laws]))


def output_divergence_bracket(x_words: np.ndarray, w_z, p_x) -> tuple[float, float]:
    """Interval holding D(block output of the codebook || i.i.d. output of ``p_x``)
    at any blocklength, without enumerating outputs.

    With P_c the output law of word c and Q the i.i.d. law, the block output
    is the uniform mixture of the M words' P_c, and
    D(mixture || Q) = mean_c D(P_c || Q) - I(C; Z^n), where
    0 <= I(C; Z^n) <= ln M.  Each D(P_c || Q) is a sum over the word's letters.
    """
    x_words = np.asarray(x_words)
    words = x_words.reshape(-1, x_words.shape[-1])
    w_z = np.asarray(w_z, dtype=float)
    p_z = np.asarray(p_x, dtype=float) @ w_z
    letter = np.array([divergence(row, p_z) for row in w_z])
    upper = float(letter[words].sum(axis=1).mean())
    return upper - math.log(words.shape[0]), upper
