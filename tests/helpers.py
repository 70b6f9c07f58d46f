"""Shared random fixtures for the test suite (seeded, reproducible), and the
letter-plane grid sweep kept as the oracle of the package's frontiers."""

from __future__ import annotations

import functools
import math

import numpy as np

from bccrates import BccChain, Dmc, Frontier, GridSpec, Pmf, frontier
from bccrates.probability import _xlogx

CHAIN_AXES = "uvxyz"


def random_pmf(rng: np.random.Generator, m: int) -> Pmf:
    return Pmf(rng.dirichlet(np.ones(m)))


def random_dmc(rng: np.random.Generator, m_in: int, m_out: int) -> Dmc:
    return Dmc(rng.dirichlet(np.ones(m_out), size=m_in))


def random_chain(rng: np.random.Generator, max_size: int = 4) -> BccChain:
    mu = int(rng.integers(1, max_size + 1))
    mv = int(rng.integers(2, max_size + 1))
    mx = int(rng.integers(2, max_size + 1))
    my = int(rng.integers(2, max_size + 1))
    mz = int(rng.integers(2, max_size + 1))
    return BccChain(
        p_u=random_pmf(rng, mu),
        p_v_given_u=random_dmc(rng, mu, mv),
        p_x_given_v=random_dmc(rng, mv, mx),
        w_y=random_dmc(rng, mx, my),
        w_z=random_dmc(rng, mx, mz),
    )


def random_more_capable_pair(rng: np.random.Generator) -> tuple[Dmc, Dmc]:
    """Binary-input pair where the second channel is a noisier version of the first."""
    my = int(rng.integers(2, 4))
    mz = int(rng.integers(2, 4))
    w_y = random_dmc(rng, 2, my)
    intermediate = random_dmc(rng, my, mz)
    return w_y, w_y.compose(intermediate)


def chain_joint(chain: BccChain) -> np.ndarray:
    """Dense P(u, v, x, y, z) of the chain, axes in ``CHAIN_AXES`` order."""
    return np.einsum(f"u,uv,vx,xy,xz->{CHAIN_AXES}", chain.p_u.probs, chain.p_v_given_u.matrix,
                     chain.p_x_given_v.matrix, chain.w_y.matrix, chain.w_z.matrix)


def joint_entropy(joint: np.ndarray, names: str, axes: str = CHAIN_AXES) -> float:
    """H (nats) of the marginal of ``joint`` on ``names``, a string of distinct
    letters of ``axes``; einsum raises ValueError for a repeated or unknown one."""
    return float(-_xlogx(np.einsum(f"{axes}->{names}", joint)).sum())


def cmi(joint: np.ndarray, a: str, b: str, given: str = "", axes: str = CHAIN_AXES) -> float:
    """I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C) in nats; each argument names axes."""
    h = lambda names: joint_entropy(joint, names, axes)
    return h(a + given) + h(b + given) - h(a + b + given) - h(given)


def simplex_grid(dim: int, k: int) -> np.ndarray:
    """All probability vectors of length ``dim`` with entries in multiples of 1/k,
    each entry c/k, by recursion with the first entry descending."""
    combos = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            combos.append(prefix + [remaining])
            return
        for c in range(remaining, -1, -1):
            rec(prefix + [c], remaining - c, slots - 1)

    rec([], k, dim)
    return np.asarray(combos, dtype=float) / k


def product_blocks(shape: tuple[int, ...], block: int):
    """Index rows of every cell of ``shape`` in ``itertools.product`` order, as
    consecutive (C, len(shape)) arrays of at most ``block`` rows."""
    count = math.prod(shape)
    for start in range(0, count, block):
        yield np.stack(np.unravel_index(np.arange(start, min(count, start + block)), shape),
                       axis=1)


def hull_chain(x, y, lower):
    """Vertices (xs, ys) of the lower (or upper) hull of points in strictly
    increasing x, by a monotone chain over every point."""
    sign = 1.0 if lower else -1.0
    hull = []
    for point in zip(x.tolist(), (sign * y).tolist()):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (point[1] - y0) - (point[0] - x0) * (y1 - y0) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(point)
    vx, vy = np.array(hull).T
    return vx, sign * vy


# The letter-plane grid sweep.  A cell is a cloud prior P_V with one
# conditional input row P_{X|V}(.|v) per cloud letter v (|V| = |X| = m), on
# the axes (prior, row of v = 0, ...); for binary inputs, the triple
# (P_V(0), P_{X|V}(0|0), P_{X|V}(1|1)).  The per-cell formulas live only in
# _planes, which evaluates every cell of a few cloud priors at once.  Each
# receiver's output law is formed one output letter at a time, as a plane per
# letter, with the entropy accumulated over the planes; sums over input and
# cloud letters run left to right.

BATCH_CELLS = 1 << 16  # cells per batch of planes
FIELDS = ("rs", "rd_ds", "rd_sim", "ivy", "ivz", "p_y", "p_z", "hy", "hz")


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    return -_xlogx(rows).sum(axis=-1)


def _left_sum(terms):
    """terms[0] + terms[1] + ... in that order, adding in place once the running
    total is an array of its own with the full shape."""
    total = terms[0]
    for i, term in enumerate(terms[1:]):
        if i and total.shape == np.broadcast_shapes(total.shape, np.shape(term)):
            total += term
        else:
            total = total + term
    return total


def _receiver(w: np.ndarray, weights: list, rows: list, law: bool):
    """Output entropy and I(V; output) of every cell at one receiver, and the
    output law (letters on a last axis) if ``law`` is set (else None).

    ``weights[v]`` is P_V(v) and ``rows[v]`` the input rows of v, placed on
    the cell axes.  Letter k of the law is the plane
    sum_v P_V(v) sum_x P_{X|V}(x|v) W[x, k].  The entropy subtracts the planes'
    p log p in letter order, the same floats as a sum over the last axis of
    the law for fewer than 8 letters (NumPy sums longer axes pairwise).
    """
    given = [_left_sum([r[..., x, None] * w[x] for x in range(w.shape[0])]) for r in rows]
    planes = []
    for k in range(w.shape[1]):
        plane = _left_sum([p * g[..., k] for p, g in zip(weights, given)])
        if k == 0:
            h = -_xlogx(plane)
        else:
            h -= _xlogx(plane)
        if law:
            planes.append(plane)
    iv = h - _left_sum([p * _row_entropies(g) for p, g in zip(weights, given)])
    return (np.stack(planes, axis=-1) if law else None), h, iv


def _planes(w_y: np.ndarray, w_z: np.ndarray, prior: np.ndarray, rows: list,
            fields=FIELDS) -> dict:
    """The ``fields`` of every cell of the (P, m) cloud priors ``prior`` and the
    m (n_v, m) row grids ``rows``, as (P, n_0, ..., n_{m-1}) arrays (the output
    laws with a last letter axis).

    ``rd_ds`` is I(X;Z), the cost of a real prefix channel, with P_X of the
    last input letter 1 minus each of the others in turn; ``rd_sim`` is
    I(V;Z) + H(X|V), the cost of simulating it from randomness.  Only the
    asked-for costs and laws are computed.
    """
    m = len(rows)
    weights = [prior[:, v].reshape((-1,) + (1,) * m) for v in range(m)]
    placed = [r.reshape((1,) * (1 + v) + (len(r),) + (1,) * (m - 1 - v) + (m,))
              for v, r in enumerate(rows)]  # the rows of v on axis 1 + v
    p_y, hy, ivy = _receiver(w_y, weights, placed, "p_y" in fields)
    p_z, hz, ivz = _receiver(w_z, weights, placed, "p_z" in fields)
    cells = {"rs": ivy - ivz, "ivy": ivy, "ivz": ivz, "p_y": p_y, "p_z": p_z,
             "hy": hy, "hz": hz}
    if "rd_ds" in fields:
        px = [_left_sum([p * r[..., x] for p, r in zip(weights, placed)]) for x in range(m - 1)]
        px.append(functools.reduce(np.subtract, px, 1.0))
        for x, h in enumerate(_row_entropies(w_z)):
            px[x] *= float(h)  # in place, and summed into px[0]: fewer live planes
        for term in px[1:]:
            px[0] += term
        cells["rd_ds"] = hz - px[0]
    if "rd_sim" in fields:
        cells["rd_sim"] = _left_sum([ivz] + [p * _row_entropies(r)
                                             for p, r in zip(weights, placed)])
    return {key: cells[key] for key in fields}


def sweep(w_y: np.ndarray, w_z: np.ndarray, prior: np.ndarray, rows: list,
          rd_step: float, n_rd: int, mode: str) -> np.ndarray:
    """Raw per-budget maxima of the secrecy rate under the ``mode`` cost over
    the cells of the cloud priors ``prior`` and the row grids ``rows``, a
    batch of cloud priors (about ``BATCH_CELLS`` cells, or one prior's) at a
    time.  Entries with no feasible cell stay at ``-inf``."""
    table = np.full(n_rd, -np.inf)
    cost = f"rd_{mode}"
    batch = max(1, BATCH_CELLS // math.prod(len(r) for r in rows))
    for start in range(0, len(prior), batch):
        cells = _planes(w_y, w_z, prior[start:start + batch], rows, ("rs", cost))
        frontier.fold_max(table, cells[cost], cells["rs"], rd_step)
    return table


def binary_cells(w_y: np.ndarray, w_z: np.ndarray, p_grid: np.ndarray,
                 a_grid: np.ndarray, b_grid: np.ndarray, fields=FIELDS) -> dict:
    """The ``fields`` of every binary cell (p, a, b) (all by default), flattened
    in lexicographic (p, a, b) order; the output laws keep their last axis."""
    prior = np.stack([p_grid, 1.0 - p_grid], axis=1)
    rows = [np.stack([a_grid, 1.0 - a_grid], axis=1), np.stack([1.0 - b_grid, b_grid], axis=1)]
    cells = _planes(w_y, w_z, prior, rows, fields)
    return {key: value.reshape(-1, *value.shape[3:]) for key, value in cells.items()}


def _grid_rows(m: int, k: int, v_equals_x: bool) -> tuple[np.ndarray, list]:
    """The cloud priors and the row grid of each cloud letter: a lattice on the
    simplex rotated so letter v's own share sweeps upward first, or with
    V = X the point mass on v."""
    prior = frontier._simplex_lattice(m, k)
    if v_equals_x:
        return prior, [np.eye(m)[v:v + 1] for v in range(m)]
    return prior, [np.roll(prior, v, axis=1) for v in range(m)]


def budget_curve(rd_grid: np.ndarray, raw: np.ndarray, hull: bool) -> np.ndarray:
    """Running maximum of per-budget maxima ``raw``, then (``hull``) the upper
    concave hull sampled back on the budget axis ``rd_grid``."""
    curve = np.maximum.accumulate(raw)
    if hull:
        curve = np.interp(rd_grid, *frontier._hull_vertices(rd_grid, curve).T)
    return curve


def grid_frontier(w_y: Dmc, w_z: Dmc, grid: GridSpec, mode: str, v_equals_x: bool,
                  hull: bool) -> Frontier:
    """The frontier of the grid sweep over every cell on ``grid``, for any
    input alphabet: the oracle of the package's frontiers."""
    rd_grid, rd_step = frontier._budget_axis(w_y, w_z, grid)
    p_grid = grid.prob_grid()
    prior, rows = _grid_rows(w_y.input_size, len(p_grid) - 1, v_equals_x)
    raw = sweep(w_y.matrix, w_z.matrix, prior, rows, rd_step, rd_grid.size, mode)
    curve = budget_curve(rd_grid, raw, hull)
    provenance = {
        "mode": mode,
        "v_equals_x": v_equals_x,
        "hull": hull,
        "prob_step": float(p_grid[1] - p_grid[0]) if p_grid.size > 1 else 1.0,
        "rd_step": rd_step,
        "rd_max": float(rd_grid[-1]),
        "bin_fuzz_steps": frontier.BIN_FUZZ,
        "feasibility_tol": frontier.FEASIBILITY_TOL,
        "backend": "python",
        "input_size": w_y.input_size,
        "seed": None,
    }
    points = tuple((float(x), float(y)) for x, y in zip(rd_grid, curve))
    return Frontier(points=points, provenance=provenance)


def grid_supporting_line_value(w_y: Dmc, w_z: Dmc, mu, r_d: float, grid: GridSpec | None = None,
                               mode: str = "ds"):
    """Max over the grid sweep's binary cells of rs - mu * (cost - r_d), one
    value per slope of an array (a float for a scalar slope): the supporting
    lines of the grid frontier, kept as the oracle of the lattice's
    ``supporting_line_value``.  The cells are streamed a batch of cloud priors
    at a time, as the sweep streams them, with a running maximum per slope."""
    slopes = np.asarray(mu, dtype=float)
    grid = grid or GridSpec()
    k = len(grid.prob_grid()) - 1
    prior, rows = _grid_rows(2, k, False)
    cost = f"rd_{mode}"
    values = np.full(slopes.size, -np.inf)
    batch = max(1, BATCH_CELLS // (k + 1) ** 2)
    for start in range(0, k + 1, batch):
        cells = _planes(w_y.matrix, w_z.matrix, prior[start:start + batch], rows, ("rs", cost))
        rs, excess = cells["rs"], cells[cost] - r_d
        np.maximum(values, [np.max(rs - m * excess) for m in slopes.ravel()], out=values)
    return float(values[0]) if slopes.ndim == 0 else values.reshape(slopes.shape)
