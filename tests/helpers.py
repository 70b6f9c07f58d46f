"""Shared random fixtures for the test suite (seeded, reproducible)."""

from __future__ import annotations

import math

import numpy as np

from bccrates import BccChain, Dmc, GridSpec, Pmf, _sweep_py, frontier
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
    prior = frontier._simplex_lattice(2, k)
    rows = [prior, frontier._simplex_lattice(2, k, 1)]
    cost = f"rd_{mode}"
    values = np.full(slopes.size, -np.inf)
    batch = max(1, _sweep_py.BATCH_CELLS // (k + 1) ** 2)
    for start in range(0, k + 1, batch):
        cells = _sweep_py._planes(w_y.matrix, w_z.matrix, prior[start:start + batch], rows,
                                  ("rs", cost))
        rs, excess = cells["rs"], cells[cost] - r_d
        np.maximum(values, [np.max(rs - m * excess) for m in slopes.ravel()], out=values)
    return float(values[0]) if slopes.ndim == 0 else values.reshape(slopes.shape)
