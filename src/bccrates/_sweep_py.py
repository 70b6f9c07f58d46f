"""NumPy frontier sweep for channel pairs with any input alphabet.

A cell is a cloud prior P_V with one conditional input row P_{X|V}(.|v) per
cloud letter v (|V| = |X| = m), on the axes (prior, row of v = 0, ...); for
binary inputs, the triple (P_V(0), P_{X|V}(0|0), P_{X|V}(1|1)).  The per-cell
formulas live only in :func:`_planes`, which evaluates every cell of a few
cloud priors at once and gives the fields its caller asks for.  Each
receiver's output law is formed one output letter at a time, as a plane per
letter, with the entropy accumulated over the planes; sums over input and
cloud letters run left to right.  :func:`sweep` evaluates the planes a batch
of cloud priors at a time and folds one cost of each batch into a per-budget
maximum table; :func:`binary_cells` flattens the planes of a small binary
grid.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .probability import _xlogx

BIN_FUZZ = 1e-9  # in units of rd_step; absorbs float noise at exact bin edges
# cells per batch of planes: few calls on small grids, temporaries of a few
# MB on large ones (one plane of the 0.002 grid already holds 251k cells)
BATCH_CELLS = 1 << 16
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


def fold_max(table: np.ndarray, rd: np.ndarray, rs: np.ndarray, rd_step: float) -> None:
    """table[g] = max(table[g], rs) over cells binned at g = ceil(rd/rd_step).

    Bins below 0 count as bin 0; bins past the end of the table are dropped.
    """
    g = np.ceil(rd.ravel() / rd_step - BIN_FUZZ).astype(np.int64)
    np.clip(g, 0, table.size, out=g)
    spill = np.append(table, -np.inf)  # the last slot takes the dropped bins
    np.maximum.at(spill, g, rs.ravel())
    table[:] = spill[:-1]


def sweep(w_y: np.ndarray, w_z: np.ndarray, prior: np.ndarray, rows: list,
          rd_step: float, n_rd: int, mode: str) -> np.ndarray:
    """Raw per-budget maxima of the secrecy rate under one randomness cost, over
    the cells of the cloud priors ``prior`` and the row grids ``rows``.

    ``mode`` picks the cost: ``"ds"`` charges the eavesdropper information of
    the channel input, ``"sim"`` the cloud-layer information plus the
    conditional input entropy (the cost of simulating the prefix channel).
    The cells are evaluated a batch of cloud priors at a time, about
    ``BATCH_CELLS`` cells (or one prior's) a batch.  Entries with no feasible
    cell stay at ``-inf``; callers apply the running maximum.
    """
    table = np.full(n_rd, -np.inf)
    cost = f"rd_{mode}"
    batch = max(1, BATCH_CELLS // math.prod(len(r) for r in rows))
    for start in range(0, len(prior), batch):
        cells = _planes(w_y, w_z, prior[start:start + batch], rows, ("rs", cost))
        fold_max(table, cells[cost], cells["rs"], rd_step)
    return table


def binary_cells(w_y: np.ndarray, w_z: np.ndarray, p_grid: np.ndarray,
                 a_grid: np.ndarray, b_grid: np.ndarray, fields=FIELDS) -> dict:
    """The ``fields`` of every binary cell (p, a, b) (all by default), flattened
    in lexicographic (p, a, b) order; the output laws keep their last axis.

    Materializes every cell, so only suitable for small grids (pair searches,
    diagnostics and test oracles).
    """
    prior = np.stack([p_grid, 1.0 - p_grid], axis=1)
    rows = [np.stack([a_grid, 1.0 - a_grid], axis=1), np.stack([1.0 - b_grid, b_grid], axis=1)]
    cells = _planes(w_y, w_z, prior, rows, fields)
    return {key: value.reshape(-1, *value.shape[3:]) for key, value in cells.items()}
