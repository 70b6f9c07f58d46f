"""NumPy frontier sweep for binary-input channel pairs.

A cell of the sweep is one triple (P_V(0), P_{X|V}(0|0), P_{X|V}(1|1)).
:func:`_planes` is the one place the per-cell formulas live: for a few
cloud priors P_V(0) it evaluates every cell at once, giving the secrecy
rate, both randomness costs, the layer informations and the output laws.
:func:`sweep_binary` folds one cost of each batch of planes into a
per-budget maximum table; :func:`binary_cells` flattens the planes of a
small grid.
"""

from __future__ import annotations

import numpy as np

from .probability import _xlogx

BIN_FUZZ = 1e-9  # in units of rd_step; absorbs float noise at exact bin edges
# cells per batch of planes: few calls on small grids, temporaries of a few
# MB on large ones (one plane of the 0.002 grid already holds 251k cells)
BATCH_CELLS = 1 << 16


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    return -_xlogx(rows).sum(axis=-1)


def _mixture(p: np.ndarray, q: np.ndarray, rows0: np.ndarray,
             rows1: np.ndarray) -> np.ndarray:
    """p * rows0[a] + q * rows1[b] for every (a, b), as a (P, A, B, m) array,
    filled one output letter at a time so the broadcast runs along B."""
    out = np.empty((len(p), len(rows0), len(rows1), rows0.shape[1]))
    for k in range(rows0.shape[1]):
        np.add(p * rows0[:, k, None], q * rows1[None, :, k], out=out[..., k])
    return out


def _receiver(w: np.ndarray, p: np.ndarray, q: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Output law, output entropy and I(V; output) of every cell at one receiver."""
    row0 = a * w[0] + (1.0 - a) * w[1]  # output law given V = 0, per a
    row1 = (1.0 - b) * w[0] + b * w[1]  # given V = 1, per b
    law = _mixture(p, q, row0, row1)
    h = _row_entropies(law)
    return law, h, h - (p * _row_entropies(row0)[:, None] + q * _row_entropies(row1)[None, :])


def _planes(w_y: np.ndarray, w_z: np.ndarray, p: np.ndarray, a_grid: np.ndarray,
            b_grid: np.ndarray) -> dict:
    """Every (a, b) cell at each cloud prior of the (P, 1, 1) array ``p``, as
    (P, A, B) arrays ((P, A, B, m) for the output laws).

    ``rd_ds`` is I(X;Z), the cost of a real prefix channel; ``rd_sim`` is
    I(V;Z) + H(X|V), the cost of simulating it from randomness.
    """
    q = 1.0 - p
    a, b = a_grid[:, None], b_grid[:, None]
    p_y, hy, ivy = _receiver(w_y, p, q, a, b)
    p_z, hz, ivz = _receiver(w_z, p, q, a, b)
    px0 = p * a + q * (1.0 - b_grid[None, :])
    hz_row0, hz_row1 = float(_row_entropies(w_z[0])), float(_row_entropies(w_z[1]))
    ha = _row_entropies(np.stack([a_grid, 1.0 - a_grid], axis=1))  # H(X|V=0), per a
    hb = _row_entropies(np.stack([b_grid, 1.0 - b_grid], axis=1))
    return {
        "rs": ivy - ivz,
        "rd_ds": hz - (px0 * hz_row0 + (1.0 - px0) * hz_row1),
        "rd_sim": ivz + p * ha[:, None] + q * hb[None, :],
        "ivy": ivy,
        "ivz": ivz,
        "p_y": p_y,
        "p_z": p_z,
        "hy": hy,
        "hz": hz,
    }


def fold_max(table: np.ndarray, rd: np.ndarray, rs: np.ndarray, rd_step: float) -> None:
    """table[g] = max(table[g], rs) over cells binned at g = ceil(rd/rd_step).

    Bins below 0 count as bin 0; bins past the end of the table are dropped.
    """
    g = np.ceil(rd.ravel() / rd_step - BIN_FUZZ).astype(np.int64)
    np.clip(g, 0, None, out=g)
    keep = g < table.size
    np.maximum.at(table, g[keep], rs.ravel()[keep])


def sweep_binary(w_y: np.ndarray, w_z: np.ndarray, p_grid: np.ndarray,
                 a_grid: np.ndarray, b_grid: np.ndarray, rd_step: float, n_rd: int,
                 mode: str) -> np.ndarray:
    """Raw per-budget maxima of the secrecy rate under one randomness cost.

    ``mode`` picks the cost: ``"ds"`` charges the eavesdropper information of
    the channel input, ``"sim"`` the cloud-layer information plus the
    conditional input entropy (the cost of simulating the prefix channel).
    Entries with no feasible cell stay at ``-inf``; callers apply the running
    maximum.
    """
    table = np.full(n_rd, -np.inf)
    batch = max(1, BATCH_CELLS // (len(a_grid) * len(b_grid)))
    for start in range(0, len(p_grid), batch):
        cells = _planes(w_y, w_z, p_grid[start:start + batch, None, None], a_grid, b_grid)
        fold_max(table, cells[f"rd_{mode}"], cells["rs"], rd_step)
    return table


def binary_cells(w_y: np.ndarray, w_z: np.ndarray, p_grid: np.ndarray,
                 a_grid: np.ndarray, b_grid: np.ndarray) -> dict:
    """Flattened per-cell quantities in lexicographic (p, a, b) order.

    Materializes every cell, so only suitable for small grids (diagnostics,
    supporting-line evaluations, pair searches).
    """
    cells = _planes(w_y, w_z, p_grid[:, None, None], a_grid, b_grid)
    return {key: value.reshape(-1, *value.shape[3:]) for key, value in cells.items()}
