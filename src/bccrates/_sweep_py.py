"""NumPy frontier sweep for binary-input channel pairs.

A cell of the sweep is one triple (P_V(0), P_{X|V}(0|0), P_{X|V}(1|1)).
:func:`_planes` is the one place the per-cell formulas live: for a few
cloud priors P_V(0) it evaluates every cell at once, giving whichever of
the secrecy rate, the two randomness costs, the layer informations and the
output laws its caller asks for.  Each receiver's output law is formed one
output letter at a time, as a (P, A, B) plane per letter, and the output
entropy is accumulated over those planes; the law itself is stacked only
when it is asked for.  :func:`sweep_binary` folds one cost of each batch of
planes into a per-budget maximum table; :func:`binary_cells` flattens the
planes of a small grid.
"""

from __future__ import annotations

import numpy as np

from .probability import _xlogx

BIN_FUZZ = 1e-9  # in units of rd_step; absorbs float noise at exact bin edges
# cells per batch of planes: few calls on small grids, temporaries of a few
# MB on large ones (one plane of the 0.002 grid already holds 251k cells)
BATCH_CELLS = 1 << 16
FIELDS = ("rs", "rd_ds", "rd_sim", "ivy", "ivz", "p_y", "p_z", "hy", "hz")


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    return -_xlogx(rows).sum(axis=-1)


def _receiver(w: np.ndarray, p: np.ndarray, q: np.ndarray, a: np.ndarray, b: np.ndarray,
              law: bool):
    """Output entropy and I(V; output) of every cell at one receiver, and the
    (P, A, B, m) output law if ``law`` is set (else None).

    Letter k of the law is the plane p * row0[a, k] + q * row1[b, k].  The
    entropy subtracts the planes' p log p in letter order, the same floats as
    a sum over the last axis of the law for fewer than 8 letters (NumPy sums
    longer last axes pairwise).
    """
    row0 = a * w[0] + (1.0 - a) * w[1]  # output law given V = 0, per a
    row1 = (1.0 - b) * w[0] + b * w[1]  # given V = 1, per b
    planes = []
    for k in range(w.shape[1]):
        plane = p * row0[:, k, None] + q * row1[None, :, k]
        if k == 0:
            h = -_xlogx(plane)
        else:
            h -= _xlogx(plane)
        if law:
            planes.append(plane)
    iv = h - (p * _row_entropies(row0)[:, None] + q * _row_entropies(row1)[None, :])
    return (np.stack(planes, axis=-1) if law else None), h, iv


def _planes(w_y: np.ndarray, w_z: np.ndarray, p: np.ndarray, a_grid: np.ndarray,
            b_grid: np.ndarray, fields=FIELDS) -> dict:
    """The ``fields`` of every (a, b) cell at each cloud prior of the (P, 1, 1)
    array ``p``, as (P, A, B) arrays ((P, A, B, m) for the output laws).

    ``rd_ds`` is I(X;Z), the cost of a real prefix channel; ``rd_sim`` is
    I(V;Z) + H(X|V), the cost of simulating it from randomness.  Only the
    asked-for costs and laws are computed.
    """
    q = 1.0 - p
    a, b = a_grid[:, None], b_grid[:, None]
    p_y, hy, ivy = _receiver(w_y, p, q, a, b, "p_y" in fields)
    p_z, hz, ivz = _receiver(w_z, p, q, a, b, "p_z" in fields)
    cells = {"rs": ivy - ivz, "ivy": ivy, "ivz": ivz, "p_y": p_y, "p_z": p_z,
             "hy": hy, "hz": hz}
    if "rd_ds" in fields:
        px0 = p * a + q * (1.0 - b_grid[None, :])
        hz_row0, hz_row1 = float(_row_entropies(w_z[0])), float(_row_entropies(w_z[1]))
        cells["rd_ds"] = hz - (px0 * hz_row0 + (1.0 - px0) * hz_row1)
    if "rd_sim" in fields:
        ha = _row_entropies(np.stack([a_grid, 1.0 - a_grid], axis=1))  # H(X|V=0), per a
        hb = _row_entropies(np.stack([b_grid, 1.0 - b_grid], axis=1))
        cells["rd_sim"] = ivz + p * ha[:, None] + q * hb[None, :]
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
    cost = f"rd_{mode}"
    for start in range(0, len(p_grid), batch):
        cells = _planes(w_y, w_z, p_grid[start:start + batch, None, None], a_grid, b_grid,
                        ("rs", cost))
        fold_max(table, cells[cost], cells["rs"], rd_step)
    return table


def binary_cells(w_y: np.ndarray, w_z: np.ndarray, p_grid: np.ndarray,
                 a_grid: np.ndarray, b_grid: np.ndarray, fields=FIELDS) -> dict:
    """The ``fields`` of every cell (all by default), flattened in lexicographic
    (p, a, b) order; the output laws keep their last axis.

    Materializes every cell, so only suitable for small grids (diagnostics,
    supporting-line evaluations, pair searches).
    """
    cells = _planes(w_y, w_z, p_grid[:, None, None], a_grid, b_grid, fields)
    return {key: value.reshape(-1, *value.shape[3:]) for key, value in cells.items()}
