"""NumPy frontier sweep for binary-input channel pairs.

A cell of the sweep is one triple (P_V(0), P_{X|V}(0|0), P_{X|V}(1|1)); for
each cell we evaluate the secrecy rate and the two randomness costs, and fold
the results into per-budget maximum tables.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .probability import _xlogx

BIN_FUZZ = 1e-9  # in units of rd_step; absorbs float noise at exact bin edges


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    return -_xlogx(rows).sum(axis=-1)


class SweepTables(NamedTuple):
    """Per-grid-point tables shared by the sweep and the cell enumeration."""

    row0_y: np.ndarray  # (A, my) output law given V=0 at the receiver
    row1_y: np.ndarray  # (B, my) output law given V=1
    row0_z: np.ndarray  # (A, mz) same at the eavesdropper
    row1_z: np.ndarray  # (B, mz)
    h0y: np.ndarray
    h1y: np.ndarray
    h0z: np.ndarray
    h1z: np.ndarray
    ha: np.ndarray      # entropy of the X|V=0 row, ha[i] = H((a_i, 1-a_i))
    hb: np.ndarray
    hz_row0: float      # entropies of the eavesdropper channel rows
    hz_row1: float


def prepare_tables(w_y: np.ndarray, w_z: np.ndarray, a_grid: np.ndarray,
                   b_grid: np.ndarray) -> SweepTables:
    a = a_grid[:, None]
    b = b_grid[:, None]
    row0_y = a * w_y[0] + (1.0 - a) * w_y[1]
    row1_y = (1.0 - b) * w_y[0] + b * w_y[1]
    row0_z = a * w_z[0] + (1.0 - a) * w_z[1]
    row1_z = (1.0 - b) * w_z[0] + b * w_z[1]
    two_col = lambda v: np.stack([v, 1.0 - v], axis=1)
    return SweepTables(
        row0_y=row0_y,
        row1_y=row1_y,
        row0_z=row0_z,
        row1_z=row1_z,
        h0y=_row_entropies(row0_y),
        h1y=_row_entropies(row1_y),
        h0z=_row_entropies(row0_z),
        h1z=_row_entropies(row1_z),
        ha=_row_entropies(two_col(a_grid)),
        hb=_row_entropies(two_col(b_grid)),
        hz_row0=float(_row_entropies(w_z[0])),
        hz_row1=float(_row_entropies(w_z[1])),
    )


def fold_max(table: np.ndarray, rd: np.ndarray, rs: np.ndarray, rd_step: float) -> None:
    """table[g] = max(table[g], rs) over cells binned at g = ceil(rd/rd_step)."""
    g = np.ceil(rd.ravel() / rd_step - BIN_FUZZ).astype(np.int64)
    np.clip(g, 0, None, out=g)
    keep = g < table.size
    g = g[keep]
    vals = rs.ravel()[keep]
    if g.size == 0:
        return
    order = np.argsort(g, kind="stable")
    gs = g[order]
    vs = vals[order]
    starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
    idx = gs[starts]
    table[idx] = np.maximum(table[idx], np.maximum.reduceat(vs, starts))


def sweep_binary(w_y: np.ndarray, w_z: np.ndarray, p_grid: np.ndarray,
                 a_grid: np.ndarray, b_grid: np.ndarray, rd_step: float, n_rd: int):
    """Raw per-budget maxima of the secrecy rate for both randomness costs.

    Returns ``(ds, sim)``: ds uses the eavesdropper information cost of the
    channel input, sim the cloud-layer information plus the conditional input
    entropy (the cost of simulating the prefix channel).  Entries with no
    feasible cell stay at ``-inf``; callers apply the running maximum.
    """
    tables = prepare_tables(w_y, w_z, a_grid, b_grid)
    ds = np.full(n_rd, -np.inf)
    sim = np.full(n_rd, -np.inf)
    ha = tables.ha[:, None]
    hb = tables.hb[None, :]
    h0y = tables.h0y[:, None]
    h1y = tables.h1y[None, :]
    h0z = tables.h0z[:, None]
    h1z = tables.h1z[None, :]
    a_col = a_grid[:, None]
    b_row = b_grid[None, :]
    for p in p_grid:
        q = 1.0 - p
        py = p * tables.row0_y[:, None, :] + q * tables.row1_y[None, :, :]
        hy = -_xlogx(py).sum(axis=-1)
        pz = p * tables.row0_z[:, None, :] + q * tables.row1_z[None, :, :]
        hz = -_xlogx(pz).sum(axis=-1)
        ivy = hy - (p * h0y + q * h1y)
        ivz = hz - (p * h0z + q * h1z)
        px0 = p * a_col + q * (1.0 - b_row)
        ixz = hz - (px0 * tables.hz_row0 + (1.0 - px0) * tables.hz_row1)
        rs = ivy - ivz
        rd_sim = ivz + p * ha + q * hb
        fold_max(ds, ixz, rs, rd_step)
        fold_max(sim, rd_sim, rs, rd_step)
    return ds, sim


def binary_cells(w_y: np.ndarray, w_z: np.ndarray, p_grid: np.ndarray,
                 a_grid: np.ndarray, b_grid: np.ndarray) -> dict:
    """Flattened per-cell quantities in lexicographic (p, a, b) order.

    Materializes every cell, so only suitable for small grids (diagnostics,
    supporting-line evaluations, pair searches).
    """
    t = prepare_tables(w_y, w_z, a_grid, b_grid)
    p = p_grid[:, None, None]
    q = 1.0 - p
    py = p[..., None] * t.row0_y[None, :, None, :] + q[..., None] * t.row1_y[None, None, :, :]
    pz = p[..., None] * t.row0_z[None, :, None, :] + q[..., None] * t.row1_z[None, None, :, :]
    hy = -_xlogx(py).sum(axis=-1)
    hz = -_xlogx(pz).sum(axis=-1)
    ivy = hy - (p * t.h0y[None, :, None] + q * t.h1y[None, None, :])
    ivz = hz - (p * t.h0z[None, :, None] + q * t.h1z[None, None, :])
    px0 = p * a_grid[None, :, None] + q * (1.0 - b_grid[None, None, :])
    ixz = hz - (px0 * t.hz_row0 + (1.0 - px0) * t.hz_row1)
    hxv = p * t.ha[None, :, None] + q * t.hb[None, None, :]
    shape = (-1,)
    return {
        "rs": (ivy - ivz).reshape(shape),
        "rd_ds": ixz.reshape(shape),
        "rd_sim": (ivz + hxv).reshape(shape),
        "ivy": ivy.reshape(shape),
        "ivz": ivz.reshape(shape),
        "p_y": py.reshape(-1, py.shape[-1]),
        "p_z": pz.reshape(-1, pz.shape[-1]),
    }
