"""Secrecy-rate frontiers over a dummy-randomness budget.

For a channel pair (receiver, eavesdropper) the achievable set of
(randomness budget, confidential rate) pairs is swept on a probability grid
over the auxiliary layers, reduced to a per-budget maximum, and convexified
by two-point time sharing.  Binary-input pairs use the three-parameter
search (cloud prior and the two conditional-input diagonal entries); larger
input alphabets fall back to a guarded full grid over the cloud prior and
the conditional rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _sweep_py
from ._csv import write_csv
from .probability import Dmc, GuardExceeded, _xlogx

FEASIBILITY_TOL = 1e-9
CELL_GUARD = 2**22           # most cells one sweep or supporting-line table may evaluate


@dataclass(frozen=True)
class GridSpec:
    """Search resolution for frontier sweeps and supporting lines.

    ``prob_step`` is the step for every searched probability parameter;
    ``rd_step``/``rd_max`` control the budget axis (defaults: ``prob_step``
    and a channel-derived cap).  ``mu_*`` give the slope grid
    (:meth:`mu_values`) for supporting-line dual checks; they do not shape a
    frontier.  Every value must be finite.
    """

    prob_step: float = 0.005
    mu_max: float = 20.0
    mu_step: float = 0.05
    rd_step: float | None = None
    rd_max: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.prob_step <= 0.5:
            raise ValueError(f"prob_step must lie in (0, 0.5], got {self.prob_step!r}")
        for name in ("mu_max", "mu_step", "rd_step", "rd_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.mu_max < 0.0 or self.mu_step <= 0.0:
            raise ValueError("mu grid must have nonnegative span and positive step")
        if self.rd_step is not None and self.rd_step <= 0.0:
            raise ValueError("rd_step must be positive")
        if self.rd_max is not None and self.rd_max < 0.0:
            raise ValueError("rd_max must be nonnegative")

    def prob_grid(self) -> np.ndarray:
        n = max(1, round(1.0 / self.prob_step))
        return np.linspace(0.0, 1.0, n + 1)

    def mu_values(self) -> np.ndarray:
        count = int(math.floor(self.mu_max / self.mu_step + 1e-9)) + 1
        return np.arange(count) * self.mu_step

    def rd_axis(self, cost_cap: float) -> np.ndarray:
        step = self.prob_step if self.rd_step is None else self.rd_step
        cap = cost_cap if self.rd_max is None else self.rd_max
        span = cap / step - 1e-9
        if span > CELL_GUARD - 1:  # the axis below would hold ceil(span) + 1 entries
            raise GuardExceeded(
                f"budget axis needs {span + 1.0:.4g} entries, above guard {CELL_GUARD}; "
                "coarsen rd_step or lower rd_max"
            )
        return np.arange(math.ceil(span) + 1) * step


@dataclass(frozen=True)
class Frontier:
    """Piecewise-linear frontier: max confidential rate per randomness budget.

    ``points`` are (r_d, r_s) pairs in nats with strictly increasing r_d and
    nondecreasing r_s; after the hull step the curve is also concave.
    """

    points: tuple[tuple[float, float], ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("frontier needs at least one point")
        xs = self.r_d
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("r_d values must be strictly increasing")

    @property
    def r_d(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    @property
    def r_s(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])

    def evaluate(self, r_d) -> np.ndarray | float:
        """Interpolated frontier value, clamped to the end values outside the span."""
        out = np.interp(np.asarray(r_d, dtype=float), self.r_d, self.r_s)
        return float(out) if np.ndim(r_d) == 0 else out

    def write_csv(self, path) -> None:
        """CSV with header ``r_d_nats,r_s_nats`` plus a ``.meta.json`` sidecar."""
        write_csv(path, "r_d_nats,r_s_nats", self.points, self.provenance)


def _hull_vertices(xs: np.ndarray, ys: np.ndarray) -> list[tuple[float, float]]:
    order = np.argsort(xs, kind="stable")
    stair: list[tuple[float, float]] = []
    best = -math.inf
    for i in order:
        x, y = float(xs[i]), float(ys[i])
        best = max(best, y)
        if stair and stair[-1][0] == x:
            stair[-1] = (x, best)
        else:
            stair.append((x, best))
    hull: list[tuple[float, float]] = []
    for x, y in stair:
        while len(hull) >= 2:
            x0, y0 = hull[-2]
            x1, y1 = hull[-1]
            if (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0) >= 0.0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def upper_concave_hull(points) -> Frontier:
    """Concave nondecreasing upper envelope of a point cloud; idempotent.

    Only the envelope vertices are retained (collinear interior points drop
    out), matching what two-point time sharing can achieve.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("need at least one point")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return Frontier(points=tuple(_hull_vertices(xs, ys)),
                    provenance={"kind": "upper_concave_hull", "input_points": len(pts)})


def _simplex_grid(dim: int, k: int) -> np.ndarray:
    """All probability vectors of length ``dim`` with entries in multiples of 1/k."""
    combos = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            combos.append(prefix + [remaining])
            return
        for c in range(remaining, -1, -1):
            rec(prefix + [c], remaining - c, slots - 1)

    rec([], k, dim)
    return np.asarray(combos, dtype=float) / k


def _product_blocks(shape: tuple[int, ...], block: int):
    """Index rows of every cell of ``shape`` in ``itertools.product`` order, as
    consecutive (C, len(shape)) arrays of at most ``block`` rows."""
    count = math.prod(shape)
    for start in range(0, count, block):
        yield np.stack(np.unravel_index(np.arange(start, min(count, start + block)), shape),
                       axis=1)


def _general_sweep(w_y: np.ndarray, w_z: np.ndarray, grid: GridSpec, rd_step: float,
                   n_rd: int, v_equals_x: bool, mode: str) -> np.ndarray:
    """Full-grid sweep over the cloud prior and conditional rows (|V| = |X|);
    raw per-budget maxima under the ``mode`` cost, as in ``sweep_binary``."""
    mx = w_y.shape[0]
    k = max(1, round(1.0 / grid.prob_step))
    pv_grid = _simplex_grid(mx, k)
    if v_equals_x:
        n_cells = len(pv_grid)
    else:
        rows = _simplex_grid(mx, k)
        n_cells = len(pv_grid) * len(rows) ** mx
    if n_cells > CELL_GUARD:
        raise GuardExceeded(
            f"general-alphabet sweep needs {n_cells} cells, above guard {CELL_GUARD}; "
            "coarsen prob_step"
        )

    hz_rows = -_xlogx(w_z).sum(axis=1)
    table = np.full(n_rd, -np.inf)

    def eval_chunk(pv: np.ndarray, pxv: np.ndarray) -> None:
        # pv: (C, mv); pxv: (C, mv, mx)
        pyv = pxv @ w_y
        pzv = pxv @ w_z
        py = np.einsum("cv,cvy->cy", pv, pyv)
        pz = np.einsum("cv,cvz->cz", pv, pzv)
        hy = -_xlogx(py).sum(axis=1)
        hz = -_xlogx(pz).sum(axis=1)
        ivy = hy + np.einsum("cv,cvy->c", pv, _xlogx(pyv))
        ivz = hz + np.einsum("cv,cvz->c", pv, _xlogx(pzv))
        if mode == "ds":  # I(X;Z)
            cost = hz - np.einsum("cv,cvx->cx", pv, pxv) @ hz_rows
        else:  # I(V;Z) + H(X|V)
            cost = ivz - np.einsum("cv,cvx->c", pv, _xlogx(pxv))
        _sweep_py.fold_max(table, cost, ivy - ivz, rd_step)

    if v_equals_x:
        eye = np.broadcast_to(np.eye(mx), (len(pv_grid), mx, mx))
        eval_chunk(pv_grid, np.ascontiguousarray(eye))
        return table

    # cells in (cloud prior, row of x = 0, ..., row of x = mx - 1) product order
    shape = (len(pv_grid),) + (len(rows),) * mx
    for idx in _product_blocks(shape, max(1, 2**16 // (mx * mx))):
        eval_chunk(pv_grid[idx[:, 0]], rows[idx[:, 1:]])
    return table


def _cost_cap(w_y: Dmc, w_z: Dmc) -> float:
    mx, mz = w_y.input_size, w_z.output_size
    return min(math.log(mx), math.log(mz)) + math.log(mx)


def _sweep_frontier(w_y: Dmc, w_z: Dmc, grid: GridSpec, mode: str, v_equals_x: bool,
                    hull: bool) -> Frontier:
    if w_y.input_size != w_z.input_size:
        raise ValueError("the two channels must share the input alphabet")
    rd_grid = grid.rd_axis(_cost_cap(w_y, w_z))
    rd_step = float(rd_grid[1] - rd_grid[0]) if rd_grid.size > 1 else 1.0
    p_grid = grid.prob_grid()
    if w_y.input_size == 2:
        a_grid = np.array([1.0]) if v_equals_x else p_grid
        raw = _sweep_py.sweep_binary(w_y.matrix, w_z.matrix, p_grid, a_grid, a_grid,
                                     rd_step, rd_grid.size, mode)
        backend = "python"
    else:
        raw = _general_sweep(w_y.matrix, w_z.matrix, grid, rd_step, rd_grid.size,
                             v_equals_x, mode)
        backend = "python-general"
    curve = np.maximum.accumulate(raw)
    if hull:
        vertices = _hull_vertices(rd_grid, curve)
        vx = np.array([v[0] for v in vertices])
        vy = np.array([v[1] for v in vertices])
        curve = np.interp(rd_grid, vx, vy)
    provenance = {
        "mode": mode,
        "v_equals_x": v_equals_x,
        "hull": hull,
        "prob_step": float(p_grid[1] - p_grid[0]) if p_grid.size > 1 else 1.0,
        "rd_step": rd_step,
        "rd_max": float(rd_grid[-1]),
        "bin_fuzz_steps": _sweep_py.BIN_FUZZ,
        "feasibility_tol": FEASIBILITY_TOL,
        "backend": backend,
        "input_size": w_y.input_size,
        "seed": None,
    }
    points = tuple((float(x), float(y)) for x, y in zip(rd_grid, curve))
    return Frontier(points=points, provenance=provenance)


def secrecy_frontier(w_y: Dmc, w_z: Dmc, grid: GridSpec | None = None, *,
                     v_equals_x: bool = False, hull: bool = True) -> Frontier:
    """Max confidential rate per budget, charging the channel-input cost.

    The budget constraint per cell is the eavesdropper information of the
    channel input; ``v_equals_x=True`` restricts the search to chains with no
    prefix layer.  The hull is time sharing through the cloud variable U,
    which the region admits when the common and private rates are zero.
    ``hull=False`` skips time sharing and returns the raw (running-maximum)
    sweep curve.
    """
    return _sweep_frontier(w_y, w_z, grid or GridSpec(), "ds", v_equals_x, hull)


def secrecy_frontier_sim(w_y: Dmc, w_z: Dmc, grid: GridSpec | None = None, *,
                         v_equals_x: bool = False, hull: bool = True) -> Frontier:
    """Inner-bound frontier when the prefix channel is synthesized from randomness.

    Same sweep as :func:`secrecy_frontier`, but each cell's budget must cover
    the cloud-layer information plus the conditional input entropy, the price
    of simulating the prefix channel instead of coding through it.  The hull
    is again time sharing through the cloud variable U, which the simulated
    region admits as well, so both frontiers are compared convexified.
    """
    return _sweep_frontier(w_y, w_z, grid or GridSpec(), "sim", v_equals_x, hull)


def secrecy_capacity(w_y: Dmc, w_z: Dmc, grid: GridSpec | None = None) -> float:
    """Best achievable confidential rate with an unconstrained budget (>= 0)."""
    frontier = _sweep_frontier(w_y, w_z, grid or GridSpec(), "ds", False, False)
    return max(0.0, float(frontier.r_s[-1]))


def supporting_line_value(w_y: Dmc, w_z: Dmc, mu: float | np.ndarray, r_d: float,
                          grid: GridSpec | None = None,
                          mode: str = "ds") -> float | np.ndarray:
    """Max over cells of rs - mu * (cost - r_d): supporting-line evaluations.

    ``mode`` picks the cost as in the sweeps: ``"ds"`` for
    :func:`secrecy_frontier`, ``"sim"`` for :func:`secrecy_frontier_sim`.
    Minimizing this over a slope grid upper-bounds that convexified frontier
    at ``r_d``; used as an independent cross-check of the primal sweep.  A
    scalar ``mu`` gives a float; an array of slopes gives one value per slope,
    all from one cell table.
    """
    slopes = np.asarray(mu, dtype=float)
    if np.any(slopes < 0.0):
        raise ValueError("supporting-line slope must be nonnegative")
    if mode not in ("ds", "sim"):
        raise ValueError(f"mode must be 'ds' or 'sim', got {mode!r}")
    grid = grid or GridSpec()
    if w_y.input_size != 2:
        raise ValueError("supporting-line evaluation is provided for binary inputs")
    p = grid.prob_grid()
    if (p.size) ** 3 > CELL_GUARD:
        raise GuardExceeded("supporting-line cell grid exceeds guard; coarsen prob_step")
    cost = f"rd_{mode}"
    cells = _sweep_py.binary_cells(w_y.matrix, w_z.matrix, p, p, p, ("rs", cost))
    rs, excess = cells["rs"], cells[cost] - r_d
    values = np.array([np.max(rs - m * excess) for m in slopes.ravel()])
    return float(values[0]) if slopes.ndim == 0 else values.reshape(slopes.shape)
