"""Secrecy-rate frontiers over a dummy-randomness budget.

For a channel pair (receiver, eavesdropper) the achievable set of
(randomness budget, confidential rate) pairs is swept on a probability grid
over the auxiliary layers, reduced to a per-budget maximum, and convexified
by two-point time sharing.  Every input alphabet takes the same sweep over
a cloud prior and one conditional input row per cloud letter, each from a
lattice on the simplex; for binary inputs that is the three-parameter search
(cloud prior and the two conditional-input diagonal entries).  Inputs of three
or more letters are held to a cell guard.  For binary inputs the hulled
``ds`` frontier also comes from a convex envelope over input laws
(``_ds_envelope``), which :func:`~bccrates.regions.min_dummy_rate` inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _sweep_py
from ._csv import write_csv
from .probability import Dmc, GuardExceeded, _xlogx

FEASIBILITY_TOL = 1e-9
CELL_GUARD = 2**22  # most cells a general-alphabet sweep, input laws an envelope or entries
                    # a budget axis may hold


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


def _staircase(xs: np.ndarray, ys: np.ndarray) -> list[tuple[float, float]]:
    """(x, largest y at or left of x) for each distinct x, in increasing x."""
    order = np.argsort(xs, kind="stable")
    sx, sy = xs[order], np.maximum.accumulate(ys[order])
    last = np.append(sx[1:] != sx[:-1], True)  # the end of each run of equal x
    return list(zip(sx[last].tolist(), sy[last].tolist()))


def _upper_hull(points) -> list[tuple[float, float]]:
    """Upper convex hull vertices of ``points`` given in strictly increasing x
    (monotone chain); points on a hull edge drop out."""
    hull: list[tuple[float, float]] = []
    for x, y in points:
        while len(hull) >= 2:
            x0, y0 = hull[-2]
            x1, y1 = hull[-1]
            if (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0) >= 0.0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def _hull_vertices(xs: np.ndarray, ys: np.ndarray) -> list[tuple[float, float]]:
    return _upper_hull(_staircase(xs, ys))


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


def _simplex_lattice(m: int, k: int, first: int = 0) -> np.ndarray:
    """Every probability vector of length ``m`` on the 1/k lattice, one per row.

    Coordinates ``first``, ``first`` + 1, ... (cyclically) take the values
    i * (1/k) of :meth:`GridSpec.prob_grid`, each sweeping upward in
    lexicographic order; the last one, ``first`` - 1, is the remainder 1 minus
    the grid value of the others' total count (exactly 0 where they take the
    whole mass).  For m = 2 that is (prob_grid, 1 - prob_grid) or its mirror.
    """
    values = np.arange(k + 1) * (1.0 / k)  # prob_grid's floats, without linspace's cost
    values[-1] = 1.0
    if m == 2:  # every binary sweep builds these: skip the general construction's cost
        lattice = np.empty((k + 1, 2))
        lattice[:, first], lattice[:, 1 - first] = values, 1.0 - values
        return lattice
    counts, left = np.zeros((1, 0), dtype=np.int64), np.array([k])
    for _ in range(m - 1):  # every count from 0 to what the coordinates so far leave
        reps = left + 1
        parent = np.repeat(np.arange(len(left)), reps)
        count = np.arange(len(parent)) - np.repeat(np.cumsum(reps) - reps, reps)
        counts, left = np.column_stack([counts[parent], count]), left[parent] - count
    return np.roll(np.column_stack([values[counts], 1.0 - values[k - left]]), first, axis=1)


def _cost_cap(w_y: Dmc, w_z: Dmc) -> float:
    mx, mz = w_y.input_size, w_z.output_size
    return min(math.log(mx), math.log(mz)) + math.log(mx)


def _budget_axis(w_y: Dmc, w_z: Dmc, grid: GridSpec) -> tuple[np.ndarray, float]:
    """The budget axis of a frontier of the pair, and its step."""
    if w_y.input_size != w_z.input_size:
        raise ValueError("the two channels must share the input alphabet")
    rd_grid = grid.rd_axis(_cost_cap(w_y, w_z))
    return rd_grid, float(rd_grid[1] - rd_grid[0]) if rd_grid.size > 1 else 1.0


def _budget_curve(rd_grid: np.ndarray, raw: np.ndarray, hull: bool) -> np.ndarray:
    """Running maximum of per-budget maxima ``raw``, then (``hull``) the upper
    concave hull sampled back on the budget axis ``rd_grid``."""
    curve = np.maximum.accumulate(raw)
    if hull:
        curve = np.interp(rd_grid, *np.array(_hull_vertices(rd_grid, curve)).T)
    return curve


def _sweep_frontier(w_y: Dmc, w_z: Dmc, grid: GridSpec, mode: str, v_equals_x: bool,
                    hull: bool) -> Frontier:
    rd_grid, rd_step = _budget_axis(w_y, w_z, grid)
    p_grid = grid.prob_grid()
    m, k = w_y.input_size, len(p_grid) - 1
    n_cells = math.comb(k + m - 1, m - 1) ** (1 if v_equals_x else m + 1)
    if m > 2 and n_cells > CELL_GUARD:
        raise GuardExceeded(f"general-alphabet sweep needs {n_cells} cells, above guard "
                            f"{CELL_GUARD}; coarsen prob_step")
    # a cloud prior times one grid of conditional input rows per cloud letter;
    # with V = X each row is the point mass on its letter
    prior = _simplex_lattice(m, k)
    rows = ([np.eye(m)[v:v + 1] for v in range(m)] if v_equals_x
            else [prior] + [_simplex_lattice(m, k, v) for v in range(1, m)])
    raw = _sweep_py.sweep(w_y.matrix, w_z.matrix, prior, rows, rd_step, rd_grid.size, mode)
    curve = _budget_curve(rd_grid, raw, hull)
    provenance = {
        "mode": mode,
        "v_equals_x": v_equals_x,
        "hull": hull,
        "prob_step": float(p_grid[1] - p_grid[0]) if p_grid.size > 1 else 1.0,
        "rd_step": rd_step,
        "rd_max": float(rd_grid[-1]),
        "bin_fuzz_steps": _sweep_py.BIN_FUZZ,
        "feasibility_tol": FEASIBILITY_TOL,
        "backend": "python",
        "input_size": w_y.input_size,
        "seed": None,
    }
    points = tuple((float(x), float(y)) for x, y in zip(rd_grid, curve))
    return Frontier(points=points, provenance=provenance)


def _envelope_points(grid: GridSpec) -> int:
    """Size of the input-law lattice {m / k^2} of :func:`_ds_envelope`, with
    k = round(1 / prob_step) as in :meth:`GridSpec.prob_grid`; held to the guard."""
    k = len(grid.prob_grid()) - 1
    if k * k + 1 > CELL_GUARD:
        raise GuardExceeded(f"envelope lattice needs {k * k + 1} input laws, above guard "
                            f"{CELL_GUARD}; coarsen prob_step")
    return k * k + 1


def _lower_envelope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The lower convex envelope of the points (x, y), x strictly increasing,
    at every x: the upper hull of (x, -y), negated."""
    neg = -y
    # a point strictly above the chord of its two neighbours is no vertex of
    # the lower hull; dropping those first leaves the loop the convex stretches
    cross = (x[1:-1] - x[:-2]) * (neg[2:] - neg[:-2]) - (x[2:] - x[:-2]) * (neg[1:-1] - neg[:-2])
    keep = np.concatenate([[True], cross <= 0.0, [True]])
    vx, vy = np.array(_upper_hull(zip(x[keep].tolist(), neg[keep].tolist()))).T
    return -np.interp(x, vx, vy)


def _ds_envelope(w_y: Dmc, w_z: Dmc, grid: GridSpec) -> Frontier:
    """The hulled ``ds`` frontier of a binary-input pair from a convex envelope.

    The cost I(X;Z) depends only on the input law x = P_X(0), and the best
    confidential rate over prefixes V at x is psi(x) - env(x), where
    psi = H(Y) - H(Z) and env is the lower convex envelope of psi; a binary V
    splitting x between the envelope's vertices on either side attains it
    (Csiszar-Korner).  x runs over the lattice m / k^2: a grid cell's input
    law p a + (1 - p)(1 - b) and its split points a and 1 - b all lie on it,
    so, up to rounding, each budget's value is at least that of every cell of
    :func:`secrecy_frontier` at the same cost.  The rates are binned by cost
    on the same budget axis, then take the same running maximum and hull.
    """
    if w_y.input_size != 2:
        raise ValueError("the envelope frontier is provided for binary inputs")
    rd_grid, rd_step = _budget_axis(w_y, w_z, grid)
    count = _envelope_points(grid)
    x = np.arange(count) / (count - 1)
    y = 1.0 - x

    def output_entropy(w):  # one output letter at a time, as the sweep's planes
        return -sum(_xlogx(x * w[0, k] + y * w[1, k]) for k in range(w.shape[1]))

    hz = output_entropy(w_z.matrix)
    psi = output_entropy(w_y.matrix) - hz
    z_rows = -_xlogx(w_z.matrix).sum(axis=1)
    raw = np.full(rd_grid.size, -np.inf)
    _sweep_py.fold_max(raw, hz - (x * z_rows[0] + y * z_rows[1]), psi - _lower_envelope(x, psi),
                       rd_step)
    curve = _budget_curve(rd_grid, raw, True)
    provenance = {
        "mode": "ds",
        "method": "envelope",
        "x_points": count,
        "hull": True,
        "rd_step": rd_step,
        "rd_max": float(rd_grid[-1]),
        "bin_fuzz_steps": _sweep_py.BIN_FUZZ,
        "input_size": 2,
    }
    return Frontier(points=tuple(zip(rd_grid.tolist(), curve.tolist())), provenance=provenance)


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
    scalar ``mu`` gives a float; an array of slopes gives one value per slope.
    The cells are streamed a batch at a time, as the sweeps stream them, with
    a running maximum per slope, so memory is one batch at any grid.
    """
    slopes = np.asarray(mu, dtype=float)
    if np.any(slopes < 0.0):
        raise ValueError("supporting-line slope must be nonnegative")
    if mode not in ("ds", "sim"):
        raise ValueError(f"mode must be 'ds' or 'sim', got {mode!r}")
    grid = grid or GridSpec()
    if w_y.input_size != 2:
        raise ValueError("supporting-line evaluation is provided for binary inputs")
    k = len(grid.prob_grid()) - 1
    prior = _simplex_lattice(2, k)
    cost = f"rd_{mode}"
    values = np.full(slopes.size, -np.inf)
    for cells in _sweep_py.cell_batches(w_y.matrix, w_z.matrix, prior,
                                        [prior, _simplex_lattice(2, k, 1)], ("rs", cost)):
        rs, excess = cells["rs"], cells[cost] - r_d
        np.maximum(values, [np.max(rs - m * excess) for m in slopes.ravel()], out=values)
    return float(values[0]) if slopes.ndim == 0 else values.reshape(slopes.shape)
