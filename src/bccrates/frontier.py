"""Secrecy-rate frontiers over a dummy-randomness budget.

For a channel pair (receiver, eavesdropper) the achievable set of
(randomness budget, confidential rate) pairs is reduced to a per-budget
maximum and convexified by two-point time sharing.  For binary inputs with
a free prefix, every frontier query is answered from one lattice of input
laws and prefix split points (:func:`_lattice`): ``ds`` from the convex
envelope of psi = H(Y) - H(Z), hulled ``sim`` from an exact slope search
(:func:`_sim_point`), raw ``sim`` from the grid's cells gathered off the
lattice, and the supporting lines that certify those frontiers from the same
points.  The rest (``v_equals_x`` and inputs of three or more letters) take
the grid sweep over a cloud prior and one conditional input row per cloud
letter, each from a lattice on the simplex (:func:`_sweep_frontier`); for
binary inputs that is the three-parameter search (cloud prior and the two
conditional-input diagonal entries), which the tests keep as the oracle of
the lattice.  Inputs of three or more letters are held to a cell guard, and
the lattice to the same guard.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _sweep_py
from ._csv import write_csv
from .probability import Dmc, GuardExceeded, _xlogx

FEASIBILITY_TOL = 1e-9
CELL_GUARD = 2**22  # most cells a general-alphabet sweep, input laws an envelope or entries
                    # a budget axis may hold
HULL_PASSES = 16    # vectorised chord passes of a hull before its survivors are chained
SLOPE_TOL = 1e-13   # how far a slope query's point must beat its chord to be a vertex


@dataclass(frozen=True)
class GridSpec:
    """Search resolution for frontier sweeps and supporting lines.

    ``prob_step`` is the step for every searched probability parameter;
    ``rd_step``/``rd_max`` control the budget axis (defaults: ``prob_step``
    and a channel-derived cap).  Every value must be finite.
    """

    prob_step: float = 0.005
    rd_step: float | None = None
    rd_max: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.prob_step <= 0.5:
            raise ValueError(f"prob_step must lie in (0, 0.5], got {self.prob_step!r}")
        for name in ("rd_step", "rd_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.rd_step is not None and self.rd_step <= 0.0:
            raise ValueError("rd_step must be positive")
        if self.rd_max is not None and self.rd_max < 0.0:
            raise ValueError("rd_max must be nonnegative")

    def prob_grid(self) -> np.ndarray:
        n = max(1, round(1.0 / self.prob_step))
        return np.linspace(0.0, 1.0, n + 1)

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


def _upper_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the upper convex hull vertices of the points (x, y), x strictly
    increasing; points on a hull edge drop out.

    A point on or below the chord of its two neighbours is no vertex, so each
    pass drops every such point at once, until a pass drops none.  A concave
    run that ends below a jump loses one point a pass, so after
    ``HULL_PASSES`` passes the survivors go through the monotone chain.
    """
    keep, xs, ys = np.arange(x.size), x, y
    for _ in range(HULL_PASSES):
        if xs.size < 3:
            return keep
        # the middle point stays while (x1 - x0)(y2 - y0) < (x2 - x0)(y1 - y0)
        left = xs[1:-1] - xs[:-2]
        left *= ys[2:] - ys[:-2]
        right = xs[2:] - xs[:-2]
        right *= ys[1:-1] - ys[:-2]
        above = left < right
        if above.all():
            return keep
        mask = np.concatenate(([True], above, [True]))
        keep, xs, ys = keep[mask], xs[mask], ys[mask]
    hull: list[tuple[float, float, int]] = []
    for point in zip(xs.tolist(), ys.tolist(), keep.tolist()):
        while len(hull) >= 2:
            (x0, y0, _), (x1, y1, _) = hull[-2], hull[-1]
            if (x1 - x0) * (point[1] - y0) >= (point[0] - x0) * (y1 - y0):
                hull.pop()
            else:
                break
        hull.append(point)
    return np.array([i for _, _, i in hull])


def _hull_vertices(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The (n, 2) vertices of the nondecreasing upper concave hull of the points:
    the upper hull of the highest point at each x up to the first highest of
    all, then level to the last x."""
    order = np.argsort(xs, kind="stable")
    sx, sy = xs[order], ys[order]
    same = sx[1:] == sx[:-1]
    if same.any():  # the last of equal x takes their highest y
        if np.any(same[1:] & same[:-1]):  # three or more equal
            sy = np.maximum.accumulate(sy)
        else:
            sy[1:] = np.where(same, np.maximum(sy[:-1], sy[1:]), sy[1:])
        last = np.append(np.flatnonzero(~same), sx.size - 1)
        sx, sy = sx[last], sy[last]
    top = int(np.argmax(sy)) + 1
    keep = _upper_hull(sx[:top], sy[:top])
    if top < sx.size:
        keep = np.append(keep, sx.size - 1)
        sy[-1] = sy[top - 1]
    return np.column_stack([sx[keep], sy[keep]])


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
    return Frontier(points=tuple(map(tuple, _hull_vertices(xs, ys).tolist())),
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
    if m == 2:  # binary grids skip the general construction's cost
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
        curve = np.interp(rd_grid, *_hull_vertices(rd_grid, curve).T)
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
    """Size of the input-law lattice {m / k^2} of :func:`_lattice`, with
    k = round(1 / prob_step) as in :meth:`GridSpec.prob_grid`; held to the guard."""
    k = len(grid.prob_grid()) - 1
    if k * k + 1 > CELL_GUARD:
        raise GuardExceeded(f"envelope lattice needs {k * k + 1} input laws, above guard "
                            f"{CELL_GUARD}; coarsen prob_step")
    return k * k + 1


def _lower_envelope(x: np.ndarray, y: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """The lower convex envelope of the points (x, y), x strictly increasing,
    at ``at`` (at every x by default): the upper hull of (x, -y)."""
    keep = _upper_hull(x, -y)
    return np.interp(x if at is None else at, x[keep], y[keep])


class _Lattice(NamedTuple):
    """The input-law lattice of a binary-input pair (see :func:`_lattice`)."""

    x: np.ndarray     # input laws P_X(0) = m / k^2; every k-th one is a split point
    psi: np.ndarray   # H(Y) - H(Z) at each x
    cost: np.ndarray  # I(X;Z) at each x, 0 within the bin fuzz of 0
    g: np.ndarray     # H(X) - I(X;Z) at the split points x[::k]
    k: int

    def ds_rate(self) -> np.ndarray:
        """The best ``ds`` rate at each x: psi minus its lower convex envelope
        over the split points (Csiszar-Korner)."""
        return self.psi - _lower_envelope(self.x[::self.k], self.psi[::self.k], self.x)


def _lattice(w_y: Dmc, w_z: Dmc, grid: GridSpec, rd_step: float) -> _Lattice:
    """The lattice that answers every binary frontier query at ``grid``.

    x = P_X(0) runs over m / k^2 (k = round(1 / prob_step)), and the two split
    points of a binary prefix V over the sweep's rows i / k, every k-th x.  A
    grid cell (p, a, b) has input law p a + (1 - p)(1 - b) and split points a
    and 1 - b, all on the lattice.  A split of x into x_v with weights lam_v
    gives the rate psi(x) - sum lam_v psi(x_v), psi = H(Y) - H(Z); ``ds``
    charges I(X;Z)(x), and ``sim`` I(X;Z)(x) + sum lam_v g(x_v),
    g = H(X) - I(X;Z).  Costs within the bin fuzz of 0 (in steps of
    ``rd_step``) count as 0, as in the sweep's bins.  The lattice is held to
    the guard.
    """
    if w_y.input_size != 2:
        raise ValueError("the input-law lattice is provided for binary inputs")
    count = _envelope_points(grid)
    k = math.isqrt(count - 1)
    x = np.arange(count) / (count - 1)
    y = 1.0 - x

    def output_entropy(w):  # one output letter at a time, as the sweep's planes
        return -sum(_xlogx(x * w[0, j] + y * w[1, j]) for j in range(w.shape[1]))

    hz = output_entropy(w_z.matrix)
    psi = output_entropy(w_y.matrix) - hz
    z_rows = -_xlogx(w_z.matrix).sum(axis=1)
    cost = hz - (x * z_rows[0] + y * z_rows[1])
    cost[cost < _sweep_py.BIN_FUZZ * rd_step] = 0.0
    g = -(_xlogx(x[::k]) + _xlogx(y[::k])) - cost[::k]
    return _Lattice(x, psi, cost, g, k)


def _sim_point(lattice: _Lattice, mu: float) -> tuple[float, float]:
    """The ``sim`` slope query: the (cost, rate) of a lattice point that
    maximises rate - mu * cost.

    That maximum is max_x [psi - mu I(X;Z) - env(psi + mu g)](x), with env
    the lower convex envelope over the split points x[::k] (``g`` there),
    whose vertices around the maximiser give its split and so its point.
    """
    x, psi, cost, g, k = lattice
    s, psi_s = x[::k], psi[::k]
    f = psi_s + mu * g
    keep = _upper_hull(s, -f)
    j = int(np.argmax(psi - mu * cost - np.interp(x, s[keep], f[keep])))
    b = int(np.searchsorted(s[keep], x[j]))
    hi = keep[b]
    if s[hi] == x[j]:  # no split: the prefix is constant
        return float(cost[j] + g[hi]), float(psi[j] - psi_s[hi])
    lo = keep[b - 1]
    lam = (s[hi] - x[j]) / (s[hi] - s[lo])  # the weight of the lower split point
    return (float(cost[j] + lam * g[lo] + (1.0 - lam) * g[hi]),
            float(psi[j] - lam * psi_s[lo] - (1.0 - lam) * psi_s[hi]))


def _sim_hull(lattice: _Lattice, budgets: list[float]) -> tuple[list[tuple[float, float]], int]:
    """Vertices of the upper concave hull of the lattice's ``sim`` points, exact
    at every budget, and the number of slope queries (:func:`_sim_point`) it
    took.

    The search starts from the chord from the origin to the top point
    (mu = 0).  A chord whose budget span [left, right) holds a budget is
    queried at its slope: a point above it by more than ``SLOPE_TOL`` is a
    vertex between its ends and splits it in two; otherwise no point lies
    above the chord's line, so it is a hull edge.  Chords with no budget are
    never queried.
    """
    top = _sim_point(lattice, 0.0)
    queries = 1
    if top[0] <= 0.0:
        return [top], queries
    vertices = [(0.0, 0.0), top]
    chords = [(vertices[0], top)]
    while chords:
        left, right = chords.pop()
        i = bisect.bisect_left(budgets, left[0])
        if i == len(budgets) or budgets[i] >= right[0]:
            continue
        mu = (right[1] - left[1]) / (right[0] - left[0])
        new = _sim_point(lattice, mu)
        queries += 1
        if left[0] < new[0] < right[0] and new[1] - left[1] - mu * (new[0] - left[0]) > SLOPE_TOL:
            vertices.append(new)
            chords += [(left, new), (new, right)]
    return sorted(vertices), queries


def _fold_sim_cells(raw: np.ndarray, lattice: _Lattice, rd_step: float) -> int:
    """Fold the grid's ``sim`` cells, gathered from the lattice, into the
    per-budget maxima ``raw``; returns the number of cells folded.

    Cell (i, j, c) has weight p = i / k on split point j / k and 1 - p on
    c / k, input law m / k^2 with m = i j + (k - i) c, rate
    psi[m] - p psi(j / k) - (1 - p) psi(c / k) and cost
    cost[m] + p g[j] + (1 - p) g[c].  Relabelling V maps (i, j, c) to
    (k - i, c, j), the same chain, so only i <= k / 2 is folded, one
    (k + 1)^2 plane over (j, c) at a time.
    """
    _, psi, cost, g, k = lattice
    psi_s, split = psi[::k], np.arange(k + 1)
    for i in range(k // 2 + 1):
        p = i * (1.0 / k)
        m = i * split[:, None] + (k - i) * split
        rate = psi[m]
        rate -= (p * psi_s)[:, None]
        rate -= (1.0 - p) * psi_s
        rd = cost[m]
        rd += (p * g)[:, None]
        rd += (1.0 - p) * g
        _sweep_py.fold_max(raw, rd, rate, rd_step)
    return (k // 2 + 1) * (k + 1) ** 2


def _envelope_frontier(w_y: Dmc, w_z: Dmc, grid: GridSpec, mode: str, hull: bool) -> Frontier:
    """The ``ds`` or ``sim`` frontier (hulled or raw) of a binary-input pair,
    from the input-law lattice of :func:`_lattice`.

    Every grid cell is a lattice point, so each frontier here is at least the
    sweep's at every budget.  The hulled ``ds`` frontier is the upper concave
    hull of the (cost, best rate) points of :meth:`_Lattice.ds_rate` read at
    each budget, and the raw one bins them by cost as the sweep bins cells.
    The hulled ``sim`` frontier comes from the slope search of
    :func:`_sim_hull`; the raw one folds the sweep's own cells, their rates
    and costs gathered from the lattice's arrays (:func:`_fold_sim_cells`),
    so it is the sweep's frontier up to rounding.
    """
    rd_grid, rd_step = _budget_axis(w_y, w_z, grid)
    lattice = _lattice(w_y, w_z, grid, rd_step)
    provenance = {
        "mode": mode,
        "v_equals_x": False,
        "hull": hull,
        "method": "envelope",
        "prob_step": 1.0 / lattice.k,  # the step of GridSpec.prob_grid
        "x_points": lattice.x.size,
        "split_points": lattice.k + 1,
        "rd_step": rd_step,
        "rd_max": float(rd_grid[-1]),
        "bin_fuzz_steps": _sweep_py.BIN_FUZZ,
        "feasibility_tol": FEASIBILITY_TOL,
        "backend": "python",
        "input_size": 2,
        "seed": None,
    }
    raw = np.full(rd_grid.size, -np.inf)  # the per-budget maxima of a raw frontier
    if mode == "ds":
        rate = lattice.ds_rate()
        if hull:
            vertices = _hull_vertices(lattice.cost, rate)
        else:
            _sweep_py.fold_max(raw, lattice.cost, rate, rd_step)
    elif hull:
        found, queries = _sim_hull(lattice, rd_grid.tolist())
        vertices = np.array(found)
        provenance.update(slope_queries=queries, slope_tol=SLOPE_TOL)
    else:
        provenance["cells_folded"] = _fold_sim_cells(raw, lattice, rd_step)
    if hull:
        curve = np.interp(rd_grid, *vertices.T)
        provenance["hull_vertices"] = len(vertices)
    else:
        curve = _budget_curve(rd_grid, raw, False)
    return Frontier(points=tuple(zip(rd_grid.tolist(), curve.tolist())), provenance=provenance)


def _frontier(w_y: Dmc, w_z: Dmc, grid: GridSpec | None, mode: str, v_equals_x: bool,
              hull: bool) -> Frontier:
    """The lattice frontier where it applies (binary inputs with a free
    prefix), else the grid sweep."""
    grid = grid or GridSpec()
    if w_y.input_size == 2 and not v_equals_x:
        return _envelope_frontier(w_y, w_z, grid, mode, hull)
    front = _sweep_frontier(w_y, w_z, grid, mode, v_equals_x, hull)
    front.provenance["method"] = "grid"
    return front


def secrecy_frontier(w_y: Dmc, w_z: Dmc, grid: GridSpec | None = None, *,
                     v_equals_x: bool = False, hull: bool = True) -> Frontier:
    """Max confidential rate per budget, charging the channel-input cost.

    The budget constraint is the eavesdropper information of the channel
    input; ``v_equals_x=True`` restricts the search to chains with no prefix
    layer.  The hull is time sharing through the cloud variable U, which the
    region admits when the common and private rates are zero.
    ``hull=False`` skips time sharing and returns the raw (running-maximum)
    curve.  Binary inputs with a free prefix take the input-law lattice of
    :func:`_envelope_frontier` (``"method": "envelope"``); the rest take the
    grid sweep (``"method": "grid"``).
    """
    return _frontier(w_y, w_z, grid, "ds", v_equals_x, hull)


def secrecy_frontier_sim(w_y: Dmc, w_z: Dmc, grid: GridSpec | None = None, *,
                         v_equals_x: bool = False, hull: bool = True) -> Frontier:
    """Inner-bound frontier when the prefix channel is synthesized from randomness.

    As :func:`secrecy_frontier`, but the budget must cover the cloud-layer
    information plus the conditional input entropy, the price of simulating
    the prefix channel instead of coding through it.  The hull is again time
    sharing through the cloud variable U, which the simulated region admits as
    well, so both frontiers are compared convexified.  For binary inputs with
    a free prefix the hulled frontier is the exact hull of the lattice's
    points by a slope search (:func:`_sim_hull`), and the raw one folds the
    grid sweep's cells gathered from the lattice (:func:`_fold_sim_cells`).
    """
    return _frontier(w_y, w_z, grid, "sim", v_equals_x, hull)


def secrecy_capacity(w_y: Dmc, w_z: Dmc, grid: GridSpec | None = None) -> float:
    """Best achievable confidential rate with an unconstrained budget (>= 0):
    the top of :func:`secrecy_frontier`."""
    return max(0.0, float(secrecy_frontier(w_y, w_z, grid).r_s[-1]))


def supporting_line_value(w_y: Dmc, w_z: Dmc, mu: float | np.ndarray, r_d: float,
                          grid: GridSpec | None = None,
                          mode: str = "ds") -> float | np.ndarray:
    """Max over the lattice's points of rs - mu * (cost - r_d): supporting lines
    of the frontier the package returns.

    ``mode`` picks the cost as in the frontiers: ``"ds"`` for
    :func:`secrecy_frontier`, ``"sim"`` for :func:`secrecy_frontier_sim`.
    The points are those of the input-law lattice at ``grid``
    (:func:`_lattice`): for ``ds`` the max over x of
    psi - env psi - mu (I(X;Z) - r_d), for ``sim`` the hull search's slope
    query (:func:`_sim_point`).  Every slope mu >= 0 gives an upper bound on
    the hulled frontier at ``r_d``, and the slopes of its hull's edges (with 0)
    give the frontier itself, so their minimum certifies it.  A scalar ``mu``
    gives a float; an array of slopes gives one value per slope.  Binary
    inputs only.
    """
    slopes = np.asarray(mu, dtype=float)
    if not np.all(np.isfinite(slopes)):
        raise ValueError("supporting-line slope must be finite")
    if np.any(slopes < 0.0):
        raise ValueError("supporting-line slope must be nonnegative")
    if not math.isfinite(r_d):
        raise ValueError(f"r_d must be finite, got {r_d!r}")
    if mode not in ("ds", "sim"):
        raise ValueError(f"mode must be 'ds' or 'sim', got {mode!r}")
    grid = grid or GridSpec()
    lattice = _lattice(w_y, w_z, grid, _budget_axis(w_y, w_z, grid)[1])
    mus = slopes.ravel().tolist()
    if mode == "ds":
        rate, excess = lattice.ds_rate(), lattice.cost - r_d
        values = [np.max(rate - m * excess) for m in mus]
    else:
        points = [_sim_point(lattice, m) for m in mus]
        values = [rate - m * (cost - r_d) for m, (cost, rate) in zip(mus, points)]
    values = np.array(values, dtype=float)
    return float(values[0]) if slopes.ndim == 0 else values.reshape(slopes.shape)
