"""Secrecy-rate frontiers over a dummy-randomness budget.

For a channel pair (receiver, eavesdropper) the achievable set of
(randomness budget, confidential rate) pairs is reduced to a per-budget
maximum and convexified by two-point time sharing.  A chain's cell is a
prior on V with one conditional input row per letter of V (Csiszar-Korner),
so its input law and its rows all lie on one simplex lattice
(:func:`_lattice`), whose tables H(Y), H(Z) and I(X;Z) come from one
per-law evaluator (:func:`_per_law`).  Binary inputs with a free prefix
answer ``ds`` from the convex envelope of psi = H(Y) - H(Z) and hulled
``sim`` from an exact slope search (:func:`_sim_point`); every other
frontier (raw binary ``sim``, inputs of three or more letters, V = X)
folds the cells gathered from the lattice's tables (:func:`_gather`).  Cell
counts and lattice sizes are held to a guard before anything of their size
is allocated.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._csv import write_csv
from .probability import Dmc, GuardExceeded, _xlogx

FEASIBILITY_TOL = 1e-9
CELL_GUARD = 2**22  # most cells a gather, input laws a lattice or entries a budget axis may hold
HULL_PASSES = 16    # vectorised chord passes of a hull before its survivors are chained
SLOPE_TOL = 1e-13   # how far a slope query's point must beat its chord to be a vertex
SCAN_MARGIN = 1e-12  # rounding allowance of the boxes that pick a slope query's laws
BIN_FUZZ = 1e-9     # in units of rd_step; absorbs float noise at exact bin edges
BATCH_CELLS = 1 << 13  # cells gathered per batch of priors: 64 KiB temporaries


def _guarded(count: int, need: str) -> int:
    """``count``, or :class:`GuardExceeded` (``need`` names what needs it) if
    it is above ``CELL_GUARD``; checked before anything that size is made."""
    if count > CELL_GUARD:
        raise GuardExceeded(f"{need.format(count)}, above guard {CELL_GUARD}; coarsen prob_step")
    return count


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

    @property
    def k(self) -> int:
        """Grid points per unit probability: every grid is the multiples of 1/k."""
        return max(1, round(1.0 / self.prob_step))

    def prob_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.k + 1)

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


def _simplex_counts(m: int, k: int) -> np.ndarray:
    """Every vector of ``m`` nonnegative counts summing to ``k``, one per row:
    the first m - 1 in lexicographic order, the last the remainder."""
    if m == 2:  # binary grids skip the general construction's cost
        count = np.arange(k + 1)
        return np.array((count, k - count)).T
    counts, left = np.zeros((1, 0), dtype=np.int64), np.array([k])
    for _ in range(m - 1):  # every count from 0 to what the coordinates so far leave
        reps = left + 1
        parent = np.repeat(np.arange(len(left)), reps)
        count = np.arange(len(parent)) - np.repeat(np.cumsum(reps) - reps, reps)
        counts, left = np.column_stack([counts[parent], count]), left[parent] - count
    return np.column_stack([counts, left])


def _grid_shares(counts: np.ndarray, k: int) -> np.ndarray:
    """The probability vectors of count vectors summing to ``k``: each count i
    but the last gives the value i * (1/k) of :meth:`GridSpec.prob_grid`, and
    the last is the remainder 1 minus the grid value of the others' total
    (exactly 0 where they take the whole mass)."""
    values = np.arange(k + 1) * (1.0 / k)  # prob_grid's floats, without linspace's cost
    values[-1] = 1.0
    shares = values[counts]
    shares[:, -1] = 1.0 - values[k - counts[:, -1]]
    return shares


def _simplex_lattice(m: int, k: int) -> np.ndarray:
    """Every probability vector of length ``m`` on the 1/k lattice, one per row
    (:func:`_grid_shares` of :func:`_simplex_counts`); for m = 2 that is
    (prob_grid, 1 - prob_grid)."""
    return _grid_shares(_simplex_counts(m, k), k)


def _budget_axis(w_y: Dmc, w_z: Dmc, grid: GridSpec) -> tuple[np.ndarray, float]:
    """The budget axis of a frontier of the pair, and its step: by default up
    to min(log |X|, log |Z|) + log |X|."""
    if w_y.input_size != w_z.input_size:
        raise ValueError("the two channels must share the input alphabet")
    mx, mz = w_y.input_size, w_z.output_size
    rd_grid = grid.rd_axis(min(math.log(mx), math.log(mz)) + math.log(mx))
    return rd_grid, float(rd_grid[1] - rd_grid[0]) if rd_grid.size > 1 else 1.0


def fold_max(table: np.ndarray, rd: np.ndarray, rs: np.ndarray, rd_step: float) -> None:
    """table[g] = max(table[g], rs) over cells binned at g = ceil(rd/rd_step).

    Bins below 0 count as bin 0; bins past the end of the table are dropped.
    """
    g = np.ceil(rd.ravel() / rd_step - BIN_FUZZ).astype(np.int64)
    np.clip(g, 0, table.size, out=g)
    spill = np.append(table, -np.inf)  # the last slot takes the dropped bins
    np.maximum.at(spill, g, rs.ravel())
    table[:] = spill[:-1]


def _envelope_points(grid: GridSpec, m: int = 2, r: int | None = None) -> int:
    """Index size (k r + 1)^(m - 1) of the lattice of :func:`_lattice` at
    ``grid`` (rows on the 1/r lattice, by default r = k), held to the guard;
    for binary inputs with a free prefix, its k^2 + 1 input laws."""
    return _guarded((grid.k * (r or grid.k) + 1) ** (m - 1), "envelope lattice needs {} input laws")


def _lower_envelope(x: np.ndarray, y: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """The lower convex envelope of the points (x, y), x strictly increasing,
    at ``at`` (at every x by default): the upper hull of (x, -y)."""
    keep = _upper_hull(x, -y)
    return np.interp(x if at is None else at, x[keep], y[keep])


def _per_law(w_y: Dmc, w_z: Dmc, laws: list[np.ndarray], planes: bool = False) -> tuple:
    """H(Y), H(Z) and I(X;Z) at the input laws whose letter shares are the
    arrays ``laws``, one per input letter, and (if ``planes``) the output laws
    of Y and Z, letters on a last axis.  Each output law is formed one letter
    (plane) at a time, and every sum over input letters runs left to right."""
    def receiver(w):
        law = (sum((share * w[x, j] for x, share in enumerate(laws[1:], 1)), laws[0] * w[0, j])
               for j in range(w.shape[1]))
        if planes:
            law = list(law)
        return -sum(_xlogx(plane) for plane in law), np.stack(law, axis=-1) if planes else None

    (hy, p_y), (hz, p_z) = receiver(w_y.matrix), receiver(w_z.matrix)
    z_rows = -_xlogx(w_z.matrix).sum(axis=1)
    cost = hz - sum((share * z_rows[x] for x, share in enumerate(laws[1:], 1)),
                    laws[0] * z_rows[0])
    return hy, hz, cost, p_y, p_z


class _Lattice(NamedTuple):
    """The tables of the input-law lattice of a pair (see :func:`_lattice`),
    each law at the index of its first m - 1 counts in base k r + 1 (for
    binary inputs, the count of letter 0)."""

    x: np.ndarray      # P_X(0) at each index; for binary inputs every k-th one is a split point
    psi: np.ndarray    # H(Y) - H(Z)
    cost: np.ndarray   # I(X;Z), 0 within the bin fuzz of 0
    g: np.ndarray      # H(X) - I(X;Z) at each row
    steps: np.ndarray  # row c's index is k * steps[c]; a cell's law is at sum_v i_v steps[c_v]
    k: int
    outputs: tuple | None = None  # H(Y), H(Z) and the output laws of Y and Z

    def ds_rate(self) -> np.ndarray:
        """The best ``ds`` rate at each x of a binary-input lattice: psi minus
        its lower convex envelope over the split points (Csiszar-Korner)."""
        return self.psi - _lower_envelope(self.x[::self.k], self.psi[::self.k], self.x)


def _lattice(w_y: Dmc, w_z: Dmc, k: int, r: int, rd_step: float,
             outputs: bool = False) -> _Lattice:
    """The input laws of every cell of priors on the 1/k lattice and rows on
    the 1/r lattice, with their tables.

    A cell is a prior on V with counts i_v (summing to k) and one conditional
    input row per letter v with counts c_v (summing to r).  Its input law has
    counts sum_v i_v c_v, summing to k r, and the row of v is the law with
    counts k c_v: both on the lattice.  Splitting x into rows x_v with
    weights p_v gives the rate psi(x) - sum p_v psi(x_v); ``ds`` charges
    I(X;Z)(x), and ``sim`` I(X;Z)(x) + sum p_v g(x_v), g = H(X) - I(X;Z).
    r = k gives every cell of a free prefix, r = 1 the point masses of
    V = X.  Costs within the bin fuzz of 0 (in steps of ``rd_step``) count
    as 0, as in the bins of :func:`fold_max`.  With ``outputs`` the lattice
    also keeps each law's output entropies and laws.  Callers hold its size
    to the guard (:func:`_envelope_points`).
    """
    m, total = w_y.input_size, k * r
    side = total + 1
    if m == 2:  # letter shares c / (k r); a binary law's index is its count of letter 0
        x = np.arange(side) / total
        laws, at, steps = [x, 1.0 - x], None, np.arange(r + 1)
        rows = slice(None, None, k)  # row c is law k c: every k-th law
    else:  # the last share is 1 minus the others' total
        stride = side ** np.arange(m - 2, -1, -1)
        counts = _simplex_counts(m, total)
        laws = [*(counts[:, :-1].T / total), 1.0 - (total - counts[:, -1]) / total]
        at, steps = counts[:, :-1] @ stride, _simplex_counts(m, r)[:, :-1] @ stride
        rows = k * steps

    def place(table):  # each law at its index; the indices no law takes hold NaN
        if at is None:
            return table
        out = np.full((side ** (m - 1),) + table.shape[1:], np.nan)
        out[at] = table
        return out

    hy, hz, cost, p_y, p_z = _per_law(w_y, w_z, laws, outputs)
    cost[cost < BIN_FUZZ * rd_step] = 0.0
    x, psi, cost = place(laws[0]), place(hy - hz), place(cost)
    split = [place(law)[rows] for law in laws]  # the rows' laws
    g = -sum(map(_xlogx, split[1:]), _xlogx(split[0])) - cost[rows]
    return _Lattice(x, psi, cost, g, steps, k, outputs and tuple(map(place, (hy, hz, p_y, p_z))))


def _gather(lattice: _Lattice, priors: np.ndarray, picks: list[np.ndarray],
            fields: tuple[str, ...]):
    """Yield the ``fields`` of every cell of the prior counts ``priors`` (one
    per row) and the rows ``picks[v]`` of each letter v, gathered from the
    lattice on the axes (prior, row of v = 0, row of v = 1, ...), a batch of
    priors (about ``BATCH_CELLS`` cells, or one prior's) at a time.

    A cell's input law x is at index sum_v i_v steps[c_v].  ``rs`` is
    psi(x) - sum_v p_v psi(row_v) and ``ivy`` the same of H(Y); ``rd_ds`` is
    I(X;Z)(x) and ``rd_sim`` that plus sum_v p_v g(row_v); ``hy``, ``hz``,
    ``p_y`` and ``p_z`` are read at x.  Sums over v run left to right.
    """
    k, m = lattice.k, len(picks)
    hy, hz, p_y, p_z = lattice.outputs or (None,) * 4

    def on_axes(rows):  # a row table at the picks of each v, on the axis of v
        return [rows[c].reshape((-1,) + (1,) * (m - 1 - v)) for v, c in enumerate(picks)]

    at_laws = {"rs": lattice.psi, "ivy": hy, "rd_ds": lattice.cost, "rd_sim": lattice.cost,
               "hy": hy, "hz": hz, "p_y": p_y, "p_z": p_z}
    # the fields that add (or subtract) sum_v p_v of a table at the rows; g is one already
    row_tables = {"rs": (lattice.psi, np.subtract), "ivy": (hy, np.subtract),
                  "rd_sim": (lattice.g, np.add)}
    splits = {key: (on_axes(table if key == "rd_sim" else table[k * lattice.steps]), op)
              for key, (table, op) in row_tables.items() if key in fields}
    steps = on_axes(lattice.steps)
    # the counts and shares of v, on the prior axis
    counts = [c.reshape((-1,) + (1,) * m) for c in priors.T]
    shares = [p.reshape((-1,) + (1,) * m) for p in _grid_shares(priors, k).T]
    batch = max(1, BATCH_CELLS // math.prod(len(c) for c in picks))
    for start in range(0, len(priors), batch):
        at = slice(start, start + batch)
        law = sum((i[at] * c for i, c in zip(counts[1:], steps[1:])), counts[0][at] * steps[0])
        cells = {}
        for key in fields:
            cells[key] = out = at_laws[key][law]
            if key in splits:
                rows, op = splits[key]
                for p, at_rows in zip(shares, rows):
                    op(out, p[at] * at_rows, out=out)
        yield cells


def _sim_point(lattice: _Lattice, mu: float,
               at: np.ndarray | None = None) -> tuple[tuple[float, float], np.ndarray]:
    """The ``sim`` slope query: the (cost, rate) of a lattice point that
    maximises rate - mu * cost, and the values it scanned.

    That maximum is max_x [psi - mu I(X;Z) - env(psi + mu g)](x), with env
    the lower convex envelope over the split points x[::k] (``g`` there),
    whose vertices around the maximiser give its split and so its point.
    Only the laws at the increasing indices ``at`` (every law by default)
    are scanned, and the first maximiser among them is taken.  ``np.interp``
    works point by point, so each scanned value is the float a full scan
    gives, and where the full scan's first maximiser is among ``at`` so is
    the answer.  At mu = 0 the full scan is :meth:`_Lattice.ds_rate`, bit
    for bit.
    """
    x, psi, cost, g, k = lattice.x, lattice.psi, lattice.cost, lattice.g, lattice.k
    s, psi_s = x[::k], psi[::k]
    f = psi_s + mu * g
    keep = _upper_hull(s, -f)
    if at is None:
        scan = psi - mu * cost - np.interp(x, s[keep], f[keep])
        j = int(np.argmax(scan))
    else:
        scan = psi[at] - mu * cost[at] - np.interp(x[at], s[keep], f[keep])
        j = int(at[np.argmax(scan)])
    b = int(np.searchsorted(s[keep], x[j]))
    hi = keep[b]
    if s[hi] == x[j]:  # no split: the prefix is constant
        return (float(cost[j] + g[hi]), float(psi[j] - psi_s[hi])), scan
    lo = keep[b - 1]
    lam = (s[hi] - x[j]) / (s[hi] - s[lo])  # the weight of the lower split point
    return ((float(cost[j] + lam * g[lo] + (1.0 - lam) * g[hi]),
             float(psi[j] - lam * psi_s[lo] - (1.0 - lam) * psi_s[hi])), scan)


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

    A query scans only the laws whose points could be such a vertex.  Every
    point at law x costs at least I(X;Z)(x), since g = H(X|Z) >= 0, and has
    rate at most the ``ds`` rate psi - env psi at x (the top query's scan),
    since env psi lies below every split of x.  A vertex of the chord (left,
    right), whose slope is >= 0, costs less than right and has more rate
    than left, so only the laws with I(X;Z) < right cost + ``SCAN_MARGIN``
    and ``ds`` rate > left rate - ``SCAN_MARGIN`` can hold it; the margin
    covers the rounding of both bounds.  A chord's box lies inside its
    parent's, so each chord filters its parent's laws.  The full scan's
    first maximiser, where it is a vertex, is among them, so each answer is
    the full scan's; a chord with no law left is an edge, answered without a
    scan and still counted as a query.
    """
    top, ds_rate = _sim_point(lattice, 0.0)
    queries = 1
    if top[0] <= 0.0:
        return [top], queries
    vertices = [(0.0, 0.0), top]
    chords = [(vertices[0], top, np.arange(ds_rate.size))]
    while chords:
        left, right, at = chords.pop()
        i = bisect.bisect_left(budgets, left[0])
        if i == len(budgets) or budgets[i] >= right[0]:
            continue
        queries += 1
        at = at[(lattice.cost[at] < right[0] + SCAN_MARGIN) & (ds_rate[at] > left[1] - SCAN_MARGIN)]
        if not at.size:
            continue
        mu = (right[1] - left[1]) / (right[0] - left[0])
        new = _sim_point(lattice, mu, at)[0]
        if left[0] < new[0] < right[0] and new[1] - left[1] - mu * (new[0] - left[0]) > SLOPE_TOL:
            vertices.append(new)
            chords += [(left, new, at), (new, right, at)]
    return sorted(vertices), queries


def _frontier(w_y: Dmc, w_z: Dmc, grid: GridSpec | None, mode: str, v_equals_x: bool,
              hull: bool) -> Frontier:
    """The ``ds`` or ``sim`` frontier (hulled or raw) of the pair at ``grid``,
    from the lattice of :func:`_lattice`.

    Binary inputs with a free prefix take the envelope (``"method":
    "envelope"``): hulled ``ds`` is the upper concave hull of the (cost, best
    rate) points of :meth:`_Lattice.ds_rate`, raw ``ds`` bins them by cost,
    and hulled ``sim`` comes from the slope search of :func:`_sim_hull`.
    Every other frontier folds the cells gathered from the lattice
    (:func:`_gather`) by cost, then takes the running maximum (and hull).
    With a free prefix (raw binary ``sim``, and ``"gather"`` for larger
    alphabets) those are every cell with one row per letter of V on the 1/k
    lattice and a prior with non-decreasing counts: relabelling V permutes a
    cell's prior and rows alike and gives the same chain, so these reach
    every cell's rate and cost.  With V = X (``"prior_laws"``) each prior
    takes one cell, the row of letter v the point mass on v.  The lattice,
    and for three or more input letters the cells, are held to the guard
    before either is made.
    """
    grid = grid or GridSpec()
    rd_grid, rd_step = _budget_axis(w_y, w_z, grid)
    m, k = w_y.input_size, grid.k
    envelope = m == 2 and not v_equals_x
    r = 1 if v_equals_x else k  # the rows: the point masses, or the 1/k lattice
    _envelope_points(grid, m, r)
    n_rows = math.comb(r + m - 1, m - 1)
    cells = None
    if v_equals_x:  # the point mass on v is row m - 1 - v of the 1/1 lattice
        priors, picks = _simplex_counts(m, k), [np.array([m - 1 - v]) for v in range(m)]
        cells = len(priors)
    elif not envelope or (mode == "sim" and not hull):
        _guarded(n_rows**m, "gather needs {} cells a prior")
        priors = _simplex_counts(m, k)
        priors = priors[np.all(np.diff(priors, axis=1) >= 0, axis=1)]
        cells = len(priors) * n_rows**m
        if not envelope:
            _guarded(cells, "gather needs {} cells")
        picks = [np.arange(n_rows)] * m
    lattice = _lattice(w_y, w_z, k, r, rd_step)
    provenance = {
        "mode": mode,
        "v_equals_x": v_equals_x,
        "hull": hull,
        "method": "envelope" if envelope else "prior_laws" if v_equals_x else "gather",
        "prob_step": 1.0 / k,  # the step of GridSpec.prob_grid
        "x_points": math.comb(k * r + m - 1, m - 1),
        "split_points": n_rows,
        "rd_step": rd_step,
        "rd_max": float(rd_grid[-1]),
        "bin_fuzz_steps": BIN_FUZZ,
        "feasibility_tol": FEASIBILITY_TOL,
        "backend": "python",
        "input_size": m,
        "seed": None,
    }
    raw = np.full(rd_grid.size, -np.inf)  # the per-budget maxima of a raw frontier
    vertices = None
    if cells is not None:
        for gathered in _gather(lattice, priors, picks, ("rs", f"rd_{mode}")):
            fold_max(raw, gathered[f"rd_{mode}"], gathered["rs"], rd_step)
        provenance["cells_folded"] = cells
    elif mode == "ds":
        rate = lattice.ds_rate()
        if hull:
            vertices = _hull_vertices(lattice.cost, rate)
        else:
            fold_max(raw, lattice.cost, rate, rd_step)
    else:
        found, queries = _sim_hull(lattice, rd_grid.tolist())
        vertices = np.array(found)
        provenance.update(slope_queries=queries, slope_tol=SLOPE_TOL)
    if vertices is None:  # the running maximum, and its hull over the budget axis
        curve = np.maximum.accumulate(raw)
        if hull:
            vertices = _hull_vertices(rd_grid, curve)
    if vertices is not None:
        curve = np.interp(rd_grid, *vertices.T)
        provenance["hull_vertices"] = len(vertices)
    return Frontier(points=tuple(zip(rd_grid.tolist(), curve.tolist())), provenance=provenance)


def secrecy_frontier(w_y: Dmc, w_z: Dmc, grid: GridSpec | None = None, *,
                     v_equals_x: bool = False, hull: bool = True) -> Frontier:
    """Max confidential rate per budget, charging the channel-input cost.

    The budget constraint is the eavesdropper information of the channel
    input; ``v_equals_x=True`` restricts the search to chains with no prefix
    layer.  The hull is time sharing through the cloud variable U, which the
    region admits when the common and private rates are zero.
    ``hull=False`` skips time sharing and returns the raw (running-maximum)
    curve.  Binary inputs with a free prefix take the envelope of the
    input-law lattice (``"method": "envelope"``), larger input alphabets the
    cells gathered from it (``"gather"``), and V = X its tables at the prior
    laws (``"prior_laws"``); see :func:`_frontier`.
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
    cells gathered from the lattice (:func:`_gather`).
    """
    return _frontier(w_y, w_z, grid, "sim", v_equals_x, hull)


def secrecy_capacity(w_y: Dmc, w_z: Dmc, grid: GridSpec | None = None) -> float:
    """Best achievable confidential rate with an unconstrained budget (>= 0):
    the top of :func:`secrecy_frontier`."""
    return max(0.0, float(secrecy_frontier(w_y, w_z, grid).r_s[-1]))


def supporting_line_value(w_y: Dmc, w_z: Dmc, mu: float | np.ndarray, r_d: float | np.ndarray,
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
    give the frontier itself, so their minimum certifies it.  Slopes and
    budgets broadcast against each other, and the lattice is built once for
    them all: scalars give a float, arrays one value per broadcast entry,
    each the float of a scalar call.  Binary inputs only.
    """
    slopes, budgets = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                          np.asarray(r_d, dtype=float))
    if not np.all(np.isfinite(slopes)):
        raise ValueError("supporting-line slope must be finite")
    if np.any(slopes < 0.0):
        raise ValueError("supporting-line slope must be nonnegative")
    if not np.all(np.isfinite(budgets)):
        raise ValueError(f"r_d must be finite, got {r_d!r}")
    if mode not in ("ds", "sim"):
        raise ValueError(f"mode must be 'ds' or 'sim', got {mode!r}")
    if w_y.input_size != 2:
        raise ValueError("supporting lines are provided for binary inputs")
    grid = grid or GridSpec()
    _envelope_points(grid)
    lattice = _lattice(w_y, w_z, grid.k, grid.k, _budget_axis(w_y, w_z, grid)[1])
    pairs = list(zip(slopes.ravel().tolist(), budgets.ravel().tolist()))
    if mode == "ds":
        rate = lattice.ds_rate()
        values = [np.max(rate - m * (lattice.cost - r)) for m, r in pairs]
    else:
        points = {m: _sim_point(lattice, m)[0] for m in set(slopes.ravel().tolist())}
        values = [points[m][1] - m * (points[m][0] - r) for m, r in pairs]
    values = np.array(values, dtype=float)
    return float(values[0]) if slopes.ndim == 0 else values.reshape(slopes.shape)
