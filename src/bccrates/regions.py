"""Membership tests and derived queries for the achievable rate regions.

A rate quadruple bundles the dummy-randomness budget with the common,
private, and confidential message rates.  Every check evaluates its defining
inequalities exactly from the chain's information terms
(:func:`~bccrates.chain.informations`) and reports the per constraint slack
(nonnegative means satisfied, up to a +1e-9 tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import BccChain, ChainInformations, informations
from .frontier import (GridSpec, _envelope_points, _gather, _lattice, _simplex_counts,
                       _simplex_lattice, secrecy_frontier)
from .probability import Dmc, GuardExceeded, _xlogx

SLACK_TOL = 1e-9
ORDERING_GUARD = 2**22       # most input laws or degradedness-system entries an ordering check uses


class Infeasible:
    """Typed sentinel for queries with an empty feasible set on the grid."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFEASIBLE"

    def __bool__(self) -> bool:
        return False


INFEASIBLE = Infeasible()


@dataclass(frozen=True)
class RateQuad:
    """Rates in nats per channel use: dummy randomness, common, private, confidential."""

    r_d: float
    r_0: float
    r_1: float
    r_s: float

    def __post_init__(self) -> None:
        for name, value in (("r_d", self.r_d), ("r_0", self.r_0),
                            ("r_1", self.r_1), ("r_s", self.r_s)):
            if value < 0.0 or math.isnan(value):
                raise ValueError(f"{name} must be nonnegative, got {value!r}")


@dataclass(frozen=True)
class ConstraintSlack:
    name: str
    slack: float

    @property
    def satisfied(self) -> bool:
        return self.slack >= -SLACK_TOL


@dataclass(frozen=True)
class RegionVerdict:
    is_member: bool
    constraints: tuple[ConstraintSlack, ...]

    def slack(self, name: str) -> float:
        for c in self.constraints:
            if c.name == name:
                return c.slack
        raise KeyError(name)

    def violated(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.constraints if not c.satisfied)

    def __bool__(self) -> bool:
        return self.is_member


def _verdict(checks: list[tuple[str, float]]) -> RegionVerdict:
    slacks = tuple(ConstraintSlack(name, float(s)) for name, s in checks)
    return RegionVerdict(is_member=all(c.satisfied for c in slacks), constraints=slacks)


def check_rate_quad(chain: BccChain, quad: RateQuad) -> RegionVerdict:
    """Membership in the full achievable region with a randomness budget.

    Five constraints: common rate below both receivers' cloud capacity, the
    rate sum below the cloud-plus-satellite capacity, the confidential rate
    below the secrecy gap, and two randomness floors (private plus dummy must
    cover the eavesdropper's information about the input given the cloud;
    dummy alone must cover it given the satellite).
    """
    return _rate_quad_verdict(informations(chain), quad)


def _rate_quad_verdict(info: ChainInformations, quad: RateQuad) -> RegionVerdict:
    common_cap = min(info.i_uy, info.i_uz)
    return _verdict([
        ("common_rate", common_cap - quad.r_0),
        ("total_rate", info.i_vy_given_u + common_cap - (quad.r_0 + quad.r_1 + quad.r_s)),
        ("confidential_rate", info.i_vy_given_u - info.i_vz_given_u - quad.r_s),
        ("private_plus_dummy", quad.r_1 + quad.r_d - info.i_xz_given_u),
        ("dummy_floor", quad.r_d - info.i_xz_given_v),
    ])


def check_unlimited_randomness(chain: BccChain, r_0: float, r_1: float,
                               r_s: float) -> RegionVerdict:
    """Membership for an unconstrained dummy-randomness budget (no floors)."""
    info = informations(chain)
    common_cap = min(info.i_uy, info.i_uz)
    return _verdict([
        ("common_rate", common_cap - r_0),
        ("total_rate", info.i_vy_given_u + common_cap - (r_0 + r_1 + r_s)),
        ("confidential_rate", info.i_vy_given_u - info.i_vz_given_u - r_s),
    ])


def check_deterministic_encoder(chain: BccChain, r_0: float, r_1: float,
                                r_s: float) -> RegionVerdict:
    """Membership with zero dummy randomness; requires a chain with V = X."""
    if not chain.has_v_equal_x():
        raise ValueError("deterministic-encoder check requires a chain with V = X")
    info = informations(chain)
    common_cap = min(info.i_uy, info.i_uz)
    return _verdict([
        ("common_rate", common_cap - r_0),
        ("total_rate", info.i_xy_given_u + common_cap - (r_0 + r_1 + r_s)),
        ("confidential_rate", info.i_xy_given_u - info.i_xz_given_u - r_s),
        ("private_floor", r_1 - info.i_xz_given_u),
    ])


def check_inner_bound(chain: BccChain, quad: RateQuad) -> RegionVerdict:
    """Membership in the superposition inner region (pre rate-splitting)."""
    info = informations(chain)
    return _verdict([
        ("common_rate", info.i_uz - quad.r_0),
        ("layer_rate", info.i_vy_given_u - (quad.r_1 + quad.r_s)),
        ("total_rate", info.i_vy - (quad.r_0 + quad.r_1 + quad.r_s)),
        ("private_floor", quad.r_1 - info.i_vz_given_u),
        ("dummy_floor", quad.r_d - info.i_xz_given_v),
    ])


@dataclass(frozen=True)
class RateSplit:
    """Rate shifts mapping a region point into the superposition inner region."""

    case: str  # "none" | "dummy_to_private" | "private_to_common"
    r_d: float
    r_0: float
    r_s: float
    shifted: RateQuad


def split_rates(chain: BccChain, quad: RateQuad) -> RateSplit:
    """Shift (r_d, r_0, r_s) so the moved quadruple lies in the inner region.

    Case "dummy_to_private": the private rate is below the eavesdropper's
    cloud-layer information, so part of the dummy budget is relabeled as
    private payload.  Case "private_to_common": the private-plus-confidential
    load exceeds the satellite capacity, so the excess moves to the common
    layer while the confidential rate is topped up to the secrecy gap.
    Rejects quadruples outside the achievable region.
    """
    info = informations(chain)
    verdict = _rate_quad_verdict(info, quad)
    if not verdict:
        raise ValueError(f"quad outside the achievable region: {verdict.violated()}")
    if quad.r_1 + quad.r_s <= info.i_vy_given_u:
        if quad.r_1 >= info.i_vz_given_u:
            case, r_d, r_0, r_s = "none", 0.0, 0.0, 0.0
        else:
            case, r_d, r_0, r_s = "dummy_to_private", info.i_vz_given_u - quad.r_1, 0.0, 0.0
    else:
        case = "private_to_common"
        r_d = 0.0
        r_s = max(0.0, info.i_vy_given_u - info.i_vz_given_u - quad.r_s)
        r_0 = quad.r_1 + quad.r_s - info.i_vy_given_u
    shifted = RateQuad(
        r_d=max(0.0, quad.r_d - r_d),
        r_0=quad.r_0 + r_0,
        r_1=max(0.0, quad.r_1 - r_0 - r_s + r_d),
        r_s=quad.r_s + r_s,
    )
    return RateSplit(case=case, r_d=r_d, r_0=r_0, r_s=r_s, shifted=shifted)


def _grid_k(step: float) -> int:
    """Grid points per unit for an ordering check's ``grid_step`` in (0, 0.5]."""
    if not 0.0 < step <= 0.5:
        raise ValueError(f"grid_step must lie in (0, 0.5], got {step!r}")
    return max(1, round(1.0 / step))


def is_more_capable(w_y: Dmc, w_z: Dmc, grid_step: float = 0.001) -> bool:
    """True when the receiver channel carries at least as much information as
    the eavesdropper channel for every input law on the grid (within 1e-9)."""
    if w_y.input_size != w_z.input_size:
        raise ValueError("channels must share the input alphabet")
    m, k = w_y.input_size, _grid_k(grid_step)
    count = math.comb(k + m - 1, m - 1)
    if count > ORDERING_GUARD:
        raise GuardExceeded(f"input grid needs {count} points, above guard {ORDERING_GUARD}")
    grid = _simplex_lattice(m, k)
    hy_rows = -_xlogx(w_y.matrix).sum(axis=1)
    hz_rows = -_xlogx(w_z.matrix).sum(axis=1)
    py = grid @ w_y.matrix
    pz = grid @ w_z.matrix
    iy = -_xlogx(py).sum(axis=1) - grid @ hy_rows
    iz = -_xlogx(pz).sum(axis=1) - grid @ hz_rows
    return bool(np.all(iy >= iz - SLACK_TOL))


@dataclass(frozen=True)
class DegradednessVerdict:
    """Degraded: witness ``intermediate`` T, ``residual`` max |W_Y T - W_Z| <= SLACK_TOL.
    Not degraded: a Farkas ``certificate`` G with <W_Z, G> > sum_y max_z (W_Y^T G)[y, z],
    which bounds <W_Y T, G> for every row-stochastic T, and ``residual`` the largest
    misfit of the nonnegative least-squares fit.  ``method`` is always "exact"."""

    degraded: bool
    method: str
    intermediate: Dmc | None = None
    residual: float | None = None
    certificate: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.degraded


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lawson-Hanson min ||a x - b|| over x >= 0; LinAlgError after 3 len(x) steps."""
    n = a.shape[1]
    tol = 10.0 * max(a.shape) * np.finfo(float).eps * np.abs(a).sum(axis=0).max()
    x, passive = np.zeros(n), np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        w = np.where(passive, -np.inf, a.T @ (b - a @ x))
        if w.max() <= tol:
            return x
        passive[np.argmax(w)] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            out = passive & (s <= 0.0)
            if not out.any():
                break
            step = x[out] / np.maximum(x[out] - s[out], np.finfo(float).tiny)  # to the first zero
            x += step.min() * (s - x)
            passive &= x > tol
        x = s
    raise np.linalg.LinAlgError(f"nonnegative least squares did not converge in {3 * n} steps")


def is_degraded(w_y: Dmc, w_z: Dmc, grid_step: float = 0.05) -> DegradednessVerdict:
    """Does a row-stochastic T give W_Y T = W_Z?  Decided exactly for every shape:
    a nonnegative least-squares fit of T to W_Y T = W_Z and T's row sums gives a
    witness within ``SLACK_TOL`` (rows renormalised) or, from its misfit, a Farkas
    certificate; if neither, ``LinAlgError``.  ``grid_step`` is validated but no
    longer affects the verdict; it stays because the benchmark passes it."""
    if w_y.input_size != w_z.input_size:
        raise ValueError("channels must share the input alphabet")
    _grid_k(grid_step)
    if w_y.output_size == w_z.output_size and np.array_equal(w_y.matrix, w_z.matrix):
        return DegradednessVerdict(True, "exact", Dmc.identity(w_y.output_size), 0.0)
    (mx, my), mz = w_y.matrix.shape, w_z.output_size
    if (mx * mz + my) * my * mz > ORDERING_GUARD:
        raise GuardExceeded(f"degradedness system needs {(mx * mz + my) * my * mz} entries")
    a = np.vstack([np.kron(w_y.matrix, np.eye(mz)), np.kron(np.eye(my), np.ones(mz))])
    b = np.concatenate([w_z.matrix.ravel(), np.ones(my)])
    t = _nnls(a, b).reshape(my, mz)
    misfit = b - a @ t.ravel()
    if np.abs(misfit).max() <= SLACK_TOL:
        witness = t / t.sum(axis=1, keepdims=True)
        residual = float(np.abs(w_y.matrix @ witness - w_z.matrix).max())
        if residual <= SLACK_TOL:
            return DegradednessVerdict(True, "exact", Dmc(witness), residual)
    cert = misfit[:mx * mz].reshape(mx, mz)
    if np.sum(w_z.matrix * cert) > (w_y.matrix.T @ cert).max(axis=1).sum():
        return DegradednessVerdict(False, "exact", None, float(np.abs(misfit).max()), cert)
    raise np.linalg.LinAlgError("degradedness fit gives neither a witness nor a certificate")


def _pair_search_cells(w_y: Dmc, w_z: Dmc, budget: int) -> dict:
    """Decimated cell cloud with per-cell output laws, for two-point mixing.

    The cells (p, a, b) = (P_V(0), P_{X|V}(0|0), P_{X|V}(1|1)) on the 1/n grid,
    in lexicographic order, gathered from the input-law lattice at k = n
    (``frontier._gather``, in one batch): the largest n with (n + 1)^3 cells
    within ``budget``.
    """
    if w_y.input_size != 2:
        raise ValueError("the pair search over time-sharing mixtures needs binary inputs")
    n = 1
    while (n + 2) ** 3 <= budget:
        n += 1
    lattice = _lattice(w_y, w_z, n, n, 0.0, outputs=True)
    rows = np.arange(n + 1)  # row j has P_X(0) = j / n, so b = c / n is row n - c
    (cells,) = _gather(lattice, _simplex_counts(2, n), [rows, rows[::-1]], _PAIR_FIELDS)
    return {key: value.reshape(-1, *value.shape[3:]) for key, value in cells.items()}


_PAIR_FIELDS = ("rs", "rd_ds", "ivy", "p_y", "p_z", "hy", "hz")
_PAIR_WEIGHTS = np.linspace(0.0, 1.0, 11)
_PAIR_BLOCK = 1 << 12        # cell pairs per block: temporaries stay under 1 MB
_ENTROPY_MARGIN = 1e-9       # far above the rounding in a computed I(U;Y)


def _distinct_cells(cells: dict) -> dict:
    """The pair-search fields of the cells, keeping one of each bit-identical cell
    (the p = 0 and p = 1 faces of the cloud repeat one cell per a or b), in
    increasing input cost ``rd_ds``: a stable sort, so equal costs keep the
    cloud's order."""
    fields = [cells[key].reshape(len(cells["rs"]), -1) for key in _PAIR_FIELDS]
    bits = np.concatenate(fields, axis=1).view(np.uint64)
    _, first = np.unique(bits, axis=0, return_index=True)
    first.sort()
    first = first[np.argsort(cells["rd_ds"][first], kind="stable")]
    return {key: cells[key][first] for key in _PAIR_FIELDS}


def _total_variation(laws: np.ndarray, rows: slice, cols: slice = slice(None)) -> np.ndarray:
    """TV distance between each law of ``rows`` and each of ``cols``, one letter at a time."""
    tv = np.abs(laws[rows, None, 0] - laws[None, cols, 0])
    for k in range(1, laws.shape[1]):
        tv += np.abs(laws[rows, None, k] - laws[None, cols, k])
    return 0.5 * tv


def _pair_search(cells: dict, r_0: float, r_s: float) -> float:
    """Least input cost over two-point mixtures of a cell cloud; ``inf`` if none fits.

    Mixing cell i with weight lam and cell j with 1 - lam makes a binary cloud
    variable U.  A mixture must carry r_0 to both receivers, r_0 + r_s in
    total, and r_s of secrecy.  Every pair value is the same float the plain
    double loop computes, and a minimum does not depend on the order its
    terms are visited in.  The prunings below skip pairs that cannot lower
    it; each is exact in floats, none is a tolerance, and all are checked
    before any entropy is evaluated.

    - Weights with h(lam) below r_0 (I(U;Y), I(U;Z) <= H(U)), and duplicate
      cells.
    - Cost.  The cells are sorted by cost c, so lam c_i and (1 - lam) c_j are
      non-decreasing (rounding is monotone), and so is the rounded sum
      fl(lam c_i + (1 - lam) c_j) in i and in j.  A block of rows from
      ``start`` needs only the columns whose computed sum with row ``start``
      lies below the best cost so far, found by ``searchsorted`` on those
      sums (never on a difference).  Once not even column 0 does, no later
      row of the weight can help.
    - Secrecy.  When fl(max lam rs_i + max (1 - lam) rs_j) over a weight or a
      block is below r_s - SLACK_TOL, no pair in it passes the linear
      secrecy test, by the same monotonicity.
    - Pairs failing the linear secrecy or cost test, and, while nothing is
      feasible yet, pairs with h(lam) TV(P_Y,i, P_Y,j) or
      h(lam) TV(P_Z,i, P_Z,j) below r_0.  The last holds because Y is a
      degraded output of an erasure channel from U that erases with
      probability 1 - TV, so I(U;Y) <= h(lam) TV.  A block's smaller TV is
      computed once and tested at every weight: rounding is monotone, so
      h(lam) min(TV_Y, TV_Z) passes exactly when both products do.

    A block holds at most ``_PAIR_BLOCK`` pairs: ``_PAIR_BLOCK // width``
    rows of ``width`` columns each, the columns cut into pieces of at most
    ``_PAIR_BLOCK``.
    """
    cells = _distinct_cells(cells)
    n = len(cells["rs"])
    best = math.inf
    rs_floor = r_s - SLACK_TOL
    tv_floor = r_0 - SLACK_TOL - _ENTROPY_MARGIN
    tv_min = {}     # block corner -> min(TV_Y, TV_Z) of its pairs, for every weight
    for lam in _PAIR_WEIGHTS:
        h_lam = -_xlogx(np.array([lam, 1.0 - lam])).sum()
        if h_lam < tv_floor:
            continue
        # lam * x_i + (1 - lam) * x_j for every field, from pre-scaled halves
        wi = {key: lam * value for key, value in cells.items()}
        wj = {key: (1.0 - lam) * value for key, value in cells.items()}
        if wi["rs"].max() + wj["rs"].max() < rs_floor:
            continue
        start = 0
        while start < n:
            # while best is inf every block is full width, so the block
            # corners (the keys of tv_min) are the same at every weight
            cols = n if math.isinf(best) else int(
                np.searchsorted(wi["rd_ds"][start] + wj["rd_ds"], best, side="left"))
            if cols == 0:
                break
            width = min(cols, _PAIR_BLOCK)
            i = slice(start, start + _PAIR_BLOCK // width)
            start = i.stop
            for corner in range(0, cols, width):
                j = slice(corner, min(corner + width, cols))
                if wi["rs"][i].max() + wj["rs"][j].max() < rs_floor:
                    continue
                rs_u = wi["rs"][i, None] + wj["rs"][j]
                cost = wi["rd_ds"][i, None] + wj["rd_ds"][j]
                keep = (rs_u >= rs_floor) & (cost < best)
                if math.isinf(best) and keep.any():
                    if (i.start, corner) not in tv_min:
                        tv_min[i.start, corner] = np.minimum(
                            _total_variation(cells["p_y"], i, j),
                            _total_variation(cells["p_z"], i, j))
                    keep &= h_lam * tv_min[i.start, corner] >= tv_floor
                kept = np.count_nonzero(keep)
                if not kept:
                    continue
                if 2 * kept < keep.size:        # gather the kept pairs
                    ii, jj = np.nonzero(keep)
                    cost, at_i, at_j = cost[ii, jj], ii + i.start, jj + corner
                else:                           # cheaper to broadcast the whole block
                    cost = np.where(keep, cost, math.inf)
                    at_i, at_j = (i, None), (None, j)

                def mixed(key):
                    return wi[key][at_i] + wj[key][at_j]

                iuy = -_xlogx(mixed("p_y")).sum(axis=-1) - mixed("hy")
                iuz = -_xlogx(mixed("p_z")).sum(axis=-1) - mixed("hz")
                common_cap = np.minimum(iuy, iuz)
                feasible = ((common_cap >= r_0 - SLACK_TOL)
                            & (mixed("ivy") + common_cap >= r_0 + r_s - SLACK_TOL))
                if np.any(feasible):
                    best = min(best, float(np.min(cost[feasible])))
    return best


def _capacity_bound(w: Dmc) -> float:
    """An upper bound on the capacity of ``w``: max_x D(W(.|x) || q) >= C for
    every output law q (the duality bound), here the output law of the
    uniform input; it is the capacity for symmetric channels such as BSC and
    BEC."""
    q = w.matrix.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # letters no input reaches
        cross = np.where(w.matrix > 0.0, w.matrix * np.log(q), 0.0).sum(axis=1)
    return float(np.max(_xlogx(w.matrix).sum(axis=1) - cross))


def _min_dummy_method(w_y: Dmc, r_0: float, grid: GridSpec) -> dict:
    """How :func:`min_dummy_rate` answers a query: its ``method``, and for the
    envelope the count of input laws it evaluates (``x_points``)."""
    if r_0 > 0.0:
        return {"method": "pair_search"}
    if w_y.input_size == 2:
        return {"method": "envelope_inverse", "x_points": _envelope_points(grid)}
    return {"method": "frontier_inverse"}


def min_dummy_rate(w_y: Dmc, w_z: Dmc, r_0: float, r_s: float,
                   grid: GridSpec | None = None) -> float | Infeasible:
    """Smallest dummy-randomness budget supporting (common, confidential) rates.

    With no common rate this inverts the hulled :func:`secrecy_frontier`:
    the least point of its budget axis (``rd_step``, ``rd_max``) whose value
    reaches r_s.  For binary inputs that frontier comes from the convex
    envelope of psi = H(Y) - H(Z) on the input laws m / k^2
    (k = 1 / ``prob_step``; see ``frontier._frontier``).  That lattice holds
    the input law and the split points of every cell of the grid frontier,
    so its answer is never above the grid's; it evaluates k^2 + 1 input laws
    instead of (k + 1)^3 cells.  Inputs of three or more letters invert the
    frontier of the cells gathered from the same lattice.

    With a positive common rate the search runs over two-point time-sharing
    mixtures of a decimated cell cloud (the cloud variable must then carry
    real information), minimizing the input cost subject to the three rate
    constraints.  That search ignores ``grid``: it always uses the same
    1,331-cell cloud (11 points per cell coordinate), gathered from the
    input-law lattice at k = 10, and 11 mixing weights.
    It visits the cells in increasing cost and skips only pairs that exact
    float bounds rule out (see ``_pair_search``), so its answer is the
    minimum over every mixture.  A common rate above both receivers'
    capacity bound (``_capacity_bound``) is infeasible before any pair is
    formed.  Returns :data:`INFEASIBLE` when no searched chain supports the
    request.
    """
    if r_0 < 0.0 or r_s < 0.0 or math.isnan(r_0) or math.isnan(r_s):
        raise ValueError(f"rates must be nonnegative, got r_0={r_0!r}, r_s={r_s!r}")
    grid = grid or GridSpec()
    if r_0 > 0.0:
        cells = _pair_search_cells(w_y, w_z, budget=1500)
        # I(U;Y) <= C_Y and I(U;Z) <= C_Z bound the common rate of every mixture
        if min(_capacity_bound(w_y), _capacity_bound(w_z)) + _ENTROPY_MARGIN < r_0 - SLACK_TOL:
            return INFEASIBLE
        best = _pair_search(cells, r_0, r_s)
        return INFEASIBLE if math.isinf(best) else best
    front = secrecy_frontier(w_y, w_z, grid)
    values = front.r_s
    if r_s > values[-1] + SLACK_TOL:
        return INFEASIBLE
    idx = int(np.argmax(values >= r_s - SLACK_TOL))
    return float(front.r_d[idx])
