"""Membership tests and derived queries for the achievable rate regions.

A rate quadruple bundles the dummy-randomness budget with the common,
private, and confidential message rates.  Every check evaluates its defining
inequalities exactly from the chain's joint law and reports the per
constraint slack (nonnegative means satisfied, up to a +1e-9 tolerance).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _sweep_py
from .chain import BccChain, ChainInformations, informations
from .frontier import GridSpec, secrecy_frontier, _simplex_grid
from .probability import Dmc, GuardExceeded, _xlogx

SLACK_TOL = 1e-9


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


def _input_grid(m: int, step: float, guard: int) -> np.ndarray:
    k = max(1, round(1.0 / step))
    if m == 2:
        return np.stack([np.linspace(0.0, 1.0, k + 1),
                         1.0 - np.linspace(0.0, 1.0, k + 1)], axis=1)
    count = math.comb(k + m - 1, m - 1)
    if count > guard:
        raise GuardExceeded(f"input grid needs {count} points, above guard {guard}")
    return _simplex_grid(m, k)


def is_more_capable(w_y: Dmc, w_z: Dmc, grid_step: float = 0.001, *,
                    guard: int = 2**22) -> bool:
    """True when the receiver channel carries at least as much information as
    the eavesdropper channel for every input law on the grid (within 1e-9)."""
    if w_y.input_size != w_z.input_size:
        raise ValueError("channels must share the input alphabet")
    grid = _input_grid(w_y.input_size, grid_step, guard)
    hy_rows = -_xlogx(w_y.matrix).sum(axis=1)
    hz_rows = -_xlogx(w_z.matrix).sum(axis=1)
    py = grid @ w_y.matrix
    pz = grid @ w_z.matrix
    iy = -_xlogx(py).sum(axis=1) - grid @ hy_rows
    iz = -_xlogx(pz).sum(axis=1) - grid @ hz_rows
    return bool(np.all(iy >= iz - SLACK_TOL))


@dataclass(frozen=True)
class DegradednessVerdict:
    degraded: bool
    method: str  # "exact" | "grid"
    intermediate: Dmc | None = None
    residual: float | None = None
    resolution: float | None = None

    def __bool__(self) -> bool:
        return self.degraded


def is_degraded(w_y: Dmc, w_z: Dmc, grid_step: float = 0.05, *,
                guard: int = 2**22) -> DegradednessVerdict:
    """Does an intermediate channel turn the receiver channel into the
    eavesdropper channel?

    With a binary-output receiver channel the intermediate is solved in
    closed form and feasibility checked within 1e-9 ("exact").  Other shapes
    run a guarded grid search over row-stochastic intermediates and report
    the achieved residual at the stated resolution ("grid").
    """
    if w_y.input_size != w_z.input_size:
        raise ValueError("channels must share the input alphabet")
    if w_y.output_size == w_z.output_size and np.array_equal(w_y.matrix, w_z.matrix):
        return DegradednessVerdict(True, "exact", Dmc.identity(w_y.output_size))

    if w_y.output_size == 2 and np.linalg.matrix_rank(w_y.matrix) == 2:
        sol, *_ = np.linalg.lstsq(w_y.matrix, w_z.matrix, rcond=None)
        residual = float(np.max(np.abs(w_y.matrix @ sol - w_z.matrix)))
        feasible = (residual <= SLACK_TOL
                    and np.all(sol >= -SLACK_TOL)
                    and np.all(np.abs(sol.sum(axis=1) - 1.0) <= SLACK_TOL))
        if not feasible:
            return DegradednessVerdict(False, "exact", None, residual)
        clipped = np.clip(sol, 0.0, None)
        clipped /= clipped.sum(axis=1, keepdims=True)
        return DegradednessVerdict(True, "exact", Dmc(clipped), residual)

    k = max(1, round(1.0 / grid_step))
    rows = _simplex_grid(w_z.output_size, k)
    count = len(rows) ** w_y.output_size
    if count > guard:
        raise GuardExceeded(f"degradedness grid needs {count} candidates, above guard")
    best = math.inf
    best_rows = None
    for combo in itertools.product(range(len(rows)), repeat=w_y.output_size):
        cand = rows[list(combo)]
        residual = float(np.max(np.abs(w_y.matrix @ cand - w_z.matrix)))
        if residual < best:
            best, best_rows = residual, cand
    threshold = grid_step  # resolution-limited feasibility
    return DegradednessVerdict(
        bool(best <= threshold), "grid",
        Dmc(best_rows) if best <= threshold else None, best, grid_step,
    )


def _pair_search_cells(w_y: Dmc, w_z: Dmc, budget: int) -> dict:
    """Decimated cell cloud with per-cell output laws, for two-point mixing."""
    if w_y.input_size != 2:
        raise ValueError("the pair search over time-sharing mixtures needs binary inputs")
    n = 1
    while (n + 2) ** 3 <= budget:
        n += 1
    p = np.linspace(0.0, 1.0, n + 1)
    cells = _sweep_py.binary_cells(w_y.matrix, w_z.matrix, p, p, p)
    cells["hy"] = -_xlogx(cells["p_y"]).sum(axis=1)
    cells["hz"] = -_xlogx(cells["p_z"]).sum(axis=1)
    return cells


_PAIR_FIELDS = ("rs", "rd_ds", "ivy", "p_y", "p_z", "hy", "hz")
_PAIR_WEIGHTS = np.linspace(0.0, 1.0, 11)
_PAIR_BLOCK = 1 << 12        # cell pairs per block: temporaries stay under 1 MB
_ENTROPY_MARGIN = 1e-9       # far above the rounding in a computed I(U;Y)


def _distinct_cells(cells: dict) -> dict:
    """The pair-search fields of the cells, keeping one of each bit-identical cell
    (the p = 0 and p = 1 faces of the cloud repeat one cell per a or b)."""
    fields = [cells[key].reshape(len(cells["rs"]), -1) for key in _PAIR_FIELDS]
    bits = np.concatenate(fields, axis=1).view(np.uint64)
    _, first = np.unique(bits, axis=0, return_index=True)
    first.sort()
    return {key: cells[key][first] for key in _PAIR_FIELDS}


def _pair_search(cells: dict, r_0: float, r_s: float) -> float:
    """Least input cost over two-point mixtures of a cell cloud; ``inf`` if none fits.

    Mixing cell i with weight lam and cell j with 1 - lam makes a binary cloud
    variable U.  A mixture must carry r_0 to both receivers, r_0 + r_s in
    total, and r_s of secrecy.  Every pair value is the same float the plain
    double loop computes; three exact prunings skip pairs that cannot lower
    the minimum: weights with h(lam) below r_0 (I(U;Y), I(U;Z) <= H(U)),
    duplicate cells, and pairs failing the linear secrecy or cost test, which
    are checked before any entropy is evaluated.
    """
    cells = _distinct_cells(cells)
    n = len(cells["rs"])
    rows = max(1, _PAIR_BLOCK // n)
    best = math.inf
    for lam in _PAIR_WEIGHTS:
        h_lam = -_xlogx(np.array([lam, 1.0 - lam])).sum()
        if h_lam < r_0 - SLACK_TOL - _ENTROPY_MARGIN:
            continue
        # lam * x_i + (1 - lam) * x_j for every field, from pre-scaled halves
        wi = {key: lam * value for key, value in cells.items()}
        wj = {key: (1.0 - lam) * value for key, value in cells.items()}
        for start in range(0, n, rows):
            i = slice(start, start + rows)
            rs_u = wi["rs"][i, None] + wj["rs"]
            cost = wi["rd_ds"][i, None] + wj["rd_ds"]
            keep = (rs_u >= r_s - SLACK_TOL) & (cost < best)
            kept = np.count_nonzero(keep)
            if not kept:
                continue
            if 2 * kept < keep.size:        # gather the kept pairs
                ii, jj = np.nonzero(keep)
                cost, at_i, at_j = cost[ii, jj], ii + start, jj
            else:                           # cheaper to broadcast the whole block
                cost = np.where(keep, cost, math.inf)
                at_i, at_j = (i, None), (None, slice(None))

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


def min_dummy_rate(w_y: Dmc, w_z: Dmc, r_0: float, r_s: float,
                   grid: GridSpec | None = None) -> float | Infeasible:
    """Smallest dummy-randomness budget supporting (common, confidential) rates.

    With no common rate this inverts the (hulled) secrecy frontier on the full
    probability grid.  With a positive common rate the search runs over
    two-point time-sharing mixtures of a decimated cell cloud (the cloud
    variable must then carry real information), minimizing the input cost
    subject to the three rate constraints.  That search ignores ``grid``: it
    always uses the same 1,331-cell cloud (11 points per cell coordinate) and
    11 mixing weights.  Returns :data:`INFEASIBLE` when no searched chain
    supports the request.
    """
    if r_0 < 0.0 or r_s < 0.0:
        raise ValueError("rates must be nonnegative")
    grid = grid or GridSpec()
    if r_0 == 0.0:
        front = secrecy_frontier(w_y, w_z, grid)
        values = front.r_s
        if r_s > values[-1] + SLACK_TOL:
            return INFEASIBLE
        idx = int(np.argmax(values >= r_s - SLACK_TOL))
        return float(front.r_d[idx])

    best = _pair_search(_pair_search_cells(w_y, w_z, budget=1500), r_0, r_s)
    return INFEASIBLE if math.isinf(best) else best
