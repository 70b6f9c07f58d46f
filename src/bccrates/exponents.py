"""Exponent functions and finite-blocklength bounds.

The core objects are the cumulant-like exponents whose slope at zero equals a
(conditional) mutual information.  They control the exponential decay of the
random-coding resolvability and leakage bounds, and the threshold-decoder
error bounds for the three-layer broadcast code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import BccChain, informations
from .probability import NORMALIZATION_TOL, Dmc, GuardExceeded, Pmf

TAIL_ENUMERATION_GUARD = 2**22
SLOPE_STEP = 1e-4
DECAY_TOL = 1e-12  # slack of every decay certificate


def _check_theta(theta: float, name: str = "theta") -> None:
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {theta!r}")


def _check_bound_theta(theta: float, name: str = "theta") -> None:
    # a bound term divides by theta
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {theta!r}")


# np.power with a scalar exponent of one of these values returns the paired
# function's result, which can differ in the last bit from its general power
_SCALAR_POWERS = ((2.0, np.square), (-1.0, np.reciprocal), (0.5, np.sqrt))


def _power(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """Entrywise base**exponent, each entry as ``np.power`` gives it for a
    scalar exponent of that entry's value."""
    base, exponent = np.broadcast_arrays(base, exponent)
    out = np.power(base, exponent)
    for value, fn in _SCALAR_POWERS:
        hit = exponent == value
        if hit.any():
            out[hit] = fn(base[hit])
    return out


def _exponent_table(thetas, channel: np.ndarray, cond_input: np.ndarray,
                    prior: np.ndarray) -> np.ndarray:
    """The layered exponent at every theta of ``thetas``, in one pass.

    E(theta) = log sum_v prior(v) sum_z inner(v, z) out(z|v)^{-theta}, with
    inner = cond_input @ channel^{1+theta} and out = cond_input @ channel,
    unchecked, so valid for small negative theta too.  Each entry is the
    float that evaluating the formula at that theta alone gives: the stacked
    products take the same BLAS calls per theta, and the powers at theta = 1
    (exponents 2 and -1) are formed by ``np.square``/``np.reciprocal``, as
    ``np.power`` does for a scalar exponent (see :func:`_power`).
    """
    thetas = np.asarray(thetas, dtype=float)[:, np.newaxis, np.newaxis]
    out_given_v = cond_input @ channel  # rows: output law given each layer symbol
    inner = np.matmul(cond_input, _power(channel, 1.0 + thetas))  # (theta, v, z)
    support = inner > 0.0
    if np.any(support & (out_given_v == 0.0)):
        _, v, z = np.argwhere(support & (out_given_v == 0.0))[0]
        raise ValueError(
            f"support violation: conditional output mass is zero at (v={v}, z={z}) "
            "while the tilted numerator is positive"
        )
    base, exponent = np.broadcast_arrays(out_given_v, -thetas)
    tilt = np.zeros_like(inner)
    tilt[support] = inner[support] * _power(base[support], exponent[support])
    # a (1, v) @ (v, 1) product per theta is the dot product of one theta alone
    return np.log(np.matmul(tilt.sum(axis=2)[:, np.newaxis, :], prior[:, np.newaxis])[:, 0, 0])


# the (channel, conditional input, prior) arrays of one exponent
_Law = tuple[np.ndarray, np.ndarray, np.ndarray]


def _single_law(channel: Dmc, input_dist: Pmf) -> _Law:
    """The law of the single-layer exponent."""
    if input_dist.size != channel.input_size:
        raise ValueError("input distribution does not match channel input size")
    return channel.matrix, input_dist.probs[np.newaxis, :], np.ones(1)


def _layered_law(channel: Dmc, conditional_input: Dmc, prior: Pmf) -> _Law:
    """The law of the layered exponent."""
    if prior.size != conditional_input.input_size:
        raise ValueError("prior does not match conditional layer input size")
    if conditional_input.output_size != channel.input_size:
        raise ValueError("conditional layer does not match channel input size")
    return channel.matrix, conditional_input.matrix, prior.probs


def _exponent_at(theta: float, law: _Law) -> float:
    _check_theta(theta)
    if theta == 0.0:
        return 0.0
    return float(_exponent_table([theta], *law)[0])


def resolvability_exponent(theta: float, channel: Dmc, input_dist: Pmf) -> float:
    """log sum_z (sum_x P(x) W(z|x)^{1+theta}) P_Z(z)^{-theta}, in nats.

    Nonnegative, convex and nondecreasing on [0, 1]; its slope at zero is
    I(X;Z).  ``theta=0`` returns exactly 0.
    """
    return _exponent_at(theta, _single_law(channel, input_dist))


def superposition_exponent(theta: float, channel: Dmc, conditional_input: Dmc,
                           prior: Pmf) -> float:
    """Layered variant averaging over the cloud-center variable; slope I(X;Z|V).

    Reduces to :func:`resolvability_exponent` for a single-symbol prior and
    vanishes identically when the conditional layer is deterministic
    (satellite equals cloud center).
    """
    return _exponent_at(theta, _layered_law(channel, conditional_input, prior))


def _slope_at_zero(law: _Law, step: float) -> float:
    """Central finite difference of the layered exponent at zero."""
    ahead, behind = _exponent_table([step, -step], *law).tolist()
    return (ahead - behind) / (2.0 * step)


def resolvability_exponent_slope(channel: Dmc, input_dist: Pmf,
                                 step: float = SLOPE_STEP) -> float:
    """Central finite difference of the exponent at zero; equals I(X;Z) to O(step^2)."""
    return _slope_at_zero(_single_law(channel, input_dist), step)


def superposition_exponent_slope(channel: Dmc, conditional_input: Dmc, prior: Pmf,
                                 step: float = SLOPE_STEP) -> float:
    """Central finite difference at zero for the layered exponent; equals I(X;Z|V)."""
    return _slope_at_zero(_layered_law(channel, conditional_input, prior), step)


@dataclass(frozen=True)
class BoundReport:
    """Exponential bound of one or two terms evaluated at a fixed parameter point.

    Term i is e^{n E_i(theta_i)} / (theta_i * sizes[i]^theta_i); ``exponents``
    holds the E_i(theta_i).
    """

    term1: float
    term2: float
    n: int
    sizes: tuple[int, ...]
    theta: float
    theta_prime: float | None = None
    exponents: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.term1 < 0.0 or self.term2 < 0.0:
            raise ValueError("bound terms must be nonnegative")

    @property
    def total(self) -> float:
        return self.term1 + self.term2

    @property
    def decays(self) -> tuple[bool, ...]:
        """Per term, the decay certificate E(theta)/theta <= R, R = log(size)/n.

        The term is e^{n (E(theta) - theta R)} / theta, so where it holds the
        term does not grow with n at the fixed rate R.
        """
        thetas = (self.theta, self.theta_prime)
        return tuple(bool(e / t <= np.log(size) / self.n + DECAY_TOL)
                     for e, size, t in zip(self.exponents, self.sizes, thetas))

    def as_lines(self) -> list[str]:
        rows = [
            ("n", self.n),
            ("sizes", ",".join(str(s) for s in self.sizes)),
            ("theta", self.theta),
            ("theta_prime", self.theta_prime),
            ("term1", self.term1),
            ("term2", self.term2),
            ("total", self.total),
        ]
        return [f"{k}={v!r}" for k, v in rows]


def _exp(x: float) -> float:
    """e^x, or inf where it overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _bound_term(n: int, size: int, theta: float, exponent: float) -> float:
    # e^{n*exponent} / (theta * size^theta), assembled in log space
    return _exp(n * exponent - theta * math.log(size) - math.log(theta))


# A bound's terms: one (size, law of its exponent) pair per term.  Each
# builder derives the laws once, and each term's exponent is tabulated over a
# whole theta array in one pass (:func:`_exponent_table`).
_Terms = list[tuple[int, _Law]]


def _resolvability_terms(size: int, channel: Dmc, input_dist: Pmf) -> _Terms:
    return [(size, _single_law(channel, input_dist))]


def _superposition_terms(m1: int, m2: int, channel: Dmc, conditional_input: Dmc,
                         prior: Pmf) -> _Terms:
    cascade = conditional_input.compose(channel)
    return [(m1, _layered_law(channel, conditional_input, prior)),
            (m2, _single_law(cascade, prior))]


def _leakage_terms(dummy_size: int, private_size: int, chain: BccChain) -> _Terms:
    return [(dummy_size, _layered_law(chain.w_z, chain.p_x_given_v, chain.p_v)),
            (private_size, _layered_law(chain.p_z_given_v, chain.p_v_given_u, chain.p_u))]


def _check_sizes(n: int, terms: _Terms) -> None:
    if n < 1 or min(size for size, _ in terms) < 1:
        raise ValueError("blocklength and sizes must be at least 1")


def _report(n: int, terms: _Terms, thetas, exps) -> BoundReport:
    """The bound with term i at ``thetas[i]``, where its exponent is ``exps[i]``."""
    sizes = tuple(size for size, _ in terms)
    values = [_bound_term(n, size, t, e) for size, t, e in zip(sizes, thetas, exps)]
    return BoundReport(
        term1=values[0],
        term2=values[1] if len(values) > 1 else 0.0,
        n=n,
        sizes=sizes,
        theta=thetas[0],
        theta_prime=thetas[1] if len(thetas) > 1 else None,
        exponents=tuple(exps),
    )


def _evaluate(n: int, terms: _Terms, thetas) -> BoundReport:
    """The bound with term i at ``thetas[i]``."""
    _check_sizes(n, terms)
    for name, theta in zip(("theta", "theta_prime"), thetas):
        _check_bound_theta(theta, name)
    exps = [_exponent_at(t, law) for (_, law), t in zip(terms, thetas)]
    return _report(n, terms, thetas, exps)


def _sweep(n: int, terms: _Terms, thetas: np.ndarray) -> list[BoundReport]:
    """The bound with every term at each theta of ``thetas`` (a grid in (0, 1]),
    from one exponent table per term."""
    _check_sizes(n, terms)
    tables = [_exponent_table(thetas, *law).tolist() for _, law in terms]
    return [_report(n, terms, (t,) * len(terms), exps)
            for t, exps in zip(thetas.tolist(), zip(*tables))]


def _minimize(n: int, terms: _Terms, theta_grid) -> BoundReport:
    """The bound with each term at its own grid argmin (the terms are separable)."""
    _check_sizes(n, terms)
    grid = theta_grid_default() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    if grid.size:
        _check_bound_theta(float(grid.min()))
        _check_bound_theta(float(grid.max()))
    thetas, exps = [], []
    for size, law in terms:
        exponent = dict(zip(grid.tolist(), _exponent_table(grid, *law).tolist()))
        theta = optimize_theta(lambda t: _bound_term(n, size, t, exponent[t]), grid).theta
        thetas.append(theta)
        exps.append(exponent[theta])
    return _report(n, terms, thetas, exps)


def resolvability_bound(n: int, codebook_size: int, theta: float, channel: Dmc,
                        input_dist: Pmf) -> BoundReport:
    """Mean divergence bound for a single-layer random codebook of the given size."""
    return _evaluate(n, _resolvability_terms(codebook_size, channel, input_dist), (theta,))


def superposition_resolvability_bound(n: int, m1: int, m2: int, theta: float,
                                      theta_prime: float, channel: Dmc,
                                      conditional_input: Dmc, prior: Pmf) -> BoundReport:
    """Mean divergence bound for the two-layer (cloud/satellite) codebook.

    The first term charges the satellite layer (m1 words per cloud), the
    second the cloud layer (m2 centers) through the cascaded channel.
    """
    return _evaluate(n, _superposition_terms(m1, m2, channel, conditional_input, prior),
                     (theta, theta_prime))


def leakage_bound(n: int, dummy_size: int, private_size: int, theta: float,
                  theta_prime: float, chain: BccChain) -> BoundReport:
    """Bound on the mean confidential-message leakage of the three-layer code.

    ``dummy_size`` and ``private_size`` are total (block) alphabet sizes of
    the dummy randomness and the private message.
    """
    return _evaluate(n, _leakage_terms(dummy_size, private_size, chain),
                     (theta, theta_prime))


def _theta_grid(step: float) -> np.ndarray:
    """{step, 2*step, ...} up to 1, each rounded to 12 digits."""
    if not 0.0 < step <= 1.0:
        raise ValueError(f"theta step must lie in (0, 1], got {step!r}")
    grid = np.round(np.arange(1, int(round(1.0 / step)) + 1) * step, 12)
    return grid[grid <= 1.0 + 1e-12]


def theta_grid_default() -> np.ndarray:
    """Default search grid {0.01, 0.02, ..., 1.0}."""
    return _theta_grid(0.01)


@dataclass(frozen=True)
class ThetaSearch:
    """Grid argmin of a bound, with an optional exponential-decay certificate."""

    theta: float
    bound: float
    margin: float | None = None
    certified: bool | None = None


def optimize_theta(bound_fn: Callable[[float], float], theta_grid=None,
                   margin_fn: Callable[[float], float] | None = None) -> ThetaSearch:
    """Minimize ``bound_fn`` over a theta grid (first index wins ties).

    ``margin_fn(theta)`` should return ``exponent(theta)/theta - rate``.  The
    reported margin is its least value on the grid, and the search is
    certified when that is nonpositive: at some grid theta the bound decays
    exponentially in the blocklength, as :attr:`BoundReport.decays` tests.
    """
    grid = theta_grid_default() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("theta grid must be non-empty")
    values = [bound_fn(float(t)) for t in grid]
    best = int(np.argmin(values))
    margin = None if margin_fn is None else min(float(margin_fn(float(t))) for t in grid)
    certified = None if margin is None else bool(margin <= DECAY_TOL)
    return ThetaSearch(theta=float(grid[best]), bound=float(values[best]), margin=margin,
                       certified=certified)


def minimize_superposition_bound(n: int, m1: int, m2: int, channel: Dmc,
                                 conditional_input: Dmc, prior: Pmf,
                                 theta_grid=None) -> BoundReport:
    """Bound with each term minimized over its own theta (terms are separable)."""
    return _minimize(n, _superposition_terms(m1, m2, channel, conditional_input, prior),
                     theta_grid)


def minimize_leakage_bound(n: int, dummy_size: int, private_size: int, chain: BccChain,
                           theta_grid=None) -> BoundReport:
    """Leakage bound with each term minimized over its own theta."""
    return _minimize(n, _leakage_terms(dummy_size, private_size, chain), theta_grid)


def decoding_thresholds(chain: BccChain, n: int, delta: float = 0.05) -> tuple[float, float, float]:
    """Block thresholds n*(I - delta) for the three decoder tests.

    Ordered as (common-at-eavesdropper, layer-at-receiver, base-at-receiver).
    """
    if math.isnan(delta):
        raise ValueError("delta must be a number, got nan")
    info = informations(chain)
    return (
        n * (info.i_uz - delta),
        n * (info.i_vy_given_u - delta),
        n * (info.i_vy - delta),
    )


def _support_atoms(weight: np.ndarray, numer: np.ndarray, denom: np.ndarray):
    """Per-letter (probability, log-ratio) atoms on the support of ``weight``."""
    mask = weight > 0.0
    probs = weight[mask]
    dens = np.log(numer[mask]) - np.log(denom[mask])
    return probs, dens


def _wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


def _type_classes(k: int, n: int) -> np.ndarray:
    """Every nondecreasing n-tuple over range(k), one per column, in the order
    of ``itertools.combinations_with_replacement``: C(n+k-1, n) columns."""
    dtype = np.min_scalar_type(max(k - 1, 0))
    idx = np.arange(k, dtype=dtype)[None, :]
    for _ in range(1, n):
        last = idx[-1].astype(np.intp)
        counts = k - last  # a tuple ending in a extends by a, a+1, ..., k-1
        # each new letter: its place in its tuple's group, plus the group's first letter
        offset = np.repeat(np.cumsum(counts) - counts - last, counts)
        letters = np.arange(offset.size) - offset
        idx = np.vstack([np.repeat(idx, counts, axis=1), letters.astype(dtype)])
    return idx


def _type_class_tail(probs: np.ndarray, values: np.ndarray, n: int, threshold: float) -> float:
    """Exact P(sum of n i.i.d. atoms < threshold), summed over type classes.

    Atoms with equal values are merged.  Each class is a nondecreasing tuple
    of atom indices (its counts are the run lengths), with log weight
    log n! - sum_i log c_i! + sum_i c_i log p_i.  A class is below the
    threshold when its exact sum is: the float sum, added letter by letter,
    decides unless it lies within its rounding bound of the threshold, and
    ``math.fsum`` decides there.
    """
    keep = probs > 0.0
    atoms, inverse = np.unique(values[keep], return_inverse=True)
    log_p = np.log(np.bincount(inverse, weights=probs[keep], minlength=atoms.size))
    log_fact = np.array([math.lgamma(c + 1.0) for c in range(n + 1)])
    idx = _type_classes(atoms.size, n)
    prev = idx[0]
    log_w, sums = log_p[prev], atoms[prev]
    run = np.ones(idx.shape[1], dtype=np.min_scalar_type(n))  # length of the last run
    for col in idx[1:]:
        same = col == prev
        log_w -= np.where(same, 0.0, log_fact[run])  # log c! of a run ending before col
        log_w += log_p[col]
        run = np.where(same, run + 1, 1)
        sums += atoms[col]
        prev = col
    log_w += log_fact[n]
    log_w -= log_fact[run]
    below = sums < threshold  # exact already when the threshold is infinite
    if math.isfinite(threshold):
        # a float sum of n finite letters is off its exact sum by at most
        # (n-1)u/(1-(n-1)u) * n max|v|, u = 2^-53; this bound is over twice that
        finite = atoms[np.isfinite(atoms)]
        bound = (n + 1) * n * 2.0**-52 * float(np.abs(finite).max(initial=0.0))
        for r in np.flatnonzero(np.abs(sums - threshold) <= bound):
            if math.isfinite(sums[r]):
                below[r] = math.fsum([*atoms[idx[:, r]].tolist(), -threshold]) < 0.0
    log_w = log_w[below]
    if log_w.size == 0:
        return 0.0
    top = float(log_w.max())
    log_w -= top
    return math.exp(top) * float(np.exp(log_w, out=log_w).sum())


def iid_sum_tail(probs: np.ndarray, values: np.ndarray, n: int, threshold: float, *,
                 alphabet_size: int | None = None, allow_mc: bool = False,
                 mc_trials: int = 200_000, seed: int = 0):
    """P(sum of n i.i.d. atoms < threshold), exactly when the guard permits.

    The exact path runs when ``alphabet_size**n`` (default: the number of
    atoms) is at most ``TAIL_ENUMERATION_GUARD``.  It sums over type classes,
    the C(n+k-1, n) count vectors of the k distinct atom values, instead of
    the k^n outcome sequences, and decides each class by the exact sign of
    its sum minus the threshold (an exact tie is not below it).  Past the
    guard it raises :class:`GuardExceeded`, or with ``allow_mc`` draws a
    seeded Monte Carlo estimate.

    Returns ``(tail, method, ci)`` where ``ci`` is a 95% Wilson interval for
    the Monte Carlo path and ``None`` for the exact path.  Both paths first
    check the law: one probability per value, finite and non-negative,
    summing to 1 within ``NORMALIZATION_TOL``.
    """
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    probs, values = np.asarray(probs, dtype=float), np.asarray(values, dtype=float)
    if probs.ndim != 1 or probs.shape != values.shape:
        raise ValueError(f"need one probability per atom value, got {probs.shape} "
                         f"probabilities and {values.shape} values")
    # the least entry fails on a nan or a negative entry, the sum on an infinite one
    if not (probs.size and probs.min() >= 0.0
            and abs(probs.sum() - 1.0) <= NORMALIZATION_TOL):
        raise ValueError("atom probabilities must be finite, non-negative and sum to 1 "
                         f"within {NORMALIZATION_TOL}")
    base = len(probs) if alphabet_size is None else alphabet_size
    if base**n <= TAIL_ENUMERATION_GUARD:
        return _type_class_tail(probs, values, n, float(threshold)), "exact", None
    if not allow_mc:
        raise GuardExceeded(
            f"tail enumeration {base}^{n} exceeds guard {TAIL_ENUMERATION_GUARD}; "
            "enable the Monte Carlo fallback"
        )
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, len(probs))))
    hits = 0
    chunk = max(1, 2**20 // n)
    done = 0
    while done < mc_trials:
        block = min(chunk, mc_trials - done)
        draws = rng.choice(len(probs), size=(block, n), p=probs)
        sums = values[draws].sum(axis=1)
        hits += int(np.count_nonzero(sums < threshold))
        done += block
    return hits / mc_trials, "monte_carlo", _wilson_interval(hits, mc_trials)


@dataclass(frozen=True)
class DecoderBoundReport:
    """Union-bound decomposition of the receiver and eavesdropper error bounds."""

    tail_common: float      # mass outside the common-layer test at the eavesdropper
    tail_layer: float       # mass outside the satellite-vs-cloud test at the receiver
    tail_base: float        # mass outside the satellite-vs-prior test at the receiver
    miss_layer: float       # |L||S| e^{-alpha1}
    miss_base: float        # |K||L||S| e^{-alpha2}
    miss_common: float      # |K| e^{-alpha0}
    thresholds: tuple[float, float, float]
    sizes: tuple[int, int, int]
    n: int
    method: str
    ci: dict | None = None

    @property
    def bob_bound(self) -> float:
        return self.tail_layer + self.tail_base + self.miss_layer + self.miss_base

    @property
    def eve_bound(self) -> float:
        return self.tail_common + self.miss_common

    @property
    def bob_bound_clamped(self) -> float:
        return min(1.0, self.bob_bound)

    @property
    def eve_bound_clamped(self) -> float:
        return min(1.0, self.eve_bound)

    def as_lines(self) -> list[str]:
        rows = [
            ("n", self.n),
            ("sizes", ",".join(str(s) for s in self.sizes)),
            ("thresholds", ",".join(repr(t) for t in self.thresholds)),
            ("tail_common", self.tail_common),
            ("tail_layer", self.tail_layer),
            ("tail_base", self.tail_base),
            ("miss_common", self.miss_common),
            ("miss_layer", self.miss_layer),
            ("miss_base", self.miss_base),
            ("bob_bound", self.bob_bound),
            ("eve_bound", self.eve_bound),
            ("bob_bound_clamped", self.bob_bound_clamped),
            ("eve_bound_clamped", self.eve_bound_clamped),
            ("method", self.method),
        ]
        return [f"{k}={v!r}" for k, v in rows]


def decoder_error_bounds(n: int, chain: BccChain, sizes: tuple[int, int, int],
                         alphas: tuple[float, float, float], *, allow_mc: bool = False,
                         mc_trials: int = 200_000, seed: int = 0) -> DecoderBoundReport:
    """Random-coding error bounds for the three-layer threshold decoders.

    ``sizes`` are the (common, private, confidential) message counts and
    ``alphas`` the block thresholds of the three likelihood-ratio tests.
    Tail probabilities are over n i.i.d. letters of the chain's joint law,
    enumerated exactly up to the guard and by seeded Monte Carlo past it.
    """
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    size_k, size_l, size_s = sizes
    if min(sizes) < 1:
        raise ValueError("message counts must be at least 1")
    alpha0, alpha1, alpha2 = (float(a) for a in alphas)
    mu, mv, mx, my, mz = chain.sizes

    pu = chain.p_u.probs
    pvu = chain.p_v_given_u.matrix
    pyv = chain.p_y_given_v.matrix
    pyu = chain.p_y_given_u.matrix
    pzu = chain.p_z_given_u.matrix
    py = chain.p_y.probs
    pz = chain.p_z.probs

    # (u, v, y) atoms for the two receiver tests
    p_uvy = pu[:, None, None] * pvu[:, :, None] * pyv[None, :, :]
    dens_layer = np.broadcast_to(pyv[None, :, :], p_uvy.shape), \
        np.broadcast_to(pyu[:, None, :], p_uvy.shape)
    probs1, vals1 = _support_atoms(p_uvy.ravel(),
                                   dens_layer[0].ravel(), dens_layer[1].ravel())
    # (v, y) atoms
    p_vy = chain.p_v.probs[:, None] * pyv
    probs2, vals2 = _support_atoms(p_vy.ravel(), pyv.ravel(),
                                   np.broadcast_to(py[None, :], pyv.shape).ravel())
    # (u, z) atoms
    p_uz = pu[:, None] * pzu
    probs0, vals0 = _support_atoms(p_uz.ravel(), pzu.ravel(),
                                   np.broadcast_to(pz[None, :], pzu.shape).ravel())

    tails = {}
    methods = set()
    cis = {}
    specs = {
        "tail_layer": (probs1, vals1, alpha1, mu * mv * my),
        "tail_base": (probs2, vals2, alpha2, mv * my),
        "tail_common": (probs0, vals0, alpha0, mu * mz),
    }
    for name, (probs, vals, alpha, base) in specs.items():
        tail, method, ci = iid_sum_tail(probs, vals, n, alpha, alphabet_size=base,
                                        allow_mc=allow_mc, mc_trials=mc_trials, seed=seed)
        tails[name] = tail
        methods.add(method)
        if ci is not None:
            cis[name] = ci

    return DecoderBoundReport(
        tail_common=tails["tail_common"],
        tail_layer=tails["tail_layer"],
        tail_base=tails["tail_base"],
        miss_layer=size_l * size_s * _exp(-alpha1),
        miss_base=size_k * size_l * size_s * _exp(-alpha2),
        miss_common=size_k * _exp(-alpha0),
        thresholds=(alpha0, alpha1, alpha2),
        sizes=(size_k, size_l, size_s),
        n=n,
        method="exact" if methods == {"exact"} else "monte_carlo",
        ci=cis or None,
    )
