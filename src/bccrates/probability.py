"""Exact probability and information measures on finite alphabets.

All information quantities are in nats (natural logarithm throughout).
Values are ordinary 64-bit floats, alphabets are ``{0, ..., m-1}``, and
every function here is a pure function of immutable inputs, so concurrent
use from any number of threads is safe.
"""

from __future__ import annotations

import math

import numpy as np

NORMALIZATION_TOL = 1e-12


class GuardExceeded(RuntimeError):
    """A size guard on exact enumeration or array materialization tripped."""


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p log p elementwise; 0 * p where p is not positive (so -0.0 and nan keep)."""
    p = np.asarray(p, dtype=float)
    out = np.zeros(p.shape)
    np.log(p, out=out, where=p > 0.0)
    out *= p
    return out


def _as_prob_vector(probs, tol: float = NORMALIZATION_TOL) -> tuple[np.ndarray, bool]:
    arr = np.array(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("probability vector must be one-dimensional and non-empty")
    if not np.all(arr >= 0.0):   # false for nan as well as for a negative entry
        bad = arr[~(arr >= 0.0)][0]
        raise ValueError(f"probability entry {bad!r} is negative or not a number")
    total = float(arr.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total!r}, outside tolerance {tol}")
    renormalized = total != 1.0
    if renormalized:
        arr = arr / total
    arr.setflags(write=False)
    return arr, renormalized


class Pmf:
    """Probability mass function over a finite alphabet ``{0, ..., m-1}``.

    Inputs whose total differs from 1 by at most ``NORMALIZATION_TOL`` are
    renormalized exactly once; the ``renormalized`` attribute records whether
    that happened.  The underlying array is read-only.
    """

    __slots__ = ("probs", "renormalized")

    def __init__(self, probs) -> None:
        self.probs, self.renormalized = _as_prob_vector(probs)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, m: int) -> Pmf:
        if m < 1:
            raise ValueError(f"alphabet size must be at least 1, got {m!r}")
        return cls(np.full(m, 1.0 / m))

    @classmethod
    def point_mass(cls, m: int, index: int) -> Pmf:
        if not 0 <= index < m:
            raise ValueError(f"point-mass index {index!r} outside range({m!r})")
        v = np.zeros(m)
        v[index] = 1.0
        return cls(v)

    def __repr__(self) -> str:
        return f"Pmf({self.probs.tolist()})"


class Dmc:
    """Discrete memoryless channel as a row-stochastic matrix.

    ``matrix[x, z]`` is the probability of output ``z`` given input ``x``.
    """

    __slots__ = ("matrix", "renormalized")

    def __init__(self, rows) -> None:
        arr = np.array(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("channel matrix must be two-dimensional and non-empty")
        fixed = np.empty_like(arr)
        renorm = False
        for i, row in enumerate(arr):
            vec, r = _as_prob_vector(row)
            fixed[i] = vec
            renorm = renorm or r
        fixed.setflags(write=False)
        self.matrix = fixed
        self.renormalized = renorm

    @property
    def input_size(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def output_size(self) -> int:
        return int(self.matrix.shape[1])

    @classmethod
    def identity(cls, m: int) -> Dmc:
        return cls(np.eye(m))

    def output(self, input_dist: Pmf) -> Pmf:
        """Push an input distribution through the channel."""
        if input_dist.size != self.input_size:
            raise ValueError(
                f"input size {input_dist.size} does not match channel input {self.input_size}"
            )
        return Pmf(input_dist.probs @ self.matrix)

    def compose(self, then: Dmc) -> Dmc:
        """Cascade ``self`` (A -> B) with ``then`` (B -> C) into an A -> C channel."""
        if self.output_size != then.input_size:
            raise ValueError(
                f"cannot cascade: output size {self.output_size} vs input {then.input_size}"
            )
        return Dmc(self.matrix @ then.matrix)

    def is_identity(self) -> bool:
        return self.input_size == self.output_size and bool(
            np.array_equal(self.matrix, np.eye(self.input_size))
        )

    def __repr__(self) -> str:
        return f"Dmc({self.matrix.tolist()})"


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable in nats, with 0*log(0) = 0."""
    if not -NORMALIZATION_TOL <= p <= 1.0 + NORMALIZATION_TOL:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    out = 0.0
    if p > 0.0:
        out -= p * math.log(p)
    if p < 1.0:
        out -= (1.0 - p) * math.log(1.0 - p)
    return out


def _coerce_vector(p) -> np.ndarray:
    if isinstance(p, Pmf):
        return p.probs
    return np.asarray(p, dtype=np.float64)


def entropy(p) -> float:
    """Shannon entropy in nats of a ``Pmf`` (or raw nonnegative array)."""
    arr = _coerce_vector(p)
    return float(-_xlogx(arr).sum())


def kl_divergence(p, q) -> float:
    """Divergence D(p || q) in nats; ``inf`` where q vanishes on p's support."""
    pa, qa = _coerce_vector(p), _coerce_vector(q)
    if pa.shape != qa.shape:
        raise ValueError(f"alphabet mismatch: {pa.shape} vs {qa.shape}")
    return _kl(pa, qa)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    """:func:`kl_divergence` of two float arrays of one shape, unchecked."""
    support = p > 0.0
    if np.any(q[support] == 0.0):
        return math.inf
    ps, qs = p[support], q[support]
    return float(np.sum(ps * (np.log(ps) - np.log(qs))))


def mutual_information(input_dist: Pmf, channel: Dmc) -> float:
    """I(X;Y) in nats for X ~ ``input_dist`` sent through ``channel``."""
    if input_dist.size != channel.input_size:
        raise ValueError(
            f"input size {input_dist.size} does not match channel input {channel.input_size}"
        )
    out = input_dist.probs @ channel.matrix
    h_out = float(-_xlogx(out).sum())
    h_cond = float(np.dot(input_dist.probs, -_xlogx(channel.matrix).sum(axis=1)))
    return h_out - h_cond
