"""Markov chains U -> V -> X -> (Y, Z) for two-receiver channel analysis.

A :class:`BccChain` bundles the auxiliary layers (time-sharing variable U,
prefix variable V) with the physical channels to the legitimate receiver (Y)
and the eavesdropper (Z).  :func:`informations` works from the chain's
conditional laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .probability import Dmc, Pmf, _xlogx

MAX_AXIS_SIZE = 8


@dataclass(frozen=True)
class BccChain:
    """Input layers and channel pair forming U -> V -> X -> (Y, Z).

    ``enforce_cardinality=True`` applies the auxiliary-alphabet caps that are
    sufficient for the four-rate region search (|U| <= |X|+3 and a V alphabet
    no larger than |U|*(|X|+1)).  The derived laws (``p_v`` ... ``p_z_given_u``)
    are composed on first read and kept: the chain is frozen and its arrays
    are read-only, so a kept law cannot go stale.
    """

    p_u: Pmf
    p_v_given_u: Dmc
    p_x_given_v: Dmc
    w_y: Dmc
    w_z: Dmc
    enforce_cardinality: bool = False

    def __post_init__(self) -> None:
        if self.p_u.size != self.p_v_given_u.input_size:
            raise ValueError("U alphabet does not match the V|U layer input")
        if self.p_v_given_u.output_size != self.p_x_given_v.input_size:
            raise ValueError("V alphabet does not match the X|V layer input")
        if self.p_x_given_v.output_size != self.w_y.input_size:
            raise ValueError("X alphabet does not match the Y channel input")
        if self.w_y.input_size != self.w_z.input_size:
            raise ValueError("the two channels must share the input alphabet")
        for size in self.sizes:
            if size > MAX_AXIS_SIZE:
                raise ValueError(f"alphabet size {size} exceeds supported cap {MAX_AXIS_SIZE}")
        if self.enforce_cardinality:
            mu, mv, mx = self.p_u.size, self.p_v_given_u.output_size, self.w_y.input_size
            if mu > mx + 3:
                raise ValueError(f"|U|={mu} exceeds cardinality cap |X|+3={mx + 3}")
            if mv > mu * (mx + 1):
                raise ValueError(f"|V|={mv} exceeds cardinality cap |U|*(|X|+1)={mu * (mx + 1)}")

    @property
    def sizes(self) -> tuple[int, int, int, int, int]:
        """Alphabet sizes (|U|, |V|, |X|, |Y|, |Z|)."""
        return (
            self.p_u.size,
            self.p_v_given_u.output_size,
            self.w_y.input_size,
            self.w_y.output_size,
            self.w_z.output_size,
        )

    @cached_property
    def p_v(self) -> Pmf:
        return self.p_v_given_u.output(self.p_u)

    @cached_property
    def p_x(self) -> Pmf:
        return self.p_x_given_v.output(self.p_v)

    @cached_property
    def p_y(self) -> Pmf:
        return self.w_y.output(self.p_x)

    @cached_property
    def p_z(self) -> Pmf:
        return self.w_z.output(self.p_x)

    @cached_property
    def p_y_given_v(self) -> Dmc:
        return self.p_x_given_v.compose(self.w_y)

    @cached_property
    def p_z_given_v(self) -> Dmc:
        return self.p_x_given_v.compose(self.w_z)

    @cached_property
    def p_y_given_u(self) -> Dmc:
        return self.p_v_given_u.compose(self.p_y_given_v)

    @cached_property
    def p_z_given_u(self) -> Dmc:
        return self.p_v_given_u.compose(self.p_z_given_v)

    def has_v_equal_x(self) -> bool:
        """True when the prefix layer is the identity, i.e. V = X."""
        return self.p_x_given_v.is_identity()


def chain_v_equals_x(p_u: Pmf, p_x_given_u: Dmc, w_y: Dmc, w_z: Dmc) -> BccChain:
    """Chain with no prefix layer: V = X, drawn from ``p_x_given_u``."""
    mx = p_x_given_u.output_size
    return BccChain(p_u, p_x_given_u, Dmc.identity(mx), w_y, w_z)


def single_chain(p_v: Pmf, p_x_given_v: Dmc, w_y: Dmc, w_z: Dmc) -> BccChain:
    """Chain with a constant U, for searches where U is pure time sharing."""
    return BccChain(Pmf([1.0]), Dmc([p_v.probs]), p_x_given_v, w_y, w_z)


@dataclass(frozen=True)
class ChainInformations:
    """Every mutual-information / entropy term used by the region checks (nats)."""

    i_uy: float
    i_uz: float
    i_vy: float
    i_vz: float
    i_xy: float
    i_xz: float
    i_vy_given_u: float
    i_vz_given_u: float
    i_xy_given_u: float
    i_xz_given_u: float
    i_xz_given_v: float
    h_x_given_v: float


def _row_entropy(weights: np.ndarray, rows: np.ndarray) -> float:
    """Sum over r of weights[r] * H(rows[r]): a conditional entropy in nats."""
    return float(-(weights @ _xlogx(rows).sum(axis=1)))


def informations(chain: BccChain) -> ChainInformations:
    """The twelve terms, each a difference of two conditional entropies.

    Along U -> V -> X -> (Y, Z) the Markov property gives H(Y|U,V) = H(Y|V)
    and H(Y|U,X) = H(Y|X), so every term needs only H(Y), H(Z) and seven
    weighted row entropies of the chain's conditional laws; no joint is built.
    """
    p_u, p_vu = chain.p_u.probs, chain.p_v_given_u.matrix
    p_xv, w_y, w_z = chain.p_x_given_v.matrix, chain.w_y.matrix, chain.w_z.matrix
    p_v = p_u @ p_vu
    p_x = p_v @ p_xv
    p_xu = p_vu @ p_xv
    h_y = float(-_xlogx(p_x @ w_y).sum())
    h_z = float(-_xlogx(p_x @ w_z).sum())
    h_y_u, h_z_u = _row_entropy(p_u, p_xu @ w_y), _row_entropy(p_u, p_xu @ w_z)
    h_y_v, h_z_v = _row_entropy(p_v, p_xv @ w_y), _row_entropy(p_v, p_xv @ w_z)
    h_y_x, h_z_x = _row_entropy(p_x, w_y), _row_entropy(p_x, w_z)
    return ChainInformations(
        i_uy=h_y - h_y_u,
        i_uz=h_z - h_z_u,
        i_vy=h_y - h_y_v,
        i_vz=h_z - h_z_v,
        i_xy=h_y - h_y_x,
        i_xz=h_z - h_z_x,
        i_vy_given_u=h_y_u - h_y_v,
        i_vz_given_u=h_z_u - h_z_v,
        i_xy_given_u=h_y_u - h_y_x,
        i_xz_given_u=h_z_u - h_z_x,
        i_xz_given_v=h_z_v - h_z_x,
        h_x_given_v=_row_entropy(p_v, p_xv),
    )
