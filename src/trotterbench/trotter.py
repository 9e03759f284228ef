"""Trotter-step circuit synthesis for the transverse-field Ising chain.

One first-order step realizes exp(+i g dt sx_j) on every site followed by
exp(+i J dt sz_j sz_{j+1}) on odd then even bonds; the symmetric step wraps
a full-step even-bond layer in half-step odd-bond and X layers on both
sides. Rotation angles follow Rx(t) = exp(-i t/2 sx), Rz(t) = exp(-i t/2 sz),
so a full step uses theta_x = -2 g dt and theta_zz = -2 J dt; each ZZ
exponential is realized as CNOT(a,b) RZ(b, theta_zz) CNOT(a,b).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

from .circuit import Circuit


class TrotterOrder(str, enum.Enum):
    FIRST = "first"
    SYMMETRIC = "sym2"


@dataclass(frozen=True)
class TfimParams:
    """Chain size, Ising coupling J, transverse field g, step size dt, and
    boundary: open, or periodic with the wrap bond (N-1, 0)."""

    n_spins: int
    coupling: float = 1.0
    field: float = 1.0
    dt: float = 0.2
    periodic: bool = False

    def __post_init__(self):
        if not isinstance(self.n_spins, numbers.Integral):
            raise ValueError(f"n_spins must be an integer, got {self.n_spins!r}")
        if not isinstance(self.periodic, bool):
            raise ValueError(f"periodic must be True or False, got {self.periodic!r}")
        if self.n_spins < 2:
            raise ValueError(f"n_spins must be >= 2, got {self.n_spins}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.coupling == 0:
            raise ValueError("coupling must be nonzero")
        for key, value in (("j", self.coupling), ("g", self.field), ("dt", self.dt)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        # the largest rotation angles of a step, as the step builders compute them
        for key, value in (("j", self.coupling), ("g", self.field)):
            if not math.isfinite(2.0 * abs(value) * self.dt):
                raise ValueError(f"dt={self.dt} with {key}={value} gives a "
                                 f"non-finite rotation angle 2*|{key}|*dt")


def chain_bonds(n_spins: int, periodic: bool = False) -> list[tuple[int, int]]:
    """Nearest-neighbour bonds (left site, right site), wrap bond last."""
    bonds = [(i, i + 1) for i in range(n_spins - 1)]
    if periodic:
        bonds.append((n_spins - 1, 0))
    return bonds


def odd_bonds(n_spins: int, periodic: bool = False) -> list[tuple[int, int]]:
    """Bonds with odd 1-based index: (1,2), (3,4), ... in site labels 1..N."""
    bonds = chain_bonds(n_spins, periodic)
    return [b for k, b in enumerate(bonds, start=1) if k % 2 == 1]


def even_bonds(n_spins: int, periodic: bool = False) -> list[tuple[int, int]]:
    bonds = chain_bonds(n_spins, periodic)
    return [b for k, b in enumerate(bonds, start=1) if k % 2 == 0]


def _x_layer(circ: Circuit, n: int, theta: float, reverse: bool = False) -> None:
    sites = range(n - 1, -1, -1) if reverse else range(n)
    for j in sites:
        circ.rx(j, theta)


def _zz_layer(circ: Circuit, bonds, theta: float, reverse: bool = False) -> None:
    seq = reversed(bonds) if reverse else bonds
    for a, b in seq:
        circ.cnot(a, b).rz(b, theta).cnot(a, b)


def first_order_step(params: TfimParams) -> Circuit:
    """One first-order Trotter step: X layer, then odd bonds, then even bonds."""
    n = params.n_spins
    circ = Circuit(n)
    theta_x = -2.0 * params.field * params.dt
    theta_zz = -2.0 * params.coupling * params.dt
    _x_layer(circ, n, theta_x)
    _zz_layer(circ, odd_bonds(n, params.periodic), theta_zz)
    _zz_layer(circ, even_bonds(n, params.periodic), theta_zz)
    circ.mark_step()
    return circ


def symmetric_step(params: TfimParams) -> Circuit:
    """One symmetric second-order step (palindromic half/full/half layering).

    The trailing half layers are emitted in mirrored gate order; gates within
    a layer commute, so the unitary is unchanged and the gate list reads the
    same forwards and backwards whenever the middle layer has at most one bond.
    """
    n = params.n_spins
    circ = Circuit(n)
    theta_x_half = -params.field * params.dt
    theta_zz_half = -params.coupling * params.dt
    theta_zz_full = -2.0 * params.coupling * params.dt
    odd = odd_bonds(n, params.periodic)
    _x_layer(circ, n, theta_x_half)
    _zz_layer(circ, odd, theta_zz_half)
    _zz_layer(circ, even_bonds(n, params.periodic), theta_zz_full)
    _zz_layer(circ, odd, theta_zz_half, reverse=True)
    _x_layer(circ, n, theta_x_half, reverse=True)
    circ.mark_step()
    return circ


def build_evolution_circuit(params: TfimParams, n_steps: int, order: TrotterOrder) -> Circuit:
    """Repeat the chosen step `n_steps` times; no cross-step layer fusion,
    so the state at every step mark is exactly the per-step measured state."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if order == TrotterOrder.FIRST:
        step = first_order_step(params)
    elif order == TrotterOrder.SYMMETRIC:
        step = symmetric_step(params)
    else:
        raise ValueError(f"unknown Trotter order {order!r}")
    circ = Circuit(params.n_spins)
    for _ in range(n_steps):
        circ.extend(step)
    return circ
