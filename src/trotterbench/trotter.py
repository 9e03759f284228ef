"""Trotter-step circuit synthesis for the transverse-field Ising chain.

A step is a table of (layer, weight) rows, emitted in order by one function
(`_step`). The layers are "x", exp(+i w g dt sx_j) on every site, and "odd"
and "even", exp(+i w J dt sz_a sz_b) on the bonds of odd and even 1-based
index (wrap bond last). First order is (x, 1), (odd, 1), (even, 1); sym2 is
(x, 1/2), (odd, 1/2), (even, 1), (odd, 1/2), (x, 1/2). A layer already
emitted in the step runs in reverse gate order, which mirrors sym2's
trailing half layers. Rotation angles follow Rx(t) = exp(-i t/2 sx),
Rz(t) = exp(-i t/2 sz), so a row of weight w uses theta_x = -2 w g dt and
theta_zz = -2 w J dt; each ZZ exponential is realized as
CNOT(a,b) RZ(b, theta_zz) CNOT(a,b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, check_integer, check_real


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
        object.__setattr__(self, "n_spins", check_integer("n_spins", self.n_spins, 2))
        for attr, key in (("coupling", "j"), ("field", "g"), ("dt", "dt")):
            object.__setattr__(self, attr, check_real(key, getattr(self, attr)))
        if not isinstance(self.periodic, bool):
            raise ValueError(f"periodic must be True or False, got {self.periodic!r}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.coupling == 0:
            raise ValueError(f"j must be nonzero, got {self.coupling}")
        # the largest rotation angles of a step, as `_step` computes them at weight 1
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


#: Each order's step as (layer, weight) rows in temporal order, by name.
LAYERS = {
    "first": (("x", 1), ("odd", 1), ("even", 1)),
    "sym2": (("x", 0.5), ("odd", 0.5), ("even", 1), ("odd", 0.5), ("x", 0.5)),
}


def _step(params: TfimParams, layers) -> Circuit:
    """One Trotter step of `layers`, (layer, weight) rows as in `LAYERS`.
    A layer already emitted in this step runs in reverse gate order. A
    weight may be negative: it scales the angles, never `params.dt`."""
    n = params.n_spins
    bonds = chain_bonds(n, params.periodic)
    positions = {"x": range(n), "odd": bonds[0::2], "even": bonds[1::2]}
    circ = Circuit(n)
    emitted = set()
    for layer, weight in layers:
        seq = positions[layer][::-1] if layer in emitted else positions[layer]
        emitted.add(layer)
        if layer == "x":
            theta = -2.0 * weight * params.field * params.dt
            for j in seq:
                circ.rx(j, theta)
        else:
            theta = -2.0 * weight * params.coupling * params.dt
            for a, b in seq:
                circ.cnot(a, b).rz(b, theta).cnot(a, b)
    circ.mark_step()
    return circ


def first_order_step(params: TfimParams) -> Circuit:
    """One first-order Trotter step: X layer, then odd bonds, then even bonds."""
    return _step(params, LAYERS["first"])


def symmetric_step(params: TfimParams) -> Circuit:
    """One symmetric second-order step: X/2, odd/2, even, odd/2, X/2, the
    trailing half layers in mirrored gate order. Gates within a layer
    commute, so the unitary is unchanged and the gate list reads the same
    forwards and backwards whenever the middle layer has at most one bond."""
    return _step(params, LAYERS["sym2"])


def build_evolution_circuit(params: TfimParams, n_steps: int, order: str) -> Circuit:
    """Repeat the step `LAYERS[order]` `n_steps` times; no cross-step layer
    fusion, so the state at every step mark is exactly the per-step state."""
    n_steps = check_integer("n_steps", n_steps, 1)
    try:
        layers = LAYERS[order]
    except (KeyError, TypeError):  # an unhashable order raises TypeError
        raise ValueError(f"unknown Trotter order {order!r}") from None
    step = _step(params, layers)
    circ = Circuit(params.n_spins)
    for _ in range(n_steps):
        circ.extend(step)
    return circ
