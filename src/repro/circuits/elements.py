"""Lumped circuit elements for AC (small-signal) analysis.

Every element is a two-terminal admittance between two named nodes; the
MNA engine only needs :meth:`~Element.admittance` at a given angular
frequency.  Loss is modelled where the physics puts it:

* resistors are ideal conductances;
* capacitors have a loss tangent (dielectric loss) and optional ESR;
* inductors have a series resistance, the dominant loss of thin-film
  spirals, plus an optional parallel self-resonance capacitance.

Finite-Q components are created from Q values by
:func:`lossy_inductor` / :func:`lossy_capacitor`, which convert an
unloaded Q at a reference frequency into the corresponding physical loss
element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CircuitError
from .qfactor import capacitor_q_profile, inductor_q_profile

GROUND = "0"


def _validate_omegas(omegas: np.ndarray) -> np.ndarray:
    """Coerce to a 1-D float array of strictly positive frequencies."""
    array = np.asarray(omegas, dtype=float)
    if array.ndim != 1:
        raise CircuitError(
            f"omegas must be a 1-D array, got shape {array.shape}"
        )
    if array.size == 0:
        raise CircuitError("omegas must not be empty")
    if np.any(array <= 0):
        bad = float(array[array <= 0][0])
        raise CircuitError(f"AC analysis requires omega > 0, got {bad}")
    return array


@dataclass(frozen=True)
class Element:
    """Base class: a two-terminal element between ``node_a`` and ``node_b``."""

    name: str
    node_a: str
    node_b: str

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise CircuitError(
                f"element {self.name!r} has both terminals on node "
                f"{self.node_a!r}"
            )

    def admittance(self, omega: float) -> complex:
        """Complex admittance at angular frequency ``omega`` (rad/s)."""
        raise NotImplementedError

    def admittances(self, omegas: np.ndarray) -> np.ndarray:
        """Vectorised admittance over a 1-D array of angular frequencies.

        The base implementation falls back to the scalar
        :meth:`admittance` in a loop; the concrete R/L/C elements override
        it with closed-form numpy expressions so a whole frequency grid is
        evaluated in one shot (the hot path of the batch MNA engine).
        """
        array = _validate_omegas(omegas)
        return np.array(
            [self.admittance(float(w)) for w in array], dtype=complex
        )


@dataclass(frozen=True)
class Resistor(Element):
    """Ideal resistor."""

    resistance: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.resistance <= 0:
            raise CircuitError(
                f"resistor {self.name!r} needs a positive resistance, "
                f"got {self.resistance}"
            )

    def admittance(self, omega: float) -> complex:
        return complex(1.0 / self.resistance, 0.0)

    def admittances(self, omegas: np.ndarray) -> np.ndarray:
        array = _validate_omegas(omegas)
        return np.full(array.shape, 1.0 / self.resistance, dtype=complex)


@dataclass(frozen=True)
class Capacitor(Element):
    """Capacitor with loss tangent and equivalent series resistance.

    The admittance of the series combination of ESR and the lossy
    dielectric is used; with ``esr == 0`` and ``tan_delta == 0`` this is an
    ideal capacitor.
    """

    capacitance: float = 0.0
    tan_delta: float = 0.0
    esr: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.capacitance <= 0:
            raise CircuitError(
                f"capacitor {self.name!r} needs a positive capacitance, "
                f"got {self.capacitance}"
            )
        if self.tan_delta < 0 or self.esr < 0:
            raise CircuitError(
                f"capacitor {self.name!r} loss terms cannot be negative"
            )

    def admittance(self, omega: float) -> complex:
        if omega <= 0:
            raise CircuitError("AC analysis requires omega > 0")
        # Delegate to the vectorised path so scalar and batched analyses
        # stamp bit-identical values (the property suite solves both and
        # compares; conditioning would amplify any ulp difference).
        return complex(self.admittances(np.array([float(omega)]))[0])

    def admittances(self, omegas: np.ndarray) -> np.ndarray:
        array = _validate_omegas(omegas)
        # Dielectric loss: Y_diel = omega C (tan_delta + j)
        y_diel = array * self.capacitance * complex(self.tan_delta, 1.0)
        if self.esr == 0.0:
            return y_diel
        return 1.0 / (self.esr + 1.0 / y_diel)


@dataclass(frozen=True)
class Inductor(Element):
    """Inductor with series resistance and parasitic shunt capacitance.

    The series branch ``R_s + j omega L`` models conductor loss; the
    optional ``c_par`` across the branch models the self-resonance of a
    planar spiral.
    """

    inductance: float = 0.0
    series_resistance: float = 0.0
    c_par: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.inductance <= 0:
            raise CircuitError(
                f"inductor {self.name!r} needs a positive inductance, "
                f"got {self.inductance}"
            )
        if self.series_resistance < 0 or self.c_par < 0:
            raise CircuitError(
                f"inductor {self.name!r} loss terms cannot be negative"
            )

    def admittance(self, omega: float) -> complex:
        if omega <= 0:
            raise CircuitError("AC analysis requires omega > 0")
        # Delegate to the vectorised path (see Capacitor.admittance).
        return complex(self.admittances(np.array([float(omega)]))[0])

    def admittances(self, omegas: np.ndarray) -> np.ndarray:
        array = _validate_omegas(omegas)
        z_series = self.series_resistance + 1j * array * self.inductance
        y = 1.0 / z_series
        if self.c_par > 0.0:
            y = y + 1j * array * self.c_par
        return y

    @property
    def self_resonance_hz(self) -> float:
        """Self-resonant frequency; infinite when ``c_par`` is zero."""
        if self.c_par == 0.0:
            return math.inf
        return 1.0 / (2.0 * math.pi * math.sqrt(self.inductance * self.c_par))


def _loss_from_q(q: np.ndarray) -> np.ndarray:
    """``1/Q`` with non-finite or non-positive Q treated as lossless."""
    lossy = np.isfinite(q) & (q > 0)
    return np.where(lossy, 1.0 / np.where(lossy, q, 1.0), 0.0)


@dataclass(frozen=True)
class DispersiveInductor(Element):
    """Inductor whose series loss follows a frequency-dependent Q model.

    Where :class:`Inductor` freezes its series resistance (a Q value
    converted at one reference frequency), this element re-evaluates
    ``R_s(f) = omega L / Q(f)`` from its technology model at every
    analysed frequency — the realisation dispersive Q models ask for.
    ``q_model`` must be a hashable value object (a frozen dataclass)
    providing ``inductor_q`` and preferably a vectorised
    ``inductor_q_profile``; admittance evaluation is then one numpy
    expression over the whole grid.
    """

    inductance: float = 0.0
    q_model: object = None
    c_par: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.inductance <= 0:
            raise CircuitError(
                f"inductor {self.name!r} needs a positive inductance, "
                f"got {self.inductance}"
            )
        if self.q_model is None:
            raise CircuitError(
                f"dispersive inductor {self.name!r} needs a Q model"
            )
        if self.c_par < 0:
            raise CircuitError(
                f"inductor {self.name!r} loss terms cannot be negative"
            )

    def admittance(self, omega: float) -> complex:
        if omega <= 0:
            raise CircuitError("AC analysis requires omega > 0")
        # Delegate to the vectorised path (see Capacitor.admittance).
        return complex(self.admittances(np.array([float(omega)]))[0])

    def admittances(self, omegas: np.ndarray) -> np.ndarray:
        array = _validate_omegas(omegas)
        freqs = array / (2.0 * math.pi)
        q = np.asarray(
            inductor_q_profile(self.q_model, self.inductance, freqs),
            dtype=float,
        )
        reactance = array * self.inductance
        series_r = reactance * _loss_from_q(q)
        y = 1.0 / (series_r + 1j * reactance)
        if self.c_par > 0.0:
            y = y + 1j * array * self.c_par
        return y


@dataclass(frozen=True)
class DispersiveCapacitor(Element):
    """Capacitor whose loss tangent follows a frequency-dependent Q model.

    ``tan_delta(f) = 1 / Q(f)`` is re-evaluated from the technology
    model at every analysed frequency; the admittance is the lossy
    dielectric ``Y = omega C (tan_delta(f) + j)``, evaluated as one
    numpy expression over the grid.
    """

    capacitance: float = 0.0
    q_model: object = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.capacitance <= 0:
            raise CircuitError(
                f"capacitor {self.name!r} needs a positive capacitance, "
                f"got {self.capacitance}"
            )
        if self.q_model is None:
            raise CircuitError(
                f"dispersive capacitor {self.name!r} needs a Q model"
            )

    def admittance(self, omega: float) -> complex:
        if omega <= 0:
            raise CircuitError("AC analysis requires omega > 0")
        # Delegate to the vectorised path (see Capacitor.admittance).
        return complex(self.admittances(np.array([float(omega)]))[0])

    def admittances(self, omegas: np.ndarray) -> np.ndarray:
        array = _validate_omegas(omegas)
        freqs = array / (2.0 * math.pi)
        q = np.asarray(
            capacitor_q_profile(self.q_model, self.capacitance, freqs),
            dtype=float,
        )
        tan_delta = _loss_from_q(q)
        return array * self.capacitance * (tan_delta + 1j)


def dispersive_inductor(
    name: str,
    node_a: str,
    node_b: str,
    inductance: float,
    q_model,
    c_par: float = 0.0,
) -> DispersiveInductor:
    """Create an inductor bound to a frequency-dependent Q model."""
    return DispersiveInductor(
        name=name,
        node_a=node_a,
        node_b=node_b,
        inductance=inductance,
        q_model=q_model,
        c_par=c_par,
    )


def dispersive_capacitor(
    name: str,
    node_a: str,
    node_b: str,
    capacitance: float,
    q_model,
) -> DispersiveCapacitor:
    """Create a capacitor bound to a frequency-dependent Q model."""
    return DispersiveCapacitor(
        name=name,
        node_a=node_a,
        node_b=node_b,
        capacitance=capacitance,
        q_model=q_model,
    )


def lossy_inductor(
    name: str,
    node_a: str,
    node_b: str,
    inductance: float,
    q: float,
    at_hz: float,
    c_par: float = 0.0,
) -> Inductor:
    """Create an inductor whose unloaded Q at ``at_hz`` equals ``q``.

    ``Q = omega L / R_s`` fixes the series resistance.  A non-finite or
    non-positive ``q`` yields an essentially lossless inductor.
    """
    if inductance <= 0:
        raise CircuitError(f"inductance must be positive, got {inductance}")
    if at_hz <= 0:
        raise CircuitError(f"reference frequency must be positive, got {at_hz}")
    omega = 2.0 * math.pi * at_hz
    if q is None or not math.isfinite(q) or q <= 0:
        series_r = 0.0
    else:
        series_r = omega * inductance / q
    return Inductor(
        name=name,
        node_a=node_a,
        node_b=node_b,
        inductance=inductance,
        series_resistance=series_r,
        c_par=c_par,
    )


def lossy_capacitor(
    name: str,
    node_a: str,
    node_b: str,
    capacitance: float,
    q: float,
    at_hz: float = 0.0,
) -> Capacitor:
    """Create a capacitor whose unloaded Q equals ``q`` (tan delta = 1/Q).

    Dielectric loss tangent is frequency-flat, so ``at_hz`` is accepted for
    interface symmetry but unused.
    """
    del at_hz  # dielectric loss tangent is frequency-independent
    if capacitance <= 0:
        raise CircuitError(f"capacitance must be positive, got {capacitance}")
    if q is None or not math.isfinite(q) or q <= 0:
        tan_delta = 0.0
    else:
        tan_delta = 1.0 / q
    return Capacitor(
        name=name,
        node_a=node_a,
        node_b=node_b,
        capacitance=capacitance,
        tan_delta=tan_delta,
    )


@dataclass(frozen=True)
class Port:
    """An analysis port: a node (referenced to ground) with an impedance."""

    name: str
    node: str
    impedance: float = 50.0

    def __post_init__(self) -> None:
        if self.node == GROUND:
            raise CircuitError(f"port {self.name!r} cannot sit on ground")
        if self.impedance <= 0:
            raise CircuitError(
                f"port {self.name!r} needs a positive reference impedance"
            )
