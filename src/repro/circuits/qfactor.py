"""Technology Q-factor models (paper §2 and §4.1).

The performance ranking in the paper hinges on one physical fact: *"The
quality factor of SUMMIT passives is quite good in the 1-2 GHz range but
decreases with frequency, leading to excessive insertion losses at the IF
frequency (175 MHz)"*.  These models encode that behaviour:

* :class:`SummitQModel` — thin-film spiral inductors.  Conductor loss
  gives ``Q_cond = omega L / R_s`` (rising with frequency); substrate loss
  gives ``Q_sub ~ 1/f`` (falling).  Their parallel combination peaks in
  the low-GHz range, exactly the SUMMIT behaviour [3].  MIM capacitors are
  loss-tangent limited (flat Q).
* :class:`SmdQModel` — surface-mount parts.  Multilayer chip inductors
  have moderate, broadly flat mid-band Q; NP0 ceramic capacitors are
  nearly lossless at these frequencies.
* :class:`DiscreteFilterBlockQModel` — effective resonator Q of a bought
  SMD filter block (tuned, screened parts), high enough to meet spec.
* :class:`IdealQModel` — lossless reference for unit tests.

All models implement the :class:`~repro.circuits.synthesis.QModel`
protocol.

Frequency-dependent ("dispersive") models
-----------------------------------------

A model whose class attribute ``dispersive`` is True asks to be
realised as *frequency-dependent circuit elements*
(:class:`~repro.circuits.elements.DispersiveInductor` /
:class:`~repro.circuits.elements.DispersiveCapacitor`): the element
re-evaluates ``Q(f)`` — hence its loss — at every stamped frequency
instead of freezing the loss at the filter centre.  The hierarchy:

* :class:`SkinEffectQModel` — conductor loss with skin depth,
  ``Q(f) = Q0 * sqrt(f / f0)``;
* :class:`SubstrateLossQModel` — dielectric loss tangent growing with
  frequency, ``tan_delta(f) = tan_delta_ref * (f / f_ref)^slope``;
* :class:`TabulatedQModel` — measured Q profiles, linearly
  interpolated over a frequency table;
* :class:`DispersiveQModel` — wrapper that realises *any* model's
  ``Q(f)`` physics in the stamped elements (e.g. SUMMIT's actual
  conductor/substrate roll-off rather than its value frozen at f0).

Every dispersive model provides vectorised ``inductor_q_profile`` /
``capacitor_q_profile`` so batched ``(F,)`` MNA solves evaluate the
whole grid with numpy expressions — no per-frequency Python loop
anywhere on the stamping path.

Constant-Q models keep ``dispersive = False`` and are realised exactly
as before (loss converted at the centre frequency), which is what keeps
the GPS golden files byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import CircuitError
from ..passives.thin_film import SUMMIT_PROCESS, ThinFilmProcess, design_spiral_inductor


@dataclass(frozen=True)
class IdealQModel:
    """Lossless components (infinite Q); the unit-test reference."""

    def inductor_q(self, inductance_h: float, frequency_hz: float) -> float:
        del inductance_h, frequency_hz
        return math.inf

    def capacitor_q(self, capacitance_f: float, frequency_hz: float) -> float:
        del capacitance_f, frequency_hz
        return math.inf


@dataclass(frozen=True)
class ConstantQModel:
    """Fixed Q values, useful for ablations and textbook cross-checks."""

    inductor_q_value: float
    capacitor_q_value: float

    def inductor_q(self, inductance_h: float, frequency_hz: float) -> float:
        del inductance_h, frequency_hz
        return self.inductor_q_value

    def capacitor_q(self, capacitance_f: float, frequency_hz: float) -> float:
        del capacitance_f, frequency_hz
        return self.capacitor_q_value


@dataclass(frozen=True)
class SummitQModel:
    """Q model of the SUMMIT thin-film process.

    Inductor Q combines two mechanisms:

    * conductor loss — the spiral is synthesised for the requested value
      by :func:`~repro.passives.thin_film.design_spiral_inductor`, whose
      geometry fixes the series resistance, so ``Q_cond = omega L / R_s``
      grows linearly with frequency and shrinks for large (long-wound)
      inductors;
    * substrate (eddy/dielectric) loss — modelled as
      ``Q_sub = q_sub_ref * (f_ref / f)``, falling with frequency.

    The parallel combination ``1/Q = 1/Q_cond + 1/Q_sub`` peaks in the
    1-2 GHz range for nanohenry values — the published SUMMIT behaviour —
    and collapses to single digits at the 175 MHz IF for the ~100 nH
    values an IF filter needs.

    Capacitor Q is the inverse loss tangent of the MIM stack.
    """

    process: ThinFilmProcess = SUMMIT_PROCESS
    q_sub_ref: float = 200.0
    f_sub_ref_hz: float = 1.0e9
    cap_tan_delta: float = 0.005

    def inductor_q(self, inductance_h: float, frequency_hz: float) -> float:
        if frequency_hz <= 0:
            raise CircuitError(
                f"frequency must be positive, got {frequency_hz}"
            )
        design = design_spiral_inductor(inductance_h, self.process)
        q_cond = design.q_factor(frequency_hz)
        q_sub = self.q_sub_ref * self.f_sub_ref_hz / frequency_hz
        return 1.0 / (1.0 / q_cond + 1.0 / q_sub)

    def inductor_q_profile(
        self, inductance_h: float, frequencies_hz
    ) -> np.ndarray:
        """Vectorised inductor Q over a frequency grid.

        The spiral geometry depends only on the inductance, so it is
        synthesised once and the conductor/substrate loss combination is
        evaluated as one numpy expression over the whole grid.
        """
        grid = _validate_frequencies(frequencies_hz)
        design = design_spiral_inductor(inductance_h, self.process)
        omega = 2.0 * math.pi * grid
        q_cond = omega * inductance_h / design.series_resistance_ohm
        q_sub = self.q_sub_ref * self.f_sub_ref_hz / grid
        return 1.0 / (1.0 / q_cond + 1.0 / q_sub)


    def capacitor_q(self, capacitance_f: float, frequency_hz: float) -> float:
        del capacitance_f, frequency_hz
        return 1.0 / self.cap_tan_delta

    def capacitor_q_profile(
        self, capacitance_f: float, frequencies_hz
    ) -> np.ndarray:
        """MIM capacitor Q over a grid (loss-tangent limited, flat)."""
        del capacitance_f
        grid = _validate_frequencies(frequencies_hz)
        return np.full(grid.shape, 1.0 / self.cap_tan_delta)


@dataclass(frozen=True)
class SmdQModel:
    """Q model of surface-mount passives.

    Multilayer ceramic chip inductors (0603-class) have a mid-band
    unloaded Q of order 10-20 that is only weakly frequency dependent in
    the VHF/UHF range; wirewound parts reach 30-50.  NP0 capacitors are
    modelled at Q = 500.  The default ``inductor_q_value = 12`` is a
    multilayer 0603 part at the 175 MHz IF — the technology the paper's
    "passives optimized" build falls back to for IF inductors.
    """

    inductor_q_value: float = 12.0
    capacitor_q_value: float = 500.0

    def inductor_q(self, inductance_h: float, frequency_hz: float) -> float:
        del inductance_h, frequency_hz
        return self.inductor_q_value

    def capacitor_q(self, capacitance_f: float, frequency_hz: float) -> float:
        del capacitance_f, frequency_hz
        return self.capacitor_q_value


@dataclass(frozen=True)
class DiscreteFilterBlockQModel:
    """Effective resonator Q of a discrete (bought) SMD filter block.

    Dedicated filter modules use screened, tuned resonators; an effective
    unloaded Q of 100 makes them meet the paper's specs with margin, which
    is why build-ups 1 and 2 score a performance of 1.0.
    """

    resonator_q: float = 100.0

    def inductor_q(self, inductance_h: float, frequency_hz: float) -> float:
        del inductance_h, frequency_hz
        return self.resonator_q

    def capacitor_q(self, capacitance_f: float, frequency_hz: float) -> float:
        del capacitance_f, frequency_hz
        return self.resonator_q * 5.0


@dataclass(frozen=True)
class MixedQModel:
    """Per-element-kind technology mix (the "passives optimized" case).

    Build-up 4 realises IF-filter inductors as SMD parts (integrated
    spirals would be too lossy at 175 MHz) while keeping capacitors and
    resistors integrated.  This model delegates inductors to one model and
    capacitors to another.
    """

    inductor_model: object = field(default_factory=SmdQModel)
    capacitor_model: object = field(default_factory=SummitQModel)

    @property
    def dispersive(self) -> bool:
        """True when either delegate asks for dispersive elements.

        With the default (constant-Q) delegates this is False, so the
        historic centre-frequency realisation — and the GPS goldens —
        are untouched.
        """
        return is_dispersive(self.inductor_model) or is_dispersive(
            self.capacitor_model
        )

    def inductor_q(self, inductance_h: float, frequency_hz: float) -> float:
        return self.inductor_model.inductor_q(inductance_h, frequency_hz)

    def inductor_q_profile(
        self, inductance_h: float, frequencies_hz
    ) -> np.ndarray:
        """Delegate grid evaluation to the inductor technology."""
        return inductor_q_profile(
            self.inductor_model, inductance_h, frequencies_hz
        )


    def capacitor_q(self, capacitance_f: float, frequency_hz: float) -> float:
        return self.capacitor_model.capacitor_q(capacitance_f, frequency_hz)

    def capacitor_q_profile(
        self, capacitance_f: float, frequencies_hz
    ) -> np.ndarray:
        """Delegate grid evaluation to the capacitor technology."""
        return capacitor_q_profile(
            self.capacitor_model, capacitance_f, frequencies_hz
        )


# ---------------------------------------------------------------------------
# Frequency-dependent (dispersive) models
# ---------------------------------------------------------------------------

def is_dispersive(q_model) -> bool:
    """True when ``q_model`` asks for frequency-dependent elements.

    Dispersive models set the class attribute ``dispersive = True``;
    :func:`~repro.circuits.synthesis.build_bandpass_circuit` then
    realises them as
    :class:`~repro.circuits.elements.DispersiveInductor` /
    :class:`~repro.circuits.elements.DispersiveCapacitor` so the loss is
    re-evaluated at every stamped frequency.  Constant-Q models (the
    default) keep the historic centre-frequency conversion, which is
    what preserves byte-identical GPS goldens.
    """
    return bool(getattr(q_model, "dispersive", False))


@dataclass(frozen=True)
class SkinEffectQModel:
    """Conductor loss limited by skin depth: ``Q(f) = Q0 sqrt(f / f0)``.

    At VHF/UHF the series resistance of a wound or spiral conductor
    grows like ``sqrt(f)`` once the skin depth is smaller than the
    conductor, so ``Q = omega L / R_s(f)`` grows like ``sqrt(f)``.
    ``q0_inductor`` is the unloaded inductor Q at the reference
    frequency ``f0_hz``; capacitors are electrode-loss limited with the
    same ``sqrt(f / f0)`` law around ``q0_capacitor``.
    """

    q0_inductor: float = 40.0
    q0_capacitor: float = 300.0
    f0_hz: float = 1.0e9

    dispersive = True

    def __post_init__(self) -> None:
        for label, value in (
            ("q0_inductor", self.q0_inductor),
            ("q0_capacitor", self.q0_capacitor),
        ):
            if not math.isfinite(value) or value <= 0:
                raise CircuitError(
                    f"skin-effect {label} must be a positive finite "
                    f"number, got {value}"
                )
        if not math.isfinite(self.f0_hz) or self.f0_hz <= 0:
            raise CircuitError(
                f"reference frequency must be positive and finite, "
                f"got {self.f0_hz}"
            )

    @property
    def label(self) -> str:
        """Compact axis label for sweep rows."""
        return f"skin(Q0={self.q0_inductor:g}@{self.f0_hz:g}Hz)"

    def inductor_q(self, inductance_h: float, frequency_hz: float) -> float:
        del inductance_h
        _require_positive_frequency(frequency_hz)
        return self.q0_inductor * math.sqrt(frequency_hz / self.f0_hz)

    def capacitor_q(self, capacitance_f: float, frequency_hz: float) -> float:
        del capacitance_f
        _require_positive_frequency(frequency_hz)
        return self.q0_capacitor * math.sqrt(frequency_hz / self.f0_hz)

    def inductor_q_profile(
        self, inductance_h: float, frequencies_hz
    ) -> np.ndarray:
        del inductance_h
        grid = _validate_frequencies(frequencies_hz)
        return self.q0_inductor * np.sqrt(grid / self.f0_hz)


    def capacitor_q_profile(
        self, capacitance_f: float, frequencies_hz
    ) -> np.ndarray:
        del capacitance_f
        grid = _validate_frequencies(frequencies_hz)
        return self.q0_capacitor * np.sqrt(grid / self.f0_hz)


@dataclass(frozen=True)
class SubstrateLossQModel:
    """Dielectric (substrate) loss tangent growing with frequency.

    The dielectric loss tangent of deposited thin-film stacks rises
    with frequency; this model uses the power law
    ``tan_delta(f) = tan_delta_ref * (f / f_ref_hz)^slope``.

    * Capacitors are loss-tangent limited: ``Q_C(f) = 1 / tan_delta(f)``.
    * Inductors combine a flat conductor Q with the substrate term:
      ``1/Q_L(f) = 1/conductor_q + tan_delta(f)`` — the classic
      "good at 1 GHz, poor at band edges" signature.

    A ``slope`` of zero makes the loss tangent flat (the model then
    still counts as dispersive: the elements re-evaluate it per
    frequency, they just get the same answer everywhere).
    """

    tan_delta_ref: float = 0.005
    f_ref_hz: float = 1.0e9
    slope: float = 1.0
    conductor_q: float = 40.0

    dispersive = True

    def __post_init__(self) -> None:
        # Non-finite parameters are rejected outright: an infinite loss
        # tangent would evaluate to Q = 1/inf = 0, which the element
        # layer's lossless-Q convention would then silently invert into
        # a *perfect* component.
        if not math.isfinite(self.tan_delta_ref) or self.tan_delta_ref <= 0:
            raise CircuitError(
                f"loss tangent must be a positive finite number, "
                f"got {self.tan_delta_ref}"
            )
        if not math.isfinite(self.f_ref_hz) or self.f_ref_hz <= 0:
            raise CircuitError(
                f"reference frequency must be positive and finite, "
                f"got {self.f_ref_hz}"
            )
        if not math.isfinite(self.slope) or self.slope < 0:
            raise CircuitError(
                f"loss-tangent slope must be a non-negative finite "
                f"number, got {self.slope}"
            )
        if not math.isfinite(self.conductor_q) or self.conductor_q <= 0:
            raise CircuitError(
                f"conductor Q must be a positive finite number, "
                f"got {self.conductor_q}"
            )

    @property
    def label(self) -> str:
        """Compact axis label for sweep rows."""
        return f"tan={self.tan_delta_ref:g}"

    def _tan_delta(self, grid: np.ndarray) -> np.ndarray:
        return self.tan_delta_ref * (grid / self.f_ref_hz) ** self.slope

    def inductor_q(self, inductance_h: float, frequency_hz: float) -> float:
        del inductance_h
        _require_positive_frequency(frequency_hz)
        tan = self.tan_delta_ref * (
            frequency_hz / self.f_ref_hz
        ) ** self.slope
        return 1.0 / (1.0 / self.conductor_q + tan)

    def capacitor_q(self, capacitance_f: float, frequency_hz: float) -> float:
        del capacitance_f
        _require_positive_frequency(frequency_hz)
        tan = self.tan_delta_ref * (
            frequency_hz / self.f_ref_hz
        ) ** self.slope
        return 1.0 / tan

    def inductor_q_profile(
        self, inductance_h: float, frequencies_hz
    ) -> np.ndarray:
        del inductance_h
        grid = _validate_frequencies(frequencies_hz)
        return 1.0 / (1.0 / self.conductor_q + self._tan_delta(grid))


    def capacitor_q_profile(
        self, capacitance_f: float, frequencies_hz
    ) -> np.ndarray:
        del capacitance_f
        grid = _validate_frequencies(frequencies_hz)
        return 1.0 / self._tan_delta(grid)


@dataclass(frozen=True)
class TabulatedQModel:
    """Measured Q profiles, linearly interpolated over a frequency table.

    The shape measured technology data comes in: Q sampled at a handful
    of frequencies per element kind.  Between samples the model
    interpolates linearly (``numpy.interp``); outside the table it
    clamps to the end values, matching how datasheet curves are read.

    Fields are tuples so the model stays hashable and ``repr``-stable
    — the properties the sweep cache keys rely on.
    """

    frequencies_hz: tuple[float, ...]
    inductor_q_table: tuple[float, ...]
    capacitor_q_table: tuple[float, ...]
    name: str = "tabulated"

    dispersive = True

    def __post_init__(self) -> None:
        table = np.asarray(self.frequencies_hz, dtype=float)
        if table.size < 2:
            raise CircuitError(
                "a tabulated Q model needs at least two frequency points"
            )
        if (
            not np.all(np.isfinite(table))
            or np.any(table <= 0)
            or np.any(np.diff(table) <= 0)
        ):
            raise CircuitError(
                "tabulated frequencies must be positive, finite and "
                "increasing"
            )
        for label, values in (
            ("inductor", self.inductor_q_table),
            ("capacitor", self.capacitor_q_table),
        ):
            column = np.asarray(values, dtype=float)
            if column.shape != table.shape:
                raise CircuitError(
                    f"need one {label} Q per tabulated frequency, got "
                    f"{column.size} for {table.size}"
                )
            if not np.all(np.isfinite(column)) or np.any(column <= 0):
                raise CircuitError(
                    f"tabulated {label} Q values must be positive and "
                    f"finite"
                )

    @property
    def label(self) -> str:
        """Compact axis label for sweep rows."""
        return self.name

    def _interp(self, grid: np.ndarray, column) -> np.ndarray:
        return np.interp(
            grid,
            np.asarray(self.frequencies_hz, dtype=float),
            np.asarray(column, dtype=float),
        )

    def inductor_q(self, inductance_h: float, frequency_hz: float) -> float:
        del inductance_h
        _require_positive_frequency(frequency_hz)
        return float(
            self._interp(np.array([frequency_hz]), self.inductor_q_table)[0]
        )

    def capacitor_q(self, capacitance_f: float, frequency_hz: float) -> float:
        del capacitance_f
        _require_positive_frequency(frequency_hz)
        return float(
            self._interp(np.array([frequency_hz]), self.capacitor_q_table)[0]
        )

    def inductor_q_profile(
        self, inductance_h: float, frequencies_hz
    ) -> np.ndarray:
        del inductance_h
        grid = _validate_frequencies(frequencies_hz)
        return self._interp(grid, self.inductor_q_table)


    def capacitor_q_profile(
        self, capacitance_f: float, frequencies_hz
    ) -> np.ndarray:
        del capacitance_f
        grid = _validate_frequencies(frequencies_hz)
        return self._interp(grid, self.capacitor_q_table)


@dataclass(frozen=True)
class DispersiveQModel:
    """Realise any Q model's ``Q(f)`` physics in the stamped elements.

    Wrapping e.g. :class:`SummitQModel` makes
    :func:`~repro.circuits.synthesis.build_bandpass_circuit` emit
    dispersive elements, so SUMMIT's actual conductor/substrate
    roll-off enters the MNA analysis at every frequency instead of being
    frozen at the filter centre.  All Q queries delegate to the wrapped
    model (through the vectorised dispatch helpers, so profiles stay
    numpy-evaluated).
    """

    model: object

    dispersive = True

    @property
    def label(self) -> str:
        """Compact axis label for sweep rows."""
        inner = getattr(self.model, "label", None)
        if inner is None:
            inner = type(self.model).__name__
        return f"dispersive({inner})"

    def inductor_q(self, inductance_h: float, frequency_hz: float) -> float:
        return self.model.inductor_q(inductance_h, frequency_hz)

    def capacitor_q(self, capacitance_f: float, frequency_hz: float) -> float:
        return self.model.capacitor_q(capacitance_f, frequency_hz)

    def inductor_q_profile(
        self, inductance_h: float, frequencies_hz
    ) -> np.ndarray:
        return inductor_q_profile(self.model, inductance_h, frequencies_hz)


    def capacitor_q_profile(
        self, capacitance_f: float, frequencies_hz
    ) -> np.ndarray:
        return capacitor_q_profile(self.model, capacitance_f, frequencies_hz)


#: A measured-style SUMMIT spiral/MIM table (Q sampled per decade),
#: shaped after the published "good at 1-2 GHz, poor at 175 MHz" curve.
MEASURED_SUMMIT_TABLE = TabulatedQModel(
    frequencies_hz=(50e6, 175e6, 500e6, 1.0e9, 2.0e9, 5.0e9),
    inductor_q_table=(3.0, 8.0, 20.0, 32.0, 35.0, 18.0),
    capacitor_q_table=(220.0, 210.0, 200.0, 190.0, 170.0, 120.0),
    name="measured-summit",
)

#: Named Q-model scenarios for the design-space sweep's Q-model axis
#: (CLI ``repro-gps sweep --q-models``).  ``paper`` (= None) keeps the
#: per-process constant-Q model; the others swap in dispersive physics.
Q_MODEL_SCENARIOS: dict[str, object] = {
    "skin": SkinEffectQModel(),
    "substrate": SubstrateLossQModel(),
    "lossy-substrate": SubstrateLossQModel(tan_delta_ref=0.02),
    "measured": MEASURED_SUMMIT_TABLE,
    "dispersive-summit": DispersiveQModel(SummitQModel()),
}


def process_q_model(process, dispersive: bool = False):
    """The integrated-passives Q model of one thin-film process.

    Builds a :class:`SummitQModel` from the process table's loss
    parameters (``substrate_q_ref`` / ``substrate_q_ref_hz`` /
    ``cap_tan_delta`` on
    :class:`~repro.passives.thin_film.ThinFilmProcess`), so a process
    variant with a lossier dielectric automatically produces a lossier
    Q model.  With ``dispersive=True`` the model is wrapped in
    :class:`DispersiveQModel`, putting the full ``Q(f)`` roll-off into
    the stamped elements.
    """
    model = SummitQModel(
        process=process,
        q_sub_ref=process.substrate_q_ref,
        f_sub_ref_hz=process.substrate_q_ref_hz,
        cap_tan_delta=process.cap_tan_delta,
    )
    if dispersive:
        return DispersiveQModel(model)
    return model


def _require_positive_frequency(frequency_hz: float) -> None:
    """Shared scalar-frequency guard of the dispersive models."""
    if frequency_hz <= 0:
        raise CircuitError(
            f"frequency must be positive, got {frequency_hz}"
        )


def _validate_frequencies(frequencies_hz) -> np.ndarray:
    """Coerce to a 1-D positive float array (the Q-profile contract)."""
    grid = np.asarray(frequencies_hz, dtype=float)
    if grid.ndim == 0:
        grid = grid[None]
    if grid.size == 0:
        raise CircuitError("frequency grid must not be empty")
    if np.any(grid <= 0):
        raise CircuitError(
            f"frequency must be positive, got {float(grid.min())}"
        )
    return grid


def inductor_q_profile(
    q_model, inductance_h: float, frequencies_hz
) -> np.ndarray:
    """Unloaded inductor Q of a technology over a frequency grid.

    Dispatches to the model's vectorised ``inductor_q_profile`` when it
    provides one (:class:`SummitQModel` does); otherwise evaluates the
    scalar method point by point.  Used by the design-space sweep
    subsystem to trace Q-vs-frequency without per-point Python overhead
    for the models that matter.
    """
    vectorised = getattr(q_model, "inductor_q_profile", None)
    if vectorised is not None:
        return np.asarray(vectorised(inductance_h, frequencies_hz))
    grid = _validate_frequencies(frequencies_hz)
    return np.array(
        [q_model.inductor_q(inductance_h, float(f)) for f in grid]
    )


def capacitor_q_profile(
    q_model, capacitance_f: float, frequencies_hz
) -> np.ndarray:
    """Unloaded capacitor Q of a technology over a frequency grid.

    Dispatches to the model's vectorised ``capacitor_q_profile`` when it
    provides one (all dispersive models and :class:`SummitQModel` do);
    otherwise evaluates the scalar method point by point.
    """
    vectorised = getattr(q_model, "capacitor_q_profile", None)
    if vectorised is not None:
        return np.asarray(vectorised(capacitance_f, frequencies_hz))
    grid = _validate_frequencies(frequencies_hz)
    return np.array(
        [q_model.capacitor_q(capacitance_f, float(f)) for f in grid]
    )


def combined_q_profile(
    q_model,
    inductance_h: float,
    capacitance_f: float,
    frequencies_hz,
) -> np.ndarray:
    """Effective resonator Q over a frequency grid (vectorised).

    The grid analogue of :func:`combined_unloaded_q`:
    ``1/Q = 1/Q_L + 1/Q_C`` at every frequency, with infinite
    contributions dropped.
    """
    q_l = inductor_q_profile(q_model, inductance_h, frequencies_hz)
    q_c = capacitor_q_profile(q_model, capacitance_f, frequencies_hz)
    inverse = np.zeros_like(q_l, dtype=float)
    finite_l = np.isfinite(q_l) & (q_l > 0)
    finite_c = np.isfinite(q_c) & (q_c > 0)
    inverse[finite_l] += 1.0 / q_l[finite_l]
    inverse[finite_c] += 1.0 / q_c[finite_c]
    result = np.full(inverse.shape, math.inf)
    nonzero = inverse > 0
    result[nonzero] = 1.0 / inverse[nonzero]
    return result


def combined_unloaded_q(
    q_model,
    inductance_h: float,
    capacitance_f: float,
    frequency_hz: float,
) -> float:
    """Effective resonator Q: ``1/Q = 1/Q_L + 1/Q_C``.

    This is the ``Qu`` that enters the classical dissipation-loss formula
    for a resonator built from the given L and C.
    """
    q_l = q_model.inductor_q(inductance_h, frequency_hz)
    q_c = q_model.capacitor_q(capacitance_f, frequency_hz)
    inverse = 0.0
    if math.isfinite(q_l) and q_l > 0:
        inverse += 1.0 / q_l
    if math.isfinite(q_c) and q_c > 0:
        inverse += 1.0 / q_c
    if inverse == 0.0:
        return math.inf
    return 1.0 / inverse
