"""Performance assessment of filter chains (paper §4.1, methodology step 2).

The paper scores each build-up by "the relation of specified losses to
calculated losses": a filter that meets its insertion-loss spec exactly
scores 1.0; one whose calculated loss is twice the specification scores
0.5.  A build-up's performance is the worst score across its filter
chain, because the signal must survive every stage.

This module runs the full loop:

1. synthesise each filter spec for the chosen technology
   (:mod:`repro.circuits.synthesis`),
2. build a lossy circuit with the technology's Q model
   (:mod:`repro.circuits.qfactor`),
3. measure insertion loss and stopband rejection by MNA analysis
   (:mod:`repro.circuits.twoport`),
4. score against the specification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import SpecificationError
from ..passives.filters import FilterSpec
from .netlist import Circuit
from .synthesis import BandpassDesign, QModel, build_bandpass_circuit, synthesize_bandpass
from .twoport import sweep_grid


@dataclass(frozen=True)
class FilterPerformance:
    """Measured behaviour of one synthesised filter.

    Attributes
    ----------
    spec:
        The filter specification.
    insertion_loss_db:
        Calculated mid-band insertion loss (minimum over the passband).
    rejection_db:
        Attenuation at the stopband point relative to mid-band, or None
        if the spec defines no stopband requirement.
    score:
        ``min(1, spec_loss / calculated_loss)`` — the paper's measure.
    meets_spec:
        True when both the loss and the rejection requirements hold.
    """

    spec: FilterSpec
    insertion_loss_db: float
    rejection_db: Optional[float]
    score: float
    meets_spec: bool

    @property
    def margin_db(self) -> float:
        """Spec limit minus calculated loss (negative = violation)."""
        return self.spec.max_insertion_loss_db - self.insertion_loss_db


def loss_score(spec_loss_db: float, calculated_loss_db: float) -> float:
    """The paper's performance measure for one filter.

    "Percentages are derived from the relation of specified losses to
    calculated losses" — a filter at or under spec scores 1.0, above spec
    proportionally less.
    """
    if spec_loss_db <= 0:
        raise SpecificationError(
            f"specified loss must be positive dB, got {spec_loss_db}"
        )
    if calculated_loss_db <= 0:
        return 1.0
    return min(1.0, spec_loss_db / calculated_loss_db)


def analyze_filter(
    spec: FilterSpec,
    q_model: Optional[QModel] = None,
    passband_points: int = 101,
) -> FilterPerformance:
    """Synthesise, build and measure one filter in a given technology.

    The mid-band insertion loss is taken as the minimum over the ripple
    bandwidth (the paper quotes the loss "at the GPS signal frequency",
    i.e. in-band), so ripple peaking at the band edges does not mask the
    dissipation loss under study.
    """
    design = synthesize_bandpass(spec)
    circuit = build_bandpass_circuit(design, q_model)
    return measure_filter(spec, circuit, passband_points)


def measure_filter(
    spec: FilterSpec,
    circuit: Circuit,
    passband_points: int = 101,
) -> FilterPerformance:
    """Measure a ready-built filter circuit against its spec.

    The passband grid and the (optional) stopband point are evaluated in
    a *single* batched MNA solve: one ``(F, n, n)`` stamp, one
    ``numpy.linalg.solve`` call for the whole assessment.
    """
    half_band = spec.bandwidth_hz / 2.0
    grid = np.linspace(
        spec.center_hz - half_band,
        spec.center_hz + half_band,
        passband_points,
    )

    stop_hz: Optional[float] = None
    if spec.stop_offset_hz is not None:
        stop_hz = spec.center_hz - spec.stop_offset_hz
        if stop_hz <= 0:
            stop_hz = spec.center_hz + spec.stop_offset_hz
        grid = np.append(grid, stop_hz)

    losses = sweep_grid(circuit, grid).insertion_loss_db
    if stop_hz is None:
        insertion_loss = float(np.min(losses))
    else:
        insertion_loss = float(np.min(losses[:-1]))

    rejection: Optional[float] = None
    rejection_ok = True
    if stop_hz is not None:
        stop_loss = float(losses[-1])
        rejection = stop_loss - insertion_loss
        rejection_ok = rejection >= (spec.stop_attenuation_db or 0.0)

    score = loss_score(spec.max_insertion_loss_db, insertion_loss)
    meets = (
        insertion_loss <= spec.max_insertion_loss_db and rejection_ok
    )
    return FilterPerformance(
        spec=spec,
        insertion_loss_db=insertion_loss,
        rejection_db=rejection,
        score=score,
        meets_spec=meets,
    )


@dataclass(frozen=True)
class ChainPerformance:
    """Performance of a complete filter chain in one build-up."""

    filters: tuple[FilterPerformance, ...]
    score: float
    meets_spec: bool

    def by_name(self, name: str) -> FilterPerformance:
        """Look up one filter's result by spec name."""
        for result in self.filters:
            if result.spec.name == name:
                return result
        raise SpecificationError(f"no filter named {name!r} in chain")


def assess_chain(
    assignments: Sequence[tuple[FilterSpec, Optional[QModel]]],
    passband_points: int = 101,
) -> ChainPerformance:
    """Assess a filter chain with per-filter technology assignments.

    Parameters
    ----------
    assignments:
        ``(spec, q_model)`` pairs — the q_model expresses which technology
        realises that filter in the build-up under study (``None`` means
        lossless, for reference calculations).

    Returns
    -------
    ChainPerformance
        With ``score`` equal to the *worst* filter score: the chain is
        only as good as its weakest stage.
    """
    if not assignments:
        raise SpecificationError("assess_chain needs at least one filter")
    results = [
        analyze_filter(spec, q_model, passband_points)
        for spec, q_model in assignments
    ]
    return ChainPerformance(
        filters=tuple(results),
        score=min(result.score for result in results),
        meets_spec=all(result.meets_spec for result in results),
    )
