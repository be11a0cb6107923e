"""Two-port S-parameter extraction and insertion-loss measurement.

The filter analyses in the paper are all two-port questions: what is the
insertion loss at the GPS frequency, what is the rejection at the image
frequency.  This module turns a :class:`~repro.circuits.netlist.Circuit`
with two declared ports into S-parameters:

1. stamp the node admittance matrix (ports unterminated),
2. add the port reference admittances ``1/Z0`` at the port nodes,
3. solve for the port voltages under unit-incident-wave excitation,
4. read off ``S_jk`` from the voltage waves.

Frequency sweeps are *batched*: :func:`sweep_grid` stamps the whole
``(F, n, n)`` admittance tensor once (via the cached
:class:`~repro.circuits.mna.StampPlan`) and solves every frequency and
both excitations with a single ``numpy.linalg.solve`` call.  The
pre-vectorisation per-frequency loop survives as
:func:`sweep_pointwise`, the reference implementation the property tests
and the speed benchmark compare against.

Results are wrapped in :class:`SweepResult`, which provides the dB views
used by the performance scorer and the benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import CircuitError
from .mna import (
    AcAnalysis,
    StampPlan,
    batch_solve_nodal,
    node_admittance_matrix,
    node_index,
)
from .netlist import Circuit


@dataclass(frozen=True)
class SParameters:
    """S-matrix of a two-port at one frequency."""

    frequency_hz: float
    s11: complex
    s12: complex
    s21: complex
    s22: complex

    @property
    def insertion_loss_db(self) -> float:
        """``-20 log10 |S21|``; positive numbers mean loss."""
        magnitude = abs(self.s21)
        if magnitude == 0.0:
            return math.inf
        return -20.0 * math.log10(magnitude)

    @property
    def return_loss_db(self) -> float:
        """``-20 log10 |S11|`` at the input port."""
        magnitude = abs(self.s11)
        if magnitude == 0.0:
            return math.inf
        return -20.0 * math.log10(magnitude)

    @property
    def is_passive(self) -> bool:
        """True if no scattering entry exceeds unity (within tolerance)."""
        tolerance = 1.0 + 1e-9
        return all(
            abs(s) <= tolerance
            for s in (self.s11, self.s12, self.s21, self.s22)
        )


def _check_two_ports(circuit: Circuit) -> tuple:
    """Validate the two-port contract; return (port1, port2, index)."""
    if len(circuit.ports) != 2:
        raise CircuitError(
            f"two-port extraction needs exactly 2 ports, circuit "
            f"{circuit.name!r} has {len(circuit.ports)}"
        )
    port1, port2 = circuit.ports
    index = node_index(circuit)
    for port in (port1, port2):
        if port.node not in index:
            raise CircuitError(
                f"port {port.name!r} node {port.node!r} not in circuit"
            )
    return port1, port2, index


def two_port_sparameters(
    circuit: Circuit, frequency_hz: float
) -> SParameters:
    """Compute the S-parameters of a circuit with exactly two ports.

    Uses the terminated-excitation method, which (unlike the open-circuit
    Z-parameter route) exists for every linear passive network, including
    series-only two-ports: both port reference admittances ``1/Z0`` are
    stamped into the node matrix, port ``k`` is driven by the Norton
    equivalent of a ``2 sqrt(Z0k)`` source behind ``Z0k``, giving unit
    incident wave ``a_k = 1``; then ``S_jk = V_j / sqrt(Z0j)`` for
    ``j != k`` and ``S_kk = V_k / sqrt(Z0k) - 1``.
    """
    port1, port2, index = _check_two_ports(circuit)
    omega = 2.0 * math.pi * frequency_hz
    matrix = node_admittance_matrix(circuit, omega, index)

    rows = [index[port1.node], index[port2.node]]
    z0 = np.array([port1.impedance, port2.impedance], dtype=float)
    sqrt_z0 = np.sqrt(z0)

    # Terminate both ports with their reference admittances.
    for row, impedance in zip(rows, z0):
        matrix[row, row] += 1.0 / impedance

    # One excitation per port: Norton current 2 / sqrt(Z0k) at node k
    # gives a unit incident wave at port k.
    rhs = np.zeros((len(index), 2), dtype=complex)
    rhs[rows[0], 0] = 2.0 / sqrt_z0[0]
    rhs[rows[1], 1] = 2.0 / sqrt_z0[1]
    try:
        solution = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise CircuitError(
            f"singular admittance matrix at {frequency_hz:g} Hz in "
            f"{circuit.name!r}"
        ) from exc

    port_voltages = solution[rows, :]  # V[j, k]: node j, excitation k
    s = port_voltages / sqrt_z0[:, None]
    s[0, 0] -= 1.0
    s[1, 1] -= 1.0
    return SParameters(
        frequency_hz=frequency_hz,
        s11=complex(s[0, 0]),
        s12=complex(s[0, 1]),
        s21=complex(s[1, 0]),
        s22=complex(s[1, 1]),
    )


def _loss_db(magnitudes: np.ndarray) -> np.ndarray:
    """Vectorised ``-20 log10 |s|`` with ``inf`` at exact zeros."""
    result = np.full(magnitudes.shape, math.inf)
    nonzero = magnitudes > 0.0
    result[nonzero] = -20.0 * np.log10(magnitudes[nonzero])
    return result


@dataclass
class SweepResult:
    """S-parameters over a frequency grid.

    The batched engine fills ``s_matrices`` (shape ``(F, 2, 2)``); the
    dB views then evaluate vectorised.  ``points`` is materialised
    lazily for callers that want per-point :class:`SParameters` objects.
    """

    frequencies_hz: np.ndarray
    s_matrices: Optional[np.ndarray] = None
    _points: Optional[list[SParameters]] = field(default=None, repr=False)

    @classmethod
    def from_points(cls, frequencies_hz, points) -> "SweepResult":
        """Build from per-point S-parameters (the pointwise path)."""
        matrices = np.array(
            [[[p.s11, p.s12], [p.s21, p.s22]] for p in points],
            dtype=complex,
        ).reshape(-1, 2, 2)
        result = cls(
            frequencies_hz=np.asarray(frequencies_hz, dtype=float),
            s_matrices=matrices,
        )
        result._points = list(points)
        return result

    @property
    def points(self) -> list[SParameters]:
        """Per-point S-parameter objects (materialised on first use)."""
        if self._points is None:
            s = self._require_matrices()
            self._points = [
                SParameters(
                    frequency_hz=float(f),
                    s11=complex(m[0, 0]),
                    s12=complex(m[0, 1]),
                    s21=complex(m[1, 0]),
                    s22=complex(m[1, 1]),
                )
                for f, m in zip(self.frequencies_hz, s)
            ]
        return self._points

    def _require_matrices(self) -> np.ndarray:
        if self.s_matrices is None:
            raise CircuitError("empty sweep")
        return self.s_matrices

    @property
    def s21(self) -> np.ndarray:
        """Complex ``S21`` at every sweep point."""
        return self._require_matrices()[:, 1, 0]

    @property
    def s11(self) -> np.ndarray:
        """Complex ``S11`` at every sweep point."""
        return self._require_matrices()[:, 0, 0]

    @property
    def insertion_loss_db(self) -> np.ndarray:
        """Insertion loss in dB at every sweep point (vectorised)."""
        return _loss_db(np.abs(self.s21))

    @property
    def return_loss_db(self) -> np.ndarray:
        """Return loss in dB at every sweep point (vectorised)."""
        return _loss_db(np.abs(self.s11))

    def at(self, frequency_hz: float) -> SParameters:
        """The sweep point nearest to ``frequency_hz``."""
        if len(self.frequencies_hz) == 0 or self.s_matrices is None:
            raise CircuitError("empty sweep")
        i = int(np.argmin(np.abs(self.frequencies_hz - frequency_hz)))
        return self.points[i]

    def min_insertion_loss_db(self) -> float:
        """Lowest insertion loss across the sweep (the passband floor)."""
        return float(np.min(self.insertion_loss_db))


def _validate_grid(frequencies_hz) -> np.ndarray:
    """Coerce an explicit grid to a 1-D array of positive frequencies.

    The single validation gate of every sweep entry point — batched
    and pointwise alike — so the error contract cannot drift
    between the engine and its reference implementation.
    """
    grid = np.asarray(frequencies_hz, dtype=float)
    if grid.ndim == 0:
        grid = grid[None]
    if grid.size == 0:
        raise CircuitError("sweep needs at least one frequency")
    if np.any(grid <= 0):
        raise CircuitError(
            f"sweep frequencies must be positive, got {grid.min()}"
        )
    return grid


def sweep_grid(
    circuit: Circuit,
    frequencies_hz,
    plan: Optional[StampPlan] = None,
) -> SweepResult:
    """Batched two-port S-parameters over an explicit frequency grid.

    The whole grid is stamped as one ``(F, n, n)`` tensor and solved for
    both port excitations with a single batched ``numpy.linalg.solve``
    call — the hot path of every filter assessment.
    """
    port1, port2, index = _check_two_ports(circuit)
    grid = _validate_grid(frequencies_hz)
    if plan is None:
        plan = StampPlan(circuit, index)
    matrices = plan.matrices(2.0 * math.pi * grid)

    rows = [index[port1.node], index[port2.node]]
    z0 = np.array([port1.impedance, port2.impedance], dtype=float)
    sqrt_z0 = np.sqrt(z0)

    # Terminate both ports (loop handles ports sharing a node correctly).
    for row, impedance in zip(rows, z0):
        matrices[:, row, row] += 1.0 / impedance

    rhs = np.zeros((len(index), 2), dtype=complex)
    rhs[rows[0], 0] = 2.0 / sqrt_z0[0]
    rhs[rows[1], 1] = 2.0 / sqrt_z0[1]
    try:
        solution = batch_solve_nodal(matrices, rhs)
    except CircuitError as exc:
        raise CircuitError(
            f"singular admittance matrix in sweep of {circuit.name!r}"
        ) from exc

    s = solution[:, rows, :] / sqrt_z0[None, :, None]
    s[:, 0, 0] -= 1.0
    s[:, 1, 1] -= 1.0
    return SweepResult(frequencies_hz=grid, s_matrices=s)


def _sweep_frequencies(
    start_hz: float, stop_hz: float, points: int, log_spacing: bool
) -> np.ndarray:
    if start_hz <= 0 or stop_hz <= start_hz:
        raise CircuitError(
            f"need 0 < start < stop, got [{start_hz}, {stop_hz}]"
        )
    if points < 2:
        raise CircuitError(f"need at least 2 sweep points, got {points}")
    if log_spacing:
        return np.geomspace(start_hz, stop_hz, points)
    return np.linspace(start_hz, stop_hz, points)


def sweep(
    circuit: Circuit,
    start_hz: float,
    stop_hz: float,
    points: int = 201,
    log_spacing: bool = False,
) -> SweepResult:
    """Sweep the two-port S-parameters over ``[start_hz, stop_hz]``.

    Evaluates the whole grid through the batched engine; see
    :func:`sweep_pointwise` for the per-frequency reference loop.
    """
    grid = _sweep_frequencies(start_hz, stop_hz, points, log_spacing)
    return sweep_grid(circuit, grid)


def sweep_pointwise(
    circuit: Circuit,
    start_hz: float,
    stop_hz: float,
    points: int = 201,
    log_spacing: bool = False,
) -> SweepResult:
    """Per-frequency REFERENCE sweep (one stamp + solve per point).

    This is the reference implementation the batched engine is
    measured against — keep it a plain per-frequency loop.  As a
    drift guard it builds and validates its grid through the *same*
    helpers as the batched path (:func:`_sweep_frequencies` /
    :func:`_validate_grid`), so the two paths can never disagree on
    which grids are legal, only on how fast they evaluate them.  The
    property tests assert the batched path agrees with this one to
    1e-12, and ``benchmarks/test_sweep_speed.py`` measures the speedup.
    """
    grid = _validate_grid(
        _sweep_frequencies(start_hz, stop_hz, points, log_spacing)
    )
    results = [two_port_sparameters(circuit, f) for f in grid]
    return SweepResult.from_points(grid, results)


def measure_insertion_loss(
    circuit: Circuit, frequency_hz: float
) -> float:
    """Insertion loss in dB of a two-port circuit at one frequency."""
    return two_port_sparameters(circuit, frequency_hz).insertion_loss_db


def measure_insertion_loss_many(
    circuit: Circuit, frequencies_hz
) -> np.ndarray:
    """Insertion loss in dB at every frequency of a grid (batched)."""
    return sweep_grid(circuit, frequencies_hz).insertion_loss_db


def measure_rejection(
    circuit: Circuit,
    passband_hz: float,
    stopband_hz: float,
) -> float:
    """Stopband rejection relative to the passband, in dB.

    Defined as ``IL(stopband) - IL(passband)``; a large positive number
    means the stopband is well suppressed.  Both points are evaluated in
    one batched solve.
    """
    losses = measure_insertion_loss_many(
        circuit, [passband_hz, stopband_hz]
    )
    return float(losses[1] - losses[0])


def input_impedance(circuit: Circuit, frequency_hz: float) -> complex:
    """Impedance looking into port 1 with port 2 terminated in its Z0."""
    if len(circuit.ports) != 2:
        raise CircuitError("input_impedance needs a two-port circuit")
    port1, port2 = circuit.ports
    terminated = _with_termination(circuit, port2.node, port2.impedance)
    analysis = AcAnalysis(terminated)
    return analysis.driving_point_impedance(port1.node, frequency_hz)


def _with_termination(
    circuit: Circuit, node: str, impedance: float
) -> Circuit:
    """Copy a circuit with a resistor from ``node`` to ground added."""
    copy = Circuit(name=circuit.name + "+term")
    for element in circuit.elements:
        copy.elements.append(element)
    copy.ports = list(circuit.ports)
    copy.resistor(f"__term_{node}", node, "0", impedance)
    return copy
