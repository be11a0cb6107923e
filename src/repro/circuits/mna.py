"""Nodal-admittance AC analysis (scalar and batched over frequency).

For a passive RLC network every element is a two-terminal admittance, so
classic nodal analysis suffices (no auxiliary current variables are
needed): at each angular frequency the node admittance matrix ``Y`` is
stamped and ``Y v = i`` solved for the node voltages.

The engine is *vectorised over frequency*: a sweep stamps the whole
``(F, n, n)`` admittance tensor in one shot and solves it with a single
batched ``numpy.linalg.solve`` call.  The per-circuit stamping structure
(which matrix entries each element touches, with which sign) is
precomputed once as a dense scatter operator by :class:`StampPlan`, so a
sweep costs one vectorised admittance evaluation per *element* plus one
LAPACK batch — no per-frequency Python work.  Only the structure is
cached; admittances are re-evaluated per call, so frequency-dependent
elements (dispersive Q models) stay correct under plan reuse — see the
caching invariants on :class:`StampPlan`.

The solver exposes three views:

* :func:`node_admittance_matrix` / :func:`solve_nodal` — scalar access
  for tests and extensions (the pre-vectorisation reference semantics);
* :func:`batch_admittance_matrix` / :func:`batch_solve_nodal` — the
  batched engine, one ``(F, n, n)`` tensor over a frequency grid;
* :class:`AcAnalysis` — a frequency sweep bound to a circuit, caching
  the node index and the stamp plan, exposing scalar *and* batched
  impedance/transfer helpers used by the two-port extractor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CircuitError
from .elements import GROUND, _validate_omegas
from .netlist import Circuit


def node_index(circuit: Circuit) -> dict[str, int]:
    """Map non-ground node names to matrix row indices."""
    return {node: i for i, node in enumerate(circuit.nodes())}


class StampPlan:
    """Precomputed stamping structure of one circuit.

    For each element the plan records which rows/columns of the node
    matrix it touches (resolved once from the node index), so a whole
    frequency grid is stamped with one vectorised admittance evaluation
    per element and four fancy-indexed adds — no per-frequency Python
    work.  Elements are accumulated in netlist order, exactly like the
    scalar :func:`node_admittance_matrix` loop, so the batched tensor is
    bit-compatible with the scalar reference (the property suite asserts
    agreement to 1e-12 *after* the solve, where conditioning amplifies
    any stamping difference).

    Caching invariants
    ------------------
    The plan caches **structure only** — the element-to-matrix-row
    scatter pattern — which depends on nothing but the netlist
    topology, so a plan can be built once per circuit and reused for
    every grid:

    * no admittance value is ever cached: :meth:`matrices` calls every
      element's vectorised ``admittances`` afresh on each invocation,
      which is what makes frequency-dependent elements
      (:class:`~repro.circuits.elements.DispersiveInductor` /
      :class:`~repro.circuits.elements.DispersiveCapacitor`, whose
      loss follows a ``Q(f)`` technology model) re-evaluate their
      per-frequency loss on every sweep rather than reusing a value
      frozen at plan-build time;
    * no frequency grid is baked in: the same plan serves every
      ``omegas`` array, scalar queries and batched sweeps alike;
    * element *values* are read at stamp time from the circuit object.

    Consequently a cached plan can only go stale if the circuit's
    *topology* is mutated after construction — the one thing the
    codebase never does (circuits are built once, then analysed).
    """

    def __init__(
        self, circuit: Circuit, index: dict[str, int] | None = None
    ) -> None:
        if index is None:
            index = node_index(circuit)
        self.circuit = circuit
        self.index = index
        self.n = len(index)
        self._stamps: list[tuple[int, int | None, int | None]] = [
            (j, index.get(element.node_a), index.get(element.node_b))
            for j, element in enumerate(circuit.elements)
        ]

    def element_admittances(self, omegas: np.ndarray) -> np.ndarray:
        """``(F, E)`` complex admittance of every element at every omega."""
        array = _validate_omegas(omegas)
        values = np.empty(
            (array.size, len(self.circuit.elements)), dtype=complex
        )
        for j, element in enumerate(self.circuit.elements):
            values[:, j] = element.admittances(array)
        return values

    def matrices(self, omegas: np.ndarray) -> np.ndarray:
        """Stamp the ``(F, n, n)`` admittance tensor over ``omegas``."""
        admittances = self.element_admittances(omegas)
        tensor = np.zeros(
            (admittances.shape[0], self.n, self.n), dtype=complex
        )
        for j, a, b in self._stamps:
            y = admittances[:, j]
            if a is not None:
                tensor[:, a, a] += y
            if b is not None:
                tensor[:, b, b] += y
            if a is not None and b is not None:
                tensor[:, a, b] -= y
                tensor[:, b, a] -= y
        return tensor


def node_admittance_matrix(
    circuit: Circuit, omega: float, index: dict[str, int] | None = None
) -> np.ndarray:
    """Stamp the complex node admittance matrix at ``omega`` rad/s.

    Ground is eliminated; the matrix is ``n x n`` for ``n`` non-ground
    nodes.  Each element of admittance ``y`` between nodes ``a`` and ``b``
    stamps ``+y`` on the diagonals and ``-y`` on the off-diagonals.

    This is the scalar reference path; it stamps element by element in
    Python and is what the batched engine is property-tested against.
    """
    if omega <= 0:
        raise CircuitError(f"AC analysis requires omega > 0, got {omega}")
    if index is None:
        index = node_index(circuit)
    n = len(index)
    matrix = np.zeros((n, n), dtype=complex)
    for element in circuit.elements:
        y = element.admittance(omega)
        a = index.get(element.node_a)
        b = index.get(element.node_b)
        if a is not None:
            matrix[a, a] += y
        if b is not None:
            matrix[b, b] += y
        if a is not None and b is not None:
            matrix[a, b] -= y
            matrix[b, a] -= y
    return matrix


def batch_admittance_matrix(
    circuit: Circuit,
    omegas: np.ndarray,
    index: dict[str, int] | None = None,
    plan: StampPlan | None = None,
) -> np.ndarray:
    """Stamp the ``(F, n, n)`` admittance tensor over a frequency grid.

    Equivalent to stacking :func:`node_admittance_matrix` at each omega,
    but with all per-frequency work vectorised.  Raises
    :class:`~repro.errors.CircuitError` if any omega is non-positive
    (same contract as the scalar path).
    """
    if plan is None:
        plan = StampPlan(circuit, index)
    return plan.matrices(omegas)


def solve_nodal(
    matrix: np.ndarray, currents: np.ndarray
) -> np.ndarray:
    """Solve ``Y v = i`` for the node voltages.

    Raises
    ------
    CircuitError
        If the admittance matrix is singular (floating subcircuit).
    """
    try:
        return np.linalg.solve(matrix, currents)
    except np.linalg.LinAlgError as exc:
        raise CircuitError(
            "singular node admittance matrix — the circuit has a floating "
            "subcircuit or a node with no path to ground"
        ) from exc


def batch_solve_nodal(
    matrices: np.ndarray, currents: np.ndarray
) -> np.ndarray:
    """Solve the batched system ``Y[f] v[f] = i[f]`` in one LAPACK call.

    Parameters
    ----------
    matrices:
        ``(F, n, n)`` admittance tensor, or any higher-rank stack such as
        a ``(B, F, n, n)`` tensor.
    currents:
        Right-hand sides: ``(n,)`` or ``(n, k)`` for an excitation shared
        by the whole stack, or a full ``(..., n, k)`` array matching the
        batch dimensions for per-matrix excitations.

    Returns
    -------
    np.ndarray
        ``(..., n, k)`` node voltages (``k = 1`` column squeezed only if
        the caller passed a 1-D right-hand side, mirroring
        ``numpy.linalg.solve``'s broadcasting).
    """
    rhs = np.asarray(currents)
    squeeze = False
    if rhs.ndim == 1:
        rhs = rhs[:, None]
        squeeze = True
    if rhs.ndim == 2:
        rhs = np.broadcast_to(
            rhs, matrices.shape[:-2] + rhs.shape
        )
    try:
        solution = np.linalg.solve(matrices, rhs)
    except np.linalg.LinAlgError as exc:
        raise CircuitError(
            "singular node admittance matrix — the circuit has a floating "
            "subcircuit or a node with no path to ground"
        ) from exc
    if squeeze:
        return solution[..., 0]
    return solution


def _omegas_from_hz(frequencies_hz) -> np.ndarray:
    """Hertz grid to validated angular-frequency array."""
    grid = np.asarray(frequencies_hz, dtype=float)
    if grid.ndim == 0:
        grid = grid[None]
    return _validate_omegas(2.0 * math.pi * grid)


@dataclass
class AcAnalysis:
    """AC analysis bound to one circuit.

    The node index and the stamping plan are computed once; scalar
    queries stamp and solve at the requested frequency, batched queries
    (the ``*_sweep`` methods) evaluate a whole grid with one stamped
    tensor and one batched solve.  All public methods accept frequencies
    in hertz.
    """

    circuit: Circuit

    def __post_init__(self) -> None:
        self.circuit.validate()
        self._index = node_index(self.circuit)
        if not self._index:
            raise CircuitError("circuit has no non-ground nodes")
        self._plan = StampPlan(self.circuit, self._index)

    @property
    def index(self) -> dict[str, int]:
        """Node-name to row-index mapping (read-only view)."""
        return dict(self._index)

    @property
    def plan(self) -> StampPlan:
        """The cached stamping plan (shared with the two-port extractor)."""
        return self._plan

    def admittance_matrix(self, frequency_hz: float) -> np.ndarray:
        """Node admittance matrix at ``frequency_hz``."""
        omega = 2.0 * math.pi * frequency_hz
        return node_admittance_matrix(self.circuit, omega, self._index)

    def admittance_matrices(self, frequencies_hz) -> np.ndarray:
        """Batched ``(F, n, n)`` admittance tensor over a hertz grid."""
        return self._plan.matrices(_omegas_from_hz(frequencies_hz))

    def impedance_matrix(self, frequency_hz: float) -> np.ndarray:
        """Full node impedance matrix ``Y^-1`` at ``frequency_hz``."""
        matrix = self.admittance_matrix(frequency_hz)
        try:
            return np.linalg.inv(matrix)
        except np.linalg.LinAlgError as exc:
            raise CircuitError(
                "singular node admittance matrix at "
                f"{frequency_hz:g} Hz"
            ) from exc

    def driving_point_impedance(
        self, node: str, frequency_hz: float
    ) -> complex:
        """Impedance seen looking into ``node`` against ground."""
        if node not in self._index:
            raise CircuitError(f"unknown node {node!r}")
        z = self.impedance_matrix(frequency_hz)
        i = self._index[node]
        return complex(z[i, i])

    def driving_point_impedance_sweep(
        self, node: str, frequencies_hz
    ) -> np.ndarray:
        """Driving-point impedance at ``node`` over a hertz grid."""
        if node not in self._index:
            raise CircuitError(f"unknown node {node!r}")
        i = self._index[node]
        matrices = self.admittance_matrices(frequencies_hz)
        rhs = np.zeros(len(self._index), dtype=complex)
        rhs[i] = 1.0
        voltages = batch_solve_nodal(matrices, rhs)
        return voltages[:, i]

    def transfer_impedance(
        self, from_node: str, to_node: str, frequency_hz: float
    ) -> complex:
        """Voltage at ``to_node`` per unit current injected at ``from_node``."""
        for node in (from_node, to_node):
            if node not in self._index:
                raise CircuitError(f"unknown node {node!r}")
        z = self.impedance_matrix(frequency_hz)
        return complex(z[self._index[to_node], self._index[from_node]])

    def transfer_impedance_sweep(
        self, from_node: str, to_node: str, frequencies_hz
    ) -> np.ndarray:
        """Transfer impedance over a hertz grid (batched solve)."""
        for node in (from_node, to_node):
            if node not in self._index:
                raise CircuitError(f"unknown node {node!r}")
        matrices = self.admittance_matrices(frequencies_hz)
        rhs = np.zeros(len(self._index), dtype=complex)
        rhs[self._index[from_node]] = 1.0
        voltages = batch_solve_nodal(matrices, rhs)
        return voltages[:, self._index[to_node]]

    def voltages_for_injection(
        self, node: str, frequency_hz: float, current: complex = 1.0
    ) -> dict[str, complex]:
        """Node voltages for a current injection at ``node``."""
        if node not in self._index:
            raise CircuitError(f"unknown node {node!r}")
        matrix = self.admittance_matrix(frequency_hz)
        rhs = np.zeros(len(self._index), dtype=complex)
        rhs[self._index[node]] = current
        solution = solve_nodal(matrix, rhs)
        voltages = {GROUND: 0.0 + 0.0j}
        for name, i in self._index.items():
            voltages[name] = complex(solution[i])
        return voltages

    def voltages_for_injection_sweep(
        self, node: str, frequencies_hz, current: complex = 1.0
    ) -> dict[str, np.ndarray]:
        """Node voltage arrays over a hertz grid for one injection."""
        if node not in self._index:
            raise CircuitError(f"unknown node {node!r}")
        matrices = self.admittance_matrices(frequencies_hz)
        rhs = np.zeros(len(self._index), dtype=complex)
        rhs[self._index[node]] = current
        solution = batch_solve_nodal(matrices, rhs)
        voltages: dict[str, np.ndarray] = {
            GROUND: np.zeros(matrices.shape[0], dtype=complex)
        }
        for name, i in self._index.items():
            voltages[name] = solution[:, i]
        return voltages
