"""Property tests: the batched MNA engine against the scalar reference.

Seeded random RLC networks of varying node count and topology are
stamped and solved both ways; the batched ``(F, n, n)`` path must agree
with the per-frequency :func:`node_admittance_matrix` /
:func:`solve_nodal` reference to 1e-12 relative tolerance, and must
reproduce the scalar error contract (``omega <= 0`` raises
:class:`~repro.errors.CircuitError`).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.mna import (
    AcAnalysis,
    StampPlan,
    batch_admittance_matrix,
    batch_solve_nodal,
    node_admittance_matrix,
    node_index,
    solve_nodal,
)
from repro.circuits.netlist import Circuit
from repro.circuits.twoport import (
    sweep,
    sweep_grid,
    sweep_pointwise,
    two_port_sparameters,
)
from repro.errors import CircuitError

RTOL = 1e-12


def random_rlc_circuit(seed: int, n_nodes: int) -> Circuit:
    """A random connected RLC network with a guaranteed ground path.

    A spanning chain ``n0 - n1 - ... - ground`` keeps the admittance
    matrix non-singular; extra elements between random node pairs vary
    the topology.
    """
    rng = np.random.default_rng(seed)
    nodes = [f"n{i}" for i in range(n_nodes)]
    circuit = Circuit(f"random-{seed}-{n_nodes}")

    def add_element(name: str, node_a: str, node_b: str) -> None:
        kind = rng.integers(0, 3)
        if kind == 0:
            circuit.resistor(name, node_a, node_b, float(rng.uniform(1, 1e4)))
        elif kind == 1:
            circuit.capacitor(
                name,
                node_a,
                node_b,
                float(rng.uniform(1e-13, 1e-9)),
                tan_delta=float(rng.uniform(0, 0.05)),
                esr=float(rng.uniform(0, 2.0)),
            )
        else:
            circuit.inductor(
                name,
                node_a,
                node_b,
                float(rng.uniform(1e-9, 1e-6)),
                series_resistance=float(rng.uniform(0, 5.0)),
                c_par=float(rng.uniform(0, 1e-12)),
            )

    chain = nodes + ["0"]
    for i in range(len(chain) - 1):
        add_element(f"E{i}", chain[i], chain[i + 1])
    extra = int(rng.integers(0, 2 * n_nodes))
    all_nodes = nodes + ["0"]
    added = 0
    for j in range(10 * extra + 10):
        if added >= extra:
            break
        a, b = rng.choice(len(all_nodes), size=2, replace=False)
        add_element(f"X{j}", all_nodes[a], all_nodes[b])
        added += 1
    return circuit


def random_frequencies(seed: int, count: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    return np.sort(rng.uniform(1e5, 5e9, size=count))


network_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=7),
)


class TestBatchedStamping:
    @settings(max_examples=60, deadline=None)
    @given(network_params)
    def test_matches_scalar_stamping(self, params):
        seed, n_nodes = params
        circuit = random_rlc_circuit(seed, n_nodes)
        index = node_index(circuit)
        frequencies = random_frequencies(seed)
        omegas = 2.0 * math.pi * frequencies
        batched = batch_admittance_matrix(circuit, omegas, index)
        for k, omega in enumerate(omegas):
            scalar = node_admittance_matrix(circuit, float(omega), index)
            np.testing.assert_allclose(
                batched[k], scalar, rtol=RTOL, atol=1e-300
            )

    @settings(max_examples=40, deadline=None)
    @given(network_params)
    def test_batch_solve_matches_scalar_solve(self, params):
        seed, n_nodes = params
        circuit = random_rlc_circuit(seed, n_nodes)
        index = node_index(circuit)
        omegas = 2.0 * math.pi * random_frequencies(seed)
        rng = np.random.default_rng(seed + 2)
        rhs = rng.normal(size=len(index)) + 1j * rng.normal(size=len(index))

        batched = batch_solve_nodal(
            batch_admittance_matrix(circuit, omegas, index), rhs
        )
        for k, omega in enumerate(omegas):
            scalar = solve_nodal(
                node_admittance_matrix(circuit, float(omega), index), rhs
            )
            np.testing.assert_allclose(batched[k], scalar, rtol=RTOL)

    def test_plan_reuse_is_consistent(self):
        circuit = random_rlc_circuit(7, 5)
        plan = StampPlan(circuit)
        omegas = 2.0 * math.pi * random_frequencies(7)
        first = batch_admittance_matrix(circuit, omegas, plan=plan)
        second = batch_admittance_matrix(circuit, omegas, plan=plan)
        np.testing.assert_array_equal(first, second)


class TestOmegaValidation:
    """The batched path must keep the scalar ``omega <= 0`` contract."""

    def test_zero_omega_rejected(self):
        circuit = random_rlc_circuit(0, 3)
        with pytest.raises(CircuitError):
            batch_admittance_matrix(circuit, np.array([1e6, 0.0, 1e7]))

    def test_negative_omega_rejected(self):
        circuit = random_rlc_circuit(1, 3)
        with pytest.raises(CircuitError):
            batch_admittance_matrix(circuit, np.array([-1e6]))

    def test_empty_grid_rejected(self):
        circuit = random_rlc_circuit(2, 3)
        with pytest.raises(CircuitError):
            batch_admittance_matrix(circuit, np.array([]))

    def test_element_admittances_reject_nonpositive(self):
        circuit = random_rlc_circuit(3, 3)
        for element in circuit.elements:
            with pytest.raises(CircuitError):
                element.admittances(np.array([0.0]))

    def test_singular_batch_raises_circuit_error(self):
        floating = Circuit("floating")
        floating.resistor("R1", "a", "b", 100.0)
        floating.resistor("R2", "c", "0", 100.0)
        omegas = np.array([2.0 * math.pi * 1e6])
        matrices = batch_admittance_matrix(floating, omegas)
        rhs = np.zeros(3, dtype=complex)
        rhs[0] = 1.0
        with pytest.raises(CircuitError):
            batch_solve_nodal(matrices, rhs)

    def test_singular_stack_raises_circuit_error(self):
        floating = Circuit("floating")
        floating.resistor("R1", "a", "b", 100.0)
        floating.resistor("R2", "c", "0", 100.0)
        omegas = np.array([2.0 * math.pi * 1e6])
        matrices = np.stack([batch_admittance_matrix(floating, omegas)] * 2)
        rhs = np.zeros(3, dtype=complex)
        rhs[0] = 1.0
        with pytest.raises(CircuitError):
            batch_solve_nodal(matrices, rhs)


class TestAcAnalysisSweeps:
    @settings(max_examples=25, deadline=None)
    @given(network_params)
    def test_driving_point_sweep_matches_scalar(self, params):
        seed, n_nodes = params
        circuit = random_rlc_circuit(seed, n_nodes)
        analysis = AcAnalysis(circuit)
        node = circuit.nodes()[0]
        frequencies = random_frequencies(seed, count=5)
        batched = analysis.driving_point_impedance_sweep(node, frequencies)
        scalar = np.array(
            [
                analysis.driving_point_impedance(node, float(f))
                for f in frequencies
            ]
        )
        np.testing.assert_allclose(batched, scalar, rtol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(network_params)
    def test_transfer_sweep_matches_scalar(self, params):
        seed, n_nodes = params
        circuit = random_rlc_circuit(seed, n_nodes)
        analysis = AcAnalysis(circuit)
        nodes = circuit.nodes()
        src, dst = nodes[0], nodes[-1]
        frequencies = random_frequencies(seed, count=5)
        batched = analysis.transfer_impedance_sweep(src, dst, frequencies)
        scalar = np.array(
            [
                analysis.transfer_impedance(src, dst, float(f))
                for f in frequencies
            ]
        )
        np.testing.assert_allclose(batched, scalar, rtol=1e-9)

    def test_voltage_sweep_matches_scalar(self):
        circuit = random_rlc_circuit(11, 4)
        analysis = AcAnalysis(circuit)
        node = circuit.nodes()[0]
        frequencies = random_frequencies(11, count=4)
        batched = analysis.voltages_for_injection_sweep(node, frequencies)
        for k, f in enumerate(frequencies):
            scalar = analysis.voltages_for_injection(node, float(f))
            for name, value in scalar.items():
                assert batched[name][k] == pytest.approx(value, rel=RTOL)

    def test_unknown_node_raises(self):
        analysis = AcAnalysis(random_rlc_circuit(5, 3))
        with pytest.raises(CircuitError):
            analysis.driving_point_impedance_sweep("nope", [1e6])
        with pytest.raises(CircuitError):
            analysis.transfer_impedance_sweep("n0", "nope", [1e6])


def random_two_port(seed: int, n_nodes: int) -> Circuit:
    """A random RLC two-port: the chain from ``in`` to ``out``."""
    circuit = random_rlc_circuit(seed, n_nodes)
    nodes = circuit.nodes()
    circuit.port("p1", nodes[0], 50.0)
    circuit.port("p2", nodes[-1], 50.0)
    return circuit


class TestBatchedTwoPort:
    @settings(max_examples=40, deadline=None)
    @given(network_params)
    def test_sweep_grid_matches_pointwise(self, params):
        seed, n_nodes = params
        circuit = random_two_port(seed, n_nodes)
        frequencies = random_frequencies(seed, count=9)
        batched = sweep_grid(circuit, frequencies)
        for k, f in enumerate(frequencies):
            scalar = two_port_sparameters(circuit, float(f))
            np.testing.assert_allclose(
                batched.s_matrices[k],
                [[scalar.s11, scalar.s12], [scalar.s21, scalar.s22]],
                rtol=RTOL,
                atol=1e-300,
            )

    def test_sweep_matches_sweep_pointwise(self):
        circuit = random_two_port(42, 6)
        batched = sweep(circuit, 1e7, 1e9, points=101)
        loop = sweep_pointwise(circuit, 1e7, 1e9, points=101)
        np.testing.assert_allclose(
            batched.s_matrices, loop.s_matrices, rtol=RTOL, atol=1e-300
        )
        np.testing.assert_allclose(
            batched.insertion_loss_db, loop.insertion_loss_db, rtol=1e-9
        )

    def test_sweep_grid_rejects_nonpositive_frequency(self):
        circuit = random_two_port(3, 3)
        with pytest.raises(CircuitError):
            sweep_grid(circuit, [1e6, -1e6])
        with pytest.raises(CircuitError):
            sweep_grid(circuit, [])
