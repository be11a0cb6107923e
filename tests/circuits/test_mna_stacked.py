"""Property tests: solving a stack of same-topology circuits at once.

A *family* is ``B`` structurally identical circuits (same topology,
different element values — what tolerance classes, E-series snapping and
candidate sweeps produce).  Stacking each member's ``(F, n, n)``
:func:`batch_admittance_matrix` gives a ``(B, F, n, n)`` tensor that
:func:`batch_solve_nodal` solves with one batched ``numpy.linalg.solve``;
these tests assert, over seeded random RLC families, that every member
agrees with the per-circuit :func:`node_admittance_matrix` /
:func:`solve_nodal` reference to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.elements import Capacitor, Inductor, Resistor
from repro.circuits.mna import (
    batch_admittance_matrix,
    batch_solve_nodal,
    node_admittance_matrix,
    node_index,
    solve_nodal,
)
from repro.circuits.netlist import Circuit

from test_mna_batch import random_frequencies, random_rlc_circuit

RTOL = 1e-12


def perturbed_copy(circuit: Circuit, seed: int, tag: int) -> Circuit:
    """A same-topology copy with every element value re-drawn nearby.

    Node and element names are preserved; only the R/L/C values (and
    loss terms) change — the exact shape of a tolerance-class or
    E-series family member.
    """
    rng = np.random.default_rng(seed * 1000 + tag)

    def scale() -> float:
        return float(rng.uniform(0.5, 2.0))

    copy = Circuit(f"{circuit.name}-member{tag}")
    for element in circuit.elements:
        if isinstance(element, Resistor):
            member = replace(element, resistance=element.resistance * scale())
        elif isinstance(element, Capacitor):
            member = replace(
                element,
                capacitance=element.capacitance * scale(),
                tan_delta=element.tan_delta * scale(),
                esr=element.esr * scale(),
            )
        elif isinstance(element, Inductor):
            member = replace(
                element,
                inductance=element.inductance * scale(),
                series_resistance=element.series_resistance * scale(),
                c_par=element.c_par * scale(),
            )
        else:  # pragma: no cover - only R/L/C exist today
            member = element
        copy.elements.append(member)
    copy.ports = list(circuit.ports)
    return copy


def random_family(seed: int, n_nodes: int, members: int) -> list[Circuit]:
    """A random same-topology RLC family of ``members`` circuits."""
    base = random_rlc_circuit(seed, n_nodes)
    return [base] + [
        perturbed_copy(base, seed, tag) for tag in range(1, members)
    ]


def family_matrices(family: list[Circuit], omegas: np.ndarray) -> np.ndarray:
    """The ``(B, F, n, n)`` stack of the members' batched matrices."""
    index = node_index(family[0])
    return np.stack(
        [batch_admittance_matrix(c, omegas, index) for c in family]
    )


family_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=6),
)


class TestStackedSolve:
    @settings(max_examples=40, deadline=None)
    @given(family_params)
    def test_stacked_solve_matches_scalar_solve(self, params):
        """The acceptance property: B stacked solves == B scalar solves."""
        seed, n_nodes, members = params
        family = random_family(seed, n_nodes, members)
        index = node_index(family[0])
        omegas = 2.0 * math.pi * random_frequencies(seed, count=5)
        rng = np.random.default_rng(seed + 3)
        rhs = rng.normal(size=len(index)) + 1j * rng.normal(
            size=len(index)
        )

        stacked = batch_solve_nodal(family_matrices(family, omegas), rhs)
        assert stacked.shape == (members, omegas.size, len(index))
        for b, circuit in enumerate(family):
            for k, omega in enumerate(omegas):
                scalar = solve_nodal(
                    node_admittance_matrix(circuit, float(omega), index),
                    rhs,
                )
                np.testing.assert_allclose(
                    stacked[b, k], scalar, rtol=RTOL
                )

    def test_stacked_solve_accepts_per_member_rhs(self):
        family = random_family(7, 4, 3)
        omegas = 2.0 * math.pi * random_frequencies(7, count=4)
        matrices = family_matrices(family, omegas)
        n = matrices.shape[-1]
        rng = np.random.default_rng(99)
        rhs = rng.normal(size=(3, 1, n, 2)) + 0j
        full = np.broadcast_to(rhs, matrices.shape[:2] + (n, 2))
        solution = batch_solve_nodal(matrices, full)
        assert solution.shape == (3, omegas.size, n, 2)
        for b in range(3):
            member = batch_solve_nodal(matrices[b], rhs[b, 0])
            np.testing.assert_array_equal(solution[b], member)
