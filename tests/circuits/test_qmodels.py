"""Frequency-dependent Q models and their dispersive elements.

Covers the dispersive hierarchy (skin effect, substrate loss tangent,
tabulated profiles, the dispersive wrapper), the
``DispersiveInductor`` / ``DispersiveCapacitor`` elements they are
realised as, and the constant-vs-dispersive routing of
``build_bandpass_circuit``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits.elements import (
    Capacitor,
    DispersiveCapacitor,
    DispersiveInductor,
    Inductor,
    dispersive_capacitor,
    dispersive_inductor,
)
from repro.circuits.netlist import Circuit
from repro.circuits.performance import assess_chain
from repro.circuits.qfactor import (
    DispersiveQModel,
    MEASURED_SUMMIT_TABLE,
    MixedQModel,
    Q_MODEL_SCENARIOS,
    SkinEffectQModel,
    SmdQModel,
    SubstrateLossQModel,
    SummitQModel,
    TabulatedQModel,
    capacitor_q_profile,
    inductor_q_profile,
    is_dispersive,
    process_q_model,
)
from repro.circuits.synthesis import build_bandpass_circuit, synthesize_bandpass
from repro.circuits.twoport import sweep_grid
from repro.errors import CircuitError
from repro.gps.filters_chain import if_filter_spec, technology_assignments
from repro.passives.thin_film import SUMMIT_PROCESS, with_loss

GRID = np.geomspace(50e6, 5e9, 23)

DISPERSIVE_MODELS = [
    SkinEffectQModel(),
    SubstrateLossQModel(),
    MEASURED_SUMMIT_TABLE,
    DispersiveQModel(SummitQModel()),
]


class TestModelLaws:
    def test_skin_effect_follows_sqrt_law(self):
        model = SkinEffectQModel(q0_inductor=40.0, f0_hz=1e9)
        assert model.inductor_q(10e-9, 1e9) == pytest.approx(40.0)
        assert model.inductor_q(10e-9, 4e9) == pytest.approx(80.0)
        profile = inductor_q_profile(model, 10e-9, GRID)
        np.testing.assert_allclose(
            profile, 40.0 * np.sqrt(GRID / 1e9), rtol=1e-12
        )

    def test_skin_effect_capacitor_scales_too(self):
        model = SkinEffectQModel(q0_capacitor=300.0, f0_hz=1e9)
        assert model.capacitor_q(1e-12, 0.25e9) == pytest.approx(150.0)

    def test_substrate_loss_tangent_grows_with_frequency(self):
        model = SubstrateLossQModel(
            tan_delta_ref=0.005, f_ref_hz=1e9, slope=1.0, conductor_q=40.0
        )
        assert model.capacitor_q(1e-12, 1e9) == pytest.approx(200.0)
        assert model.capacitor_q(1e-12, 2e9) == pytest.approx(100.0)
        # Inductor Q approaches the conductor limit at low frequency.
        assert model.inductor_q(1e-9, 1e6) == pytest.approx(40.0, rel=1e-3)
        assert model.inductor_q(1e-9, 1e9) < 40.0

    def test_substrate_loss_flat_when_slope_zero(self):
        model = SubstrateLossQModel(slope=0.0)
        profile = capacitor_q_profile(model, 1e-12, GRID)
        np.testing.assert_allclose(profile, profile[0])

    def test_tabulated_interpolates_and_clamps(self):
        model = TabulatedQModel(
            frequencies_hz=(1e8, 1e9),
            inductor_q_table=(10.0, 30.0),
            capacitor_q_table=(100.0, 200.0),
        )
        assert model.inductor_q(1e-9, 0.55e9) == pytest.approx(20.0)
        # Outside the table: clamped to the end values.
        assert model.inductor_q(1e-9, 1e7) == pytest.approx(10.0)
        assert model.inductor_q(1e-9, 1e10) == pytest.approx(30.0)

    def test_tabulated_validation(self):
        with pytest.raises(CircuitError):
            TabulatedQModel((1e9,), (10.0,), (100.0,))
        with pytest.raises(CircuitError):
            TabulatedQModel((1e9, 1e8), (10.0, 20.0), (1.0, 2.0))
        with pytest.raises(CircuitError):
            TabulatedQModel((1e8, 1e9), (10.0,), (1.0, 2.0))
        with pytest.raises(CircuitError):
            TabulatedQModel((1e8, 1e9), (10.0, -1.0), (1.0, 2.0))

    def test_parameter_validation(self):
        with pytest.raises(CircuitError):
            SkinEffectQModel(q0_inductor=0.0)
        with pytest.raises(CircuitError):
            SkinEffectQModel(f0_hz=-1.0)
        with pytest.raises(CircuitError):
            SubstrateLossQModel(tan_delta_ref=0.0)
        with pytest.raises(CircuitError):
            SubstrateLossQModel(slope=-1.0)
        with pytest.raises(CircuitError):
            SubstrateLossQModel(conductor_q=0.0)

    def test_nonfinite_parameters_rejected(self):
        """Regression: an infinite loss tangent would yield Q = 0,
        which the lossless-Q element convention would invert into a
        perfect component — so non-finite parameters must not get in."""
        with pytest.raises(CircuitError):
            SubstrateLossQModel(tan_delta_ref=math.inf)
        with pytest.raises(CircuitError):
            SubstrateLossQModel(tan_delta_ref=math.nan)
        with pytest.raises(CircuitError):
            SkinEffectQModel(q0_inductor=math.nan)
        with pytest.raises(CircuitError):
            SkinEffectQModel(f0_hz=math.inf)
        with pytest.raises(CircuitError):
            TabulatedQModel(
                (1e8, 1e9), (10.0, math.inf), (100.0, 200.0)
            )
        with pytest.raises(CircuitError):
            TabulatedQModel(
                (1e8, math.nan), (10.0, 20.0), (100.0, 200.0)
            )

    def test_dispersive_wrapper_delegates(self):
        wrapped = DispersiveQModel(SummitQModel())
        assert wrapped.inductor_q(40e-9, 1e9) == SummitQModel().inductor_q(
            40e-9, 1e9
        )
        np.testing.assert_array_equal(
            wrapped.inductor_q_profile(40e-9, GRID),
            inductor_q_profile(SummitQModel(), 40e-9, GRID),
        )

    def test_dispersive_flags(self):
        for model in DISPERSIVE_MODELS:
            assert is_dispersive(model)
        for model in (SummitQModel(), SmdQModel(), None):
            assert not is_dispersive(model)
        # A mixed model is dispersive exactly when a delegate is.
        assert not is_dispersive(MixedQModel())
        assert is_dispersive(
            MixedQModel(capacitor_model=SkinEffectQModel())
        )

    def test_scenario_registry_is_dispersive_and_labelled(self):
        for name, model in Q_MODEL_SCENARIOS.items():
            assert is_dispersive(model), name
            assert isinstance(model.label, str) and model.label


class TestProfileConsistency:
    """Vectorised grid evaluations vs the scalar methods."""

    @pytest.mark.parametrize("model", DISPERSIVE_MODELS)
    def test_grid_profile_matches_scalar(self, model):
        profile = inductor_q_profile(model, 40e-9, GRID)
        scalar = [model.inductor_q(40e-9, float(f)) for f in GRID]
        np.testing.assert_allclose(profile, scalar, rtol=1e-12)
        profile_c = capacitor_q_profile(model, 10e-12, GRID)
        scalar_c = [model.capacitor_q(10e-12, float(f)) for f in GRID]
        np.testing.assert_allclose(profile_c, scalar_c, rtol=1e-12)



class TestDispersiveElements:
    def test_inductor_scalar_matches_vector(self):
        element = dispersive_inductor(
            "L1", "a", "b", 10e-9, SkinEffectQModel()
        )
        omegas = 2.0 * math.pi * GRID
        vector = element.admittances(omegas)
        for omega, y in zip(omegas, vector):
            assert element.admittance(float(omega)) == complex(y)

    def test_capacitor_scalar_matches_vector(self):
        element = dispersive_capacitor(
            "C1", "a", "b", 10e-12, SubstrateLossQModel()
        )
        omegas = 2.0 * math.pi * GRID
        vector = element.admittances(omegas)
        for omega, y in zip(omegas, vector):
            assert element.admittance(float(omega)) == complex(y)

    def test_inductor_loss_tracks_model_q(self):
        model = SkinEffectQModel(q0_inductor=25.0, f0_hz=1e9)
        element = dispersive_inductor("L1", "a", "b", 10e-9, model)
        omega = 2.0 * math.pi * 1e9
        y = element.admittance(omega)
        z = 1.0 / y
        assert z.imag / z.real == pytest.approx(25.0, rel=1e-12)

    def test_capacitor_loss_tangent_tracks_model(self):
        model = SubstrateLossQModel(tan_delta_ref=0.01, slope=0.0)
        element = dispersive_capacitor("C1", "a", "b", 10e-12, model)
        y = element.admittance(2.0 * math.pi * 1e9)
        assert y.real / y.imag == pytest.approx(0.01, rel=1e-12)

    def test_validation(self):
        with pytest.raises(CircuitError):
            dispersive_inductor("L1", "a", "b", 0.0, SkinEffectQModel())
        with pytest.raises(CircuitError):
            DispersiveInductor("L1", "a", "b", 1e-9, None)
        with pytest.raises(CircuitError):
            dispersive_capacitor("C1", "a", "b", -1e-12, SkinEffectQModel())
        with pytest.raises(CircuitError):
            DispersiveCapacitor("C1", "a", "b", 1e-12, None)
        with pytest.raises(CircuitError):
            dispersive_inductor(
                "L1", "a", "b", 1e-9, SkinEffectQModel(), c_par=-1e-15
            )

    def test_nonpositive_omega_rejected(self):
        element = dispersive_inductor(
            "L1", "a", "b", 1e-9, SkinEffectQModel()
        )
        with pytest.raises(CircuitError):
            element.admittance(0.0)
        with pytest.raises(CircuitError):
            element.admittances(np.array([1.0, -1.0]))

    def test_infinite_q_is_lossless(self):
        table = TabulatedQModel(
            frequencies_hz=(1e8, 1e9),
            inductor_q_table=(1e12, 1e12),
            capacitor_q_table=(1e12, 1e12),
        )
        element = dispersive_inductor("L1", "a", "b", 1e-9, table)
        y = element.admittance(2.0 * math.pi * 5e8)
        assert abs((1.0 / y).real) < 1e-6


class TestBuildRouting:
    SPEC = if_filter_spec(1)

    def test_constant_models_keep_plain_elements(self):
        design = synthesize_bandpass(self.SPEC)
        circuit = build_bandpass_circuit(design, SummitQModel())
        kinds = {type(e) for e in circuit.elements}
        assert kinds == {Inductor, Capacitor}

    @pytest.mark.parametrize("model", DISPERSIVE_MODELS)
    def test_dispersive_models_get_dispersive_elements(self, model):
        design = synthesize_bandpass(self.SPEC)
        circuit = build_bandpass_circuit(design, model)
        kinds = {type(e) for e in circuit.elements}
        assert kinds == {DispersiveInductor, DispersiveCapacitor}
        for element in circuit.elements:
            assert element.q_model == model

    def test_dispersive_loss_differs_from_frozen_at_band_edges(self):
        """The point of the exercise: Q(f) vs Q(f0) changes the loss."""
        design = synthesize_bandpass(self.SPEC)
        model = SkinEffectQModel(
            q0_inductor=12.0,
            q0_capacitor=300.0,
            f0_hz=self.SPEC.center_hz,
        )
        frozen = build_bandpass_circuit(
            design,
            SmdQModel(inductor_q_value=12.0, capacitor_q_value=300.0),
        )
        dispersive = build_bandpass_circuit(design, model)
        low_edge = self.SPEC.center_hz - self.SPEC.bandwidth_hz / 2.0
        grid = np.array([low_edge, self.SPEC.center_hz])
        frozen_losses = sweep_grid(frozen, grid).insertion_loss_db
        disp_losses = sweep_grid(dispersive, grid).insertion_loss_db
        # At the centre the skin-effect Q equals the frozen Q, so the
        # two circuits carry identical loss there.
        assert disp_losses[1] == pytest.approx(frozen_losses[1], rel=1e-6)
        # Below centre the skin-effect series resistance shrinks like
        # sqrt(f/f0) while the frozen circuit keeps its f0 resistance,
        # so the dispersive realisation dissipates *less* there — the
        # frequency dependence is visible in the solved response.
        assert disp_losses[0] < frozen_losses[0]
        assert disp_losses[0] != frozen_losses[0]



class TestProcessThreading:
    def test_process_q_model_matches_historic_construction(self):
        assert process_q_model(SUMMIT_PROCESS) == SummitQModel(
            process=SUMMIT_PROCESS
        )

    def test_with_loss_flows_into_the_model(self):
        lossy = with_loss(
            SUMMIT_PROCESS, cap_tan_delta=0.02, substrate_q_ref=50.0
        )
        model = process_q_model(lossy)
        assert model.cap_tan_delta == 0.02
        assert model.q_sub_ref == 50.0
        # A lossier dielectric means a lower capacitor Q.
        assert model.capacitor_q(10e-12, 175e6) == pytest.approx(50.0)

    def test_dispersive_process_model(self):
        model = process_q_model(SUMMIT_PROCESS, dispersive=True)
        assert is_dispersive(model)
        assert model.model == SummitQModel(process=SUMMIT_PROCESS)

    def test_assignments_q_override_only_touches_integrated(self):
        override = SkinEffectQModel()
        chain = technology_assignments(4, q_model=override)
        rf_model = chain[0][1]
        if_model = chain[1][1]
        assert rf_model == override
        assert isinstance(if_model, MixedQModel)
        assert if_model.capacitor_model == override
        assert isinstance(if_model.inductor_model, SmdQModel)
        # Build-ups 1/2 keep their bought filter blocks.
        blocks = technology_assignments(1, q_model=override)
        assert all(m != override for _, m in blocks)

    def test_dispersive_chain_solves_in_circuit(self):
        """End-to-end: a dispersive assignment flows through MNA."""
        chain = technology_assignments(
            3, q_model=process_q_model(SUMMIT_PROCESS, dispersive=True)
        )
        result = assess_chain(chain)
        assert 0.0 < result.score <= 1.0

    def test_mixed_dispersive_builds_dispersive_elements(self):
        mixed = MixedQModel(
            inductor_model=SmdQModel(),
            capacitor_model=SkinEffectQModel(),
        )
        design = synthesize_bandpass(if_filter_spec(1))
        circuit = build_bandpass_circuit(design, mixed)
        kinds = {type(e) for e in circuit.elements}
        assert kinds == {DispersiveInductor, DispersiveCapacitor}


def test_circuit_convenience_constructors() -> None:
    circuit = Circuit("disp")
    circuit.dispersive_inductor("L1", "in", "out", 10e-9, SkinEffectQModel())
    circuit.dispersive_capacitor("C1", "out", "0", 5e-12, SkinEffectQModel())
    circuit.port("p1", "in")
    circuit.port("p2", "out")
    result = sweep_grid(circuit, np.array([1e9]))
    assert np.isfinite(result.insertion_loss_db).all()
