"""Vectorised Q-profile evaluation against the scalar models."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits.qfactor import (
    ConstantQModel,
    IdealQModel,
    MixedQModel,
    SmdQModel,
    SummitQModel,
    capacitor_q_profile,
    combined_q_profile,
    combined_unloaded_q,
    inductor_q_profile,
)
from repro.errors import CircuitError

GRID = np.geomspace(50e6, 5e9, 25)


class TestInductorProfiles:
    def test_summit_profile_matches_scalar(self):
        model = SummitQModel()
        profile = inductor_q_profile(model, 40e-9, GRID)
        scalar = [model.inductor_q(40e-9, float(f)) for f in GRID]
        np.testing.assert_allclose(profile, scalar, rtol=1e-12)

    def test_summit_profile_peaks_in_low_ghz(self):
        """The published SUMMIT behaviour: Q peaks in the 1-2 GHz range."""
        profile = inductor_q_profile(SummitQModel(), 40e-9, GRID)
        peak_hz = GRID[int(np.argmax(profile))]
        assert 5e8 < peak_hz < 3e9

    def test_generic_fallback_matches_scalar(self):
        model = SmdQModel()
        profile = inductor_q_profile(model, 100e-9, GRID)
        np.testing.assert_allclose(profile, model.inductor_q_value)

    def test_mixed_model_delegates(self):
        mixed = MixedQModel(
            inductor_model=SmdQModel(inductor_q_value=17.0),
            capacitor_model=SummitQModel(),
        )
        profile = inductor_q_profile(mixed, 100e-9, GRID)
        np.testing.assert_allclose(profile, 17.0)

    def test_scalar_frequency_accepted(self):
        profile = inductor_q_profile(SummitQModel(), 40e-9, 1e9)
        assert profile.shape == (1,)
        assert profile[0] == pytest.approx(
            SummitQModel().inductor_q(40e-9, 1e9), rel=1e-12
        )

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(CircuitError):
            inductor_q_profile(SummitQModel(), 40e-9, [1e9, 0.0])
        with pytest.raises(CircuitError):
            inductor_q_profile(SmdQModel(), 40e-9, [])


class TestCombinedProfiles:
    def test_combined_matches_scalar(self):
        model = SummitQModel()
        profile = combined_q_profile(model, 40e-9, 10e-12, GRID)
        scalar = [
            combined_unloaded_q(model, 40e-9, 10e-12, float(f))
            for f in GRID
        ]
        np.testing.assert_allclose(profile, scalar, rtol=1e-12)

    def test_ideal_model_is_infinite(self):
        profile = combined_q_profile(IdealQModel(), 1e-9, 1e-12, GRID)
        assert np.all(np.isinf(profile))

    def test_capacitor_profile_constant_model(self):
        profile = capacitor_q_profile(
            ConstantQModel(30.0, 400.0), 1e-12, GRID
        )
        np.testing.assert_allclose(profile, 400.0)

    def test_combined_below_either_leg(self):
        model = ConstantQModel(30.0, 400.0)
        profile = combined_q_profile(model, 1e-9, 1e-12, GRID)
        expected = 1.0 / (1.0 / 30.0 + 1.0 / 400.0)
        np.testing.assert_allclose(profile, expected)
        assert np.all(profile < 30.0)

