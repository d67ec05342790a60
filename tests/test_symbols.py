import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from bergband.geometry import CellGeometry
from bergband.symbols import (
    GRAM_COND_LIMIT,
    MAX_TARGETS,
    IllConditionedError,
    _gram_matrix,
    RadialProfile,
    TargetSpec,
    synthesize_profile,
    eval_cell_symbol,
    profile_to_json,
    profile_from_json,
)


def moment_by_quadrature(profile, n):
    """Adaptive-quadrature oracle for 2(n+1) * integral b(r) r^{2n+1} dr."""
    val, _ = integrate.quad(
        lambda r: profile(r) * r ** (2 * n + 1), 0.0, profile.support, epsabs=1e-14
    )
    return 2.0 * (n + 1) * val


class TestSynthesis:
    def test_single_target_closed_form(self):
        # 1x1 system: (1/2)^7/7 * c = 0.1/4  =>  c = 0.025 * 896 = 22.4
        profile = synthesize_profile([0.1])
        assert profile.coeffs[0] == pytest.approx(22.4, rel=1e-12)
        assert moment_by_quadrature(profile, 1) == pytest.approx(0.1, abs=1e-10)

    def test_two_target_round_trip(self):
        profile = synthesize_profile([0.3, 0.2])
        assert moment_by_quadrature(profile, 1) == pytest.approx(0.3, abs=1e-10)
        assert moment_by_quadrature(profile, 2) == pytest.approx(0.2, abs=1e-10)

    def test_zero_targets_zero_coeffs(self):
        profile = synthesize_profile([0.0, 0.0, 0.0])
        assert profile.coeffs == (0.0, 0.0, 0.0)

    def test_empty_targets(self):
        assert synthesize_profile([]).K == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_rejected(self, bad):
        with pytest.raises(ValueError, match="targets"):
            synthesize_profile([0.3, bad])

    @pytest.mark.parametrize("targets", [[1e308], [0.3, 1e306]])
    def test_overflowing_coefficients_rejected(self, targets):
        # finite targets whose coefficients overflow to inf
        with pytest.raises(ValueError, match=r"^targets \[.*\] are too large"):
            synthesize_profile(targets)

    def test_too_many_targets_rejected(self):
        with pytest.raises(IllConditionedError):
            synthesize_profile(list(np.linspace(1.0, 0.1, 9)))

    def test_condition_number_attached(self):
        try:
            synthesize_profile(list(np.linspace(1.0, 0.1, 9)))
        except IllConditionedError as exc:
            assert exc.condition > exc.limit

    def test_target_limit_is_last_count_under_condition_limit(self):
        # the Gram matrix depends on the target count alone
        assert np.linalg.cond(_gram_matrix(MAX_TARGETS)) <= GRAM_COND_LIMIT
        assert np.linalg.cond(_gram_matrix(MAX_TARGETS + 1)) > GRAM_COND_LIMIT
        assert synthesize_profile(list(np.linspace(0.5, 0.1, MAX_TARGETS))).K == MAX_TARGETS

    @pytest.mark.parametrize("K", [6, 9, 40])
    def test_too_many_targets_message_names_count_and_limit(self, K):
        with pytest.raises(IllConditionedError, match=f"^{K} targets exceed the limit of 5") as info:
            synthesize_profile(list(np.linspace(0.9, 0.1, K)))
        assert "inf" not in str(info.value)
        assert np.isfinite(info.value.condition)

    @given(
        st.lists(
            st.floats(min_value=-0.9, max_value=0.9).filter(lambda x: abs(x) > 1e-3),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, targets):
        profile = synthesize_profile(targets)
        n = np.arange(1, len(targets) + 1)
        moments = [
            2.0 * (k + 1) * sum(
                c * 0.5 ** (2 * k + 2 * m + 3) / (2 * k + 2 * m + 3)
                for m, c in enumerate(profile.coeffs, start=1)
            )
            for k in n
        ]
        assert np.allclose(moments, targets, atol=1e-8)


class TestRadialProfile:
    def test_zero_at_origin(self):
        profile = RadialProfile(coeffs=(22.4,))
        assert profile(0.0) == 0.0

    def test_zero_outside_support(self):
        profile = RadialProfile(coeffs=(22.4,))
        assert profile(0.75) == 0.0

    def test_value_at_support_edge(self):
        profile = RadialProfile(coeffs=(22.4,))
        assert profile(0.5) == pytest.approx(22.4 * 0.125, rel=1e-14)

    def test_sup_norm(self, k3_profile):
        # c r^3 on [0, 1/2] is monotone for single-coefficient profiles.
        profile = RadialProfile(coeffs=(22.4,))
        assert profile.sup_norm() == pytest.approx(2.8, rel=1e-6)
        assert k3_profile.sup_norm() > 0.0

    def test_non_finite_coefficient_rejected(self):
        # caught here, not deep in compute_bands' eigensolve
        for fields in (
            dict(coeffs=(np.nan,)),
            dict(coeffs=(1.0, -np.inf)),
            dict(coeffs=(), constant_term=np.inf),
        ):
            with pytest.raises(ValueError, match="profile coefficients must be finite"):
                RadialProfile(**fields)

    def test_unit_profile(self):
        unit = RadialProfile.unit()
        assert unit(0.0) == 1.0
        assert unit(0.999) == 1.0
        assert unit.sup_norm() == 1.0


class TestTargetSpec:
    def test_valid(self):
        TargetSpec(targets=(0.3, 0.2), epsilon=0.01, delta=0.02)

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            TargetSpec(targets=(0.3, 0.3), epsilon=0.01, delta=0.02)

    def test_epsilon_must_be_below_delta(self):
        with pytest.raises(ValueError):
            TargetSpec(targets=(0.3,), epsilon=0.05, delta=0.02)


class TestSymbolEvaluation:
    def test_cell_symbol_scales(self, k3_profile):
        cell = CellGeometry(R0=0.35, h=0.05)
        # |z| = 0.5 R0 maps to radius 0.5 of the profile
        assert eval_cell_symbol(k3_profile, cell, 0.5 * cell.R0) == pytest.approx(
            k3_profile(0.5), rel=1e-14
        )
        assert eval_cell_symbol(k3_profile, cell, 0.0) == 0.0
        assert eval_cell_symbol(k3_profile, cell, 0.45) == 0.0  # strip point


class TestSerialization:
    def test_round_trip(self, k3_profile):
        text = profile_to_json(k3_profile, R0=0.35)
        doc = json.loads(text)
        assert doc["R0"] == 0.35
        assert profile_from_json(text) == k3_profile

    def test_unit_profile_round_trip(self):
        text = profile_to_json(RadialProfile.unit(), R0=0.3)
        assert profile_from_json(text) == RadialProfile.unit()
