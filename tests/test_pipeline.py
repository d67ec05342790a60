import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergband.symbols import IllConditionedError
from bergband.disc_spectrum import compute_disc_spectrum
from bergband.pipeline import RunConfig, run_prescribed_spectrum, choose_gap_index


# JSON values of every type, including ints beyond the float range
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
)
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=4))
_FIELD_DOCS = st.dictionaries(st.sampled_from(sorted(RunConfig.__dataclass_fields__)), _JSON_VALUES)
_CONFIG_DOCS = st.one_of(
    _FIELD_DOCS,
    _FIELD_DOCS.map(lambda doc: {"targets": [0.3, 0.1], **doc}),
    _JSON_VALUES,
)


@pytest.fixture(scope="module")
def fast_config():
    """Coarse-but-honest configuration for pipeline plumbing tests."""
    return RunConfig(
        targets=(0.3, 0.2, 0.1),
        epsilon=0.02,
        eta_points=5,
        K_modes=10,
        N_keep=8,
    )


class TestRunConfig:
    def test_json_round_trip(self, fast_config):
        back = RunConfig.from_json(fast_config.to_json())
        assert back == fast_config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            RunConfig.from_json('{"targets": [0.1], "bogus": 1}')

    def test_even_eta_points_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(targets=(0.1,), eta_points=8)

    def test_large_h_initial_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(targets=(0.1,), h_initial=0.2)

    @pytest.mark.parametrize(
        "field, value",
        [("R0", 0.25), ("R0", 0.5)],
    )
    def test_quadrature_and_cell_fields_rejected(self, field, value):
        # caught at construction, before any synthesis or quadrature runs
        with pytest.raises(ValueError, match=field):
            RunConfig(targets=(0.1,), **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epsilon", float("nan")),
            ("h_initial", -0.5),
            ("h_initial", 0.0),
            ("h_initial", float("nan")),
        ],
    )
    def test_range_check_names_the_field(self, field, value):
        # NaN fails every range check, and the message leads with the bad field
        with pytest.raises(ValueError, match=f"^{field}"):
            RunConfig(targets=(0.1,), **{field: value})

    @pytest.mark.parametrize("targets", [(0.3, 0.3), (0.3, 0.2, 0.3)])
    def test_duplicate_targets_rejected(self, targets):
        # TargetSpec's rule, checked before synthesis: a repeated target
        # would otherwise be reported as a target in the 0-cluster
        with pytest.raises(ValueError, match="^targets must be pairwise distinct$"):
            RunConfig(targets=targets)

    @given(_CONFIG_DOCS)
    @settings(max_examples=300, deadline=None)
    def test_from_json_config_or_value_error(self, doc):
        # Mixed-type documents over the known keys: a config comes back or a
        # ValueError, which the CLI reports as a usage error, never any other
        # exception.
        try:
            config = RunConfig.from_json(json.dumps(doc))
        except ValueError:
            return
        assert isinstance(config, RunConfig)


class TestChooseGapIndex:
    def test_covers_all_targets(self, k3_profile):
        spec = compute_disc_spectrum(k3_profile)
        # targets sit at modulus-order positions 2..4 (after the
        # uncontrolled leading eigenvalue), so N = 4.
        assert choose_gap_index(spec, (0.3, 0.2, 0.1)) == 4

    def test_single_target(self, k3_profile):
        spec = compute_disc_spectrum(k3_profile)
        assert choose_gap_index(spec, (0.3,)) == 2


class TestRunPrescribedSpectrum:
    def test_empty_targets_trivial_pass(self):
        result = run_prescribed_spectrum(RunConfig(targets=()))
        assert result.verdict
        assert result.spectrum_report.components == ((0.0, 0.0),)

    def test_ill_conditioned_targets_raise(self):
        with pytest.raises(IllConditionedError):
            run_prescribed_spectrum(RunConfig(targets=tuple(np.linspace(1, 0.1, 9))))

    def test_three_targets_pass(self, fast_config):
        result = run_prescribed_spectrum(fast_config)
        assert result.verdict
        assert result.chosen_h >= 1e-3
        for hit in result.spectrum_report.target_hits:
            assert hit["hit"]
            assert hit["distance"] <= 0.02

    def test_diagnostics_trace(self, fast_config):
        result = run_prescribed_spectrum(fast_config)
        diag = result.diagnostics
        assert diag["gap_index_N"] == 4
        assert diag["spectral_gap"] == pytest.approx(0.1 - 0.03885, abs=1e-3)
        assert diag["delta"] == pytest.approx(diag["spectral_gap"] / 4)
        assert len(diag["h_trace"]) >= 1
        assert diag["h_trace"][-1]["verdict"]
        # diagnostics must be JSON-serializable as emitted
        json.dumps(diag, default=float)

    def test_determinism(self, fast_config):
        r1 = run_prescribed_spectrum(fast_config)
        r2 = run_prescribed_spectrum(fast_config)
        assert np.array_equal(r1.band_structure.lambdas, r2.band_structure.lambdas)
        assert r1.spectrum_report == r2.spectrum_report

    def test_monotone_improvement_in_final_iterations(self, fast_config):
        result = run_prescribed_spectrum(fast_config)
        trace = result.diagnostics["h_trace"]
        if len(trace) >= 2:
            prev = max(trace[-2]["target_distances"])
            last = max(trace[-1]["target_distances"])
            assert last <= prev

    def test_near_degenerate_targets_fail_verdict(self):
        config = RunConfig(
            targets=(0.3, 0.2999),
            epsilon=0.0001,
            eta_points=3,
            h_min=0.06,  # only h = 0.1 runs; its error far exceeds epsilon
        )
        result = run_prescribed_spectrum(config)
        assert not result.verdict
        assert "failure" in result.diagnostics

    def test_failing_run_stops_at_last_h_above_h_min(self):
        config = RunConfig(
            targets=(0.3, 0.2999), epsilon=0.0001, eta_points=3, h_min=0.03
        )
        result = run_prescribed_spectrum(config)
        trace = result.diagnostics["h_trace"]
        # the smallest h_initial / 2^k >= h_min is 0.05, at k = 1
        k = max(j for j in range(10) if config.h_initial / 2**j >= config.h_min)
        assert not result.verdict
        assert len(trace) == k + 1
        assert result.chosen_h == trace[-1]["h"] == config.h_initial / 2**k == 0.05
        assert result.spectrum_report.verdict is trace[-1]["verdict"] is False
        assert "failure" in result.diagnostics
        assert all(isinstance(step["dim_eff"], int) for step in trace)
