import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergband import band_solver
from bergband.quasi_bergman import TwistedBasis
from bergband.symbols import IllConditionedError
from bergband.disc_spectrum import compute_disc_spectrum
from bergband.pipeline import RunConfig, RunResult, run_prescribed_spectrum, choose_gap_index


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

    @pytest.mark.parametrize("targets", [(1e20, 0.1), (1e100, 0.1), (1e14, 0.1)])
    def test_unreproducible_target_rejected(self, targets):
        # cancellation among the coefficients moves the small target (or,
        # at 1e100, the large one by rounding alone) far beyond epsilon
        with pytest.raises(ValueError, match=r"^synthesis puts target .* epsilon=0\.02$"):
            run_prescribed_spectrum(RunConfig(targets=targets))

    def test_no_disc_spectrum_stored(self):
        # diagnostics["disc_top"] keeps what a reader of the run needs
        names = {f.name for f in dataclasses.fields(RunResult)}
        assert "disc_spectrum" not in names

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

    def test_bands_seconds_per_h_step(self, fast_config):
        trace = run_prescribed_spectrum(fast_config).diagnostics["h_trace"]
        assert all(isinstance(step["bands_s"], float) and step["bands_s"] > 0.0 for step in trace)

    def test_one_basis_per_run(self, count_calls):
        # the disc stage runs once, and every strip is evaluated in one call;
        # each later h-step adds only its strip factorization and fiber solves
        bases = count_calls(band_solver, "build_basis")
        evaluations = count_calls(TwistedBasis, "evaluate")
        result = run_prescribed_spectrum(RunConfig(targets=(0.36, 0.30)))
        assert [step["h"] for step in result.diagnostics["h_trace"]] == [0.1, 0.05, 0.025]
        assert result.verdict
        assert len(bases) == 1
        assert len(evaluations) == 1

    def test_pass_at_h_initial_solves_one_h(self, count_calls):
        # the strips of the first batch, here the whole halving sequence, are
        # built at the first step, in one call, but only the step that passes
        # is solved: 33 fibers of the 65-point grid
        strips = count_calls(band_solver, "build_cell_strip_rules")
        solves = count_calls(band_solver, "_band_eigenvalues")
        result = run_prescribed_spectrum(RunConfig(targets=(0.3, 0.2, 0.1), h_initial=0.05))
        assert result.verdict and result.chosen_h == 0.05
        assert [[cell.h for cell in cells] for cells, _ in strips] == [
            [0.05 / 2**k for k in range(6)]
        ]
        assert sum(len(A) for A, _ in solves) == 33  # one fiber per stacked matrix

    def test_long_h_list_evaluates_one_batch(self, count_calls):
        # a halving sequence of about 1000 h evaluates the basis on one batch
        # of strips before its first pass, not on every strip of the sequence
        evaluations = count_calls(TwistedBasis, "evaluate")
        result = run_prescribed_spectrum(RunConfig(targets=(0.3, 0.2, 0.1), h_min=1e-300))
        assert result.verdict and result.chosen_h == 0.05
        n_strip = band_solver._quadrature_orders(10, 0.35)[2]
        assert sum(nodes.size for _, nodes in evaluations) <= band_solver._STRIP_BATCH * n_strip**2
        assert band_solver._STRIP_BATCH <= 32

    def test_long_h_list_builds_one_batch_of_strips(self, count_calls):
        # a halving sequence of about 1000 h builds the strip rules of its
        # first batch only, not of every h, before its first pass, and raises
        # no warning
        strips = count_calls(band_solver, "build_cell_strip_rules")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_prescribed_spectrum(RunConfig(targets=(0.3, 0.2, 0.1), h_min=1e-300))
        assert result.verdict and result.chosen_h == 0.05
        [(cells, _)] = strips
        assert len(cells) == band_solver._STRIP_BATCH

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

