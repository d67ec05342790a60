import ast
import csv
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bergband
from bergband import cli
from bergband.band_solver import BandStructure, compute_bands, h_convergence_study
from bergband.disc_spectrum import compute_disc_spectrum
from bergband.geometry import CellGeometry
from bergband.cli import main, EXIT_OK, EXIT_VERDICT_FAIL, EXIT_USAGE, EXIT_NUMERICAL
from bergband.pipeline import RunConfig, config_bands, run_prescribed_spectrum
from bergband.symbols import synthesize_profile


@pytest.fixture()
def run_config_path(tmp_path):
    cfg = {
        "targets": [0.3, 0.2, 0.1],
        "epsilon": 0.02,
        "eta_points": 5,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


# a config that passes validation, for tests that break one field of it
VALID_DOC = {"targets": [0.3, 0.2, 0.1], "eta_points": 3}


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


class TestSynth:
    def test_writes_profile_json(self, tmp_path):
        out = tmp_path / "profile.json"
        assert main(["synth", "--targets", "0.1", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["coeffs"][0] == pytest.approx(22.4, rel=1e-12)
        assert doc["R0"] == 0.35

    @pytest.mark.parametrize("command", ["synth", "disc-spec"])
    def test_non_finite_target_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--targets", "nan", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: targets")
        assert not out.exists()

    @pytest.mark.parametrize("r0", ["nan", "5", "0.25", "0.5"])
    def test_cell_radius_out_of_range_usage_error(self, tmp_path, capsys, r0):
        out = tmp_path / "profile.json"
        assert main(["synth", "--targets", "0.3", "--r0", r0, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --r0 ")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["synth", "disc-spec"])
    def test_overflowing_target_usage_error(self, tmp_path, capsys, command):
        # 1e308 is finite, but its profile coefficient is not
        out = tmp_path / "out"
        assert main([command, "--targets", "1e308", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: targets [1e+308] are too large: the profile coefficients overflow"]
        assert not out.exists()

    def test_ill_conditioned_exit_code(self, tmp_path):
        targets = ",".join(str(t) for t in np.linspace(1.0, 0.1, 9))
        assert main(["synth", "--targets", targets]) == EXIT_NUMERICAL


class TestDiscSpec:
    def test_targets_reproduced(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(
            ["disc-spec", "--targets", "0.3,0.2,0.1", "--n", "10", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["n", "lambda"]
        assert len(rows) == 10
        # rows 2..4 of the modulus ordering carry the targets
        values = [float(r[1]) for r in rows]
        assert values[1:4] == pytest.approx([0.3, 0.2, 0.1], abs=1e-8)

    def test_profile_file_input(self, tmp_path):
        prof = tmp_path / "p.json"
        main(["synth", "--targets", "0.1", "--out", str(prof)])
        out = tmp_path / "spec.csv"
        assert main(["disc-spec", "--profile", str(prof), "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[1][1]) == pytest.approx(0.1, abs=1e-10)

    def test_profile_without_cell_radius(self, tmp_path):
        # the disc spectrum needs the profile only: a document without the R0
        # that synth writes gives the same CSV
        prof = tmp_path / "p.json"
        main(["synth", "--targets", "0.3,0.2,0.1", "--out", str(prof)])
        doc = json.loads(prof.read_text())
        del doc["R0"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        outs = [tmp_path / "with.csv", tmp_path / "without.csv"]
        for path, out in zip((prof, bare), outs):
            assert main(["disc-spec", "--profile", str(path), "--out", str(out)]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"R0": 0.35, "coeffs": None}, "coeffs"),
            ([1, 2], "object"),
            ({"R0": 0.35, "coeffs": [1.0], "support": None}, "support"),
        ],
        ids=["null-coeffs", "not-an-object", "null-support"],
    )
    def test_malformed_profile_usage_error(self, tmp_path, capsys, doc, field):
        prof = tmp_path / "p.json"
        prof.write_text(json.dumps(doc))
        out = tmp_path / "spec.csv"
        assert main(["disc-spec", "--profile", str(prof), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("n", ["200", "-3", "0"])
    def test_count_beyond_scan_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "spec.csv"
        code = main(["disc-spec", "--targets", "0.3,0.2,0.1", "--n", n, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: N_kept")
        assert not out.exists()


class TestBands:
    def test_csv_contract(self, tmp_path, run_config_path):
        out = tmp_path / "bands.csv"
        code = main(
            ["bands", "--config", str(run_config_path), "--h", "0.05", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["eta", "n", "lambda"]
        assert len(rows) == 5 * 8  # eta_points x N_keep
        etas = sorted({float(r[0]) for r in rows})
        assert etas[0] == pytest.approx(-np.pi)
        assert etas[-1] == pytest.approx(np.pi)

    def test_reproducible_columns(self, tmp_path, run_config_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["bands", "--config", str(run_config_path), "--h", "0.05", "--out", str(out1)])
        main(["bands", "--config", str(run_config_path), "--h", "0.05", "--out", str(out2)])
        assert out1.read_text() == out2.read_text()

    def test_csv_bytes_match_per_row_formula(self, tmp_path, k3_profile):
        # repr floats and \r\n line ends, one row per (eta, n), on README size
        bands = compute_bands(
            CellGeometry(R0=0.35, h=0.05), k3_profile, np.linspace(-np.pi, np.pi, 65)
        )
        out = tmp_path / "bands.csv"
        cli._write_csv(str(out), ["eta", "n", "lambda"], cli._bands_lines(bands))
        expected = "eta,n,lambda\r\n" + "".join(
            f"{float(eta)!r},{n + 1},{float(bands.lambdas[i, n])!r}\r\n"
            for i, eta in enumerate(bands.etas)
            for n in range(bands.N_keep)
        )
        assert len(expected.splitlines()) == 1 + 65 * 8
        assert out.read_bytes() == expected.encode()



def csv_writer_bytes(header, rows):
    """What csv.writer writes for a header and rows, as bytes."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue().encode()


def band_rows(bands):
    return [
        (eta, n, lam)
        for eta, row in zip(bands.etas.tolist(), bands.lambdas.tolist())
        for n, lam in enumerate(row, start=1)
    ]


def cli_bytes(argv, out):
    """The CSV bytes a command writes: to the file out, run in process, or
    to stdout (out None), run in a fresh interpreter, which sees real bytes."""
    if out is not None:
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        return out.read_bytes()
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "bergband", *argv], env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    return proc.stdout


class TestCsvBytes:
    # every CSV table is byte for byte what csv.writer writes for its values

    def test_run_bands_csv(self, tmp_path):
        out = tmp_path / "bands.csv"
        doc = {"targets": [0.3, 0.2, 0.1], "epsilon": 0.02, "eta_points": 5, "bands_csv": str(out)}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        bands = run_prescribed_spectrum(RunConfig.from_json(json.dumps(doc))).band_structure
        assert out.read_bytes() == csv_writer_bytes(["eta", "n", "lambda"], band_rows(bands))

    def test_bands_out(self, tmp_path, run_config_path):
        got = cli_bytes(["bands", "--config", str(run_config_path), "--h", "0.05"], tmp_path / "b.csv")
        cfg = RunConfig.from_json(run_config_path.read_text())
        bands = next(config_bands(cfg, synthesize_profile(cfg.targets), [0.05]))
        assert got == csv_writer_bytes(["eta", "n", "lambda"], band_rows(bands))

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_disc_spec(self, tmp_path, to_file):
        got = cli_bytes(
            ["disc-spec", "--targets", "0.3,0.2,0.1", "--n", "10"],
            tmp_path / "disc.csv" if to_file else None,
        )
        spec = compute_disc_spectrum(synthesize_profile([0.3, 0.2, 0.1]), N_kept=10)
        rows = [(n + 1, lam) for n, lam in enumerate(spec.eigenvalues)]
        assert got == csv_writer_bytes(["n", "lambda"], rows)

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_study_h(self, tmp_path, to_file):
        got = cli_bytes(
            ["study-h", "--targets", "0.3,0.2,0.1", "--h-list", "0.1,0.05", "--n-track", "2"],
            tmp_path / "study.csv" if to_file else None,
        )
        study = h_convergence_study(synthesize_profile([0.3, 0.2, 0.1]), [0.1, 0.05], eta=0.0, n_track=2)
        rows = [
            (row["h"], n, lam, err)
            for row in study
            for n, (lam, err) in enumerate(zip(row["lambdas"], row["errors"]), start=1)
        ]
        assert got == csv_writer_bytes(["h", "n", "lambda", "error"], rows)

    def test_bands_formatter_edge_values(self, tmp_path):
        # signed zero, the smallest subnormal, a huge value, a sum with a long
        # repr and nan, in both columns that hold floats
        bands = BandStructure(
            etas=np.array([-0.0, 0.1 + 0.2, 5e-324]),
            lambdas=np.array(
                [[-0.0, 5e-324, 1e300], [0.1 + 0.2, np.nan, -1e300], [np.inf, 1.0, -5e-324]]
            ),
            dim_eff=3,
        )
        out = tmp_path / "bands.csv"
        cli._write_csv(str(out), ["eta", "n", "lambda"], cli._bands_lines(bands))
        got = out.read_bytes()
        assert got == csv_writer_bytes(["eta", "n", "lambda"], band_rows(bands))
        assert b"-0.0,1,-0.0\r\n" in got and b",1e+300\r\n" in got and b",nan\r\n" in got


class TestRunAndReport:
    def test_run_pass(self, run_config_path, capsys):
        assert main(["run", "--config", str(run_config_path)]) == EXIT_OK
        assert "pass" in capsys.readouterr().out

    def test_report_json(self, tmp_path, run_config_path):
        out = tmp_path / "report.json"
        code = main(["report", "--config", str(run_config_path), "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"
        assert {"components", "gaps", "targets", "delta_achieved"} <= set(doc)
        assert all(t["hit"] for t in doc["targets"])

    def test_verdict_fail_exit_code(self, tmp_path):
        cfg = {
            "targets": [0.3, 0.2999],
            "epsilon": 0.0001,
            "eta_points": 3,
            "h_min": 0.06,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == EXIT_VERDICT_FAIL

    def test_unseparated_run_writes_strict_json(self, tmp_path):
        # K 0 and one h-step hit no target, so delta_achieved is infinite;
        # JSON has no Infinity, and strict parsers reject it
        report, diagnostics = tmp_path / "report.json", tmp_path / "diag.json"
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "targets": [0.3, 0.2, 0.1], "K_modes": 0, "h_min": 0.1,
            "report_json": str(report), "diagnostics_json": str(diagnostics),
        }))
        assert main(["run", "--config", str(path)]) == EXIT_VERDICT_FAIL

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report_doc = json.loads(report.read_text(), parse_constant=reject)
        diag_doc = json.loads(diagnostics.read_text(), parse_constant=reject)
        assert report_doc["delta_achieved"] is None
        assert [step["delta_achieved"] for step in diag_doc["h_trace"]] == [None]

    @pytest.mark.parametrize("command", ["run", "report"])
    @pytest.mark.parametrize("targets", [[0.0], [1e-20], [0.3, 0.0]])
    def test_zero_cluster_target_usage_error(self, tmp_path, capsys, command, targets):
        # the spectral gap is 0, so the cap epsilon < delta = gap / 4 would
        # leave epsilon 0: the error must name the gap instead
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"targets": targets}))
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not err[0].startswith("error: epsilon")
        assert "delta_override" in err[0]

    def test_zero_cluster_target_with_delta_override_passes(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"targets": [0.0], "delta_override": 0.1}))
        assert main(["run", "--config", str(path)]) == EXIT_OK

    def test_missing_config_usage_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({**VALID_DOC, "h_min": 0.2}, "h_min"),
            ({**VALID_DOC, "h_min": 0.0}, "h_min"),
            ({**VALID_DOC, "N_keep": 0}, "N_keep"),
            ({**VALID_DOC, "targets": [0.3, float("nan")]}, "targets"),
            ({**VALID_DOC, "K_modes": -1}, "K_modes"),
            ({**VALID_DOC, "threads": 2}, "threads"),
            ({}, "targets"),
            ({"targets": 0.3}, "targets"),
            ([1, 2], "object"),
            ({"targets": [0.3, 0.2], "epsilon": "x"}, "epsilon"),
            ({**VALID_DOC, "K_modes": 10.5}, "K_modes"),
            ({**VALID_DOC, "delta_override": -0.1}, "delta_override"),
            ({**VALID_DOC, "cutoff": -1}, "cutoff"),
            ({**VALID_DOC, "cutoff": 1.0}, "cutoff"),
            ({**VALID_DOC, "n_r": 0}, "n_r"),
            ({**VALID_DOC, "n_t": 0}, "n_t"),
            ({**VALID_DOC, "n_strip": 0}, "n_strip"),
            ({**VALID_DOC, "R0": 0.5}, "R0"),
            ({**VALID_DOC, "targets": [0.3, 0.3]}, "pairwise distinct"),
            ({**VALID_DOC, "targets": [1e308]}, "targets [1e+308]"),
            # synthesis misses a target by more than epsilon
            ({**VALID_DOC, "targets": [1e20, 0.1]}, "synthesis puts target"),
            ({**VALID_DOC, "targets": [1e100, 0.1]}, "synthesis puts target"),
            ({**VALID_DOC, "targets": [1e14, 0.1]}, "synthesis puts target"),
        ],
        ids=[
            "h_min-above-h_initial",
            "h_min-zero",
            "N_keep-zero",
            "nan-target",
            "K_modes-negative",
            "unknown-key",
            "missing-targets",
            "scalar-targets",
            "not-an-object",
            "string-epsilon",
            "fractional-K_modes",
            "delta_override-negative",
            "cutoff-negative",
            "cutoff-one",
            "n_r-zero",
            "n_t-zero",
            "n_strip-zero",
            "R0-half",
            "duplicate-targets",
            "overflowing-target",
            "unreproducible-1e20",
            "unreproducible-1e100",
            "unreproducible-1e14",
        ],
    )
    @pytest.mark.parametrize("command", ["run", "report"])
    def test_invalid_config_usage_error(self, tmp_path, capsys, command, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        # one line that names the offending field
        assert len(err) == 1 and err[0].startswith("error:")
        assert field in err[0]

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_unallocatable_config_usage_error(self, tmp_path, capsys, command):
        # the basis buffer would take 8 PiB, so the allocation fails at once
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**VALID_DOC, "K_modes": 100_000_000_000}))
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory")


class TestChecks:
    def test_floquet_check(self, capsys):
        assert main(["floquet-check", "--M", "8", "--trials", "3"]) == EXIT_OK

    def test_conformal_check(self, capsys):
        assert main(["conformal-check", "--alpha", "0.3", "--trials", "3"]) == EXIT_OK

    def test_study_h(self, tmp_path):
        out = tmp_path / "study.csv"
        code = main(
            [
                "study-h",
                "--targets",
                "0.3,0.2,0.1",
                "--h-list",
                "0.1,0.05",
                "--n-track",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["h", "n", "lambda", "error"]
        assert len(rows) == 4

    def test_study_h_bad_h_exits_before_band_work(self, monkeypatch, capsys):
        from bergband import band_solver

        def forbidden(*args, **kwargs):
            raise AssertionError("no band work before every h is checked")

        monkeypatch.setattr(band_solver, "build_basis", forbidden)
        code = main(["study-h", "--targets", "0.3", "--h-list", "0.1,0.05,0"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: h must be in (0, 1/10], got 0.0"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["floquet-check", "--trials", "0"], "--trials "),
            (["floquet-check", "--M", "-1"], "--M "),
            (["conformal-check", "--trials", "0"], "--trials "),
            (["study-h", "--targets", "0.3", "--h-list", "0.1", "--n-track", "-1"], "--n-track "),
            (["study-h", "--targets", "0.3", "--h-list", "0.1", "--n-track", "0"], "--n-track "),
            (["study-h", "--targets", "0.3", "--h-list", "0.1", "--eta", "nan"], "eta grid "),
            (["study-h", "--targets", "0.3", "--h-list", ""], "h_list "),
            (["conformal-check", "--alpha", "nan", "--trials", "1"], "Moebius parameter "),
        ],
        ids=[
            "floquet-trials-0", "floquet-M-neg", "conformal-trials-0",
            "n-track-neg", "n-track-0", "nan-eta", "empty-h-list", "nan-alpha",
        ],
    )
    def test_bad_flag_usage_error(self, capsys, argv, message):
        # one line that names the offending flag or value
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")

    def test_module_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "bergband", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("usage: bergband")

    def test_import_loads_no_scipy_or_test_tools(self):
        # every CLI run starts with a fresh interpreter's import of bergband,
        # so that import must not pull in scipy or the test tooling
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = (
            "import sys, bergband; "
            "print(*sorted({m.partition('.')[0] for m in sys.modules} "
            "& {'scipy', 'pytest', 'hypothesis', 'mpmath'}))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_public_names_resolve(self):
        # every name in a submodule's __all__ exists, and every name the
        # package re-exports is in its module's __all__, so a removal that
        # misses one of the three places fails here
        for info in pkgutil.iter_modules(bergband.__path__):
            if info.name == "__main__":  # importing it would run the CLI
                continue
            mod = importlib.import_module(f"bergband.{info.name}")
            missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
            assert missing == [], info.name
        tree = ast.parse(Path(bergband.__file__).read_text())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                public = importlib.import_module(f"bergband.{node.module}").__all__
                private = [a.name for a in node.names if a.name not in public]
                assert private == [], node.module

    def test_unknown_command_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE


_OUTPUT_FIELDS = ("bands_csv", "report_json", "diagnostics_json")
# Values no field accepts, or accepts only out of range: wrong JSON types,
# NaN and infinities, zero, negatives, fractions and an even eta_points.
# Nothing here is a large in-range size, so no draw runs for long.
_WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.lists(st.none(), max_size=1),
    st.just({}),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1, 0, -0.5, 0.5, 1.5, 2]),
)
# Small in-range values, sized so that a whole h-loop takes milliseconds.
_IN_RANGE = {
    "targets": st.lists(st.floats(-0.5, 0.5), max_size=3),
    "epsilon": st.floats(1e-3, 0.1),
    "delta_override": st.none() | st.floats(1e-3, 0.1),
    "R0": st.floats(0.26, 0.49),
    "eta_points": st.sampled_from([3, 5]),
    "K_modes": st.integers(0, 4),
    "h_initial": st.floats(0.01, 0.1),
    "h_min": st.floats(0.005, 0.1),
    "N_keep": st.integers(1, 8),
    **{name: st.sampled_from([None, "out", "", "missing/out"]) for name in _OUTPUT_FIELDS},
}
assert set(_IN_RANGE) == set(RunConfig.__dataclass_fields__)
_RUN_DOCS = st.one_of(
    st.fixed_dictionaries(
        {"targets": _IN_RANGE["targets"]},
        optional={name: value for name, value in _IN_RANGE.items() if name != "targets"},
    ),
    st.fixed_dictionaries(
        {},
        optional={
            name: value | _WRONG if name in _OUTPUT_FIELDS else value | _WRONG | st.text(max_size=3)
            for name, value in _IN_RANGE.items()
        },
    ),
    _WRONG,
)


class TestRobustness:
    @given(_RUN_DOCS)
    @settings(max_examples=150, deadline=None)
    def test_run_exits_with_a_code(self, doc):
        # Any RunConfig-shaped document ends in an exit code, never an exception.
        with tempfile.TemporaryDirectory() as tmp:
            if isinstance(doc, dict):
                for name in _OUTPUT_FIELDS:
                    if isinstance(doc.get(name), str):
                        doc[name] = os.path.join(tmp, doc[name])
            path = os.path.join(tmp, "run.json")
            Path(path).write_text(json.dumps(doc))
            code = main(["run", "--config", path])
        assert code in (EXIT_OK, EXIT_VERDICT_FAIL, EXIT_USAGE, EXIT_NUMERICAL)
