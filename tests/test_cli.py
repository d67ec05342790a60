import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bergband.cli import main, EXIT_OK, EXIT_VERDICT_FAIL, EXIT_USAGE, EXIT_NUMERICAL


@pytest.fixture()
def run_config_path(tmp_path):
    cfg = {
        "targets": [0.3, 0.2, 0.1],
        "epsilon": 0.02,
        "eta_points": 5,
        "n_r": 24,
        "n_t": 48,
        "n_strip": 16,
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
            "n_r": 16,
            "n_t": 32,
            "n_strip": 10,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == EXIT_VERDICT_FAIL

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

    def test_module_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "bergband", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("usage: bergband")

    def test_unknown_command_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE
