"""Command-line interface.

Every subcommand mirrors one library operation and writes plot-ready
tabular files.  Exit codes: 0 success (or verdict pass), 1 verdict fail,
2 usage error, 3 numerical error.  Floats are written with ``repr``,
i.e. the shortest digit string that round-trips, so re-running a command
on its own emitted config reproduces byte-identical numeric columns.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .geometry import CellGeometry, build_disc_quadrature, build_cell_quadrature
from .symbols import (
    IllConditionedError,
    synthesize_profile,
    profile_to_json,
    profile_from_json,
)
from .disc_spectrum import compute_disc_spectrum
from .quasi_bergman import DegenerateBasisError
from .band_solver import h_convergence_study
from .floquet import CellField, floquet_forward, floquet_inverse, field_norm, floquet_norm
from .conformal import identity_pair, rotation_pair, moebius_pair, transplant
from .pipeline import RunConfig, RunResult, config_bands, run_prescribed_spectrum

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _parse_floats(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    return [float(t) for t in text.split(",")]


def _write_csv(path: str | None, header: list[str], rows) -> None:
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    finally:
        if path:
            out.close()


def _load_config(args) -> RunConfig:
    return RunConfig.from_json(Path(args.config).read_text())


def cmd_synth(args) -> int:
    profile = synthesize_profile(_parse_floats(args.targets))
    text = profile_to_json(profile, R0=args.r0)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    print(f"# sup|b| = {profile.sup_norm()!r}", file=sys.stderr)
    return EXIT_OK


def cmd_disc_spec(args) -> int:
    if args.profile:
        profile, _ = profile_from_json(Path(args.profile).read_text())
    else:
        profile = synthesize_profile(_parse_floats(args.targets))
    spec = compute_disc_spectrum(profile, N_kept=args.n)
    _write_csv(
        args.out,
        ["n", "lambda"],
        [(n + 1, lam) for n, lam in enumerate(spec.eigenvalues)],
    )
    return EXIT_OK


def _bands_rows(bands):
    for i, eta in enumerate(bands.etas):
        for n in range(bands.N_keep):
            yield (repr(float(eta)), n + 1, float(bands.lambdas[i, n]))


def cmd_bands(args) -> int:
    cfg = _load_config(args)
    profile = synthesize_profile(cfg.targets)
    bands = config_bands(cfg, profile, args.h if args.h is not None else cfg.h_initial)
    out = args.out or cfg.bands_csv or "bands.csv"
    _write_csv(out, ["eta", "n", "lambda"], _bands_rows(bands))
    return EXIT_OK


def _report_doc(cfg: RunConfig, result: RunResult) -> str:
    """The gap report of a pipeline run as indented JSON."""
    report = result.spectrum_report
    doc = {
        "config": json.loads(cfg.to_json()),
        "chosen_h": result.chosen_h,
        "components": [list(c) for c in report.components],
        "gaps": [list(g) for g in report.gaps],
        "targets": [dict(t) for t in report.target_hits],
        "delta_achieved": report.delta_achieved,
        "verdict": "pass" if result.verdict else "fail",
    }
    return json.dumps(doc, indent=2)


def cmd_report(args) -> int:
    cfg = _load_config(args)
    result = run_prescribed_spectrum(cfg)
    text = _report_doc(cfg, result)
    out = args.out or cfg.report_json
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK if result.verdict else EXIT_VERDICT_FAIL


def cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_prescribed_spectrum(cfg)
    if cfg.bands_csv and result.band_structure is not None:
        _write_csv(cfg.bands_csv, ["eta", "n", "lambda"], _bands_rows(result.band_structure))
    if cfg.report_json:
        Path(cfg.report_json).write_text(_report_doc(cfg, result) + "\n")
    if cfg.diagnostics_json:
        Path(cfg.diagnostics_json).write_text(
            json.dumps(result.diagnostics, indent=2, default=float) + "\n"
        )
    print(f"verdict: {'pass' if result.verdict else 'fail'} (h = {result.chosen_h!r})")
    return EXIT_OK if result.verdict else EXIT_VERDICT_FAIL


def cmd_floquet_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    quad = build_cell_quadrature(CellGeometry(R0=0.35, h=0.05), n_r=8, n_t=16, n_strip=6)
    M = args.M
    worst_parseval = 0.0
    worst_round = 0.0
    for _ in range(args.trials):
        samples = rng.standard_normal((2 * M + 1, quad.nodes.size)) + 1j * rng.standard_normal(
            (2 * M + 1, quad.nodes.size)
        )
        f = CellField(M=M, samples=samples, quad=quad)
        g = floquet_forward(f)
        worst_parseval = max(
            worst_parseval, abs(floquet_norm(g) - field_norm(f)) / field_norm(f)
        )
        back = floquet_inverse(g)
        worst_round = max(worst_round, float(np.max(np.abs(back.samples - f.samples))))
    print(f"parseval residual: {worst_parseval!r}")
    print(f"round-trip error:  {worst_round!r}")
    ok = worst_parseval <= 1e-10 and worst_round <= 1e-12
    return EXIT_OK if ok else EXIT_VERDICT_FAIL


def cmd_study_h(args) -> int:
    profile = synthesize_profile(_parse_floats(args.targets))
    rows = h_convergence_study(
        profile,
        _parse_floats(args.h_list),
        eta=args.eta,
        n_track=args.n_track,
        R0=args.r0,
    )
    flat = []
    for row in rows:
        for n, (lam, err) in enumerate(zip(row["lambdas"], row["errors"]), start=1):
            flat.append((repr(row["h"]), n, lam, err))
    _write_csv(args.out, ["h", "n", "lambda", "error"], flat)
    return EXIT_OK


def cmd_conformal_check(args) -> int:
    quad = build_disc_quadrature(1.0, n_r=32, n_t=64)
    rng = np.random.default_rng(7)
    pairs = [identity_pair(), rotation_pair(0.7), moebius_pair(args.alpha)]
    tol = {"identity": 1e-12, "rotation(0.7)": 1e-12}
    worst = {}
    for pair in pairs:
        dev = 0.0
        for _ in range(args.trials):
            coef = rng.standard_normal(6)
            f = lambda z, c=coef: np.polyval(c, z)
            lf = transplant(f, pair, quad.nodes)
            ratio = quad.norm(lf) / quad.norm(f(quad.nodes))
            dev = max(dev, abs(ratio - 1.0))
        worst[pair.tag] = dev
        print(f"{pair.tag}: max |  ||Lf||/||f|| - 1  | = {dev!r}")
    ok = all(d <= tol.get(tag, 1e-8) for tag, d in worst.items())
    return EXIT_OK if ok else EXIT_VERDICT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bergband",
        description="Essential spectra of Bergman-Toeplitz operators on periodic domains",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="synthesize a radial profile from targets")
    s.add_argument("--targets", required=True, help="comma-separated reals")
    s.add_argument("--r0", type=float, default=0.35)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("disc-spec", help="disc spectrum CSV for a profile")
    s.add_argument("--targets", default="")
    s.add_argument("--profile", default=None, help="profile JSON path")
    s.add_argument("--n", type=int, default=32)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_disc_spec)

    s = sub.add_parser("bands", help="band structure CSV at a fixed h")
    s.add_argument("--config", required=True)
    s.add_argument("--h", type=float, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_bands)

    s = sub.add_parser("report", help="run the pipeline and emit the gap report")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_report)

    s = sub.add_parser("run", help="full prescribed-spectrum pipeline")
    s.add_argument("--config", required=True)
    s.set_defaults(func=cmd_run)

    s = sub.add_parser("floquet-check", help="verify transform unitarity")
    s.add_argument("--M", type=int, default=16)
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_floquet_check)

    s = sub.add_parser("study-h", help="fiber eigenvalue convergence in h")
    s.add_argument("--targets", required=True)
    s.add_argument("--h-list", required=True, dest="h_list")
    s.add_argument("--eta", type=float, default=0.0)
    s.add_argument("--n-track", type=int, default=3, dest="n_track")
    s.add_argument("--r0", type=float, default=0.35)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_study_h)

    s = sub.add_parser("conformal-check", help="transplantation isometry checks")
    s.add_argument("--alpha", type=float, default=0.3)
    s.add_argument("--trials", type=int, default=10)
    s.set_defaults(func=cmd_conformal_check)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IllConditionedError, DegenerateBasisError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a problem size too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
