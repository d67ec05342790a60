"""Seeded inputs, operations and correctness checks of the three workloads.

Every workload is a list of seeded inputs (one "pass") and an operation that
takes one input and calls the library only through its public functions.
Checks run outside the timed region and return the operation's oracle error,
the largest distance from a computed spectrum to the closed-form values it
must approximate.  The library modules are looked up at call time
(``band_solver.compute_bands``, not a name imported here) so that the traced
run's wrappers see these calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bergband import band_solver, cli, quasi_bergman
from bergband.disc_spectrum import compute_disc_spectrum, spectral_gap
from bergband.geometry import CellGeometry
from bergband.pipeline import RunConfig, choose_gap_index
from bergband.symbols import RadialProfile, synthesize_profile

WORKLOADS = ("prescribe", "sweep", "h-scan")

# Inputs per pass, sized so that one pass (15-26 s on a 2-core machine) fits
# in one run.
PASS_SIZE = {"prescribe": 10, "sweep": 3, "h-scan": 24}

# The pass of target sets, each moved by up to PRESCRIBE_JITTER per target.
# Random well-posed sets of 2-4 targets in [0.05, 0.4], 0.04 apart, have 2
# targets in 70% of draws and need 2 h-steps (h 0.1, 0.05) in about 75%, and
# 3 in most of the rest; their cost and final distances follow the h-steps.
# Sets drawn afresh for each seed vary the pass cost by up to a quarter
# between seeds, so the pass is this fixed sample of that distribution: one
# set of 4 targets and two of 3, with 7 sets of 2 h-steps and 3 of 3 (last
# column).  Each set keeps its h-step count under the jitter.
PRESCRIBE_BASE = (
    (0.30, 0.12),  # 2
    (0.27, 0.16),  # 2
    (0.35, 0.20),  # 2
    (0.37, 0.21),  # 2
    (0.25, 0.17),  # 2
    (0.29, 0.225),  # 2
    (0.39, 0.23, 0.14),  # 2
    (0.36, 0.30),  # 3
    (0.38, 0.33, 0.22),  # 3
    (0.39, 0.34, 0.26, 0.15),  # 3
)
PRESCRIBE_JITTER = 0.005
EPSILON = RunConfig.__dataclass_fields__["epsilon"].default
REFERENCE_TARGETS = (0.3, 0.2, 0.1)  # the acceptance suite's reference profile
TARGET_JITTER = 0.003
SWEEP_H = 0.01
SWEEP_ETAS = np.linspace(-np.pi, np.pi, 65)
SWEEP_K = 16
SWEEP_QUAD = {"n_r": 48, "n_t": 96, "n_strip": 32}
SWEEP_CHECKED_FIBERS = 3
SCAN_HS = tuple(float(h) for h in np.geomspace(0.1, 0.002, 24))
# acceptance test_06: error <= 0.02 once h <= 0.02 (K = 10)
SCAN_CHECK_H = 0.02
SCAN_TOL = 0.02
AGREE_TOL = 1e-10


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass(frozen=True)
class SweepInput:
    profile: RadialProfile
    cell: CellGeometry
    checked: tuple[int, ...]  # eta indices recomputed fiber by fiber


@dataclass(frozen=True)
class ScanInput:
    profile: RadialProfile
    eta: float


def _gap_radius(targets: tuple[float, ...]):
    """The disc spectrum of the targets' profile and the pipeline's gap radius
    delta (a quarter of the disc spectral gap that isolates the targets)."""
    disc = compute_disc_spectrum(synthesize_profile(targets))
    return disc, spectral_gap(disc, choose_gap_index(disc, targets)) / 4.0


def _well_posed(targets: tuple[float, ...]) -> bool:
    """True when the h -> 0 limit of the run passes with room to spare.

    The limit spectrum is the closed-form disc spectrum.  The gap radius
    delta must exceed epsilon, so epsilon is used as given, and every disc
    eigenvalue that is not a target must lie 2 delta away from every target.
    Otherwise (say the uncontrolled leading eigenvalue sits next to a target)
    the correct verdict is "fail" at every h.
    """
    disc, delta = _gap_radius(targets)
    if delta <= EPSILON:
        return False
    others = [lam for lam in disc.eigenvalues if min(abs(lam - t) for t in targets) > 1e-9]
    return all(abs(lam - t) >= 2.0 * delta for lam in others for t in targets)


def prescribe_targets(base: tuple[float, ...], rng: np.random.Generator) -> tuple[float, ...]:
    """base, each target moved by up to PRESCRIBE_JITTER: distinct targets in
    [0.05, 0.4], at least 0.04 apart, well posed."""
    while True:
        t = tuple(round(float(x), 6) for x in np.sort(np.asarray(base) + rng.uniform(-1, 1, len(base)) * PRESCRIBE_JITTER)[::-1])
        if min(a - b for a, b in zip(t, t[1:])) >= 0.04 and _well_posed(t):
            return t


def reference_profile(rng: np.random.Generator) -> RadialProfile:
    """The reference targets, each moved by up to TARGET_JITTER, at unit scale.

    Band errors scale with the spectrum, so the profile is scaled to spectral
    radius 1: the absolute tolerance of acceptance test_06 then means the same
    for every seed.  The jitter is small enough that the uncontrolled leading
    eigenvalue stays the largest one (its neighbour stays below a quarter of
    it), so the oracle error measures the same eigenvalue on every seed.
    """
    t = np.asarray(REFERENCE_TARGETS) + rng.uniform(-TARGET_JITTER, TARGET_JITTER, 3)
    radius = abs(compute_disc_spectrum(synthesize_profile(t), N_kept=1).eigenvalues[0])
    return synthesize_profile(t / radius)


def make_inputs(workload: str, seed: int) -> list:
    """One pass of seeded inputs; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n = PASS_SIZE[workload]
    if workload == "prescribe":
        return [prescribe_targets(base, rng) for base in PRESCRIBE_BASE[:n]]
    if workload == "sweep":
        cell = CellGeometry(R0=0.35, h=SWEEP_H)
        return [
            SweepInput(
                reference_profile(rng),
                cell,
                tuple(int(i) for i in rng.choice(SWEEP_ETAS.size, SWEEP_CHECKED_FIBERS, replace=False)),
            )
            for _ in range(n)
        ]
    return [ScanInput(reference_profile(rng), float(rng.uniform(-np.pi, np.pi))) for _ in range(n)]


class Workload:
    """Binds one workload's inputs to its operation and check."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.inputs = make_inputs(name, seed)
        self.workdir = workdir
        if name == "prescribe":
            for j, targets in enumerate(self.inputs):
                doc = {
                    "targets": list(targets),
                    "bands_csv": str(workdir / f"bands_{j}.csv"),
                    "report_json": str(workdir / f"report_{j}.json"),
                }
                (workdir / f"config_{j}.json").write_text(json.dumps(doc))

    def run(self, j: int):
        """The timed operation on input j."""
        if self.name == "prescribe":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["run", "--config", str(self.workdir / f"config_{j}.json")])
            return code, out.getvalue()
        if self.name == "sweep":
            x = self.inputs[j]
            return band_solver.compute_bands(
                x.cell, x.profile, SWEEP_ETAS, K_modes=SWEEP_K, **SWEEP_QUAD
            )
        x = self.inputs[j]
        return band_solver.h_convergence_study(x.profile, SCAN_HS, x.eta)

    def check(self, j: int, result) -> float:
        """Raise CheckFailed if the output of input j is wrong; else its oracle error."""
        if self.name == "prescribe":
            return self._check_prescribe(j, *result)
        if self.name == "sweep":
            return _check_sweep(self.inputs[j], result)
        return _check_scan(result)

    def _check_prescribe(self, j: int, code: int, stdout: str) -> float:
        targets = self.inputs[j]
        report_path = self.workdir / f"report_{j}.json"
        bands_path = self.workdir / f"bands_{j}.csv"
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}: {stdout.strip()}")
            report = json.loads(report_path.read_text())
            with open(bands_path, newline="") as f:
                rows = sum(1 for _ in csv.reader(f)) - 1
        finally:
            # A repeat of this input must not pass on these files.
            report_path.unlink(missing_ok=True)
            bands_path.unlink(missing_ok=True)
        if report["verdict"] != "pass":
            raise CheckFailed(f"verdict {report['verdict']} for targets {targets}")
        # The pipeline caps epsilon just below delta; _well_posed keeps
        # delta > epsilon, so this is epsilon itself.
        eps = min(EPSILON, 0.999 * _gap_radius(targets)[1])
        dists = [hit["distance"] for hit in report["targets"]]
        if len(dists) != len(targets) or max(dists) > eps:
            raise CheckFailed(f"target distances {dists} exceed epsilon {eps}")
        cfg = RunConfig(targets=targets)
        if rows != cfg.eta_points * cfg.N_keep:
            raise CheckFailed(f"bands CSV has {rows} rows, want {cfg.eta_points * cfg.N_keep}")
        return max(dists)


def _check_sweep(x: SweepInput, bands) -> float:
    lam = bands.lambdas
    if lam.shape != (SWEEP_ETAS.size, bands.N_keep) or not np.all(np.isfinite(lam)):
        raise CheckFailed(f"bands have shape {lam.shape} or non-finite values")
    asym = float(np.max(np.abs(lam - lam[::-1])))
    if asym > AGREE_TOL:
        raise CheckFailed(f"lambda(eta) != lambda(-eta): {asym:.3e}")
    sup = x.profile.sup_norm()
    if np.max(np.abs(lam)) > sup * (1 + 1e-12):
        raise CheckFailed(f"|lambda| {np.max(np.abs(lam))} exceeds sup|b| = {sup}")
    quad = band_solver.build_cell_quadrature(x.cell, **SWEEP_QUAD)
    for i in x.checked:
        basis = quasi_bergman.build_basis(x.cell, float(SWEEP_ETAS[i]), SWEEP_K, quad)
        ev = np.linalg.eigvalsh(band_solver.toeplitz_matrix(x.cell, x.profile, basis))
        # Compare moduli and values rather than positions, so that two
        # eigenvalues of equal modulus may come in either order.
        top = np.sort(np.abs(ev))[::-1][: bands.N_keep]
        top = np.pad(top, (0, bands.N_keep - top.size))
        off = max(
            float(np.max(np.abs(np.sort(np.abs(lam[i]))[::-1] - top))),
            max(float(np.min(np.abs(np.append(ev, 0.0) - v))) for v in lam[i]),
        )
        if off > AGREE_TOL:
            raise CheckFailed(f"fiber {i} differs from its direct solve by {off:.3e}")
    disc = compute_disc_spectrum(x.profile).eigenvalues[:4]
    return max(float(np.min(np.abs(lam - d))) for d in disc)


def _check_scan(rows) -> float:
    if [r["h"] for r in rows] != list(SCAN_HS):
        raise CheckFailed("study rows do not match the h list")
    for r in rows:
        if not np.all(np.isfinite(r["errors"])):
            raise CheckFailed(f"non-finite error at h = {r['h']}")
        if r["h"] <= SCAN_CHECK_H and max(r["errors"]) > SCAN_TOL:
            raise CheckFailed(f"error {max(r['errors']):.4f} > {SCAN_TOL} at h = {r['h']}")
    return max(rows[-1]["errors"])
