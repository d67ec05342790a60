"""End-to-end orchestration: targets -> profile -> h-loop -> bands -> verdict.

Given a finite list of real targets, synthesize a radial symbol whose disc
eigenvalues hit them, then shrink the ligament width h (halving from
h_initial) until the computed essential spectrum of the periodic operator
has a component within epsilon of every target, separated from the rest of
the spectrum by the gap radius delta.  The theory guarantees this for all
small enough h but gives no rate, so the loop is the operational version
of "small enough": it stops at the first pass, or reports failure once h
falls below h_min.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, asdict
from typing import Iterable, Iterator

import numpy as np

from .geometry import CellGeometry
from .symbols import RadialProfile, TargetSpec, synthesize_profile
from .disc_spectrum import DiscSpectrum, compute_disc_spectrum, moment_eigenvalue, spectral_gap
from .band_solver import (
    BandStructure,
    SpectrumReport,
    band_structures,
    essential_spectrum,
    gap_report,
)
# not called here; bench/tracing.py looks the name up in this module
from .band_solver import compute_bands

__all__ = [
    "RunConfig",
    "RunResult",
    "json_delta_achieved",
    "run_prescribed_spectrum",
    "config_bands",
    "choose_gap_index",
]


def _is_number(value) -> bool:
    """A JSON number that converts to a float without overflow."""
    if isinstance(value, bool):
        return False
    return isinstance(value, float) or (
        isinstance(value, int) and abs(value) <= sys.float_info.max
    )


# RunConfig field annotation -> (what a JSON value must be, test of the value)
_JSON_KINDS = {
    "tuple[float, ...]": (
        "a list of numbers",
        lambda v: isinstance(v, list) and all(_is_number(t) for t in v),
    ),
    "float": ("a number", _is_number),
    "float | None": ("a number or null", lambda v: v is None or _is_number(v)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
}


@dataclass(frozen=True)
class RunConfig:
    targets: tuple[float, ...]
    epsilon: float = 0.02
    delta_override: float | None = None
    R0: float = 0.35
    eta_points: int = 65
    K_modes: int = 10
    h_initial: float = 0.1
    h_min: float = 1e-3
    N_keep: int = 8
    bands_csv: str | None = None
    report_json: str | None = None
    diagnostics_json: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(float(t) for t in self.targets))
        if not all(np.isfinite(self.targets)):
            raise ValueError(f"targets must be finite, got {list(self.targets)}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("targets must be pairwise distinct")
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.delta_override is not None and not (0.0 < self.delta_override < np.inf):
            raise ValueError(
                f"delta_override must be positive and finite, got {self.delta_override}"
            )
        if not (0.25 < self.R0 < 0.5):
            raise ValueError(f"R0 must be in (1/4, 1/2), got {self.R0}")
        if not (0.0 < self.h_initial <= 0.1):
            raise ValueError(f"h_initial must be in (0, 0.1], got {self.h_initial}")
        if not (0.0 < self.h_min <= self.h_initial):
            raise ValueError(
                f"h_min must be in (0, h_initial={self.h_initial}], got {self.h_min}"
            )
        if not (self.K_modes >= 0):
            raise ValueError(f"K_modes must be >= 0, got {self.K_modes}")
        if not (self.N_keep >= 1):
            raise ValueError(f"N_keep must be >= 1, got {self.N_keep}")
        if not (self.eta_points >= 3 and self.eta_points % 2 == 1):
            raise ValueError(f"eta_points must be odd and >= 3, got {self.eta_points}")

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Config from a JSON object; any malformed document raises ValueError."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "targets" not in doc:
            raise ValueError("config is missing the required field targets")
        for name, value in doc.items():
            want, ok = _JSON_KINDS[cls.__dataclass_fields__[name].type]
            if not ok(value):
                raise ValueError(f"{name} must be {want}, got {value!r}")
        doc["targets"] = tuple(doc["targets"])
        return cls(**doc)

    def to_json(self) -> str:
        doc = asdict(self)
        doc["targets"] = list(self.targets)
        return json.dumps(doc, indent=2)


@dataclass(frozen=True)
class RunResult:
    profile: RadialProfile
    chosen_h: float
    band_structure: BandStructure | None
    spectrum_report: SpectrumReport
    diagnostics: dict

    @property
    def verdict(self) -> bool:
        return self.spectrum_report.verdict


def json_delta_achieved(report: SpectrumReport) -> float | None:
    """delta_achieved for strict JSON: infinite (no target hit, or nothing
    else left to be separated from) is null."""
    delta = report.delta_achieved
    return delta if np.isfinite(delta) else None


def choose_gap_index(spec: DiscSpectrum, targets: tuple[float, ...]) -> int:
    """Smallest N such that the top-N disc eigenvalues (by modulus) cover
    every target; the spectral gap |lambda_N| - |lambda_{N+1}| then
    isolates the target block from the tail."""
    lams = spec.eigenvalues
    hit = [
        min(range(len(lams)), key=lambda i: abs(lams[i] - x)) for x in targets
    ]
    return max(hit) + 1 if hit else 1


def config_bands(
    config: RunConfig, profile: RadialProfile, hs: Iterable[float]
) -> Iterator[BandStructure]:
    """Band structures of ``profile`` over the configured eta grid and
    basis, one per ligament half-width in ``hs``: one band_structures pass
    over the cells of radius config.R0, each cell solved when asked for."""
    return band_structures(
        (CellGeometry(R0=config.R0, h=h) for h in hs),
        profile,
        np.linspace(-np.pi, np.pi, config.eta_points),
        K_modes=config.K_modes,
        N_keep=config.N_keep,
    )


def run_prescribed_spectrum(config: RunConfig) -> RunResult:
    """Synthesize, then halve h until the gap report passes or h_min is hit.

    The h-steps are one config_bands pass.  The first step forms the basis
    and the disc moments; each step adds its ligament's strip factorization
    and fiber solves, and no step after the first pass is solved.  Each
    diagnostics["h_trace"] entry records its step's band time as bands_s.

    An empty target list passes trivially (zero symbol, spectrum = {0}).
    Synthesis ill-conditioning raises, and so does a target whose disc
    eigenvalue the synthesized profile misses by more than epsilon
    (ValueError; cancellation among the coefficients of targets that span
    many orders of magnitude).  Everything downstream reports a verdict
    instead of raising.
    """
    profile = synthesize_profile(config.targets)
    for n, x in enumerate(config.targets, start=1):
        lam = moment_eigenvalue(profile, n)
        if not (abs(lam - x) <= config.epsilon):  # NaN fails too
            raise ValueError(
                f"synthesis puts target {x!r} at {lam!r}, "
                f"farther than epsilon={config.epsilon!r}"
            )
    disc = compute_disc_spectrum(profile)
    diagnostics: dict = {
        "config": json.loads(config.to_json()),
        "sup_norm": profile.sup_norm(),
        "disc_top": list(disc.eigenvalues[:12]),
        "h_trace": [],
    }

    if not config.targets:
        report = gap_report(
            [(0.0, 0.0)],
            TargetSpec(targets=(), epsilon=config.epsilon, delta=2 * config.epsilon),
        )
        return RunResult(
            profile=profile,
            chosen_h=config.h_initial,
            band_structure=None,
            spectrum_report=report,
            diagnostics=diagnostics,
        )

    N = choose_gap_index(disc, config.targets)
    gap = spectral_gap(disc, N)
    if config.delta_override is None and not (gap > 0.0):
        raise ValueError(
            f"spectral gap |lambda_{N}| - |lambda_{N + 1}| = {gap!r} leaves no gap "
            "radius delta: a target in the 0-cluster needs delta_override"
        )
    delta = config.delta_override if config.delta_override is not None else gap / 4.0
    diagnostics["gap_index_N"] = N
    diagnostics["spectral_gap"] = gap
    diagnostics["delta"] = delta
    # The proximity radius must stay below the separation radius for the
    # verdict to be meaningful; cap it when the requested epsilon is too
    # generous for the synthesized spectrum's gap, and record that.
    epsilon = min(config.epsilon, 0.999 * delta)
    if epsilon < config.epsilon:
        diagnostics["epsilon_adjusted_from"] = config.epsilon
        diagnostics["epsilon_effective"] = epsilon
    tspec = TargetSpec(targets=config.targets, epsilon=epsilon, delta=delta)

    # the halving sequence: h_initial >= h_min (RunConfig), so it has at least
    # one step, and it ends before the next halving would fall below h_min
    hs = [config.h_initial]
    while 0.5 * hs[-1] >= config.h_min:
        hs.append(0.5 * hs[-1])
    steps = config_bands(config, profile, hs)
    for h in hs:
        start = time.perf_counter()
        bands = next(steps)
        bands_s = time.perf_counter() - start
        components = essential_spectrum(bands, zero_tol=delta / 2.0)
        report = gap_report(components, tspec)
        diagnostics["h_trace"].append(
            {
                "h": h,
                "components": [list(c) for c in components],
                "target_distances": [hd["distance"] for hd in report.target_hits],
                "delta_achieved": json_delta_achieved(report),
                "dim_eff": bands.dim_eff,
                "verdict": report.verdict,
                "bands_s": bands_s,
            }
        )
        if report.verdict:
            break
    if not report.verdict:
        diagnostics["failure"] = f"h fell below h_min={config.h_min} without a pass"
    return RunResult(
        profile=profile,
        chosen_h=h,
        band_structure=bands,
        spectrum_report=report,
        diagnostics=diagnostics,
    )
