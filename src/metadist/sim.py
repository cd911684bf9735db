"""Monte Carlo ground truth for the meta distribution.

Base stations are dropped as a homogeneous PPP on a disk around the typical
user at the origin; the user attaches to the nearest one.  Conditioned on
the geometry, Rayleigh fading makes the coverage probability available in
closed form (the product over interferers), so the default "analytic" mode
evaluates it directly - one number per realization.  The "sampled" mode
instead estimates it as the fraction of independent channel draws whose
SINR clears the threshold, reproducing the classic two-stage protocol and
serving as a cross-check on the analytic path.

A realization is the vector of BS distances from the user: both paths
depend on the geometry only through it, so no angles are drawn.

The statistics (empirical moments and reliability) and the samples CSV work
on the array of CCP samples alone, wherever it came from.  A campaign is
stored as that CSV plus the JSON record of `campaign_to_dict`.

Determinism: every realization derives its own generator from
(seed, realization index, redraw attempt), so campaigns are reproducible
bit-for-bit regardless of execution order.  Sampled-mode channel draws
follow the distance draws on that generator.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .moments import METHOD_EMPIRICAL, MomentSequence, SystemParams

__all__ = [
    "SimConfig",
    "EmpiricalMeta",
    "draw_ppp",
    "ccp_analytic",
    "ccp_sampled",
    "run_campaign",
    "empirical_moments",
    "empirical_reliability",
    "write_samples_csv",
    "read_samples_csv",
    "scenario_to_dict",
    "campaign_to_dict",
]

FADING_ANALYTIC = "analytic"
FADING_SAMPLED = "sampled"
_FADING_MODES = (FADING_ANALYTIC, FADING_SAMPLED)


@dataclass(frozen=True)
class SimConfig:
    """Campaign definition: scenario, observation disk, scale, and seeding."""

    params: SystemParams
    num_realizations: int
    region_radius: float = 500.0
    fading_mode: str = FADING_ANALYTIC
    num_channel_draws: int = 700
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.region_radius > 0.0:
            raise ValueError(f"region_radius must be positive, got {self.region_radius}")
        if self.num_realizations < 1:
            raise ValueError(f"need at least one realization, got {self.num_realizations}")
        if self.num_channel_draws < 1:
            raise ValueError(f"need at least one channel draw, got {self.num_channel_draws}")
        if self.fading_mode not in _FADING_MODES:
            raise ValueError(f"unknown fading_mode {self.fading_mode!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative, got {self.rng_seed}")


@dataclass(frozen=True)
class EmpiricalMeta:
    """Per-realization CCP samples plus the campaign that produced them."""

    ccp_samples: np.ndarray
    config: SimConfig
    redraws: int = 0

    def __post_init__(self) -> None:
        samples = np.asarray(self.ccp_samples, dtype=float)
        samples.setflags(write=False)
        object.__setattr__(self, "ccp_samples", samples)
        if len(samples) != self.config.num_realizations:
            raise ValueError(
                f"{len(samples)} samples for {self.config.num_realizations} realizations"
            )
        if np.any((samples < 0.0) | (samples > 1.0)):
            raise ValueError("CCP samples must lie in [0, 1]")


def draw_ppp(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """One PPP realization on the disk: 1-D array of N BS distances in m.

    N is Poisson with mean lambda pi R^2.  Positions uniform over the disk
    have distances with P(r <= t) = (t/R)^2, drawn as R sqrt(U).  Their
    angles are not drawn: the coverage probability does not depend on them.
    """
    lam = config.params.lambda_bs
    radius = config.region_radius
    count = rng.poisson(lam * math.pi * radius * radius)
    return radius * np.sqrt(rng.uniform(size=count))


def _nonempty(distances: np.ndarray) -> np.ndarray:
    r = np.asarray(distances, dtype=float)
    if r.size == 0:
        raise ValueError("empty realization: no base station to serve the user")
    return r


def ccp_analytic(distances: np.ndarray, params: SystemParams) -> float:
    """Coverage probability conditioned on the geometry, averaged over fading.

    With the serving BS at distance r0 (nearest) and interferers at r_i,

        C = exp(-theta sigma2 r0^gamma / p) prod_i [1 + theta (r0/r_i)^gamma]^(-1),

    evaluated in log space so thousands of interferers cannot underflow the
    product to zero.
    """
    r = _nonempty(distances)
    serving = int(np.argmin(r))
    r0 = r[serving]
    others = np.delete(r, serving)
    g = params.gamma_pl
    log_c = -params.theta * params.noise * r0**g / params.power
    log_c -= float(np.sum(np.log1p(params.theta * (r0 / others) ** g)))
    return float(np.exp(log_c))


def ccp_sampled(
    distances: np.ndarray,
    params: SystemParams,
    num_draws: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of i.i.d. Rayleigh channel draws with SINR above threshold.

    A draw is covered when S > theta (I + sigma2), which needs no division:
    a lone noise-free BS (I + sigma2 = 0) covers every draw.
    """
    if num_draws < 1:
        raise ValueError(f"need at least one channel draw, got {num_draws}")
    r = _nonempty(distances)
    serving = int(np.argmin(r))
    gains = rng.exponential(1.0, size=(num_draws, r.size))
    weights = params.power * r ** -params.gamma_pl
    signal = gains[:, serving] * weights[serving]
    weights[serving] = 0.0
    return float(np.mean(signal > params.theta * (gains @ weights + params.noise)))


def _realization_rng(config: SimConfig, index: int, attempt: int) -> np.random.Generator:
    return np.random.default_rng([config.rng_seed, index, attempt])


def run_campaign(config: SimConfig) -> EmpiricalMeta:
    """Full campaign: one CCP sample per realization.

    Realizations with no BS in the disk are redrawn (the model conditions on
    a serving BS existing); the redraw count is reported.  At physical
    densities this never triggers - the empty probability is exp(-lambda pi R^2).
    """
    samples = np.empty(config.num_realizations)
    redraws = 0
    for i in range(config.num_realizations):
        attempt = 0
        while True:
            rng = _realization_rng(config, i, attempt)
            distances = draw_ppp(config, rng)
            if len(distances) > 0:
                break
            redraws += 1
            attempt += 1
        if config.fading_mode == FADING_ANALYTIC:
            samples[i] = ccp_analytic(distances, config.params)
        else:
            samples[i] = ccp_sampled(distances, config.params, config.num_channel_draws, rng)
    return EmpiricalMeta(ccp_samples=samples, config=config, redraws=redraws)


def empirical_moments(samples: np.ndarray, max_n: int) -> MomentSequence:
    """Sample moments mu_hat_n = mean(c^n) of CCP samples c, for n = 0..max_n."""
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    values = tuple(float(np.mean(samples**n)) for n in range(max_n + 1))
    return MomentSequence(values=values, method=METHOD_EMPIRICAL)


def empirical_reliability(samples: np.ndarray, x) -> float | np.ndarray:
    """Fraction of CCP samples strictly above x; scalar or ndarray x."""
    xs = np.asarray(x, dtype=float)
    result = np.mean(samples > xs[..., None], axis=-1)
    return float(result) if xs.ndim == 0 else result


def write_samples_csv(samples: np.ndarray, path: str | Path) -> None:
    """One CCP sample per row under a single `ccp` header column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ccp"])
        for value in samples:
            writer.writerow([repr(float(value))])


def read_samples_csv(path: str | Path) -> np.ndarray:
    """Read a samples file written by write_samples_csv.

    Raises:
        ValueError: no `ccp` header, no samples, or a sample outside [0, 1].
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "ccp":
            raise ValueError(f"{path}: not a CCP samples file (missing 'ccp' header)")
        samples = np.array([float(row[0]) for row in reader if row])
    if samples.size == 0:
        raise ValueError("need at least one realization, got 0")
    if np.any((samples < 0.0) | (samples > 1.0)):
        raise ValueError("CCP samples must lie in [0, 1]")
    return samples


def scenario_to_dict(params: SystemParams) -> dict:
    """JSON-ready view of a scenario, in linear units (mW, per m^2)."""
    return {
        "lambda_bs": params.lambda_bs,
        "gamma_pl": params.gamma_pl,
        "theta": params.theta,
        "power_mw": params.power,
        "noise_mw": params.noise,
    }


def campaign_to_dict(emp: EmpiricalMeta) -> dict:
    """JSON-ready view of a campaign: scenario, config, diagnostics."""
    cfg = emp.config
    return {
        "scenario": scenario_to_dict(cfg.params),
        "config": {
            "num_realizations": cfg.num_realizations,
            "region_radius_m": cfg.region_radius,
            "fading_mode": cfg.fading_mode,
            "num_channel_draws": cfg.num_channel_draws,
            "rng_seed": cfg.rng_seed,
        },
        "diagnostics": {"redraws": emp.redraws},
    }
