"""Monte Carlo ground truth for the meta distribution.

Base stations are dropped as a homogeneous PPP on a disk around the typical
user at the origin; the user attaches to the nearest one.  Conditioned on
the geometry, Rayleigh fading makes the coverage probability available in
closed form (the product over interferers), so the default "analytic" mode
evaluates it directly - one number per realization.  The "sampled" mode
instead reports the fraction of M independent channel draws whose SINR
clears the threshold, the classic two-stage protocol.  Given the geometry
each draw is covered with probability exactly the analytic CCP, so that
fraction is Binomial(M, CCP) / M, and a campaign samples it as such: the
analytic CCP thinned by one binomial draw per realization.  ccp_sampled,
which draws the fading itself, is the independent check on that law.

A realization is the vector of BS distances from the user: both paths
depend on the geometry only through it, so no angles are drawn.

The statistics (empirical moments and reliability) and the samples CSV work
on the array of CCP samples alone, wherever it came from.  A campaign is
stored as that CSV plus the JSON record of `campaign_to_dict`.

Determinism: a campaign runs in blocks of BLOCK_SIZE realizations, and
block b draws from its own generator, seeded with (seed, b).  Realization i
lives in block i // BLOCK_SIZE, so with the block size fixed every draw is
reproducible bit-for-bit, and a campaign of k * BLOCK_SIZE realizations is
the prefix of any longer campaign under the same seed (a final partial
block draws a different stream).  draw_ppp is the one PPP draw: it gives a
block's Poisson counts in one call (empty realizations are redrawn from the
same generator and counted), then all its squared distances in one call.
In sampled mode the block's generator then makes one binomial call, M
draws for each realization's analytic CCP.  The geometry is drawn as in
analytic mode, so a sampled realization sees exactly the radii of the
analytic one under the same seed.
The blocks run on one worker per CPU the process may run on, at most
_MAX_WORKERS, and at most one worker per block.  A single worker is the
calling thread, so a one-block campaign starts no thread; more workers are
a thread pool.  Every block writes only its own samples, and no draw
depends on which thread made it, so no sample depends on the thread count.
No sum meets the coverage threshold, so campaigns in both modes are
bit-reproducible across thread counts and BLAS builds.  A block holds its
squared distances and one work array of the same length: at lambda 1e-2 on
the 500 m disk that is about 2M points, 32 MB, and a campaign holds one
block per worker: at most 64 MB, whatever the host's CPU count.  A sampled
block adds only its BLOCK_SIZE binomial counts.  ccp_sampled holds its
whole (draws, N) gains matrix: 8 * draws * N bytes.
"""
from __future__ import annotations

import csv
import math
import os
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

# Realizations per block: the unit of seeding and of vectorised work.
BLOCK_SIZE = 256

# Most workers a campaign runs on, whatever the host's CPU count: a block
# holds up to 32 MB at lambda 1e-2, so this bounds a campaign's block memory
# at 64 MB there.  Two is the count the concurrent
# campaigns were measured at.
_MAX_WORKERS = 2

# Smallest accepted probability that the disk holds a BS: below it a
# realization needs more than 1e5 Poisson draws on average to be nonempty.
MIN_NONEMPTY_PROB = 1e-5


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
        if not 0.0 < self.region_radius < math.inf:
            raise ValueError(
                f"region_radius must be positive and finite, got {self.region_radius}"
            )
        nonempty = -math.expm1(
            -self.params.lambda_bs * math.pi * self.region_radius * self.region_radius
        )
        if not nonempty >= MIN_NONEMPTY_PROB:
            raise ValueError(
                f"the disk holds a BS with probability {nonempty:.3g}, below "
                f"{MIN_NONEMPTY_PROB:g}: raise the density or region_radius"
            )
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
        if not np.all((samples >= 0.0) & (samples <= 1.0)):  # NaN fails both
            raise ValueError("CCP samples must lie in [0, 1]")


def draw_ppp(
    config: SimConfig, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int]:
    """A block of `size` PPP realizations on the disk, none of them empty.

    Returns (u, starts, redraws).  Realization k owns u[starts[k]:starts[k+1]]
    (the last runs to the end): the squared distances of its BSs over R^2.
    Its BS count is Poisson with mean lambda pi R^2, all counts in one call;
    an empty realization is redrawn from the same generator, and redraws
    counts those draws.  Positions uniform over the disk have P(r <= t) =
    (t/R)^2, so u is uniform on [0, 1), all of it in one call after the
    counts.  Angles are not drawn: the coverage probability does not depend
    on them.
    """
    radius = config.region_radius
    mean = config.params.lambda_bs * math.pi * radius * radius
    counts = rng.poisson(mean, size=size)
    empty = np.flatnonzero(counts == 0)
    redraws = 0
    while empty.size:
        redraws += empty.size
        counts[empty] = rng.poisson(mean, size=empty.size)
        empty = empty[counts[empty] == 0]
    return rng.random(int(counts.sum())), np.cumsum(counts) - counts, redraws


def _nonempty(distances: np.ndarray) -> np.ndarray:
    r = np.asarray(distances, dtype=float)
    if r.size == 0:
        raise ValueError("empty realization: no base station to serve the user")
    return r


def _ccp_rows(u: np.ndarray, starts: np.ndarray, params: SystemParams, scale: float) -> np.ndarray:
    """Analytic CCP of every realization of a block, in one pass.

    Realization k owns the squared distances u[starts[k]:starts[k+1]] (the
    last runs to the end), in units of scale^2 m^2, so r = scale sqrt(u) and
    (r0/r_i)^gamma = (u0/u_i)^(gamma/2): no square root is taken.  Every
    realization must be nonempty.  The log-product over all BSs includes the
    serving one, whose term is exactly log1p(theta); it is subtracted so that
    a tie at the minimum still counts the other BS as an interferer.
    """
    half = 0.5 * params.gamma_pl
    u0 = np.minimum.reduceat(u, starts)
    terms = np.repeat(u0, np.diff(starts, append=u.size))
    with np.errstate(invalid="ignore"):
        np.divide(terms, u, out=terms)
    np.fmin(terms, 1.0, out=terms)  # 0/0 for a BS on the user: the ratio is 1
    np.power(terms, half, out=terms)
    terms *= params.theta
    np.log1p(terms, out=terms)
    log_i = np.add.reduceat(terms, starts) - math.log1p(params.theta)
    noise = params.theta * params.noise * scale**params.gamma_pl / params.power
    return np.exp(-noise * u0**half - log_i)


def ccp_analytic(distances: np.ndarray, params: SystemParams) -> float:
    """Coverage probability conditioned on the geometry, averaged over fading.

    With the serving BS at distance r0 (nearest) and interferers at r_i,

        C = exp(-theta sigma2 r0^gamma / p) prod_i [1 + theta (r0/r_i)^gamma]^(-1),

    evaluated in log space so thousands of interferers cannot underflow the
    product to zero.  This is the one-row call of the campaign kernel.
    """
    r = _nonempty(distances)
    return float(_ccp_rows(r * r, np.array([0]), params, 1.0)[0])


def ccp_sampled(
    distances: np.ndarray,
    params: SystemParams,
    num_draws: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of i.i.d. Rayleigh channel draws with SINR above threshold.

    A draw is covered when S > theta (I + sigma2), which needs no division:
    a lone noise-free BS (I + sigma2 = 0) covers every draw.

    The exponential gains are one (num_draws, N) matrix, 8 * num_draws * N
    bytes, the same draws as `rng.exponential(1.0, size=(num_draws, N))`.
    The interference of every draw is one BLAS product, `gains @ weights`,
    whose rounding depends on the matrix shape and on the BLAS build.  So
    the result is bit-reproducible only up to a draw whose SINR lands within
    an ulp of the threshold.

    Campaigns do not call this: the covered count it returns has the law
    Binomial(num_draws, ccp_analytic), which run_campaign samples directly.
    It stays public as the independent check of that law, drawing the
    Rayleigh fading that the analytic product integrates out.
    """
    if num_draws < 1:
        raise ValueError(f"need at least one channel draw, got {num_draws}")
    r = _nonempty(distances)
    serving = int(np.argmin(r))
    weights = params.power * r ** -params.gamma_pl
    w0 = weights[serving]
    weights[serving] = 0.0
    gains = rng.standard_exponential((num_draws, r.size))
    covered = gains[:, serving] * w0 > params.theta * (gains @ weights + params.noise)
    return int(np.count_nonzero(covered)) / num_draws


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_campaign(config: SimConfig) -> EmpiricalMeta:
    """Full campaign: one CCP sample per realization.

    Realizations with no BS in the disk are redrawn (the model conditions on
    a serving BS existing); the redraw count is reported.  At physical
    densities this never triggers - the empty probability is exp(-lambda pi R^2),
    and SimConfig rejects a disk that is nonempty with probability below
    MIN_NONEMPTY_PROB.
    Realizations run in blocks of BLOCK_SIZE, seeded as the module docstring
    describes.  Each block, in either mode, draws its geometry with
    draw_ppp and evaluates its analytic CCPs with one kernel call; in
    sampled mode the block's generator then thins them into the covered
    fraction of num_channel_draws draws, one binomial call for the block.
    The blocks run on one worker per CPU the process may run on, at most
    _MAX_WORKERS, and at most one worker per block.  One worker is the
    calling thread, which runs the blocks in order; more are the threads of
    a pool (numpy releases the GIL in the heavy calls).  An exception in any
    block is raised here.
    """
    params = config.params
    radius = config.region_radius
    total = config.num_realizations
    draws = config.num_channel_draws
    sampled = config.fading_mode == FADING_SAMPLED
    samples = np.empty(total)
    firsts = range(0, total, BLOCK_SIZE)

    def run_block(first: int) -> int:
        rng = np.random.default_rng([config.rng_seed, first // BLOCK_SIZE])
        u, starts, redraws = draw_ppp(config, min(BLOCK_SIZE, total - first), rng)
        ccp = _ccp_rows(u, starts, params, radius)
        if sampled:
            ccp = rng.binomial(draws, ccp) / draws
        samples[first:first + starts.size] = ccp
        return redraws

    workers = min(_MAX_WORKERS, _cpu_count(), len(firsts))
    if workers == 1:
        redraws = sum(map(run_block, firsts))
    else:
        # Imported here, not at module level, to keep it out of the import time.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            redraws = sum(pool.map(run_block, firsts))
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
    """One CCP sample per row under a single `ccp` header column.

    The bytes are csv.writer's (CRLF line ends, no quoting: a float's repr
    holds no delimiter), written in one call.
    """
    rows = "".join(f"{value!r}\r\n" for value in np.asarray(samples, dtype=float).tolist())
    with open(path, "w", newline="") as fh:
        fh.write("ccp\r\n" + rows)


def read_samples_csv(path: str | Path) -> np.ndarray:
    """Read a samples file written by write_samples_csv.

    Raises:
        ValueError: no `ccp` header, no samples, or a sample outside [0, 1]
            (NaN included).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "ccp":
            raise ValueError(f"{path}: not a CCP samples file (missing 'ccp' header)")
        samples = np.array([float(row[0]) for row in reader if row])
    if samples.size == 0:
        raise ValueError("need at least one realization, got 0")
    if not np.all((samples >= 0.0) & (samples <= 1.0)):  # NaN fails both
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
