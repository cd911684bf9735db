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
stored as that CSV plus the JSON record of `campaign_to_dict`; the CSV and
the CLI's moments file share one format, which read_column_csv parses.

Determinism: a campaign runs in blocks of BLOCK_SIZE realizations, and
block b draws from its own generator, seeded with (seed, b).  Realization i
lives in block i // BLOCK_SIZE, so with the block size fixed every draw is
reproducible bit-for-bit, and a campaign of k * BLOCK_SIZE realizations is
the prefix of any longer campaign under the same seed (a final partial
block draws a different stream).  draw_ppp draws the block's counts, the
one PPP draw, and the block's CCP kernel reads them as drawn.  In sampled
mode the block's generator then makes one binomial call, M draws for each
realization's analytic CCP.  The geometry is drawn as in analytic mode, so
a sampled realization sees exactly the radii of the analytic one under the
same seed.
The blocks run on one worker per CPU the process may run on, at most
_MAX_WORKERS, and at most one worker per block.  A single worker is the
calling thread, so a one-block campaign starts no thread; more workers are
a thread pool.  Every block writes only its own samples, and no draw
depends on which thread made it, so no sample depends on the thread count.
No sum meets the coverage threshold, so campaigns in both modes are
bit-reproducible across thread counts and BLAS builds.

Memory: a block draws its counts first, then its squared distances and
CCPs one chunk at a time, each chunk a fixed number of whole realizations,
_CHUNK_POINTS over the mean count lambda pi R^2 (at least one), so a chunk
holds about _CHUNK_POINTS points.  The distances are consecutive uniforms of
the block's generator whatever the chunking, so the samples are those of
one draw of the whole block.  A worker holds one chunk's distances and one
work array of the same length: about 1 MB until the mean count passes
_CHUNK_POINTS (lambda above about 8e-2 on the 500 m disk), then 16 B per BS
of one realization, which MAX_MEAN_COUNT caps near 1 GiB.  A block adds its
BLOCK_SIZE counts and CCPs, and a sampled block its BLOCK_SIZE binomial
counts.
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

# Most workers a campaign runs on, whatever the host's CPU count: two is the
# count the concurrent campaigns were measured at.
_MAX_WORKERS = 2

# BS distances a chunk of a block holds on average: 512 KB per float64
# array, so the CCP kernel's two arrays stay inside a 2 MB L2.
_CHUNK_POINTS = 1 << 16

# Largest accepted mean BS count lambda pi R^2: a realization of this many
# BSs fills a chunk alone, and the CCP kernel's two float64 arrays of its
# distances take about 1 GiB; far above it a campaign cannot be allocated.
MAX_MEAN_COUNT = 1 << 26

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
        if not self.mean_count < math.inf:
            raise ValueError(
                f"the mean BS count lambda pi R^2 is not finite at lambda = "
                f"{self.params.lambda_bs!r} and region_radius = {self.region_radius!r}"
            )
        if self.mean_count > MAX_MEAN_COUNT:
            raise ValueError(
                f"the mean BS count lambda pi R^2 = {self.mean_count:.6g} exceeds "
                f"{MAX_MEAN_COUNT}: lower the density or region_radius"
            )
        nonempty = -math.expm1(-self.mean_count)
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

    @property
    def mean_count(self) -> float:
        """Mean BS count of a realization, lambda pi R^2."""
        return self.params.lambda_bs * math.pi * self.region_radius * self.region_radius


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
        _check_samples(samples)


def _check_samples(samples: np.ndarray) -> None:
    if samples.size == 0:
        raise ValueError("need at least one realization, got 0")
    if not np.all((samples >= 0.0) & (samples <= 1.0)):  # NaN fails both
        raise ValueError("CCP samples must lie in [0, 1]")


def draw_ppp(
    config: SimConfig, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """BS counts of a block of `size` PPP realizations on the disk, none empty.

    Returns (counts, redraws).  counts[k] is realization k's BS count,
    Poisson with mean lambda pi R^2, all counts in one call; an empty
    realization is redrawn from the same generator, and redraws counts those
    draws.  The positions follow on the same generator: realization k owns
    the next counts[k] uniforms of rng.random, the squared distances of its
    BSs over R^2.  Positions uniform over the disk have P(r <= t) = (t/R)^2,
    so those are uniform on [0, 1).  Angles are not drawn: the coverage
    probability does not depend on them.
    """
    mean = config.mean_count
    counts = rng.poisson(mean, size=size)
    empty = np.flatnonzero(counts == 0)
    redraws = 0
    while empty.size:
        redraws += empty.size
        counts[empty] = rng.poisson(mean, size=empty.size)
        empty = empty[counts[empty] == 0]
    return counts, redraws


def _nonempty(distances: np.ndarray) -> np.ndarray:
    r = np.asarray(distances, dtype=float)
    if r.size == 0:
        raise ValueError("empty realization: no base station to serve the user")
    return r


def _ccp_rows(u: np.ndarray, counts: np.ndarray, params: SystemParams, scale: float) -> np.ndarray:
    """Analytic CCP of every realization of a block, in one pass.

    Realization k owns the next counts[k] squared distances of u, in units
    of scale^2 m^2, so r = scale sqrt(u) and (r0/r_i)^gamma =
    (u0/u_i)^(gamma/2): no square root is taken.  Every count must be
    positive.  The log-product over all BSs includes the serving one, whose
    term is exactly log1p(theta); it is subtracted so that a tie at the
    minimum still counts the other BS as an interferer.
    """
    half = 0.5 * params.gamma_pl
    starts = np.cumsum(counts) - counts
    u0 = np.minimum.reduceat(u, starts)
    terms = np.repeat(u0, counts)
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
    return float(_ccp_rows(r * r, np.array([r.size]), params, 1.0)[0])


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

    Campaigns sample its law, Binomial(num_draws, ccp_analytic) / num_draws,
    directly; this is the check of that law (see the module docstring).
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
    a serving BS existing) and counted in `redraws`; the empty probability
    exp(-lambda pi R^2) is negligible at physical densities, and SimConfig
    rejects a disk that is nonempty with probability below MIN_NONEMPTY_PROB.
    Each block, in either mode, draws its counts with draw_ppp, then its
    squared distances and analytic CCPs with one kernel call per chunk of
    per_chunk realizations, about _CHUNK_POINTS points.  The module
    docstring describes the blocks' seeding and chunks, the sampled-mode
    thinning and the workers (numpy releases the GIL in the heavy calls).
    An exception in any block is raised here.
    """
    params = config.params
    radius = config.region_radius
    total = config.num_realizations
    draws = config.num_channel_draws
    sampled = config.fading_mode == FADING_SAMPLED
    samples = np.empty(total)
    firsts = range(0, total, BLOCK_SIZE)
    per_chunk = max(1, int(_CHUNK_POINTS // config.mean_count))

    def run_block(first: int) -> int:
        rng = np.random.default_rng([config.rng_seed, first // BLOCK_SIZE])
        counts, redraws = draw_ppp(config, min(BLOCK_SIZE, total - first), rng)
        block = samples[first:first + counts.size]
        for lo in range(0, counts.size, per_chunk):
            chunk = counts[lo:lo + per_chunk]
            block[lo:lo + per_chunk] = _ccp_rows(rng.random(chunk.sum()), chunk, params, radius)
        if sampled:
            block[:] = rng.binomial(draws, block) / draws
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


def read_column_csv(path: str | Path, header: str, wrong_header: str) -> list[float]:
    """Floats in the first field of each non-empty row below a `header` row.

    csv.reader splits the rows, so LF and CRLF files, quoted fields and extra
    columns read alike.  A wrong header raises ValueError(f"{path}: {wrong_header}").
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if not first or first[0] != header:
            raise ValueError(f"{path}: {wrong_header}")
        return [float(row[0]) for row in reader if row]


def read_samples_csv(path: str | Path) -> np.ndarray:
    """Read a samples file written by write_samples_csv, via read_column_csv.

    Raises ValueError on a missing `ccp` header, no samples, or a sample
    outside [0, 1] (NaN included).
    """
    not_ccp = "not a CCP samples file (missing 'ccp' header)"
    samples = np.array(read_column_csv(path, "ccp", not_ccp))
    _check_samples(samples)
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
