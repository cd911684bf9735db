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

A realization is drawn as its NEAREST_BS nearest BSs.  With t = pi lambda
r^2, the BSs of a PPP in order of distance are the arrivals t_1 < t_2 < ...
of a unit-rate Poisson process, the cumulative sums of standard
exponentials, and a BS lies in the disk if t <= m = lambda pi R^2.  No
angles are drawn: the CCP depends on the distances alone.  The serving BS
and the NEAREST_BS - 1 nearest interferers enter the CCP exactly; the BSs
of the disk beyond t_K (K = NEAREST_BS) form a PPP on t_K < t <= m, and
their product is replaced by its expectation, the PGFL of that PPP:

    log(1/C) = (c_1 t_1)^(gamma/2) + sum_{2<=k<=K, t_k<=m} log1p(theta (t_1/t_k)^(gamma/2))
               + delta theta^delta t_1 [F(theta (t_1/t_K)^(gamma/2)) - F(theta (t_1/m)^(gamma/2))],

with c_1 = SystemParams.noise_root, delta = 2/gamma, the last term only
where t_K < m, and F(s) = int_0^s x^-delta / (1 + x) dx, which
specfun.far_integral_parts evaluates as a positive-term series.  Given its K
nearest BSs a realization's full-disk CCP has expectation exactly this C,
so E[C], and with it the mean of every campaign, is exact; the higher
moments E[C^n] lose only the Jensen gap E[C_full^n] - E[C^n] >= 0 of the
far field.  A realization costs K BSs at any density.  On the plane (R =
inf) no BS is masked and the edge term is F(0) = 0.

The statistics (empirical moments and reliability) and the samples CSV work
on the array of CCP samples alone, wherever it came from.  A campaign is
stored as that CSV plus the JSON record of `campaign_to_dict`; the CSV and
the CLI's moments file share one format, which read_column_csv parses.

Determinism: a campaign runs in blocks of BLOCK_SIZE realizations, one
after another on the calling thread, and block b draws from its own
generator, seeded with (seed, b).  Realization i lives in block i //
BLOCK_SIZE, so with the block size fixed every draw is reproducible
bit-for-bit, and a campaign of k * BLOCK_SIZE realizations is the prefix of
any longer campaign under the same seed (a final partial block draws a
different stream).  draw_ppp makes the block's one geometry draw and one
`random` call for the nearest BSs of the disks empty at first draw (with
none empty it draws nothing and leaves the generator's state as it was);
one kernel call turns the draw into the block's CCPs, taking each ratio
t_1/t_j and t_1/m once in one (BLOCK_SIZE, NEAREST_BS + 1) array.  In sampled mode the block's generator then makes
one binomial call, M draws for each realization's analytic CCP.  The
geometry is drawn as in analytic mode, so a sampled realization sees
exactly the BSs of the analytic one under the same seed.
No sum meets the coverage threshold and no thread is started, so campaigns
in both modes are bit-reproducible across hosts' CPU counts and BLAS builds.
"""
from __future__ import annotations

import csv
import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .moments import METHOD_EMPIRICAL, MomentSequence, SystemParams
from .specfun import far_integral_parts

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

# BSs a realization draws exactly (K in the module docstring); the rest of
# the disk enters through its PGFL.
NEAREST_BS = 32


@dataclass(frozen=True)
class SimConfig:
    """Campaign definition: scenario, disk radius (inf: the plane), scale, seeding.

    region_radius is stored as a Python float and the counts as Python ints.
    """

    params: SystemParams
    num_realizations: int
    region_radius: float = 500.0
    fading_mode: str = FADING_ANALYTIC
    num_channel_draws: int = 700
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.region_radius > 0.0:
            raise ValueError(f"region_radius must be positive, got {self.region_radius}")
        object.__setattr__(self, "region_radius", float(self.region_radius))
        if not self.mean_count > 0.0:
            raise ValueError(f"the mean BS count lambda pi R^2 is not positive at lambda = "
                             f"{self.params.lambda_bs!r} and region_radius = "
                             f"{self.region_radius!r}")
        if self.num_realizations < 1:
            raise ValueError(f"need at least one realization, got {self.num_realizations}")
        if self.num_channel_draws < 1:
            raise ValueError(f"need at least one channel draw, got {self.num_channel_draws}")
        if self.fading_mode not in _FADING_MODES:
            raise ValueError(f"unknown fading_mode {self.fading_mode!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative, got {self.rng_seed}")
        for name in ("num_realizations", "num_channel_draws", "rng_seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))

    @property
    def mean_count(self) -> float:
        """Mean BS count of a realization, lambda pi R^2; inf on the plane."""
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


def _check_distances(distances: np.ndarray) -> np.ndarray:
    r = np.asarray(distances, dtype=float)
    if r.size == 0:
        raise ValueError("empty realization: no base station to serve the user")
    bad = np.flatnonzero(~((r >= 0.0) & (r < math.inf)))  # NaN fails both
    if bad.size:
        raise ValueError(f"BS distances must be finite and >= 0, got r = {float(r[bad[0]])!r}")
    return r


def draw_ppp(
    config: SimConfig, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """The NEAREST_BS nearest BSs of `size` PPP realizations on the disk, none empty.

    Returns (arrivals, redraws).  Row k of the (size, NEAREST_BS) array holds
    realization k's t_j = pi lambda r_j^2 in increasing order: the
    cumulative sums of one `rng.standard_exponential((size, NEAREST_BS))`
    draw.  The BSs of a row with t_j > m = lambda pi R^2 lie outside the
    disk.  A realization whose nearest BS lies outside has an empty disk;
    its first gap is replaced once by an exponential conditioned on t_1 <= m,
    -log1p(u expm1(-m)) with u from one `rng.random(k)` call for the k empty
    rows, and redraws counts those rows.  The gaps after the first are
    independent of it, so each row has the law of a nonempty disk's nearest
    BSs.  On the plane (m = inf) no row is empty and redraws is 0.
    """
    mean = config.mean_count
    gaps = rng.standard_exponential((size, NEAREST_BS))
    empty = np.flatnonzero(gaps[:, 0] > mean)
    gaps[empty, 0] = -np.log1p(rng.random(empty.size) * math.expm1(-mean))
    return np.cumsum(gaps, axis=1, out=gaps), empty.size


def _log_inv_ccp(arrivals: np.ndarray, params: SystemParams, edge: float) -> np.ndarray:
    """log(1/C) of each row of arrivals, the sorted t_j of its nearest BSs.

    A row is the nearest BSs of a disk realization whose edge is at t = edge
    (m = lambda pi R^2 for a campaign's draw_ppp rows): the BSs past the edge
    do not interfere, and where the row's last BS lies inside the disk the
    PGFL of the disk beyond it is added (the module docstring has the
    formula).  At edge = inf, the plane, no BS is masked and the edge term is
    F(0) = 0.  (t_1/t_j)^(gamma/2) = (r_1/r_j)^gamma, and (c_1 t_1)^(gamma/2)
    = theta sigma2 r_1^gamma / p.

    Every ratio is taken once, in one (N, K+1) array for N rows of K
    arrivals: column j-1 holds s_j = theta min(t_1/t_j, 1)^(gamma/2), j = 1..K,
    and column K holds s_m, the same at the edge.  The last two columns are
    F's arguments, s_K taken as s_m where t_K lies past the edge, copied to
    the contiguous (2, N) pair F's table is laid out for.  Then columns
    1..K-1, the interferers, are zeroed past the edge and summed through
    log1p, which runs over the whole array in one contiguous pass.
    """
    half = 0.5 * params.gamma_pl
    theta = params.theta
    nearest = arrivals[:, 0]
    s = np.empty((nearest.size, arrivals.shape[1] + 1))
    s[:, :-1] = arrivals
    s[:, -1] = edge
    np.divide(nearest[:, None], s, out=s)
    np.fmin(s, 1.0, out=s)  # 0/0 for BSs on the user: the ratio is 1
    np.power(s, half, out=s)
    s *= theta
    # F at s_K and at s_m in one call; a t_K past the edge is taken as m, so
    # the two cancel exactly.
    np.copyto(s[:, -2], s[:, -1], where=arrivals[:, -1] > edge)
    delta = 1.0 / half
    offset, series = far_integral_parts(s[:, -2:].T.copy(), delta)
    far = (offset[0] - offset[1]) + (series[0] - series[1])
    s[:, 1:-1][arrivals[:, 1:] > edge] = 0.0  # BSs past the edge do not interfere
    log_inv = np.log1p(s, out=s)[:, 1:-1].sum(axis=1)
    log_inv += (params.noise_root * nearest) ** half
    log_inv += delta * theta**delta * nearest * far
    return log_inv


def ccp_analytic(distances: np.ndarray, params: SystemParams) -> float:
    """Coverage probability conditioned on the geometry, averaged over fading.

    With the serving BS at distance r0 (nearest) and interferers at r_i,

        C = exp(-theta sigma2 r0^gamma / p) prod_i [1 + theta (r0/r_i)^gamma]^(-1),

    evaluated in log space so thousands of interferers cannot underflow the
    product to zero.  This is the campaign kernel's sorted one-row call on
    the disk whose edge is the farthest BS, so the far field is exactly 0:
    the distances are every BS there is.  It raises ValueError on a distance
    that is NaN, infinite or negative, or whose arrival pi lambda r^2 overflows.
    """
    r = _check_distances(distances)
    with np.errstate(over="ignore"):
        arrivals = math.pi * params.lambda_bs * (r * r)
    bad = np.flatnonzero(~np.isfinite(arrivals))
    if bad.size:
        raise ValueError(f"arrival pi lambda r^2 = {float(arrivals[bad[0]])!r} is not "
                         f"finite at distance r = {float(r[bad[0]])!r}")
    arrivals.sort()
    with np.errstate(invalid="ignore"):
        log_inv = _log_inv_ccp(arrivals[None, :], params, arrivals[-1])[0]
    return math.exp(-log_inv)


def ccp_sampled(
    distances: np.ndarray,
    params: SystemParams,
    num_draws: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of i.i.d. Rayleigh channel draws with SINR above threshold.

    A draw is covered when S > theta (I + sigma2), taken relative to the
    serving BS's mean power p r0^-gamma: g_0 > theta sum_i g_i w_i + theta
    sigma2 r0^gamma / p with w_i = min(r0 / r_i, 1)^gamma, the kernel's
    rule, so a BS on the user (0/0) weighs 1, as the serving one would.  A
    lone noise-free BS covers every draw, and so does theta = 0.

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
    num_draws = operator.index(num_draws)
    r = _check_distances(distances)
    serving = int(np.argmin(r))
    r0 = r[serving]
    gamma = params.gamma_pl
    # r0 = 0 makes 0/0, a ratio of 1.  The noise term theta sigma2 r0^gamma
    # / p is taken as (c r0)^gamma, as the kernel takes (c_1 t_1)^(gamma/2):
    # 0 when theta or sigma2 is 0, inf (no draw clears it) past the doubles.
    root = (params.theta * params.noise / params.power) ** (1.0 / gamma)
    with np.errstate(invalid="ignore", over="ignore"):
        weights = np.fmin(r0 / r, 1.0) ** gamma
        noise = (root * r0) ** gamma
    weights[serving] = 0.0
    gains = rng.standard_exponential((num_draws, r.size))
    covered = gains[:, serving] > params.theta * (gains @ weights) + noise
    return int(np.count_nonzero(covered)) / num_draws


def run_campaign(config: SimConfig) -> EmpiricalMeta:
    """Full campaign: one CCP sample per realization.

    The model conditions on a serving BS existing: a realization whose disk
    is empty at first draw (probability exp(-lambda pi R^2), 0 on the plane)
    takes its nearest BS from the law conditioned on a nonempty disk, and
    `redraws` counts those realizations (see draw_ppp).  The blocks run one
    after another on the calling thread.  Each block, in either mode, makes
    one draw_ppp call and one kernel call on its (BLOCK_SIZE, NEAREST_BS)
    arrivals; a sampled block then thins its CCPs with one binomial call
    (see the module docstring).
    """
    params = config.params
    total = config.num_realizations
    draws = config.num_channel_draws
    samples = np.empty(total)
    redraws = 0
    for first in range(0, total, BLOCK_SIZE):
        rng = np.random.default_rng([config.rng_seed, first // BLOCK_SIZE])
        arrivals, block_redraws = draw_ppp(config, min(BLOCK_SIZE, total - first), rng)
        redraws += block_redraws
        ccp = np.exp(-_log_inv_ccp(arrivals, params, config.mean_count))
        if config.fading_mode == FADING_SAMPLED:
            ccp = rng.binomial(draws, ccp) / draws
        samples[first:first + ccp.size] = ccp
    return EmpiricalMeta(ccp_samples=samples, config=config, redraws=redraws)


def empirical_moments(samples: np.ndarray, max_n: int) -> MomentSequence:
    """Sample moments mu_hat_n = mean(c^n) of CCP samples c, for n = 0..max_n.

    The floats are np.mean(samples**n)'s, by one rule: mu_0 is 1.0, and for
    each n >= 1, np.power(c, n) fills a zeroed buffer wherever |c| is not
    below 2^(-1080/n) (NaN included), and mu_n is its mean.  Below the
    bound |c^n| < 2^-1080, under half the smallest subnormal 2^-1075, so
    `**` rounds it to 0.0 anyway, and skipping it skips libm pow's
    underflow path, some 40 times slower per element.  At n = 1 the bound
    rounds to 0.0, so every sample is kept.  Empty samples raise ValueError.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    c = np.asarray(samples, dtype=float)
    if c.size == 0:
        raise ValueError("empirical moments need at least one sample")
    magnitude = np.abs(c)
    values = [1.0]
    for n in range(1, max_n + 1):
        powers = np.zeros_like(c)
        np.power(c, n, out=powers, where=~(magnitude < 2.0 ** (-1080.0 / n)))
        values.append(float(np.mean(powers)))
    return MomentSequence(values=tuple(values), method=METHOD_EMPIRICAL)


def empirical_reliability(samples: np.ndarray, x) -> float | np.ndarray:
    """Fraction of CCP samples strictly above x; scalar or ndarray x.

    The count above each x is N less the samples <= x, found in one sorted
    copy by searchsorted, and divided by N: the same float as the mean of
    the comparisons `samples > x`, for samples without NaN.  A NaN x has no
    sample above it.  Empty samples raise ValueError.
    """
    xs = np.asarray(x, dtype=float)
    total = len(samples)
    if total == 0:
        raise ValueError("reliability estimates need at least one sample")
    result = (total - np.searchsorted(np.sort(samples), xs, side="right")) / total
    return float(result) if xs.ndim == 0 else result


def write_samples_csv(samples: np.ndarray, path: str | Path) -> None:
    """One CCP sample per row under a single `ccp` header column.

    The bytes are csv.writer's (CRLF line ends, no quoting: a float's repr
    holds no delimiter), written in one call.
    """
    rows = "\r\n".join(["ccp", *map(repr, np.asarray(samples, dtype=float).tolist())])
    with open(path, "w", newline="") as fh:
        fh.write(rows + "\r\n")


def read_column_csv(path: str | Path, header: str, wrong_header: str) -> np.ndarray:
    """Float64 array of the first field of each non-empty row below a `header` row.

    csv.reader reads the header row; one np.loadtxt call parses the body in
    C, into the doubles `float` gives (numpy also rejects the digit
    separators of `1_0`).  LF and CRLF files, quoted fields and extra
    columns read alike, and `#` is no comment.  A wrong header raises
    ValueError(f"{path}: {wrong_header}"), a field that is not a number
    ValueError(f"{path}: {numpy's message}"), which quotes the field; its
    row counts from 0 at the first non-empty row below the header.  A file
    with no row below the header reads as an empty array.
    """
    with open(path, newline="") as fh:
        first = next(csv.reader(fh), None)
        if not first or first[0] != header:
            raise ValueError(f"{path}: {wrong_header}")
        # np.loadtxt warns on no data, so it starts at the first non-empty row.
        for line in fh:
            if line.strip("\r\n"):
                break
        else:
            return np.empty(0)
        try:
            return np.loadtxt(itertools.chain([line], fh), delimiter=",", usecols=0,
                              quotechar='"', comments=None, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_samples_csv(path: str | Path) -> np.ndarray:
    """Read a samples file written by write_samples_csv, via read_column_csv.

    Raises ValueError on a missing `ccp` header, a field that is not a
    number, no samples, or a sample outside [0, 1] (NaN included).
    """
    not_ccp = "not a CCP samples file (missing 'ccp' header)"
    samples = read_column_csv(path, "ccp", not_ccp)
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
            "region_radius_m": cfg.region_radius if cfg.region_radius < math.inf else None,
            "fading_mode": cfg.fading_mode,
            "num_channel_draws": cfg.num_channel_draws,
            "rng_seed": cfg.rng_seed,
            "nearest_bs": NEAREST_BS,
            "far_field": "pgfl",
        },
        "diagnostics": {"redraws": emp.redraws},
    }
