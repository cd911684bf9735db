"""Seeded scenario generation for the benchmark workloads.

Scenarios come in cycles of ``STRATA`` ops.  The threshold takes each value
of ``THETA_GRID_DB``, every 8 dB over the CLI's range, exactly once per
cycle.  Every other dimension's range is cut into ``STRATA`` equal slices
and every cycle uses each slice exactly once (a Latin hypercube), pairing
slices across dimensions by a fresh random permutation per cycle.  Where in
its slice a value falls follows a randomly shifted van der Corput sequence
over the cycles, so that after a few cycles each slice is filled evenly.

Whether a sweep or cli op passes depends on the threshold (the library's
``gauss_2f1`` raises or loses accuracy from about 24 dB up), and between
about 22 and 26 dB also on the other parameters.  The threshold grid steps
over that band: for every gamma, lambda and noise in range, 20 dB passes
(moment errors at most a tenth of the tolerance), 28 dB misses the moment
oracle (by over 1e5 times the tolerance) and 36 dB and up raise.  So each
cycle holds the same number of failing ops whatever the seed, and runs of
whole cycles report the same failure count.

Cycle ``c`` of seed ``s`` depends only on ``default_rng([s, c])`` and the
per-seed shifts from ``default_rng(s)``, never on how many cycles a run
reaches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Ranges the CLI accepts (and the paper's scenarios span); theta spans
# -20..60 dB.
THETA_GRID_DB = tuple(float(v) for v in range(-20, 61, 8))
STRATA = len(THETA_GRID_DB)
GAMMA = (2.5, 6.0)
LOG10_LAMBDA = (-4.0, -2.0)
NOISE_DBM = (-120.0, -80.0)
POWER_DBM = 0.0
REFERENCE_LAMBDA = 1e-3


@dataclass(frozen=True)
class Scenario:
    """One op's inputs: a network scenario (CLI units) plus a simulator seed.

    Transmit power is fixed at POWER_DBM: only the noise-to-power ratio
    enters the model, and the noise range already spans it.
    """

    lambda_bs: float
    gamma_pl: float
    theta_db: float
    noise_dbm: float
    sim_seed: int

    @property
    def theta(self) -> float:
        return 10.0 ** (self.theta_db / 10.0)

    @property
    def power_mw(self) -> float:
        return 10.0 ** (POWER_DBM / 10.0)

    @property
    def noise_mw(self) -> float:
        return 10.0 ** (self.noise_dbm / 10.0)


# The paper's reference scenario: lambda 1e-3, gamma 5, theta 0 dB, sigma2 -100 dBm.
REFERENCE = Scenario(lambda_bs=REFERENCE_LAMBDA, gamma_pl=5.0, theta_db=0.0,
                     noise_dbm=-100.0, sim_seed=0)


def _van_der_corput(index: int) -> float:
    """Base-2 radical inverse: 0, 1/2, 1/4, 3/4, 1/8, ..."""
    out, scale = 0.0, 0.5
    while index:
        out += scale * (index & 1)
        index >>= 1
        scale /= 2.0
    return out


def _stratified(perm: np.ndarray, position: float, lo: float, hi: float) -> np.ndarray:
    """Slice perm[k] of STRATA equal slices of [lo, hi], at ``position`` within it."""
    return lo + (hi - lo) * (perm + position) / STRATA


def cycle(seed: int, index: int, fixed_lambda: float | None = None) -> list[Scenario]:
    """Scenarios of cycle ``index`` for ``seed``.

    With ``fixed_lambda`` every scenario uses that density; otherwise the
    density is log-uniform over the CLI's range.
    """
    shifts = np.random.default_rng(seed).uniform(size=3)
    pos = (_van_der_corput(index) + shifts) % 1.0
    rng = np.random.default_rng([seed, index])
    theta_db = np.asarray(THETA_GRID_DB)[rng.permutation(STRATA)]
    gamma = _stratified(rng.permutation(STRATA), pos[0], *GAMMA)
    log_lam = _stratified(rng.permutation(STRATA), pos[1], *LOG10_LAMBDA)
    noise_dbm = _stratified(rng.permutation(STRATA), pos[2], *NOISE_DBM)
    sim_seeds = rng.integers(0, 2**31, size=STRATA)
    return [
        Scenario(
            lambda_bs=fixed_lambda if fixed_lambda is not None else 10.0 ** log_lam[k],
            gamma_pl=float(gamma[k]),
            theta_db=float(theta_db[k]),
            noise_dbm=float(noise_dbm[k]),
            sim_seed=int(sim_seeds[k]),
        )
        for k in range(STRATA)
    ]


def feasible_qos(s: Scenario) -> tuple[float, float]:
    """(x_rel, epsilon) whose Markov target is half the infinite-power limit.

    ``min_power`` is feasible iff 1 - eps + x^2 < 1 / (1 + rho_2).  The bound
    rho_n <= (n theta)^(2/g) g/(g-2) - 1 (or 2 n theta/(g-2) when
    n theta <= 1), from 1 - (1+t)^-n <= min(1, n t), keeps the choice
    independent of the hypergeometric function under test.
    """
    g = s.gamma_pl
    nt = 2.0 * s.theta
    rho_bound = 2.0 * nt / (g - 2.0) if nt <= 1.0 else nt ** (2.0 / g) * g / (g - 2.0) - 1.0
    target = 0.5 / (1.0 + rho_bound)
    return math.sqrt(target / 2.0), 1.0 - target / 2.0
