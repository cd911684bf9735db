import pytest
from hypothesis import settings

from metadist.moments import SystemParams

# Every property test draws the same examples on every run: a gate that fails
# once fails again.  No deadline (an mpmath reference may take a second) and
# no example database, so no run depends on what an earlier one found.
settings.register_profile("metadist", derandomize=True, deadline=None, database=None)
settings.load_profile("metadist")

# Reference scenario used throughout: lambda = 1e-3 per m^2, gamma = 5,
# theta = 0 dB, p = 0 dBm (1 mW), sigma^2 = -100 dBm (1e-10 mW).
PAPER_SCENARIO = dict(lambda_bs=1e-3, gamma_pl=5.0, theta=1.0, power=1.0, noise=1e-10)

# Jacobi bases (alpha, beta): the Legendre case, a matched-type basis
# (negative alpha, like real reconstructions) and two asymmetric
# positive-weight pairs.
BASES = [(0.0, 0.0), (-0.4354, 0.1118), (0.3, 1.7), (2.0, 0.5)]


@pytest.fixture(scope="session")
def paper_params() -> SystemParams:
    return SystemParams(**PAPER_SCENARIO)
