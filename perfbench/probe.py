"""CPU-speed probes used to adjust measured times for host speed drift.

The CPU speed of a shared host drifts by up to 2x over seconds, which no
run length averages away.  Timing a fixed slice of work next to each
measurement and scaling the measurement by ``ref_s / probe`` cancels most
of that drift; the scaled figures read as seconds on the reference host at
its usual speed.  A probe only tracks work like its own, so there are two:
``COMPUTE`` (scalar Python plus small vector kernels, like specfun,
quadrature and the CLI) and ``MEMORY`` (that plus random draws and sweeps
over an array larger than L2, like sampled fading).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 1 << 15)  # 256 KB: stays in L2
_RNG = np.random.default_rng(0)
# Each scale uses the median of this many probes centred on the measurement:
# enough to smooth one probe's noise, few enough (a few seconds of the
# slowest ops) to follow the speed swings.
_WINDOW = 5


def _compute() -> None:
    acc = 0
    for i in range(15_000):
        acc += i * i
    for _ in range(8):
        float(np.exp(-_SMALL).sum())


@functools.cache
def _large() -> np.ndarray:
    return np.ones(1 << 21)  # 16 MB: streams from beyond L2


def _memory() -> None:
    _compute()
    float(_large().sum())
    _RNG.exponential(size=1 << 16)


@dataclass(frozen=True)
class Probe:
    work: Callable[[], None]
    # Typical probe time between ops on the reference host: Intel Xeon,
    # 2 vCPUs with 2 MB L2 each, Python 3.11, numpy 2.4.
    ref_s: float

    def __call__(self) -> float:
        """Seconds the probe's fixed work takes now."""
        t0 = perf_counter()
        self.work()
        return perf_counter() - t0

    def scales(self, probes) -> np.ndarray:
        """ref_s over the median probe of each measurement and its neighbours."""
        p = np.asarray(probes, dtype=float)
        half = _WINDOW // 2
        med = [np.median(p[max(0, i - half):i + half + 1]) for i in range(len(p))]
        return self.ref_s / np.asarray(med)


COMPUTE = Probe(_compute, 1.8e-3)
MEMORY = Probe(_memory, 4.5e-3)
