"""Same-run reference kernel for machine-speed normalisation.

The host this benchmark runs on is shared: identical simulator work was
seen to take anywhere from 1.0x to 1.9x its fastest wall time, in
regimes lasting seconds to minutes, with no steal time reported.  No
estimator over the program's own timings can remove a slowdown that
covers a whole run, so every timed stretch is bracketed by a fixed
reference kernel and timings are rescaled to the kernel's nominal speed
(ROADMAP aim 1: "gates compare against a reference measured in the same
run").

The kernel imitates the simulator's instruction mix: small-object and
dict churn in the interpreter (what the scalar solver path does), NumPy
sorts, scans and gathers on solver-sized arrays (what the vectorized
path does), and a random walk over a table of 30,000 small objects,
larger than a core's private caches (the simulator's job, node and
span objects are scattered over tens of megabytes).  Contention slows
these parts differently.  Without the random walk, the program slowed
about 1.3x as much as the kernel did (in log terms), and normalised
times of one repeated stream still varied by 4.6% (Experiment Two with
observers) and 7.4% (Experiment One at 200 nodes); with it, by 2.6% and
3.9%.

The kernel is part of the benchmark, never of the program, so a change
to ``src/`` moves the program's timings and leaves the kernel's
unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

#: About the kernel's fastest wall time, in seconds, on the 2.0 GHz Xeon
#: core the benchmark was defined on.  Normalised timings read as
#: seconds on that machine when it is uncontended.
NOMINAL_KERNEL_SECONDS = 0.006


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


_RNG = np.random.default_rng(0)
_VECTOR = _RNG.random(4096)
_INDEX = _RNG.integers(0, 4096, 1024)
_MATRIX = _RNG.random((25, 200))
_TABLE = [_Item(i, i * 0.5) for i in range(30_000)]
_WALK = _RNG.integers(0, len(_TABLE), 12_000).tolist()


def _kernel() -> float:
    # Interpreter part: object allocation, dict updates, a sort.
    table = {}
    acc = 0.0
    for i in range(4000):
        item = _Item(i % 211, i * 0.5)
        table[item.key] = table.get(item.key, 0.0) + item.value
        acc += table[item.key] * 1e-9
    acc += min(table.values())
    # NumPy part: sorts, scans, masks and gathers on solver-sized arrays.
    for _ in range(6):
        order = np.argsort(_VECTOR, kind="stable")
        cumulative = np.cumsum(_VECTOR[order])
        acc += float(np.flatnonzero(cumulative > cumulative[-1] * 0.5)[0])
        acc += float(_VECTOR[_INDEX].sum())
        acc += float(np.minimum(_MATRIX, 0.5).sum(axis=0).max())
    # Memory part: loads from all over a table larger than L2.
    for i in _WALK:
        acc += _TABLE[i].value * 1e-9
    return acc


def measure() -> float:
    """One reference reading: the kernel's wall time."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


@dataclass
class Stopwatch:
    """Accumulates program wall time in stretches bracketed by kernel
    readings, and converts it to nominal-machine seconds.

    Call :meth:`start` before the first stretch and :meth:`lap` after
    each; a lap's slowdown factor is the mean of the readings on either
    side of it divided by :data:`NOMINAL_KERNEL_SECONDS`.
    """

    #: (raw seconds, slowdown factor) per lap.
    laps: List[Tuple[float, float]] = field(default_factory=list)
    _last: float = 0.0

    def start(self) -> None:
        self._last = measure()

    def lap(self, raw_seconds: float) -> float:
        """Close a stretch of ``raw_seconds``; returns its slowdown factor."""
        reading = measure()
        factor = (self._last + reading) / (2.0 * NOMINAL_KERNEL_SECONDS)
        self._last = reading
        self.laps.append((raw_seconds, factor))
        return factor

    @property
    def raw_seconds(self) -> float:
        return sum(raw for raw, _ in self.laps)

    @property
    def nominal_seconds(self) -> float:
        return sum(raw / factor for raw, factor in self.laps)
