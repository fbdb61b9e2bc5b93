"""Frozen reference for the equalized-level solve.

``oracle_level`` is the plain 48-step bisection of
:meth:`repro.batch.hypothetical.HypotheticalRPF.equalized_level` as it
stood before the solve learned to skip the probes that monotone demand
already decides: two early-out probes, then one exact demand probe at
every mid.  ``oracle_utilities`` maps its level to per-job utilities the
way ``utilities_array(method="exact")`` does.  The identity tests in
``tests/test_hypothetical.py`` compare the production solve with these
by ``==``.
"""

import numpy as np

from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.units import EPSILON

#: Bisection steps of the frozen solve.
ITERATIONS = 48


def _demand(h, level, done):
    horizon = (h._goal - level * h._relative_goal) - h._now
    speed = np.full(len(horizon), np.inf)
    np.divide(h._remaining, horizon, out=speed, where=horizon > EPSILON)
    np.minimum(speed, h._max_speed, out=speed)
    speed[done] = 0.0
    return speed


def oracle_level(h, aggregate_mhz):
    """The equalized level of ``h`` at ``aggregate_mhz``, by plain
    bisection with a demand probe at every step."""
    if len(h._job_ids) == 0:
        return 1.0
    aggregate = max(0.0, float(aggregate_mhz))
    done = h._remaining <= EPSILON

    def demand(level):
        return float(_demand(h, level, done).sum())

    lo, hi = float(h._levels[0]), 1.0
    if demand(hi) <= aggregate + EPSILON:
        return hi
    if demand(lo) > aggregate:
        return lo
    for _ in range(ITERATIONS):
        mid = 0.5 * (lo + hi)
        if demand(mid) <= aggregate:
            lo = mid
        else:
            hi = mid
    return lo


def oracle_utilities(h, aggregate_mhz):
    """Per-job utilities at :func:`oracle_level`, aligned with
    ``h.job_ids``."""
    if len(h._job_ids) == 0:
        return np.zeros(0)
    u = np.minimum(oracle_level(h, aggregate_mhz), h._u_max)
    u = np.clip(u, NEGATIVE_INFINITY_UTILITY, None)
    u[h._remaining <= EPSILON] = 1.0
    return u
