"""Hypothetical relative performance (§4.2): the ``W`` and ``V`` matrices.

The controller must predict — every control cycle — the relative
performance each job in the system (running *or* still queued) will
achieve, given a particular aggregate CPU allocation to the batch
workload.  The paper's construction:

* pick a small set of *target relative performance values*
  ``u_1 = −∞ < u_2 < … < u_R = 1`` (sampling points);
* ``W[i][m]`` is the average speed job ``m`` must sustain from ``t_now``
  to achieve ``u_i`` — equation (3) — clamped at the job's maximum speed
  once ``u_i`` exceeds the job's maximum achievable relative performance
  ``u^max_m`` (equation (4));
* ``V[i][m]`` is ``u_i`` itself, clamped at ``u^max_m`` (equation (5));
* for a given aggregate allocation ``ω_g``, find ``k`` with
  ``Σ_m W[k][m] ≤ ω_g ≤ Σ_m W[k+1][m]`` (equation (6)), interpolate each
  job's speed ``ω_m`` between ``W[k][m]`` and ``W[k+1][m]``, and derive
  the job's predicted relative performance ``u_m`` from ``ω_m``.

The interpolation avoids solving a system of linear equations online
(which the paper notes is too costly for an on-line placement algorithm).
The controller's default prediction (``PredictionMethod.EXACT``) does
not use the matrices at all: it solves the common level that the
aggregate sustains exactly (:meth:`HypotheticalRPF.equalized_level`),
probing the per-job demand only at the levels its bisection cannot
decide from earlier probes.  ``W``/``V`` are built lazily, for the
``INTERPOLATE`` method and the matrix accessors only.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.batch.rpf import JobAllocationRPF
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.errors import ConfigurationError
from repro.units import EPSILON


class PredictionMethod(str, enum.Enum):
    """How per-job utilities are derived from an aggregate allocation.

    ``EXACT`` solves the equalized fair-share level by bisection;
    ``INTERPOLATE`` uses the paper's ``W``/``V`` sampling approximation
    (equation (6)).  Subclasses ``str`` so the historical string toggles
    (``method="exact"``) keep comparing and serializing as before.
    """

    EXACT = "exact"
    INTERPOLATE = "interpolate"

    @classmethod
    def coerce(cls, value: Union["PredictionMethod", str]) -> "PredictionMethod":
        """Accept an enum member or its string value.

        Raises :class:`ValueError` (the enum's native miss) for anything
        else; call sites that promise :class:`ConfigurationError` wrap it.
        """
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown prediction method {value!r}; "
                f"expected one of {[m.value for m in cls]}"
            ) from None


#: Accepted by every ``method=`` parameter.
MethodLike = Union[PredictionMethod, str]

#: Default sampling points ``u_1 = −∞, …, u_R = 1`` (§4.2 uses a small
#: constant R).  Denser near the "interesting" region around the goal
#: (u = 0) where placement decisions actually move jobs.
DEFAULT_UTILITY_LEVELS: Tuple[float, ...] = (
    NEGATIVE_INFINITY_UTILITY,
    -8.0,
    -4.0,
    -2.0,
    -1.0,
    -0.5,
    -0.25,
    0.0,
    0.2,
    0.4,
    0.6,
    0.8,
    1.0,
)


#: Bisection iterations for the exact equalized-level solve; 48 halvings
#: of the [-50, 1] interval resolve the level far below model noise.
_LEVEL_SOLVE_ITERATIONS = 48

#: Most safeguarded Newton probes one solve spends locating its level
#: before the bisection runs (the bisection probes whatever they leave
#: open, so the cap only bounds the cost of a badly conditioned solve).
_NEWTON_PROBES = 16


def _validated_levels(levels: Sequence[float]) -> np.ndarray:
    """Validate the sampling points ``u_1 … u_R`` and return them as an
    array (shared by both constructors)."""
    if len(levels) < 2:
        raise ConfigurationError("need at least two sampling levels")
    lv = list(levels)
    if any(b <= a for a, b in zip(lv, lv[1:])):
        raise ConfigurationError("sampling levels must be strictly increasing")
    if abs(lv[-1] - 1.0) > EPSILON:
        raise ConfigurationError("last sampling level must be 1.0")
    return np.asarray(lv, dtype=float)


def _check_demand_premise(remaining: np.ndarray, relative_goal: np.ndarray) -> None:
    """Reject job fields under which demand could fall as the level rises
    (the premise of :meth:`HypotheticalRPF.equalized_level`).  NaN fails
    both checks."""
    if not np.all(relative_goal > 0):
        raise ConfigurationError("every relative goal must be positive")
    if not np.all(remaining >= 0):
        raise ConfigurationError("remaining work must be non-negative")


class HypotheticalRPF:
    """The sampled hypothetical relative performance of a set of jobs.

    Frozen at a point in time: construct from per-job
    :class:`~repro.batch.rpf.JobAllocationRPF` objects (which capture each
    job's remaining work, goal and speed ceiling at that time).
    """

    def __init__(
        self,
        job_rpfs: Sequence[JobAllocationRPF],
        levels: Sequence[float] = DEFAULT_UTILITY_LEVELS,
    ) -> None:
        self._levels = _validated_levels(levels)
        self._job_ids: List[str] = [r.job_id for r in job_rpfs]

        self._remaining = np.array([r.remaining_work for r in job_rpfs], dtype=float)
        self._goal = np.array([r.goal for r in job_rpfs], dtype=float)
        self._relative_goal = np.array([r.relative_goal for r in job_rpfs], dtype=float)
        _check_demand_premise(self._remaining, self._relative_goal)
        self._max_speed = np.array([r.max_speed for r in job_rpfs], dtype=float)
        self._now = np.array([r.now for r in job_rpfs], dtype=float)
        self._u_max = np.array([r.max_utility for r in job_rpfs], dtype=float)

        # W/V are built lazily: the exact equalized-level solve (the
        # controller's default prediction path) never touches them, only
        # the interpolation path and the matrix accessors do.
        self._w: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._w_sums: Optional[np.ndarray] = None
        #: Equalized-level solutions keyed by exact aggregate allocation.
        #: The instance is frozen at construction time, so the bisection
        #: is a pure function of the aggregate — repeated solves during a
        #: control cycle's candidate sweep are shared.
        self._level_cache: Dict[float, float] = {}

    @classmethod
    def from_arrays(
        cls,
        job_ids: Sequence[str],
        *,
        remaining: np.ndarray,
        goal: np.ndarray,
        relative_goal: np.ndarray,
        max_speed: np.ndarray,
        now: np.ndarray,
        u_max: np.ndarray,
        levels: Sequence[float] = DEFAULT_UTILITY_LEVELS,
    ) -> "HypotheticalRPF":
        """Build directly from per-job field arrays, skipping the
        per-job :class:`~repro.batch.rpf.JobAllocationRPF` objects.

        The vectorized batch model computes these arrays in bulk; values
        must match what the object-based constructor would have read off
        the RPFs (byte-identity tests pin this).  Arrays are adopted
        without copying — callers must not mutate them afterwards.
        """
        obj = cls.__new__(cls)
        obj._levels = _validated_levels(levels)
        obj._job_ids = list(job_ids)
        obj._remaining = np.asarray(remaining, dtype=float)
        obj._goal = np.asarray(goal, dtype=float)
        obj._relative_goal = np.asarray(relative_goal, dtype=float)
        obj._max_speed = np.asarray(max_speed, dtype=float)
        obj._now = np.asarray(now, dtype=float)
        obj._u_max = np.asarray(u_max, dtype=float)
        _check_demand_premise(obj._remaining, obj._relative_goal)
        obj._w = None
        obj._v = None
        obj._w_sums = None
        obj._level_cache = {}
        return obj

    def _ensure_matrices(self) -> None:
        """Build W (R x M) and V (R x M) vectorized, on first use."""
        if self._w is not None:
            return
        lv = self._levels
        if len(self._job_ids) == 0:
            self._w = np.zeros((len(lv), 0))
            self._v = np.zeros((len(lv), 0))
            self._w_sums = np.zeros(len(lv))
            return

        u = lv[:, None]                                     # (R, 1)
        target_completion = self._goal[None, :] - u * self._relative_goal[None, :]
        horizon = target_completion - self._now[None, :]    # (R, M)
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = np.where(
                horizon > EPSILON, self._remaining[None, :] / horizon, np.inf
            )
        # Equation (4): clamp at the job's max speed once u_i >= u^max_m
        # (the division above already exceeds max speed exactly there, so
        # a single minimum implements both branches).
        w = np.minimum(speed, self._max_speed[None, :])
        # Completed jobs need no speed at any level.
        w[:, self._remaining <= EPSILON] = 0.0
        # Equation (5).
        v = np.minimum(u, self._u_max[None, :])
        v = np.broadcast_to(v, w.shape).copy()
        v[:, self._remaining <= EPSILON] = 1.0

        self._w = w
        self._v = v
        self._w_sums = w.sum(axis=1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def job_ids(self) -> List[str]:
        return list(self._job_ids)

    @property
    def levels(self) -> np.ndarray:
        """The sampling points ``u_1 … u_R``."""
        return self._levels.copy()

    @property
    def w_matrix(self) -> np.ndarray:
        """``W`` (levels x jobs): required sustained speeds, equation (4)."""
        self._ensure_matrices()
        return self._w.copy()

    @property
    def v_matrix(self) -> np.ndarray:
        """``V`` (levels x jobs): achievable level values, equation (5)."""
        self._ensure_matrices()
        return self._v.copy()

    @property
    def aggregate_demands(self) -> np.ndarray:
        """``Σ_m W[i][m]`` for each sampling level ``i``."""
        self._ensure_matrices()
        return self._w_sums.copy()

    @property
    def max_aggregate_demand(self) -> float:
        """Aggregate speed at which every job runs at its maximum."""
        if not self._job_ids:
            return 0.0
        self._ensure_matrices()
        return float(self._w_sums[-1])

    def __len__(self) -> int:
        return len(self._job_ids)

    # ------------------------------------------------------------------
    # Aggregate allocation -> per-job prediction
    # ------------------------------------------------------------------
    def demand_at(self, level: float) -> np.ndarray:
        """Exact per-job demand ``min(ω_m(u), ω^max_m)`` at ``level``."""
        if len(self._job_ids) == 0:
            return np.zeros(0)
        return self._demand(level, self._remaining <= EPSILON)[0]

    def _demand(
        self, level: float, done: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`demand_at` with the completed-job mask ``done`` given,
        plus the horizons it divided by and the mask of those above
        ``EPSILON``."""
        horizon = (self._goal - level * self._relative_goal) - self._now
        finite = horizon > EPSILON
        speed = np.full(len(horizon), np.inf)
        np.divide(self._remaining, horizon, out=speed, where=finite)
        np.minimum(speed, self._max_speed, out=speed)
        speed[done] = 0.0
        return speed, horizon, finite

    def aggregate_demand_at(self, level: float) -> float:
        """Exact aggregate speed needed for every job to reach ``level``
        (or its maximum achievable performance if lower)."""
        return float(self.demand_at(level).sum())

    def equalized_level(
        self, aggregate_mhz: float, *, start: Optional[float] = None
    ) -> float:
        """The common relative-performance level ``u*`` sustained by
        aggregate ``ω_g``: the largest ``u`` with
        ``Σ_m min(ω_m(u), ω^max_m) <= ω_g``.

        This is the exact solution of the fair-share system the paper
        approximates by the ``W``/``V`` interpolation (it notes the exact
        solve was "too costly to perform in an on-line placement
        algorithm" on 2008 hardware; vectorized it is not).

        The answer is that of a 48-step bisection over
        ``[u_1, 1]`` with an exact demand probe at every mid, but most
        mids are decided without one.  Premise: the float demand
        ``D(u) = Σ_m min(rem_m / ((τ_m − u·rel_m) − t_now), ω^max_m)``,
        as :meth:`demand_at` computes it, never decreases as ``u``
        rises.  It holds because every ``rel_m > 0`` and every
        ``rem_m >= 0`` (both constructors check), each float operation
        is monotone under round-to-nearest, a horizon at or below
        ``EPSILON`` becomes ``inf`` and is capped at ``ω^max_m``, done
        jobs add a constant 0, and the sum over a fixed-length array
        runs one fixed tree of additions.  So once a probed level ``a``
        fits (``D(a) <= ω_g``) and a probed ``b`` does not, every mid
        ``<= a`` fits and every mid ``>= b`` does not; only the mids
        between them are probed.  Safeguarded Newton probes from
        ``start`` place ``a`` and ``b`` near the answer, and two probes
        at the ends of the bisection's predicted final cell then decide
        every mid when the prediction is right.

        ``start`` is a guess of the answer (the batch model passes the
        level it solved last).  It only chooses where the first probes
        go: any value — ``None``, NaN, out of range — returns the same
        level.  ``None`` (or an unusable value) starts from the probe at
        level 1.0.
        """
        if len(self._job_ids) == 0:
            return 1.0
        aggregate = max(0.0, float(aggregate_mhz))
        level = self._level_cache.get(aggregate)
        if level is None:
            level = self._level_cache[aggregate] = self._solve_level(
                aggregate, start
            )
        return level

    def _solve_level(self, aggregate: float, start: Optional[float]) -> float:
        """:meth:`equalized_level` for a clamped aggregate, uncached."""
        done = self._remaining <= EPSILON
        floor = float(self._levels[0])
        # The probed bracket: ``fit`` is the highest level whose exact
        # demand was seen to fit the aggregate, ``over`` the lowest seen
        # not to; ``fit_d``/``over_d`` are those demands.
        fit, fit_d = -math.inf, 0.0
        over, over_d = 1.0, math.inf

        def probe(level: float, newton: bool) -> Tuple[float, Optional[float]]:
            """Exact demand at ``level``, recorded in the bracket; with
            ``newton``, also the Newton target from ``level`` (``None``
            where the demand is flat)."""
            nonlocal fit, fit_d, over, over_d
            speed, horizon, finite = self._demand(level, done)
            demand = float(speed.sum())
            if demand <= aggregate:
                fit, fit_d = level, demand
            else:
                over, over_d = level, demand
            if not newton:
                return demand, None
            # Split D into the capped jobs' constant C and the uncapped
            # jobs' U = Σ rem/(h0 - u·rel), with dU/du = Σ speed·rel/h.
            # Each uncapped term is a hyperbola in u, so 1/U is nearly
            # linear: Newton on 1/U - 1/(aggregate - C) lands far closer
            # than Newton on D itself.
            rising = finite & (speed < self._max_speed)
            part = np.where(rising, speed, 0.0)
            uncapped = float(part.sum())
            np.divide(part, horizon, out=part, where=rising)
            part *= self._relative_goal
            room = aggregate - (demand - uncapped)
            scale = float(part.sum()) * room
            if not (scale > 0 and room > 0):
                return demand, None
            return demand, level - uncapped * (demand - aggregate) / scale

        def fits(level: float) -> bool:
            if level <= fit:
                return True
            if level >= over:
                return False
            return probe(level, False)[0] <= aggregate

        cold = start is None or not floor < start < 1.0
        top, target = probe(1.0, cold)
        if top <= aggregate + EPSILON:
            return 1.0
        if not cold:
            target = float(start)

        # Safeguarded Newton: a step that leaves the bracket falls back
        # to the secant across it, or to its midpoint when the previous
        # step fell back too (a secant pinned to one end crawls); with no
        # fitting level yet it falls back to the floor (the floor exit).
        fell_back = False
        for _ in range(_NEWTON_PROBES):
            lower = max(fit, floor)
            if target is not None and lower < target < over:
                fell_back = False
            else:
                target = None
                if not fell_back and fit >= floor and over_d > fit_d:
                    share = (aggregate - fit_d) / (over_d - fit_d)
                    target = fit + share * (over - fit)
                if target is None or not lower < target < over:
                    target = floor if fit < floor else 0.5 * (fit + over)
                fell_back = True
            level = target
            _, target = probe(level, True)
            if level == floor and fit < floor:
                return floor
            tolerance = 4 * math.ulp(max(1.0, abs(level)))
            if target is not None and abs(target - level) <= tolerance:
                break
            if over - max(fit, floor) <= tolerance:
                break
        lower = max(fit, floor)
        estimate = (
            target
            if target is not None and lower <= target <= over
            else 0.5 * (lower + over)
        )

        # Replay the bisection against the estimate to predict its final
        # cell and decide both ends exactly: every mid of the real loop
        # lies outside that cell, so a right prediction decides them all.
        lo, hi = floor, 1.0
        for _ in range(_LEVEL_SOLVE_ITERATIONS):
            mid = 0.5 * (lo + hi)
            if mid <= estimate:
                lo = mid
            else:
                hi = mid
        fits(lo)
        fits(hi)

        lo, hi = floor, 1.0
        if not fits(lo):
            return lo
        for _ in range(_LEVEL_SOLVE_ITERATIONS):
            mid = 0.5 * (lo + hi)
            if fits(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def job_speeds_exact(self, aggregate_mhz: float) -> np.ndarray:
        """Per-job speeds at the exact equalized level."""
        return self.demand_at(self.equalized_level(aggregate_mhz))

    def job_speeds(self, aggregate_mhz: float) -> np.ndarray:
        """Interpolated per-job speeds ``ω_m`` for aggregate ``ω_g``
        (the paper's equation (6) approximation)."""
        if len(self._job_ids) == 0:
            return np.zeros(0)
        self._ensure_matrices()
        sums = self._w_sums
        aggregate = max(0.0, float(aggregate_mhz))
        if aggregate >= sums[-1] - EPSILON:
            return self._w[-1].copy()
        if aggregate <= sums[0] + EPSILON:
            # Below the lowest sampled level: scale the floor row down
            # proportionally (the paper's sampling makes this region
            # practically unreachable, but the math must stay total).
            if sums[0] <= EPSILON:
                return np.zeros(len(self._job_ids))
            return self._w[0] * (aggregate / sums[0])
        k = int(np.searchsorted(sums, aggregate, side="right") - 1)
        k = min(max(k, 0), len(sums) - 2)
        span = sums[k + 1] - sums[k]
        frac = 0.0 if span <= EPSILON else (aggregate - sums[k]) / span
        return self._w[k] + frac * (self._w[k + 1] - self._w[k])

    def utilities_from_speeds(self, speeds: np.ndarray) -> np.ndarray:
        """Derive ``u_m`` from sustained speeds (vectorized eq. (2)+(3))."""
        speeds = np.minimum(np.asarray(speeds, dtype=float), self._max_speed)
        with np.errstate(divide="ignore", invalid="ignore"):
            completion = self._now + np.where(
                speeds > EPSILON, self._remaining / speeds, np.inf
            )
            u = (self._goal - completion) / self._relative_goal
        u = np.where(np.isfinite(u), u, NEGATIVE_INFINITY_UTILITY)
        u = np.clip(u, NEGATIVE_INFINITY_UTILITY, self._u_max)
        u[self._remaining <= EPSILON] = 1.0
        return u

    def job_utilities(
        self,
        aggregate_mhz: float,
        method: MethodLike = PredictionMethod.EXACT,
        *,
        start: Optional[float] = None,
    ) -> Dict[str, float]:
        """Predicted relative performance per job for aggregate ``ω_g``.

        ``method`` is a :class:`PredictionMethod` (or its string value):
        ``EXACT`` (default) solves the equalized level exactly;
        ``INTERPOLATE`` uses the paper's ``W``/``V`` sampling
        approximation (equation (6)).  ``start`` is passed to
        :meth:`equalized_level` and never changes the result.
        """
        utilities = self.utilities_array(aggregate_mhz, method=method, start=start)
        return dict(zip(self._job_ids, utilities.tolist()))

    def utilities_array(
        self,
        aggregate_mhz: float,
        method: MethodLike = PredictionMethod.EXACT,
        *,
        start: Optional[float] = None,
    ) -> np.ndarray:
        """Like :meth:`job_utilities` but as an array aligned with
        :attr:`job_ids` (the hot path for candidate evaluation)."""
        try:
            method = PredictionMethod.coerce(method)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        if method is PredictionMethod.EXACT:
            if len(self._job_ids) == 0:
                return np.zeros(0)
            level = self.equalized_level(aggregate_mhz, start=start)
            u = np.minimum(level, self._u_max)
            u = np.clip(u, NEGATIVE_INFINITY_UTILITY, None)
            u[self._remaining <= EPSILON] = 1.0
            return u
        return self.utilities_from_speeds(self.job_speeds(aggregate_mhz))

    def average_utility(
        self, aggregate_mhz: float, method: MethodLike = PredictionMethod.EXACT
    ) -> float:
        """Average hypothetical relative performance (Figures 2 and 6)."""
        if len(self._job_ids) == 0:
            return float("nan")
        return float(np.mean(self.utilities_array(aggregate_mhz, method=method)))

    def min_utility(
        self, aggregate_mhz: float, method: MethodLike = PredictionMethod.EXACT
    ) -> float:
        """Worst predicted relative performance (the maxmin objective)."""
        if len(self._job_ids) == 0:
            return float("nan")
        return float(np.min(self.utilities_array(aggregate_mhz, method=method)))

    def aggregate_required(self, level: float) -> float:
        """Aggregate speed needed for every job to reach ``level``
        (piecewise-linear interpolation of ``Σ W`` over the levels)."""
        if len(self._job_ids) == 0:
            return 0.0
        self._ensure_matrices()
        levels = self._levels
        if level <= levels[0]:
            return float(self._w_sums[0])
        if level >= levels[-1]:
            return float(self._w_sums[-1])
        return float(np.interp(level, levels, self._w_sums))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HypotheticalRPF({len(self._job_ids)} jobs, "
            f"R={len(self._levels)}, max_demand={self.max_aggregate_demand:.0f}MHz)"
        )
