"""Tests for the hypothetical relative performance (§4.2, W/V matrices)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.hypothetical import DEFAULT_UTILITY_LEVELS, HypotheticalRPF
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.batch.rpf import JobAllocationRPF
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.errors import ConfigurationError
from repro.units import EPSILON

from tests.conftest import make_job
from tests.hypothetical_oracle import oracle_level, oracle_utilities


def rpfs_for(jobs, now=0.0):
    return [JobAllocationRPF(j, now) for j in jobs]


def two_identical_jobs():
    return [
        make_job("a", work=1000, max_speed=500, goal_factor=5),
        make_job("b", work=1000, max_speed=500, goal_factor=5),
    ]


class TestConstruction:
    def test_levels_must_increase(self):
        with pytest.raises(ConfigurationError):
            HypotheticalRPF([], levels=[0.0, 0.0, 1.0])

    def test_levels_must_end_at_one(self):
        with pytest.raises(ConfigurationError):
            HypotheticalRPF([], levels=[0.0, 0.5])

    def test_needs_two_levels(self):
        with pytest.raises(ConfigurationError):
            HypotheticalRPF([], levels=[1.0])

    def test_default_levels_span_the_scale(self):
        assert DEFAULT_UTILITY_LEVELS[0] == NEGATIVE_INFINITY_UTILITY
        assert DEFAULT_UTILITY_LEVELS[-1] == 1.0

    def test_empty_job_set(self):
        h = HypotheticalRPF([])
        assert len(h) == 0
        assert h.max_aggregate_demand == 0.0
        assert h.job_utilities(1000) == {}
        assert np.isnan(h.average_utility(1000))


class TestWMatrix:
    def test_w_rows_nondecreasing_in_level(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        w = h.w_matrix
        assert (np.diff(w, axis=0) >= -1e-9).all()

    def test_w_clamped_at_max_speed(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        assert (h.w_matrix <= 500 + 1e-9).all()

    def test_v_clamped_at_u_max(self):
        jobs = two_identical_jobs()
        h = HypotheticalRPF(rpfs_for(jobs))
        u_max = JobAllocationRPF(jobs[0], 0.0).max_utility
        assert (h.v_matrix <= u_max + 1e-9).all()

    def test_equation_three_entry(self):
        """W at level u equals α_rem/(t(u) − t_now)."""
        job = make_job("a", work=1000, max_speed=500, goal_factor=5)
        h = HypotheticalRPF([JobAllocationRPF(job, 0.0)], levels=[-1.0, 0.0, 1.0])
        # u=0 -> t=10 -> speed 100; u=-1 -> t=20 -> speed 50
        assert h.w_matrix[1, 0] == pytest.approx(100.0)
        assert h.w_matrix[0, 0] == pytest.approx(50.0)
        # u=1 unreachable -> clamped to max speed
        assert h.w_matrix[2, 0] == pytest.approx(500.0)

    def test_completed_jobs_demand_nothing(self):
        job = make_job("a", work=1000, max_speed=500, goal_factor=5)
        job.advance(1000)
        h = HypotheticalRPF([JobAllocationRPF(job, 0.0)])
        assert h.max_aggregate_demand == 0.0
        assert h.job_utilities(0.0)["a"] == 1.0


class TestEqualizedLevel:
    def test_plentiful_capacity_gives_max_utilities(self):
        jobs = two_identical_jobs()
        h = HypotheticalRPF(rpfs_for(jobs))
        utilities = h.job_utilities(10_000)
        for j in jobs:
            assert utilities[j.job_id] == pytest.approx(
                JobAllocationRPF(j, 0.0).max_utility, abs=1e-6
            )

    def test_zero_capacity_floors(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        utilities = h.job_utilities(0.0)
        for u in utilities.values():
            assert u == pytest.approx(NEGATIVE_INFINITY_UTILITY, abs=1e-3)

    def test_identical_jobs_get_equal_utilities(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        utilities = h.job_utilities(300.0)
        vals = list(utilities.values())
        assert vals[0] == pytest.approx(vals[1], abs=1e-6)

    def test_exact_level_demand_matches_aggregate(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        aggregate = 300.0
        level = h.equalized_level(aggregate)
        assert h.aggregate_demand_at(level) == pytest.approx(aggregate, rel=1e-6)

    def test_aggregate_required_matches_w_sums_at_levels(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        sums = h.aggregate_demands
        for level, total in zip(h.levels, sums):
            assert h.aggregate_required(level) == pytest.approx(total)

    @given(agg=st.floats(min_value=0, max_value=2000))
    @settings(max_examples=100)
    def test_utilities_monotone_in_aggregate(self, agg):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        u_lo = h.utilities_array(agg)
        u_hi = h.utilities_array(agg + 50)
        assert (u_hi >= u_lo - 1e-9).all()

    @given(agg=st.floats(min_value=0, max_value=2000))
    @settings(max_examples=100)
    def test_utilities_bounded(self, agg):
        jobs = two_identical_jobs()
        h = HypotheticalRPF(rpfs_for(jobs))
        u = h.utilities_array(agg)
        u_max = JobAllocationRPF(jobs[0], 0.0).max_utility
        assert (u >= NEGATIVE_INFINITY_UTILITY - 1e-9).all()
        assert (u <= u_max + 1e-9).all()


class TestInterpolationApproximation:
    """The paper's equation-(6) interpolation versus the exact solve."""

    def test_interpolated_speeds_sum_to_aggregate(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        for agg in (100.0, 300.0, 700.0):
            speeds = h.job_speeds(agg)
            assert speeds.sum() == pytest.approx(agg, rel=1e-6)

    def test_interpolation_close_to_exact(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        for agg in (100.0, 300.0, 700.0):
            approx = h.utilities_array(agg, method="interpolate")
            exact = h.utilities_array(agg, method="exact")
            assert np.abs(approx - exact).max() < 0.1

    def test_above_max_demand_both_methods_agree(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        agg = h.max_aggregate_demand + 100
        approx = h.utilities_array(agg, method="interpolate")
        exact = h.utilities_array(agg, method="exact")
        assert np.allclose(approx, exact, atol=1e-9)

    def test_unknown_method_rejected(self):
        h = HypotheticalRPF(rpfs_for(two_identical_jobs()))
        with pytest.raises(ConfigurationError):
            h.utilities_array(100.0, method="nope")


class TestPredictionCoupling:
    """Performance predictions for jobs are made in relation to other
    jobs (§4): adding work to the system lowers everyone's prediction."""

    def test_more_jobs_lower_shared_utilities(self):
        jobs = two_identical_jobs()
        h2 = HypotheticalRPF(rpfs_for(jobs))
        crowd = jobs + [make_job("c", work=1000, max_speed=500, goal_factor=5)]
        h3 = HypotheticalRPF(rpfs_for(crowd))
        agg = 400.0
        assert h3.job_utilities(agg)["a"] < h2.job_utilities(agg)["a"]

    def test_urgent_job_dominates_demand(self):
        relaxed = make_job("slack", work=1000, max_speed=500, goal_factor=8)
        urgent = make_job("tight", work=1000, max_speed=500, goal_factor=1.2)
        h = HypotheticalRPF(rpfs_for([relaxed, urgent]))
        # At a level near the urgent job's maximum, the urgent job demands
        # (nearly) its full speed while the relaxed one demands little.
        level = JobAllocationRPF(urgent, 0.0).max_utility - 0.01
        demands = h.demand_at(level)
        assert demands[1] > demands[0]


class TestDemandIdentity:
    """The masked-divide demand kernel computes the same bits as the
    ``np.where`` form it replaced, done jobs and past horizons included."""

    @staticmethod
    def where_form(h, level):
        horizon = (h._goal - level * h._relative_goal) - h._now
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = np.where(horizon > EPSILON, h._remaining / horizon, np.inf)
        speed = np.minimum(speed, h._max_speed)
        speed[h._remaining <= EPSILON] = 0.0
        return speed

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([1, 5, 50, 500]),
        levels=st.lists(
            st.floats(NEGATIVE_INFINITY_UTILITY, 1.0), min_size=1, max_size=20
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_demand_is_bit_identical(self, seed, size, levels):
        rng = np.random.default_rng(seed)
        remaining = rng.uniform(0.0, 1e6, size)
        kind = rng.random(size)
        remaining[kind < 0.2] = 0.0
        # Nearly done: below max speed even over a sub-EPSILON horizon.
        remaining[(kind >= 0.2) & (kind < 0.4)] = 1e-4
        h = HypotheticalRPF.from_arrays(
            [f"j{i}" for i in range(size)],
            remaining=remaining,
            goal=rng.uniform(100.0, 5000.0, size),
            relative_goal=rng.uniform(10.0, 4000.0, size),
            max_speed=rng.uniform(100.0, 4000.0, size),
            now=rng.uniform(0.0, 3000.0, size),
            u_max=np.ones(size),
        )
        # Levels that put each of the first jobs' horizons at, around
        # and past the EPSILON threshold, where the two branches meet.
        for k in range(min(size, 5)):
            for delta in (-1.0, 0.0, 5e-7, EPSILON, 2e-6):
                levels.append(
                    (h._goal[k] - h._now[k] - delta) / h._relative_goal[k]
                )
        for level in levels:
            expected = self.where_form(h, level)
            assert h.demand_at(level).tobytes() == expected.tobytes()
            assert h.aggregate_demand_at(level) == float(expected.sum())


def _arrays_instance(arrays):
    """A fresh instance (empty level cache) over the same job fields."""
    size = len(arrays["goal"])
    return HypotheticalRPF.from_arrays(
        [f"j{i}" for i in range(size)], **arrays
    )


def _random_fields(rng, size, plateau=False):
    """Job fields with done and nearly-done jobs; ``plateau`` caps every
    job at every level, so demand is flat (zero slope) throughout."""
    remaining = rng.uniform(0.0, 1e6, size)
    kind = rng.random(size)
    remaining[kind < 0.15] = 0.0
    remaining[(kind >= 0.15) & (kind < 0.2)] = EPSILON / 2
    remaining[(kind >= 0.2) & (kind < 0.3)] = 1e-4
    max_speed = rng.uniform(100.0, 4000.0, size)
    if plateau:
        max_speed = rng.uniform(1e-6, 1e-3, size)
    return {
        "remaining": remaining,
        "goal": rng.uniform(100.0, 5000.0, size),
        "relative_goal": rng.uniform(10.0, 4000.0, size),
        "max_speed": max_speed,
        "now": rng.uniform(0.0, 3000.0, size),
        "u_max": rng.uniform(-60.0, 1.0, size),
    }


class TestPremiseGuard:
    """Demand is monotone in the level only for positive relative goals
    and non-negative remaining work; both constructors refuse the rest."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("relative_goal", 0.0),
            ("relative_goal", -5.0),
            ("relative_goal", float("nan")),
            ("remaining", -1e-9),
            ("remaining", float("nan")),
        ],
    )
    def test_from_arrays_rejects(self, field, value):
        arrays = _random_fields(np.random.default_rng(3), 4)
        arrays[field][2] = value
        with pytest.raises(ConfigurationError):
            _arrays_instance(arrays)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("_relative_goal", 0.0),
            ("_relative_goal", -5.0),
            ("_relative_goal", float("nan")),
            ("_remaining", -1e-9),
            ("_remaining", float("nan")),
        ],
    )
    def test_constructor_rejects(self, field, value):
        rpfs = rpfs_for(two_identical_jobs())
        setattr(rpfs[1], field, value)
        with pytest.raises(ConfigurationError):
            HypotheticalRPF(rpfs)

    def test_accepts_done_jobs(self):
        arrays = _random_fields(np.random.default_rng(3), 4)
        arrays["remaining"][:] = 0.0
        assert _arrays_instance(arrays).equalized_level(0.0) == 1.0


class TestMonotoneDemand:
    """The premise of the equalized-level solve: the float demand never
    decreases as the level rises, across the EPSILON horizon edge too."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([1, 7, 9, 130, 300]),
        pairs=st.lists(
            st.tuples(
                st.floats(NEGATIVE_INFINITY_UTILITY, 1.0),
                st.floats(NEGATIVE_INFINITY_UTILITY, 1.0),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_demand_never_decreases(self, seed, size, pairs):
        h = _arrays_instance(_random_fields(np.random.default_rng(seed), size))
        # Levels that put a job's horizon just past, at and just short
        # of EPSILON, where its demand jumps to the capped `inf` branch.
        for k in range(min(size, 4)):
            edge = (h._goal[k] - h._now[k] - EPSILON) / h._relative_goal[k]
            below = np.nextafter(edge, -np.inf)
            above = np.nextafter(edge, np.inf)
            pairs += [(below, edge), (edge, above), (below, above)]
        for x, y in pairs:
            x, y = min(x, y), max(x, y)
            low, high = h.demand_at(x), h.demand_at(y)
            assert np.all(low <= high)
            assert low.sum() <= high.sum()


class TestOracleIdentity:
    """The equalized-level solve returns exactly the level of the plain
    48-step bisection it replaced (``tests/hypothetical_oracle.py``), for
    any start value."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.one_of(
            st.sampled_from([1, 2, 7, 8, 9, 127, 128, 129, 256, 300]),
            st.integers(1, 300),
        ),
        plateau=st.booleans(),
        edge_jobs=st.integers(0, 3),
        drawn_level=st.floats(NEGATIVE_INFINITY_UTILITY, 1.0),
        aggregate_kind=st.sampled_from(
            ["zero", "at_level", "above_top", "fraction", "random"]
        ),
        fraction=st.floats(0.0, 1.0),
        starts=st.lists(
            st.one_of(
                st.none(),
                st.floats(allow_nan=True, allow_infinity=True),
                st.floats(NEGATIVE_INFINITY_UTILITY, 1.0),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_level_and_utilities_match_oracle(
        self, seed, size, plateau, edge_jobs, drawn_level, aggregate_kind,
        fraction, starts,
    ):
        rng = np.random.default_rng(seed)
        arrays = _random_fields(rng, size, plateau=plateau)
        # Put some horizons at the EPSILON edge of the drawn level.
        for k in range(min(edge_jobs, size)):
            arrays["now"][k] = (
                arrays["goal"][k]
                - drawn_level * arrays["relative_goal"][k]
                - EPSILON * (0.5 + k / 2)
            )
        h = _arrays_instance(arrays)
        top = h.aggregate_demand_at(1.0)
        aggregate = {
            "zero": 0.0,
            "at_level": h.aggregate_demand_at(drawn_level),
            "above_top": top * (1.0 + fraction) + 1.0,
            "fraction": top * fraction,
            "random": float(rng.uniform(0.0, 2.0 * top + 1.0)),
        }[aggregate_kind]

        expected = oracle_level(_arrays_instance(arrays), aggregate)
        expected_u = oracle_utilities(_arrays_instance(arrays), aggregate)
        for start in starts + [
            None,
            expected,
            np.nextafter(expected, -np.inf),
            np.nextafter(expected, np.inf),
            drawn_level,
        ]:
            assert _arrays_instance(arrays).equalized_level(
                aggregate, start=start
            ) == expected
            u = _arrays_instance(arrays).utilities_array(aggregate, start=start)
            assert u.tobytes() == expected_u.tobytes()

    @pytest.mark.parametrize("vector", [False, True])
    def test_batch_model_evaluate_matches_oracle(self, vector, monkeypatch):
        """Both evaluate paths, warm-starting each solve from the last,
        predict what the oracle solve predicts."""

        def run():
            queue = JobQueue()
            rng = np.random.default_rng(11)
            for i in range(40):
                job = make_job(
                    f"j{i}",
                    work=float(rng.uniform(1e3, 1e6)),
                    max_speed=float(rng.uniform(200.0, 4000.0)),
                    submit=float(rng.uniform(0.0, 50.0)),
                    goal_factor=float(rng.uniform(1.0, 6.0)),
                )
                job.advance(float(rng.uniform(0.0, 0.5)) * job.profile.total_work)
                queue.submit(job)
            model = BatchWorkloadModel(
                queue, cache=False, vectorize_min_jobs=0 if vector else 1000
            )
            out = []
            for _ in range(25):
                share = float(rng.uniform(0.0, 1.2))
                allocations = {
                    job.job_id: share * job.max_speed * float(rng.random())
                    for job in queue.incomplete()
                }
                out.append(list(model.evaluate(allocations, 60.0, 600.0).items()))
            return out

        got = run()
        monkeypatch.setattr(
            HypotheticalRPF,
            "equalized_level",
            lambda self, aggregate_mhz, *, start=None: oracle_level(
                self, aggregate_mhz
            ),
        )
        assert got == run()
