"""Tests for the sparse interval LP, threshold rounding, and the sandwich."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.instance import WeightedPagingInstance
from repro.core.requests import RequestSequence
from repro.errors import InvalidRequestError, SolverError
from repro.offline import (
    DEFAULT_THRESHOLDS,
    best_opt_bound,
    lp_divisor,
    offline_opt_multilevel,
    opt_sandwich,
    round_at,
    solve_offline_lp,
    solve_sparse_lp,
    sparse_fractional_opt,
    threshold_round,
)
from repro.workloads import (
    geometric_instance,
    multilevel_stream,
    random_multilevel_instance,
    zipf_stream,
)


class TestSparseLP:
    def test_zero_when_cache_fits(self):
        inst = WeightedPagingInstance.uniform(4, 3)
        seq = RequestSequence.from_pages([0, 1, 2, 0, 1])
        res = solve_sparse_lp(inst, seq)
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_empty_sequence(self):
        inst = WeightedPagingInstance.uniform(4, 2)
        res = solve_sparse_lp(inst, RequestSequence.from_pages([]))
        assert res.value == 0.0
        assert res.x == {}

    def test_textbook_alternation(self):
        # k=1, two pages alternating (see the dense LP's objective test):
        # 0,1,0,1 from empty costs 3 + 5 + 3 = 11.
        inst = WeightedPagingInstance(1, [3.0, 5.0])
        seq = RequestSequence.from_pages([0, 1, 0, 1])
        assert sparse_fractional_opt(inst, seq) == pytest.approx(11.0, abs=1e-6)

    def test_single_eviction(self):
        inst = WeightedPagingInstance(2, [4.0, 2.0, 1.0])
        seq = RequestSequence.from_pages([0, 1, 2])
        res = solve_sparse_lp(inst, seq)
        # The binding row forces one unit spread over pages 0 and 1; the
        # cheapest is to evict page 1 (weight 2).
        assert res.value == pytest.approx(2.0, abs=1e-7)

    def test_matches_interval_lp_single_level(self):
        # At l = 1 the sparse LP is the classic interval LP, whose optimum
        # is the time-indexed (dense) LP's.
        inst = WeightedPagingInstance(2, [4.0, 2.0, 1.0, 3.0])
        seq = zipf_stream(4, 60, rng=0)
        sparse = sparse_fractional_opt(inst, seq)
        dense = solve_offline_lp(inst, seq).value
        assert sparse == pytest.approx(dense, abs=1e-5)

    def test_size_is_linear_in_stream(self):
        inst = WeightedPagingInstance(2, [4.0, 2.0, 1.0, 3.0])
        seq = zipf_stream(4, 200, rng=1)
        res = solve_sparse_lp(inst, seq)
        # One Z per time step + at most one segment var per request.
        assert res.n_variables <= 2 * len(seq)
        assert res.n_constraints <= 2 * len(seq)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_equals_dense_lp_single_level(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))
        inst = WeightedPagingInstance(k, rng.integers(1, 9, size=n).astype(float))
        seq = RequestSequence.from_pages(rng.integers(0, n, size=80))
        sparse = sparse_fractional_opt(inst, seq)
        dense = solve_offline_lp(inst, seq).value
        assert sparse == pytest.approx(dense, abs=1e-5)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_property_equals_dense_lp_multilevel(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n))
        levels = int(rng.integers(2, 4))
        inst = random_multilevel_instance(n, k, levels,
                                          rng=int(rng.integers(0, 1 << 30)))
        seq = multilevel_stream(n, levels, 50, rng=int(rng.integers(0, 1 << 30)))
        sparse = sparse_fractional_opt(inst, seq)
        dense = solve_offline_lp(inst, seq).value
        assert sparse == pytest.approx(dense, abs=1e-5)

    def test_lower_bounds_dp_after_divisor(self):
        inst = geometric_instance(5, 2, 2)
        seq = multilevel_stream(5, 2, 40, rng=1)
        dp = offline_opt_multilevel(inst, seq)
        bound = sparse_fractional_opt(inst, seq) / lp_divisor(inst)
        assert bound <= dp + 1e-6

    def test_solution_values_in_unit_interval(self):
        inst = geometric_instance(5, 2, 2)
        seq = multilevel_stream(5, 2, 40, rng=3)
        res = solve_sparse_lp(inst, seq)
        assert res.x, "expected a non-trivial solution"
        for value in res.x.values():
            assert -1e-7 <= value <= 1 + 1e-7

    def test_trajectory_of_empty_and_trivial_streams(self):
        inst = WeightedPagingInstance.uniform(4, 2)
        empty = solve_sparse_lp(inst, RequestSequence.from_pages([]))
        assert empty.trajectory().shape == (1, 4, 1)
        assert np.all(empty.trajectory() == 1.0)
        fits = solve_sparse_lp(WeightedPagingInstance.uniform(4, 3),
                               RequestSequence.from_pages([0, 1, 2, 0]))
        u = fits.trajectory()
        assert u[-1, :3, 0].tolist() == [0.0, 0.0, 0.0]
        assert u[-1, 3, 0] == 1.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_trajectory_is_dense_feasible_and_optimal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, n))
        levels = int(rng.integers(1, 5))
        inst = random_multilevel_instance(n, k, levels,
                                          rng=int(rng.integers(0, 1 << 30)))
        seq = multilevel_stream(n, levels, 60,
                                rng=int(rng.integers(0, 1 << 30)))
        solution = solve_sparse_lp(inst, seq)
        u = solution.trajectory()
        assert u.shape == (len(seq) + 1, n, levels)
        assert np.all(u[0] == 1.0)
        assert np.all(u >= -1e-7) and np.all(u <= 1 + 1e-7)
        assert np.all(u[1:, :, -1].sum(axis=1) >= n - k - 1e-6)  # covering
        assert np.all(np.diff(u, axis=2) <= 1e-7)  # non-increasing in level
        for t, req in enumerate(seq, start=1):  # every request served
            assert np.all(u[t, req.page, req.level - 1:] == 0.0)
        z_cost = float((np.maximum(np.diff(u, axis=0), 0.0)
                        * inst.weights).sum())
        assert z_cost == pytest.approx(solution.value, abs=1e-6)

    def test_invalid_sequence_propagates(self):
        # Out-of-range pages must raise loudly, not become an LP answer.
        inst = WeightedPagingInstance.uniform(3, 2)
        seq = RequestSequence.from_pages([0, 7])
        with pytest.raises(InvalidRequestError):
            solve_sparse_lp(inst, seq)


class TestThresholdRounding:
    def _dp_cases(self):
        cases = []
        for seed in range(4):
            inst = WeightedPagingInstance(2, [4.0, 2.0, 1.0, 3.0, 5.0, 2.0])
            cases.append((inst, zipf_stream(6, 60, rng=seed)))
        for seed in range(4):
            inst = geometric_instance(5, 2, 2)
            cases.append((inst, multilevel_stream(5, 2, 40, rng=seed)))
        return cases

    def test_every_threshold_feasible_and_above_dp(self):
        # Feasibility on EVERY sweep threshold: each rounded schedule is a
        # genuine schedule, so its cost can never undercut the exact OPT.
        for inst, seq in self._dp_cases():
            dp = offline_opt_multilevel(inst, seq)
            result = threshold_round(solve_sparse_lp(inst, seq))
            assert len(result.schedules) == 9
            for schedule in result.schedules:
                assert schedule.cost >= dp - 1e-6, (
                    inst.name, schedule.threshold)
                assert schedule.n_evictions >= 0
            assert result.cost == min(s.cost for s in result.schedules)
            assert result.best.threshold in {s.threshold
                                             for s in result.schedules}

    def test_round_at_single_threshold(self):
        inst = WeightedPagingInstance(2, [4.0, 2.0, 1.0, 3.0])
        seq = zipf_stream(4, 50, rng=2)
        solution = solve_sparse_lp(inst, seq)
        schedule = round_at(solution, 0.5)
        assert schedule.threshold == 0.5
        assert schedule.cost >= solution.value - 1e-6  # l = 1: LP <= OPT

    def test_no_thresholds_rejected(self):
        inst = WeightedPagingInstance.uniform(3, 1)
        solution = solve_sparse_lp(inst, RequestSequence.from_pages([0, 1]))
        with pytest.raises(ValueError):
            threshold_round(solution, thresholds=())

    def test_zero_cost_instance_rounds_to_zero(self):
        inst = WeightedPagingInstance.uniform(4, 3)
        seq = RequestSequence.from_pages([0, 1, 2, 0, 1])
        result = threshold_round(solve_sparse_lp(inst, seq))
        assert result.cost == 0.0


def _scan_round_at(solution, threshold):
    """Oracle: the per-threshold scan ``round_at`` replaces.

    On a miss with a full cache it builds the pool of cached pages whose
    open deep-segment x clears ``threshold`` (all cached pages when none
    does) and evicts the pool's maximum under ``(x, next use, page)``,
    scanning the cache for every eviction.
    """
    inst, seq = solution.instance, solution.seq
    k, deep, w, x = (inst.cache_size, inst.n_levels - 1, inst.weights,
                     solution.x)
    pages, req_levels = seq.pages.tolist(), seq.levels.tolist()
    T = len(pages)
    occurrences = {}
    for t, p in enumerate(pages):
        occurrences.setdefault(p, []).append(t)

    def next_use(q, now):
        later = [s for s in occurrences[q] if s > now]
        return later[0] if later else T + 1

    cache, seg_deep = {}, {}
    cost, n_evictions = 0.0, 0
    for t in range(T):
        p, lev = pages[t], req_levels[t]
        held = cache.get(p)
        if held is None or held > lev:
            if held is not None:
                cost += float(w[p, held - 1])
                n_evictions += 1
            elif len(cache) >= k:
                def score(q):
                    return x.get((q, deep, seg_deep[q]), 0.0)

                pool = [q for q in cache if score(q) >= threshold] or list(cache)
                victim = max(pool, key=lambda q: (score(q), next_use(q, t), q))
                cost += float(w[victim, cache[victim] - 1])
                n_evictions += 1
                del cache[victim]
            cache[p] = lev
        seg_deep[p] = seg_deep.get(p, 0) + 1
    return cost, n_evictions


def _e20_dp_cases():
    """E20's eight DP-feasible sandwich cases (l = 1, 2, 3)."""
    cases = [(WeightedPagingInstance(2, [4.0, 2.0, 1.0, 3.0, 5.0, 2.0]),
              zipf_stream(6, 60, rng=seed)) for seed in range(3)]
    cases += [(geometric_instance(5, 2, 2), multilevel_stream(5, 2, 40, rng=seed))
              for seed in range(3)]
    cases += [(random_multilevel_instance(5, 2, 3, rng=seed),
               multilevel_stream(5, 3, 40, rng=seed + 10)) for seed in range(2)]
    return cases


@st.composite
def _rounding_cases(draw):
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    levels = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**30))
    if draw(st.booleans()):  # uniform weights: LP values and keys tie
        inst = random_multilevel_instance(n, k, levels, rng=seed, low=1.0,
                                          high=1.0,
                                          ratio=draw(st.sampled_from([1.0, 2.0])))
    else:
        inst = random_multilevel_instance(n, k, levels, rng=seed)
    seq = multilevel_stream(n, levels, draw(st.integers(0, 150)),
                            alpha=draw(st.sampled_from([0.0, 0.8, 1.2])),
                            rng=seed + 1)
    return inst, seq


def _tie_cases():
    """Two dead pages tie on (x, next use): the page id picks the victim,
    and the cost depends on which one it picks."""
    return [(random_multilevel_instance(7, 5, 2, rng=15),
             multilevel_stream(7, 2, 32, alpha=0.0, rng=16)),
            (random_multilevel_instance(4, 3, 2, rng=314),
             multilevel_stream(4, 2, 28, alpha=0.0, rng=315))]


def _pinned_examples(test):
    for case in _e20_dp_cases() + _tie_cases():
        test = example(case=case, drawn=0.5)(test)
    return test


class TestReplayEqualsScan:
    """One heap-ordered replay == the per-threshold scan, at every threshold."""

    @_pinned_examples
    @given(case=_rounding_cases(),
           drawn=st.floats(0.0, 1.0, exclude_min=True, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_round_at_and_sweep_equal_scan(self, case, drawn):
        solution = solve_sparse_lp(*case)
        thresholds = DEFAULT_THRESHOLDS + (drawn,)
        want = {th: _scan_round_at(solution, th) for th in thresholds}
        for th in thresholds:
            got = round_at(solution, th)
            assert (got.threshold, got.cost, got.n_evictions) == (th, *want[th])
        sweep = threshold_round(solution, thresholds)
        swept = [(s.threshold, s.cost, s.n_evictions) for s in sweep.schedules]
        assert swept == [(th, *want[th]) for th in thresholds]
        cheapest = min(thresholds, key=lambda th: want[th][0])
        assert (sweep.best.threshold, sweep.cost) == (cheapest, want[cheapest][0])


class TestOptSandwich:
    def test_sandwich_brackets_dp(self):
        for seed in range(3):
            inst = geometric_instance(5, 2, 2)
            seq = multilevel_stream(5, 2, 40, rng=seed)
            dp = offline_opt_multilevel(inst, seq)
            sandwich = opt_sandwich(inst, seq)
            assert sandwich.lower <= dp + 1e-6
            assert dp <= sandwich.upper + 1e-6
            assert sandwich.lp_value == pytest.approx(
                sandwich.lower * sandwich.divisor)
            assert sandwich.width >= 1.0 - 1e-9

    def test_trivial_instance_width_is_one(self):
        inst = WeightedPagingInstance.uniform(4, 3)
        seq = RequestSequence.from_pages([0, 1, 2, 0, 1])
        sandwich = opt_sandwich(inst, seq)
        assert sandwich.lower == sandwich.upper == 0.0
        assert sandwich.width == 1.0


class TestBoundsRewiring:
    def test_sparse_preference(self):
        inst = WeightedPagingInstance.uniform(6, 2)
        seq = zipf_stream(6, 40, rng=0)
        bound = best_opt_bound(inst, seq, prefer="sparse-lp")
        assert bound.method == "sparse-lp"
        assert bound.lp_value == pytest.approx(
            sparse_fractional_opt(inst, seq), abs=1e-6)

    def test_removed_preferences_rejected(self):
        # The dense LP is a test oracle now, not a bound method.
        inst = WeightedPagingInstance.uniform(6, 2)
        seq = zipf_stream(6, 40, rng=0)
        for prefer in ("lp", "dense-lp"):
            with pytest.raises(ValueError, match="unknown preference"):
                best_opt_bound(inst, seq, prefer=prefer)

    def test_lp_preference_is_sparse_first(self):
        inst = geometric_instance(5, 2, 2)
        seq = multilevel_stream(5, 2, 30, rng=1)
        bound = best_opt_bound(inst, seq, prefer="sparse-lp")
        assert bound.method == "sparse-lp"
        assert bound.value == pytest.approx(bound.lp_value / 2.0)

    def test_lp_methods_agree(self):
        inst = geometric_instance(5, 2, 2)
        seq = multilevel_stream(5, 2, 30, rng=2)
        sparse = best_opt_bound(inst, seq, prefer="sparse-lp")
        dense = solve_offline_lp(inst, seq).value / lp_divisor(inst)
        assert sparse.value == pytest.approx(dense, abs=1e-5)

    def test_with_upper_returns_sandwich(self):
        inst = WeightedPagingInstance.uniform(6, 2)
        seq = zipf_stream(6, 40, rng=3)
        bound = best_opt_bound(inst, seq, prefer="sparse-lp", with_upper=True)
        assert bound.upper is not None
        assert bound.value <= bound.upper + 1e-6

    def test_dp_with_upper_is_tight(self):
        inst = WeightedPagingInstance.uniform(5, 2)
        seq = zipf_stream(5, 30, rng=0)
        bound = best_opt_bound(inst, seq, with_upper=True)
        assert bound.method == "dp"
        assert bound.upper == bound.value

    def test_non_state_space_dp_errors_propagate(self):
        # A bad sequence fails validation inside the DP path; auto must
        # NOT swallow that and retry the LP.
        inst = WeightedPagingInstance.uniform(4, 2)
        seq = RequestSequence.from_pages([0, 9])
        with pytest.raises(InvalidRequestError):
            best_opt_bound(inst, seq)

    def test_sparse_solver_failure_names_instance(self, monkeypatch):
        import repro.offline.scale as scale_mod

        def boom(instance, seq, **kwargs):
            raise SolverError("synthetic breakdown")

        monkeypatch.setattr(scale_mod, "solve_sparse_lp", boom)
        inst = WeightedPagingInstance(2, np.ones(6), name="exploding-instance")
        seq = zipf_stream(6, 20, rng=0)
        with pytest.raises(SolverError, match="exploding-instance"):
            best_opt_bound(inst, seq, prefer="sparse-lp")

    def test_sparse_failure_propagates_under_auto(self, monkeypatch):
        # No dense fallback: a sparse-LP breakdown under auto is a real
        # defect and surfaces as a SolverError naming the instance.
        import repro.offline.scale as scale_mod

        def boom(instance, seq, **kwargs):
            raise SolverError("synthetic breakdown")

        monkeypatch.setattr(scale_mod, "solve_sparse_lp", boom)
        inst = WeightedPagingInstance(5, np.ones(30), name="exploding-auto")
        seq = zipf_stream(30, 30, rng=0)
        with pytest.raises(SolverError, match="exploding-auto"):
            best_opt_bound(inst, seq, max_states=100, prefer="auto")
