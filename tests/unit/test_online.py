"""Unit tests for the online learning loop: query log, drift, incremental refresh, hot swap."""

import numpy as np
import pytest

from repro.api import ServiceKernel, ServiceStats
from repro.core.query import RegionQuery
from repro.data.regions import Region
from repro.exceptions import NotFittedError, ValidationError
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.metrics import root_mean_squared_error
from repro.online import DriftMonitor, IncrementalTrainer, QueryLog
from repro.surrogate.workload import RegionEvaluation, RegionWorkload


def make_evaluation(center, value, half=0.1):
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    return RegionEvaluation(Region(center, np.full(center.shape, half)), float(value))


def shifted_copy(workload, shift):
    """The same regions with every statistic shifted — a mean-drifted workload."""
    return [RegionEvaluation(e.region, e.value + shift) for e in workload]


def proposals_identical(first, second) -> bool:
    if len(first) != len(second):
        return False
    return all(
        np.array_equal(lhs.region.to_vector(), rhs.region.to_vector())
        and lhs.predicted_value == rhs.predicted_value
        and lhs.objective_value == rhs.objective_value
        and lhs.support == rhs.support
        for lhs, rhs in zip(first, second)
    )


# --------------------------------------------------------------------------- QueryLog
class TestQueryLog:
    def test_capacity_is_never_exceeded_and_drops_are_counted(self):
        log = QueryLog(capacity=5)
        for index in range(12):
            log.record_vector([float(index), 0.1], float(index))
        assert len(log) == 5
        assert log.total_recorded == 12
        assert log.dropped == 7
        # The retained entries are the newest ones, oldest first.
        assert [entry.value for entry in log.snapshot()] == [7.0, 8.0, 9.0, 10.0, 11.0]

    def test_since_returns_only_unconsumed_entries(self):
        log = QueryLog(capacity=100)
        log.record_many([make_evaluation(i, i) for i in range(4)])
        first, cursor = log.since(0)
        assert [entry.value for entry in first] == [0.0, 1.0, 2.0, 3.0]
        assert cursor == 4
        nothing, cursor = log.since(cursor)
        assert nothing == [] and cursor == 4
        log.record(Region(np.array([9.0]), np.array([0.1])), 9.0)
        fresh, cursor = log.since(cursor)
        assert [entry.value for entry in fresh] == [9.0] and cursor == 5

    def test_since_survives_ring_buffer_drops(self):
        log = QueryLog(capacity=3)
        log.record_many([make_evaluation(i, i) for i in range(3)])
        _, cursor = log.since(0)
        log.record_many([make_evaluation(i, i) for i in range(3, 8)])  # drops 0..4
        fresh, cursor = log.since(cursor)
        # Entries 3 and 4 were dropped before consumption; the survivors arrive.
        assert [entry.value for entry in fresh] == [5.0, 6.0, 7.0]
        assert cursor == 8

    def test_dimensionality_is_pinned_by_first_record(self):
        log = QueryLog(capacity=10)
        log.record_vector([0.0, 0.0, 0.1, 0.1], 1.0)
        assert log.region_dim == 2
        with pytest.raises(ValidationError):
            log.record_vector([0.0, 0.1], 1.0)

    def test_rejects_non_finite_values_and_bad_capacity(self):
        with pytest.raises(ValidationError):
            QueryLog(capacity=0)
        log = QueryLog(capacity=4)
        with pytest.raises(ValidationError):
            log.record(Region(np.array([0.0]), np.array([0.1])), float("nan"))
        with pytest.raises(ValidationError):
            log.since(-1)

    def test_persistence_round_trip_is_lossless(self, tmp_path):
        log = QueryLog(capacity=50)
        rng = np.random.default_rng(3)
        for _ in range(20):
            log.record_vector(np.concatenate([rng.normal(size=2), rng.uniform(0.05, 0.5, 2)]), rng.normal())
        path = log.save(tmp_path / "log.npz")
        restored = QueryLog.load(path, capacity=50)
        original = log.as_workload()
        reloaded = restored.as_workload()
        np.testing.assert_array_equal(original.features, reloaded.features)
        np.testing.assert_array_equal(original.targets, reloaded.targets)

    def test_saved_log_is_a_valid_training_workload(self, tmp_path):
        from repro.surrogate.persistence import load_workload, save_workload

        log = QueryLog(capacity=10)
        log.record_many([make_evaluation(i, 2 * i) for i in range(6)])
        workload = load_workload(log.save(tmp_path / "log"))
        assert len(workload) == 6
        # And the other direction: a saved workload loads as a log.
        save_workload(workload, tmp_path / "wl.npz")
        assert len(QueryLog.load(tmp_path / "wl.npz")) == 6

    def test_empty_log_refuses_snapshot_as_workload(self):
        with pytest.raises(ValidationError):
            QueryLog(capacity=3).as_workload()

    def test_record_many_is_atomic_on_dimension_mismatch(self):
        log = QueryLog(capacity=10)
        log.record_vector([0.0, 0.0, 0.1, 0.1], 1.0)
        batch = [make_evaluation([0.0, 0.0], 1.0), make_evaluation([0.5], 2.0)]
        with pytest.raises(ValidationError):
            log.record_many(batch)
        # Nothing from the bad batch was committed: a retry cannot duplicate pairs.
        assert len(log) == 1
        assert log.total_recorded == 1


# --------------------------------------------------------------------------- warm start
class TestWarmStartBoosting:
    @pytest.fixture()
    def regression_problem(self):
        rng = np.random.default_rng(11)
        features = rng.normal(size=(240, 3))
        targets = 2.0 * features[:, 0] + np.sin(3.0 * features[:, 1]) + 0.1 * rng.normal(size=240)
        return features, targets

    def test_warm_start_adds_exactly_the_requested_rounds(self, regression_problem):
        features, targets = regression_problem
        model = GradientBoostingRegressor(n_estimators=15, max_depth=3, random_state=0)
        model.fit(features, targets)
        model.set_params(warm_start=True, n_estimators=25)
        model.fit(features, targets)
        assert model.num_trees_ == 25

    def test_warm_start_preserves_the_existing_trees(self, regression_problem):
        features, targets = regression_problem
        import copy

        model = GradientBoostingRegressor(n_estimators=15, max_depth=3, random_state=0)
        model.fit(features, targets)
        frozen = copy.deepcopy(model)
        model.set_params(warm_start=True, n_estimators=25)
        model.fit(features, targets)
        for old_tree, new_tree in zip(frozen._trees, model._trees):
            np.testing.assert_array_equal(old_tree.predict(features), new_tree.predict(features))

    def test_warm_start_reduces_training_error(self, regression_problem):
        features, targets = regression_problem
        model = GradientBoostingRegressor(n_estimators=10, max_depth=3, random_state=0)
        model.fit(features, targets)
        before = root_mean_squared_error(targets, model.predict(features))
        model.set_params(warm_start=True, n_estimators=40)
        model.fit(features, targets)
        after = root_mean_squared_error(targets, model.predict(features))
        assert after < before

    def test_warm_start_requires_n_estimators_to_grow(self, regression_problem):
        features, targets = regression_problem
        model = GradientBoostingRegressor(n_estimators=10, max_depth=3, random_state=0)
        model.fit(features, targets)
        model.set_params(warm_start=True)
        with pytest.raises(ValidationError):
            model.fit(features, targets)

    def test_warm_start_rejects_feature_count_changes(self, regression_problem):
        features, targets = regression_problem
        model = GradientBoostingRegressor(n_estimators=10, max_depth=3, random_state=0)
        model.fit(features, targets)
        model.set_params(warm_start=True, n_estimators=20)
        with pytest.raises(ValidationError):
            model.fit(features[:, :2], targets)

    def test_warm_start_on_unfitted_model_behaves_like_plain_fit(self, regression_problem):
        features, targets = regression_problem
        warm = GradientBoostingRegressor(n_estimators=12, max_depth=3, warm_start=True, random_state=0)
        cold = GradientBoostingRegressor(n_estimators=12, max_depth=3, random_state=0)
        np.testing.assert_array_equal(
            warm.fit(features, targets).predict(features),
            cold.fit(features, targets).predict(features),
        )


# --------------------------------------------------------------------------- drift monitor
class TestDriftMonitor:
    def test_no_drift_when_residuals_match_baseline(self):
        monitor = DriftMonitor(window=50, threshold=2.0, min_observations=10, baseline_rmse=1.0)
        rng = np.random.default_rng(0)
        targets = rng.normal(size=100)
        monitor.observe(targets + rng.normal(scale=1.0, size=100), targets)
        assert not monitor.drifted
        assert monitor.drift_score == pytest.approx(1.0, rel=0.35)

    def test_drift_fires_on_a_mean_shifted_workload(self):
        monitor = DriftMonitor(window=50, threshold=2.0, min_observations=10, baseline_rmse=1.0)
        rng = np.random.default_rng(1)
        targets = rng.normal(size=60)
        monitor.observe(targets, targets + 5.0)  # predictions off by a constant 5σ
        assert monitor.drifted
        assert monitor.drift_score > 2.0

    def test_min_observations_guards_against_early_firing(self):
        monitor = DriftMonitor(window=50, threshold=2.0, min_observations=30, baseline_rmse=1.0)
        monitor.observe(np.full(10, 100.0), np.zeros(10))
        assert monitor.num_observations == 10
        assert not monitor.drifted

    def test_rebaseline_clears_the_window(self):
        monitor = DriftMonitor(window=50, threshold=2.0, min_observations=5, baseline_rmse=1.0)
        monitor.observe(np.full(20, 10.0), np.zeros(20))
        assert monitor.drifted
        monitor.rebaseline(2.0)
        assert monitor.baseline_rmse == 2.0
        assert monitor.num_observations == 0
        assert not monitor.drifted

    def test_non_finite_residuals_are_skipped(self):
        monitor = DriftMonitor(window=10, min_observations=1, baseline_rmse=1.0)
        monitor.observe([1.0, np.nan, 2.0], [1.0, 0.0, np.inf])
        assert monitor.num_observations == 1  # only the first pair is finite

    def test_validation(self):
        with pytest.raises(ValidationError):
            DriftMonitor(window=0)
        with pytest.raises(ValidationError):
            DriftMonitor(threshold=0.0)
        with pytest.raises(ValidationError):
            DriftMonitor(baseline_rmse=float("nan"))
        with pytest.raises(ValidationError):
            DriftMonitor().observe([1.0, 2.0], [1.0])


# --------------------------------------------------------------------------- incremental trainer
class TestIncrementalTrainer:
    @pytest.fixture()
    def online_trainer(self, fitted_surf):
        return IncrementalTrainer.from_finder(fitted_surf, warm_start_rounds=10)

    def test_from_finder_reconstructs_the_training_workload(self, fitted_surf, online_trainer):
        assert len(online_trainer.workload) == fitted_surf.workload_size_
        np.testing.assert_array_equal(
            online_trainer.workload.features, fitted_surf.workload_features_
        )
        np.testing.assert_array_equal(
            online_trainer.workload.targets, fitted_surf.workload_targets_
        )

    def test_from_finder_requires_targets(self, fitted_surf):
        import copy

        stale = copy.copy(fitted_surf)
        stale.workload_targets_ = None  # what a pre-v2 bundle load leaves behind
        with pytest.raises(NotFittedError):
            IncrementalTrainer.from_finder(stale)

    def test_refresh_with_no_pairs_is_a_noop(self, online_trainer):
        surrogate = online_trainer.surrogate
        satisfiability = online_trainer.satisfiability
        outcome = online_trainer.refresh([])
        assert outcome.mode == "noop"
        assert outcome.num_new_pairs == 0
        assert online_trainer.surrogate is surrogate
        assert online_trainer.satisfiability is satisfiability

    def test_incremental_refresh_improves_rmse_on_the_new_pairs(self, online_trainer, density_engine):
        from repro.surrogate.workload import generate_workload

        fresh = list(generate_workload(density_engine, 120, random_state=123))
        outcome = online_trainer.refresh(fresh)
        assert outcome.mode == "incremental"
        assert outcome.num_new_pairs == 120
        assert outcome.rmse_after <= outcome.rmse_before
        assert len(online_trainer.workload) == 400 + 120

    def test_refresh_updates_the_satisfiability_sample(self, online_trainer):
        before = online_trainer.satisfiability.num_samples
        pairs = [make_evaluation([0.5, 0.5], value, half=0.05) for value in (1.0, 2.0, 3.0)]
        online_trainer.refresh(pairs)
        assert online_trainer.satisfiability.num_samples == before + 3

    def test_mean_shift_triggers_the_full_refit_fallback(self, online_trainer, density_workload):
        # Shift every statistic by many baseline-RMSEs: rolling residuals explode.
        shift = 20.0 * online_trainer.drift_monitor.baseline_rmse + 1.0
        drifted = shifted_copy(density_workload.subset(150, random_state=5), shift)
        outcome = online_trainer.refresh(drifted)
        assert outcome.drifted
        assert outcome.mode == "full"
        # The full refit rebaselines the monitor on the merged workload.
        assert online_trainer.drift_monitor.num_observations == 0

    def test_full_refit_can_be_forced(self, online_trainer):
        outcome = online_trainer.refresh([], force_full=True)
        assert outcome.mode == "full"

    def test_incremental_vs_full_refit_rmse_tolerance(self, fitted_surf, density_engine):
        """Warm-start refresh must stay in the same accuracy class as a full refit."""
        from repro.surrogate.workload import generate_workload

        fresh = generate_workload(density_engine, 200, random_state=77)
        holdout = generate_workload(density_engine, 200, random_state=78)

        incremental = IncrementalTrainer.from_finder(fitted_surf, warm_start_rounds=15)
        incremental.refresh(list(fresh))
        full = IncrementalTrainer.from_finder(fitted_surf)
        full.refresh(list(fresh), force_full=True)

        rmse_incremental = incremental.surrogate.rmse(holdout.features, holdout.targets)
        rmse_full = full.surrogate.rmse(holdout.features, holdout.targets)
        assert rmse_incremental <= 1.3 * rmse_full

    def test_max_workload_size_keeps_the_most_recent_evaluations(self, online_trainer, density_workload):
        trainer = IncrementalTrainer(
            trainer=online_trainer.trainer,
            workload=online_trainer.workload,
            surrogate=online_trainer.surrogate,
            warm_start_rounds=5,
            max_workload_size=420,
        )
        fresh = [make_evaluation([0.5, 0.5], float(i), half=0.05) for i in range(50)]
        trainer.refresh(fresh)
        assert len(trainer.workload) == 420
        assert trainer.workload[-1].value == 49.0

    def test_dimension_mismatch_is_rejected(self, online_trainer):
        with pytest.raises(ValidationError):
            online_trainer.refresh([make_evaluation([0.1], 1.0)])


# --------------------------------------------------------------------------- service refresh
@pytest.fixture()
def online_service(fitted_surf):
    return ServiceKernel(fitted_surf, query_log=QueryLog(capacity=10_000))


class TestServiceRefresh:
    def test_refresh_without_a_log_is_refused(self, fitted_surf):
        service = ServiceKernel(fitted_surf)
        with pytest.raises(ValidationError):
            service.refresh()
        with pytest.raises(ValidationError):
            service.observe(Region(np.array([0.5, 0.5]), np.array([0.1, 0.1])), 1.0)

    def test_exact_engine_requires_a_log(self, fitted_surf, density_engine):
        with pytest.raises(ValidationError):
            ServiceKernel(fitted_surf, exact_engine=density_engine)

    def test_refresh_with_zero_new_pairs_is_bit_identical(self, online_service, density_query):
        before = online_service.handle(density_query)
        outcome = online_service.refresh()
        assert outcome.mode == "noop"
        assert online_service.generation == 0
        after = online_service.handle(density_query)
        # The cache survived the no-op refresh and the finder was not swapped.
        assert after.status == "cached"
        assert after.result is before.result
        assert proposals_identical(before.result.proposals, after.result.proposals)
        assert online_service.stats.refreshes == 0

    def test_refresh_folds_observed_pairs_and_hot_swaps(self, online_service, density_query, density_engine):
        from repro.surrogate.workload import generate_workload

        served = online_service.handle(density_query)
        assert served.status == "served"
        samples_before = online_service.finder.satisfiability_.num_samples
        finder_before = online_service.finder

        online_service.observe_many(list(generate_workload(density_engine, 80, random_state=55)))
        assert online_service.pending_log_entries == 80
        outcome = online_service.refresh()

        assert outcome.mode == "incremental"
        assert outcome.num_new_pairs == 80
        assert online_service.pending_log_entries == 0
        assert online_service.generation == 1
        assert online_service.stats.refreshes == 1
        # The swap installed a NEW finder object; the old one is untouched.
        assert online_service.finder is not finder_before
        assert finder_before.satisfiability_.num_samples == samples_before
        assert online_service.finder.satisfiability_.num_samples == samples_before + 80
        assert online_service.finder.workload_size_ == finder_before.workload_size_ + 80
        # The cache was invalidated: the same query runs GSO again.
        assert online_service.cached_queries == 0
        assert online_service.handle(density_query).status == "served"

    def test_served_proposals_are_harvested_with_an_exact_engine(
        self, fitted_surf, density_query, density_engine
    ):
        log = QueryLog(capacity=1_000)
        service = ServiceKernel(fitted_surf, query_log=log, exact_engine=density_engine)
        response = service.handle(density_query)
        assert response.status == "served"
        assert len(log) == len(response.proposals)
        assert service.stats.harvested == len(response.proposals)
        # Harvested values are the engine's exact statistics for the proposals.
        for entry, proposal in zip(log.snapshot(), response.result.proposals):
            assert entry.value == pytest.approx(density_engine.evaluate(proposal.region))

    def test_observed_pairs_count_as_pending_until_refreshed(self, online_service):
        online_service.observe(Region(np.array([0.5, 0.5]), np.array([0.1, 0.1])), 2.0)
        assert online_service.pending_log_entries == 1

    def test_observed_pairs_count_as_harvested(self, online_service):
        online_service.observe(Region(np.array([0.5, 0.5]), np.array([0.1, 0.1])), 2.0)
        online_service.observe_many(
            [make_evaluation([0.4, 0.4], value, half=0.05) for value in (1.0, 2.0)]
        )
        assert online_service.stats.harvested == 3

    def test_bundle_round_trip_supports_online_refresh(self, fitted_surf, tmp_path, density_engine):
        """A v2 bundle carries workload targets, so a loaded service can refresh."""
        from repro.core.finder import SuRF
        from repro.surrogate.workload import generate_workload

        loaded = SuRF.load(fitted_surf.save(tmp_path / "finder.surf"))
        np.testing.assert_array_equal(loaded.workload_targets_, fitted_surf.workload_targets_)
        service = ServiceKernel(loaded, query_log=QueryLog())
        service.observe_many(list(generate_workload(density_engine, 40, random_state=2)))
        assert service.refresh().mode == "incremental"


# --------------------------------------------------------------------------- stats
class TestServiceStatsHitRate:
    def test_hit_rate_is_zero_before_any_query(self):
        # Regression guard: reading stats on a fresh service must not divide by zero.
        assert ServiceStats().hit_rate == 0.0
        assert ServiceStats().as_dict()["hit_rate"] == 0.0

    def test_hit_rate_on_a_fresh_service(self, fitted_surf):
        assert ServiceKernel(fitted_surf).stats.hit_rate == 0.0
