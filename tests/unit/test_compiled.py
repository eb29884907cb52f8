"""Unit tests for compiled surrogate inference (:mod:`repro.ml.compiled`).

The central discipline here is *bit-identity*: every equivalence assertion is
``np.array_equal`` (exact float64 equality), never ``allclose`` — the compiled
kernel must replay the recursive path's comparisons and float operation order,
not merely approximate it.
"""

import pickle
import sys

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.base import clone
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.compiled import CompiledGradientBoostingRegressor, CompiledPredictor
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.tree import DecisionTreeRegressor, _Node
from repro.surrogate.training import SurrogateTrainer
from repro.surrogate.workload import generate_workload


def assert_equal_predictions(estimator, features):
    """Recursive and compiled predictions must be *bit-identical*."""
    recursive = estimator.predict(features)
    compiled = CompiledPredictor(estimator).predict(features)
    np.testing.assert_array_equal(recursive, compiled)
    # The cached path through the estimator must agree with a fresh compile.
    np.testing.assert_array_equal(recursive, estimator.compiled_predict(features))


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(42)
    features = rng.uniform(-2.0, 2.0, size=(300, 3))
    targets = (
        np.sin(2 * features[:, 0]) + features[:, 1] ** 2 - features[:, 2]
        + rng.normal(0, 0.1, size=300)
    )
    return features, targets


@pytest.fixture(scope="module")
def query_batch():
    return np.random.default_rng(7).uniform(-2.5, 2.5, size=(157, 3))


class TestCompilable:
    def test_fitted_tree_forest_boosting_are_compilable(self, training_data):
        features, targets = training_data
        for estimator in (
            DecisionTreeRegressor(max_depth=4),
            RandomForestRegressor(n_estimators=3, random_state=0),
            GradientBoostingRegressor(n_estimators=5, random_state=0),
        ):
            assert not CompiledPredictor.compilable(estimator)
            estimator.fit(features, targets)
            assert CompiledPredictor.compilable(estimator)

    def test_unfitted_estimator_raises(self):
        with pytest.raises(ValidationError, match="must be fitted"):
            CompiledPredictor(GradientBoostingRegressor())

    def test_unsupported_family_raises(self, training_data):
        features, targets = training_data
        knn = KNeighborsRegressor().fit(features, targets)
        assert not CompiledPredictor.compilable(knn)
        with pytest.raises(ValidationError, match="cannot compile"):
            CompiledPredictor(knn)

    def test_invalid_chunk_size_rejected(self, training_data):
        features, targets = training_data
        tree = DecisionTreeRegressor(max_depth=2).fit(features, targets)
        with pytest.raises(ValidationError, match="chunk_size"):
            CompiledPredictor(tree, chunk_size=0)


class TestBitIdentity:
    def test_decision_tree(self, training_data, query_batch):
        features, targets = training_data
        assert_equal_predictions(DecisionTreeRegressor(max_depth=6).fit(features, targets), query_batch)

    def test_random_forest(self, training_data, query_batch):
        features, targets = training_data
        forest = RandomForestRegressor(n_estimators=11, max_depth=7, random_state=0)
        assert_equal_predictions(forest.fit(features, targets), query_batch)

    def test_gradient_boosting(self, training_data, query_batch):
        features, targets = training_data
        boosted = GradientBoostingRegressor(n_estimators=35, max_depth=4, random_state=0)
        assert_equal_predictions(boosted.fit(features, targets), query_batch)

    def test_single_row_and_odd_batch_sizes(self, training_data):
        features, targets = training_data
        model = GradientBoostingRegressor(n_estimators=10, max_depth=3, random_state=0).fit(
            features, targets
        )
        rng = np.random.default_rng(3)
        for num_rows in (1, 2, 3, 33):
            assert_equal_predictions(model, rng.uniform(-2, 2, size=(num_rows, 3)))

    def test_chunked_traversal_matches_unchunked(self, training_data, query_batch):
        # Chunk boundaries must not perturb any row: per-row work is
        # independent, so a tiny chunk size is still bit-identical.
        features, targets = training_data
        model = GradientBoostingRegressor(n_estimators=8, random_state=0).fit(features, targets)
        tiny = CompiledPredictor(model, chunk_size=13).predict(query_batch)
        np.testing.assert_array_equal(tiny, CompiledPredictor(model).predict(query_batch))
        np.testing.assert_array_equal(tiny, model.predict(query_batch))

    def test_single_node_tree(self, query_batch):
        # max_depth=0 compiles to one self-looping leaf per tree.
        features = np.linspace(0, 1, 20).reshape(-1, 1)
        targets = np.linspace(5, 6, 20)
        stump = DecisionTreeRegressor(max_depth=0).fit(features, targets)
        predictor = CompiledPredictor(stump)
        assert predictor.num_nodes == 1
        assert predictor.max_depth == 0
        assert_equal_predictions(stump, query_batch[:, :1])

    def test_exact_threshold_values_route_identically(self):
        # Rows sitting exactly on a split threshold are the sharpest probe of
        # the <= vs > boundary; feed every fitted threshold back as a query.
        rng = np.random.default_rng(5)
        features = rng.uniform(size=(200, 2))
        targets = rng.uniform(size=200)
        tree = DecisionTreeRegressor(max_depth=6).fit(features, targets)
        predictor = CompiledPredictor(tree)
        thresholds = predictor.threshold[predictor.feature >= 0]
        probe = np.column_stack([thresholds, thresholds])
        assert_equal_predictions(tree, probe)

    def test_deep_fitted_tree(self):
        # Exponentially growing targets force the greedy splitter into a long
        # one-sided chain — the deep-tree regime the level loop must handle.
        num_rows = 60
        features = np.arange(num_rows, dtype=np.float64).reshape(-1, 1)
        targets = 2.0 ** np.arange(num_rows, dtype=np.float64)
        tree = DecisionTreeRegressor(
            max_depth=num_rows, max_bins=num_rows + 1, min_gain=0.0
        ).fit(features, targets)
        assert tree.depth() >= 20
        predictor = CompiledPredictor(tree)
        assert predictor.max_depth == tree.depth()
        assert_equal_predictions(tree, features)

    def test_constant_targets(self, query_batch):
        features = np.random.default_rng(0).uniform(size=(40, 3))
        model = GradientBoostingRegressor(n_estimators=5, random_state=0).fit(
            features, np.full(40, 3.25)
        )
        assert_equal_predictions(model, query_batch)


class TestSoALayout:
    @pytest.fixture(scope="class")
    def predictor(self, training_data):
        features, targets = training_data
        model = GradientBoostingRegressor(n_estimators=12, max_depth=4, random_state=1).fit(
            features, targets
        )
        return model, CompiledPredictor(model)

    def test_table_shapes_consistent(self, predictor):
        _, compiled = predictor
        num_nodes = compiled.num_nodes
        for table in (
            compiled.feature,
            compiled.threshold,
            compiled.left_child,
            compiled.right_child,
            compiled.leaf_value,
        ):
            assert table.shape == (num_nodes,)
        assert compiled.roots.shape == (compiled.num_trees,)

    def test_tree_and_node_counts(self, predictor):
        model, compiled = predictor
        assert compiled.num_trees == model.num_trees_
        assert compiled.num_nodes == sum(tree.node_count_ for tree in model._trees)
        assert compiled.max_depth == max(tree.depth() for tree in model._trees)
        assert compiled.num_features == 3
        assert compiled.aggregation == "sum"

    def test_siblings_adjacent_and_leaves_self_loop(self, predictor):
        _, compiled = predictor
        internal = compiled.feature >= 0
        indices = np.arange(compiled.num_nodes)
        # The branchless kernel relies on right == left + 1 for splits...
        np.testing.assert_array_equal(
            compiled.right_child[internal], compiled.left_child[internal] + 1
        )
        # ...and on leaves parking in place with an untakeable +inf threshold.
        np.testing.assert_array_equal(compiled.left_child[~internal], indices[~internal])
        np.testing.assert_array_equal(compiled.right_child[~internal], indices[~internal])
        assert np.all(np.isinf(compiled.threshold[~internal]))

    def test_feature_mismatch_rejected(self, predictor):
        _, compiled = predictor
        with pytest.raises(ValidationError, match="features"):
            compiled.predict(np.ones((4, 7)))


class TestEstimatorIntegration:
    def test_compile_caches_and_force_rebuilds(self, training_data):
        features, targets = training_data
        model = GradientBoostingRegressor(n_estimators=5, random_state=0).fit(features, targets)
        assert not model.is_compiled
        first = model.compile()
        assert model.is_compiled
        assert model.compile() is first
        assert model.compile(force=True) is not first

    def test_refit_invalidates_cache(self, training_data, query_batch):
        features, targets = training_data
        model = GradientBoostingRegressor(n_estimators=5, random_state=0).fit(features, targets)
        stale = model.compile()
        model.fit(features, -targets)
        assert not model.is_compiled
        np.testing.assert_array_equal(model.compiled_predict(query_batch), model.predict(query_batch))
        assert model.compile() is not stale

    def test_warm_start_continuation_recompiles(self, training_data, query_batch):
        features, targets = training_data
        model = GradientBoostingRegressor(n_estimators=10, random_state=0).fit(features, targets)
        before = model.compile()
        assert before.num_trees == 10
        model.set_params(warm_start=True, n_estimators=16).fit(features, targets)
        # The continuation predicts through the model mid-fit; the cache must
        # not survive with the 10-tree (or mid-fit) ensemble baked in.
        assert not model.is_compiled
        after = model.compile()
        assert after.num_trees == 16
        assert_equal_predictions(model, query_batch)

    def test_compiled_family_predicts_through_kernel(self, training_data, query_batch):
        features, targets = training_data
        compiled_model = CompiledGradientBoostingRegressor(
            n_estimators=20, max_depth=4, random_state=0
        ).fit(features, targets)
        reference = GradientBoostingRegressor(n_estimators=20, max_depth=4, random_state=0).fit(
            features, targets
        )
        np.testing.assert_array_equal(
            compiled_model.predict(query_batch), reference.predict(query_batch)
        )
        assert compiled_model.is_compiled  # predict compiled on first use

    def test_compiled_family_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            CompiledGradientBoostingRegressor().predict(np.ones((2, 2)))

    def test_compiled_family_clone_is_unfitted(self, training_data):
        features, targets = training_data
        model = CompiledGradientBoostingRegressor(n_estimators=4, random_state=0).fit(
            features, targets
        )
        copy = clone(model)
        assert isinstance(copy, CompiledGradientBoostingRegressor)
        assert copy.get_params()["n_estimators"] == 4
        with pytest.raises(NotFittedError):
            copy.predict(features)

    def test_predictor_pickles_with_estimator(self, training_data, query_batch):
        features, targets = training_data
        model = GradientBoostingRegressor(n_estimators=6, random_state=0).fit(features, targets)
        expected = model.compiled_predict(query_batch)
        restored = pickle.loads(pickle.dumps(model))
        assert restored.is_compiled  # tables travelled inside the pickle
        np.testing.assert_array_equal(restored._compiled.predict(query_batch), expected)

    def test_estimators_pickled_before_this_feature_still_compile(self, training_data):
        # Old pickles have no _compiled attribute at all; the getattr-based
        # accessors must treat them as simply not-yet-compiled.
        features, targets = training_data
        model = GradientBoostingRegressor(n_estimators=4, random_state=0).fit(features, targets)
        if hasattr(model, "_compiled"):
            del model._compiled
        assert not model.is_compiled
        model.compile()
        assert model.is_compiled


class TestRegistryAndTrainer:
    def test_registry_resolves_compiled_family(self):
        from repro.api.registries import resolve_surrogate

        assert resolve_surrogate("compiled-boosting") is CompiledGradientBoostingRegressor
        assert resolve_surrogate("compiled-gbrt") is CompiledGradientBoostingRegressor

    def test_trainer_accepts_family_name(self, density_engine):
        trainer = SurrogateTrainer(
            estimator="compiled-boosting",
            estimator_options={"n_estimators": 8, "max_depth": 3},
            random_state=0,
        )
        assert isinstance(trainer.estimator, CompiledGradientBoostingRegressor)

    def test_trainer_auto_compiles_after_train(self, density_engine):
        workload = generate_workload(density_engine, 120, random_state=0)
        trainer = SurrogateTrainer(
            estimator=GradientBoostingRegressor(n_estimators=8, max_depth=3, random_state=0),
            random_state=0,
        )
        surrogate = trainer.train(workload)
        assert surrogate.estimator.is_compiled

    def test_trainer_auto_compiles_after_incremental_refresh(self, density_engine):
        workload = generate_workload(density_engine, 120, random_state=0)
        trainer = SurrogateTrainer(
            estimator=GradientBoostingRegressor(n_estimators=8, max_depth=3, random_state=0),
            random_state=0,
        )
        surrogate = trainer.train(workload)
        refreshed = trainer.train_incremental(surrogate, workload, extra_rounds=4)
        assert refreshed.estimator.is_compiled
        assert refreshed.estimator.compile().num_trees == surrogate.estimator.compile().num_trees + 4
        from repro.surrogate.features import augment_region_vectors

        grid = augment_region_vectors(workload.features[:50])
        np.testing.assert_array_equal(
            refreshed.estimator.compiled_predict(grid), refreshed.estimator.predict(grid)
        )

    def test_trainer_skips_uncompilable_families(self, density_engine):
        workload = generate_workload(density_engine, 60, random_state=0)
        trainer = SurrogateTrainer(estimator="knn", random_state=0)
        surrogate = trainer.train(workload)  # must not raise
        assert not CompiledPredictor.compilable(surrogate.estimator)


class TestDeepTreeRecursionSafety:
    def test_predict_survives_chain_deeper_than_recursion_limit(self):
        # Regression: _predict_into used one Python frame per split level, so
        # a chain deeper than the interpreter limit blew the stack.  Build a
        # synthetic left-spine two times deeper than the recursion limit and
        # predict through it — the explicit-stack walk must route correctly.
        depth = sys.getrecursionlimit() * 2
        leaf = _Node(value=123.0)
        root = leaf
        for level in range(depth):
            root = _Node(
                value=0.0,
                feature=0,
                threshold=float(level),
                left=root,
                right=_Node(value=float(level)),
            )
        tree = DecisionTreeRegressor()
        tree._root = root
        tree._num_features = 1
        # -1 sits below every threshold, so the row walks the full left spine.
        out = tree.predict(np.array([[-1.0]]))
        np.testing.assert_array_equal(out, [123.0])
        # A row that exits at the first split reads the shallow right leaf
        # (thresholds shrink towards the root, so 'depth' exceeds them all).
        out = tree.predict(np.array([[float(depth)]]))
        np.testing.assert_array_equal(out, [float(depth) - 1.0])

    def test_depth_and_leaf_count_survive_deep_chains(self):
        depth = sys.getrecursionlimit() * 2
        root = _Node(value=0.0)
        for level in range(depth):
            root = _Node(value=0.0, feature=0, threshold=float(level), left=root, right=_Node(value=1.0))
        tree = DecisionTreeRegressor()
        tree._root = root
        tree._num_features = 1
        assert tree.depth() == depth
        assert tree.num_leaves() == depth + 1

    def test_compiler_flattens_chain_deeper_than_recursion_limit(self):
        depth = sys.getrecursionlimit() + 50
        root = _Node(value=0.0)
        for level in range(depth):
            root = _Node(value=0.0, feature=0, threshold=float(level), left=root, right=_Node(value=1.0))
        tree = DecisionTreeRegressor()
        tree._root = root
        tree._num_features = 1
        predictor = CompiledPredictor(tree)
        assert predictor.max_depth == depth
        np.testing.assert_array_equal(
            predictor.predict(np.array([[-1.0]])), tree.predict(np.array([[-1.0]]))
        )
