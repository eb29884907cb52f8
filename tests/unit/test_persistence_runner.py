"""Unit tests for workload/surrogate persistence and the experiment CLI runner."""

import numpy as np
import pytest

from recursive_predict import recursive_predict
from repro.exceptions import ValidationError
from repro.experiments.runner import build_parser, main, run_experiments
from repro.surrogate.persistence import load_surrogate, load_workload, save_surrogate, save_workload


class TestWorkloadPersistence:
    def test_round_trip_preserves_features_and_targets(self, density_workload, tmp_path):
        path = tmp_path / "workload.npz"
        save_workload(density_workload, path)
        restored = load_workload(path)
        np.testing.assert_allclose(restored.features, density_workload.features)
        np.testing.assert_allclose(restored.targets, density_workload.targets)
        assert restored.region_dim == density_workload.region_dim

    def test_load_rejects_non_workload_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, something=np.ones(3))
        with pytest.raises(ValidationError):
            load_workload(path)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_workload(tmp_path / "missing.npz")

    def test_save_returns_path_numpy_actually_wrote(self, density_workload, tmp_path):
        # Regression: numpy appends ".npz" to any filename not already ending
        # in it; save_workload must return that real on-disk path, not a
        # suffix-mangled guess.
        for name in ("workload", "workload.dat", "v1.2-workload"):
            written = save_workload(density_workload, tmp_path / name)
            assert written.exists(), name
            assert written.name == f"{name}.npz"
            restored = load_workload(written)
            np.testing.assert_allclose(restored.features, density_workload.features)

    def test_save_keeps_npz_suffix_untouched(self, density_workload, tmp_path):
        written = save_workload(density_workload, tmp_path / "workload.npz")
        assert written == tmp_path / "workload.npz"
        assert written.exists()

    def test_load_accepts_path_without_npz_suffix(self, density_workload, tmp_path):
        save_workload(density_workload, tmp_path / "workload")
        restored = load_workload(tmp_path / "workload")
        np.testing.assert_allclose(restored.targets, density_workload.targets)


class TestSurrogatePersistence:
    def test_round_trip_predictions_identical(self, fitted_surf, tmp_path):
        surrogate = fitted_surf.surrogate_
        path = tmp_path / "surrogate.pkl"
        save_surrogate(surrogate, path)
        restored = load_surrogate(path)
        probe = np.array([[0.5, 0.5, 0.1, 0.1]])
        np.testing.assert_allclose(restored.predict(probe), surrogate.predict(probe))
        assert restored.region_dim == surrogate.region_dim

    def test_save_rejects_non_surrogate(self, tmp_path):
        with pytest.raises(ValidationError):
            save_surrogate("not-a-model", tmp_path / "bad.pkl")

    def test_load_rejects_other_pickles(self, tmp_path):
        import pickle

        path = tmp_path / "other.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"not": "a surrogate"}, handle)
        with pytest.raises(ValidationError):
            load_surrogate(path)


class TestBundleCompiledTables:
    def test_bundle_round_trips_compiled_tables(self, fitted_surf, tmp_path):
        # save_bundle pre-compiles the surrogate, so a loaded bundle answers
        # through the SoA kernel without recompiling — and bit-identically.
        path = fitted_surf.save(tmp_path / "finder.bundle")
        estimator = fitted_surf.surrogate_.estimator
        assert estimator.is_compiled  # compiled at save time

        from repro.surrogate.persistence import load_bundle

        reloaded = load_bundle(path)
        restored = reloaded.surrogate_.estimator
        assert restored.is_compiled  # tables travelled inside the bundle
        probe = np.random.default_rng(0).uniform(0.1, 0.9, size=(25, restored._compiled.num_features))
        np.testing.assert_array_equal(
            restored._compiled.predict(probe), recursive_predict(estimator, probe)
        )
        np.testing.assert_array_equal(restored._compiled.predict(probe), restored.predict(probe))

    def test_bundle_version_is_4(self, fitted_surf, tmp_path):
        import pickle

        from repro.surrogate.persistence import BUNDLE_VERSION

        assert BUNDLE_VERSION == 4
        path = fitted_surf.save(tmp_path / "finder.bundle")
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        assert payload["version"] == 4
        assert "density_method" not in payload["config"]


class TestRunnerCli:
    def test_parser_accepts_known_scale(self):
        args = build_parser().parse_args(["fig8", "--scale", "small"])
        assert args.experiments == ["fig8"]
        assert args.scale == "small"

    def test_main_rejects_unknown_experiment(self, capsys):
        assert main(["not-an-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_experiments_executes_and_prints(self, capsys, monkeypatch):
        # Swap in a stub experiment so the CLI path is tested without heavy compute.
        import repro.experiments.runner as runner_module

        stub_rows = [{"metric": "value", "score": 1.0}]

        class _Stub:
            @staticmethod
            def run(scale):
                return stub_rows

        monkeypatch.setitem(runner_module.EXPERIMENTS, "stub", _Stub)
        executed = run_experiments(["stub"], "small")
        output = capsys.readouterr().out
        assert executed == ["stub"]
        assert "stub" in output
        assert "score" in output

    def test_main_runs_stubbed_experiment(self, capsys, monkeypatch):
        import repro.experiments.runner as runner_module

        class _Stub:
            @staticmethod
            def run(scale):
                return {"answer": 42}

        monkeypatch.setitem(runner_module.EXPERIMENTS, "stub2", _Stub)
        assert main(["stub2", "--scale", "small"]) == 0
        assert "42" in capsys.readouterr().out
