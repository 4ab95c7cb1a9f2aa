"""Unit tests for Gaussian-process regression."""

import numpy as np
import pytest

from repro.airlearning.scenarios import Scenario
from repro.core.pipeline import AutoPilot
from repro.core.spec import RunConfig, TaskSpec
from repro.errors import ConfigError
from repro.optim.gp import (
    GaussianProcess,
    MultiObjectiveGP,
    _median_heuristic,
    pairwise_sq,
    se_kernel,
)
from repro.perf import span
from repro.uav.platforms import NANO_ZHANG


class TestSeKernel:
    def test_diagonal_is_variance(self):
        x = np.random.default_rng(0).uniform(size=(5, 3))
        k = se_kernel(x, x, lengthscale=1.0, variance=2.0)
        assert np.allclose(np.diag(k), 2.0)

    def test_symmetric_positive(self):
        x = np.random.default_rng(1).uniform(size=(6, 2))
        k = se_kernel(x, x, lengthscale=0.5, variance=1.0)
        assert np.allclose(k, k.T)
        assert (k > 0).all()

    def test_decays_with_distance(self):
        a = np.array([[0.0]])
        near = np.array([[0.1]])
        far = np.array([[2.0]])
        assert se_kernel(a, near, 0.5, 1.0)[0, 0] > \
            se_kernel(a, far, 0.5, 1.0)[0, 0]

    def test_rejects_bad_hyperparameters(self):
        x = np.zeros((1, 1))
        with pytest.raises(ConfigError):
            se_kernel(x, x, lengthscale=0.0, variance=1.0)
        with pytest.raises(ConfigError):
            se_kernel(x, x, lengthscale=1.0, variance=-1.0)


class TestGaussianProcess:
    def setup_data(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, 2))
        y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1]
        return x, y

    def test_interpolates_training_points(self):
        x, y = self.setup_data()
        gp = GaussianProcess(noise=1e-4).fit(x, y)
        mean, _ = gp.predict(x)
        assert np.allclose(mean, y, atol=0.05)

    def test_uncertainty_small_at_data_large_away(self):
        x, y = self.setup_data()
        gp = GaussianProcess().fit(x, y)
        _, std_at_data = gp.predict(x[:1])
        _, std_far = gp.predict(np.array([[5.0, 5.0]]))
        assert std_far[0] > std_at_data[0]

    def test_prediction_shapes(self):
        x, y = self.setup_data()
        gp = GaussianProcess().fit(x, y)
        mean, std = gp.predict(np.random.default_rng(2).uniform(size=(7, 2)))
        assert mean.shape == (7,)
        assert std.shape == (7,)
        assert (std > 0).all()

    def test_reverts_to_prior_far_away(self):
        x, y = self.setup_data()
        gp = GaussianProcess().fit(x, y)
        mean, _ = gp.predict(np.array([[100.0, 100.0]]))
        assert mean[0] == pytest.approx(np.mean(y), abs=0.2)

    def test_generalizes_on_smooth_function(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(40, 1))
        y = np.sin(4 * x[:, 0])
        gp = GaussianProcess().fit(x, y)
        x_test = rng.uniform(size=(10, 1))
        mean, _ = gp.predict(x_test)
        assert np.abs(mean - np.sin(4 * x_test[:, 0])).max() < 0.3

    def test_constant_targets_handled(self):
        x = np.random.default_rng(4).uniform(size=(5, 2))
        gp = GaussianProcess().fit(x, np.full(5, 3.0))
        mean, _ = gp.predict(x)
        assert np.allclose(mean, 3.0, atol=1e-6)

    def test_fixed_lengthscale_respected(self):
        x, y = self.setup_data()
        gp = GaussianProcess(lengthscale=0.7).fit(x, y)
        assert gp.fitted_lengthscale == 0.7

    def test_predict_before_fit_raises(self):
        with pytest.raises(ConfigError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            GaussianProcess().fit(np.zeros((3, 2)), np.zeros(4))

    def test_empty_fit_rejected(self):
        with pytest.raises(ConfigError):
            GaussianProcess().fit(np.zeros((0, 2)), np.zeros(0))

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ConfigError):
            GaussianProcess(noise=0.0)

    def test_nonpositive_lengthscale_rejected(self):
        with pytest.raises(ConfigError):
            GaussianProcess(lengthscale=0.0)


class TestMultiObjectiveGpContract:
    """The production GP refuses what the scalar oracle refuses."""

    def test_predict_before_fit_raises(self):
        with pytest.raises(ConfigError, match="before fit"):
            MultiObjectiveGP().predict(np.zeros((1, 2)))

    def test_fitted_lengthscales_before_fit_raise(self):
        with pytest.raises(ConfigError, match="before fit"):
            MultiObjectiveGP().fitted_lengthscales

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            MultiObjectiveGP().fit(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ConfigError):
            MultiObjectiveGP().fit(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_nonpositive_hyperparameters_rejected(self):
        with pytest.raises(ConfigError):
            MultiObjectiveGP(noise=0.0)
        with pytest.raises(ConfigError):
            MultiObjectiveGP(lengthscale=-1.0)

    def test_one_dimensional_targets_fit_one_objective(self):
        x = np.random.default_rng(4).uniform(size=(12, 2))
        y = np.sin(3 * x[:, 0])
        gp = MultiObjectiveGP().fit(x, y)
        means, stds = gp.predict(x[:3])
        assert means.shape == stds.shape == (3, 1)
        assert gp.fitted_lengthscales == [
            GaussianProcess().fit(x, y).fitted_lengthscale]

    def test_fixed_lengthscale_factorises_once(self):
        x = np.random.default_rng(5).uniform(size=(10, 2))
        y = np.random.default_rng(6).normal(size=(10, 3))
        with span("fit") as fit:
            gp = MultiObjectiveGP(lengthscale=0.4).fit(x, y)
        assert fit.total("gp.factorisations") == 1
        assert gp.fitted_lengthscales == [0.4] * 3


class TestMedianHeuristic:
    """The partition median must give ``np.median``'s bits exactly."""

    @staticmethod
    def numpy_median(x):
        sq = pairwise_sq(x, x)
        upper = np.sqrt(sq[np.triu_indices(len(x), k=1)])
        positive = upper[upper > 0]
        return float(np.median(positive)) if positive.size else 1.0

    @pytest.mark.parametrize("points", [
        [[0.0], [0.3]],
        [[0.0], [0.3], [1.0]],
        [[0.0], [0.1], [0.5], [1.0]],
        [[0.0], [0.5], [1.0], [1.5]],
        [[0.0], [0.0], [0.4]],
        [[0.3, 0.7]],
    ], ids=["one-distance", "odd", "even", "even-tied", "duplicate-points",
            "one-point"])
    def test_matches_numpy_median(self, points):
        x = np.asarray(points)
        assert _median_heuristic(x) == self.numpy_median(x)

    def test_matches_numpy_median_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for trial in range(400):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 8))
            # Grid inputs tie many distances; uniform ones rarely do.
            x = (rng.integers(0, 4, size=(n, d)) / 3.0 if trial % 2
                 else rng.uniform(size=(n, d)))
            assert _median_heuristic(x) == self.numpy_median(x)


class TestGpIncrementalEquivalence:
    """MultiObjectiveGP vs per-objective GaussianProcess refits."""

    def _data(self, seed, n, d=7, m=3):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 8, size=(n, d)) / 7.0  # grid-like BO inputs
        y = rng.normal(size=(n, m))
        xq = rng.integers(0, 8, size=(19, d)) / 7.0
        return x, y, xq

    def assert_bit_identical(self, x, y, xq):
        mo = MultiObjectiveGP().fit(x, y)
        means, stds = mo.predict(xq)
        for j in range(y.shape[1]):
            gp = GaussianProcess().fit(x, y[:, j])
            mean, std = gp.predict(xq)
            assert gp.fitted_lengthscale == mo.fitted_lengthscales[j]
            assert np.array_equal(mean, means[:, j])
            assert np.array_equal(std, stds[:, j])

    def test_shared_factorisation_bit_identical_to_scalar(self):
        for seed in range(5):
            self.assert_bit_identical(*self._data(seed, n=12 + 3 * seed))

    @pytest.mark.parametrize("n", [12, 25, 50, 75, 100])
    def test_bit_identical_up_to_100_points(self, n):
        for seed in range(3):
            self.assert_bit_identical(*self._data(100 + seed, n=n))

    @pytest.mark.parametrize("fails", ["flat", "peaked"])
    @pytest.mark.parametrize("n", [15, 60, 100])
    def test_bit_identical_when_some_lengthscales_fail(self, monkeypatch,
                                                       fails, n):
        """The factorisation of the longest (``flat``: Gram entries near
        1) or shortest (``peaked``) lengthscales of the grid raises, as
        a Cholesky does on a matrix that is not positive definite; the
        shared fit skips the same factors a per-objective fit does."""
        cholesky = np.linalg.cholesky
        outcomes = []

        def failing(k):
            mean = k.mean()
            failed = mean > 0.75 if fails == "flat" else mean < 0.15
            outcomes.append(failed)
            if failed:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(k)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        for seed in range(3):
            self.assert_bit_identical(*self._data(200 + seed, n=n))
        assert any(outcomes) and not all(outcomes)


def adversarial_data(seed):
    """Inputs on a 2- or 3-level grid with a third of the rows copied
    from others, three objectives of which one is constant to 1e-9, and
    16 query points.  Duplicated rows make the Gram matrices nearly
    singular and lengthscales nearly tie."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 101))
    d = int(rng.integers(1, 6))
    top = int(rng.integers(1, 3))
    x = rng.integers(0, top + 1, size=(n, d)) / top
    copies = rng.integers(0, n, size=n // 3)
    x[rng.permutation(n)[:copies.size]] = x[copies]
    y = rng.normal(size=(n, 3))
    y[:, int(rng.integers(3))] = 1.0 + 1e-9 * rng.normal(size=n)
    return x, y, rng.integers(0, top + 1, size=(16, d)) / top


class TestLengthscaleRanking:
    """One solve per factor ranks the grid; near-ties and non-finite
    scores fall back to the exact per-factor loop."""

    @staticmethod
    def rescored(x, y, xq):
        """``gp.rescored`` of a fit checked bit-identical to
        per-objective fits, predictions included."""
        with span("fit") as fit:
            TestGpIncrementalEquivalence().assert_bit_identical(x, y, xq)
        return fit.total("gp.rescored")

    def test_exact_tie_takes_the_first_lengthscale(self):
        """Identical inputs give every lengthscale the same Gram matrix,
        so all five factors tie and the first wins, as in the scalar
        fit."""
        x = np.full((9, 4), 0.5)
        y = np.random.default_rng(0).normal(size=(9, 3))
        assert self.rescored(x, y, x[:2]) == 3
        # No positive distance: the median heuristic's base is 1.0.
        assert MultiObjectiveGP().fit(x, y).fitted_lengthscales == [0.25] * 3

    def test_non_finite_scores_are_rescored(self):
        x, y, _ = adversarial_data(0)
        y[0, 1] = np.nan
        with span("fit") as fit:
            gp = MultiObjectiveGP().fit(x, y)
        assert fit.total("gp.rescored") == 1
        assert gp.fitted_lengthscales == [
            GaussianProcess().fit(x, y[:, j]).fitted_lengthscale
            for j in range(3)]

    def test_adversarial_data_matches_per_objective_fits(self):
        rescored = sum(self.rescored(*adversarial_data(seed))
                       for seed in range(200))
        # Near-ties occur on such data, so the guard is exercised.
        assert rescored > 0

    def test_eleven_solves_per_fit(self, monkeypatch):
        """5 ranking solves, then 2 per objective for its alpha."""
        x, y, _ = TestGpIncrementalEquivalence()._data(0, n=40)
        solve = np.linalg.solve
        calls = []

        def spy(a, b):
            calls.append(b.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        with span("fit") as fit:
            MultiObjectiveGP().fit(x, y)
        assert fit.total("gp.factorisations") == 5
        assert fit.total("gp.rescored") == 0
        assert calls == [(40, 3)] * 5 + [(40,)] * 6

    def test_default_design_run_never_rescores(self):
        """The perfbench ``design-q1-b100`` command's fits all take the
        ranking path."""
        task = TaskSpec(platform=NANO_ZHANG, scenario=Scenario.DENSE)
        profile = AutoPilot(RunConfig(seed=7, budget=100)).run(
            task, profile=True).profile
        phase2, = (phase for phase in profile.children
                   if phase.name == "phase2")
        assert len(phase2.find("gp.fit")) == 88
        assert phase2.total("gp.rescored") == 0
