"""Gaussian-process regression with a squared-exponential kernel.

The paper's Phase 2 builds one GP per objective ("the widely-used
squared exponential kernel is used due to its simplicity") and drives an
SMS-EGO acquisition over the GP posterior.  This implementation keeps
the hyper-parameter story deliberately simple and robust: inputs are
normalised to [0, 1]^d by the caller, the output is standardised
internally, the lengthscale comes from the median heuristic (optionally
refined by a small grid search on the log marginal likelihood), and a
jittered Cholesky factorisation gives numerically stable posteriors.

Two observations make the Phase 2 proposal loop cheap without changing
a single bit of its output:

* The Gram matrix -- and therefore every candidate Cholesky factor of
  the lengthscale grid -- depends only on the *inputs* and the
  lengthscale, never on the objective values.  All objectives share the
  same training inputs, so :class:`MultiObjectiveGP` factorises each
  candidate lengthscale once and reuses the factor across objectives
  (5 Choleskys per proposal instead of 15 for three objectives),
  producing bit-identical posteriors to three independent
  :class:`GaussianProcess` fits.
* Between consecutive BO iterations the training set grows by appended
  rows only.  With ``refit_every > 1`` the fitted factor is *extended*
  by a rank-r block Cholesky update (O(n^2) instead of O(n^3)) and the
  lengthscale grid re-runs only every ``refit_every`` observations;
  alpha is always re-derived from the updated factor against the
  re-standardised targets.  The default ``refit_every=1`` keeps the
  exact legacy refit-every-iteration behaviour.

Every solve, incremental ones included, is NumPy's ``np.linalg.solve``:
with no optional SciPy path, a fit's bits do not depend on which
packages the host has installed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.perf.counters import DeltaCounters


def pairwise_sq(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance matrix between two point sets.

    Uses the dot-product expansion ``|a - b|^2 = |a|^2 + |b|^2 - 2 a.b``
    so only an (n x m) matrix is materialised, never the (n x m x d)
    difference tensor; negative round-off is clamped to zero.
    """
    a = np.asarray(x1, dtype=float)
    b = np.asarray(x2, dtype=float)
    sq = (np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :]
          - 2.0 * a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def kernel_from_sq(sq: np.ndarray, lengthscale: float,
                   variance: float) -> np.ndarray:
    """SE kernel matrix from a precomputed squared-distance matrix.

    Splitting the kernel this way lets one squared-distance matrix feed
    every lengthscale of the grid search (and every objective sharing
    the same inputs) while producing exactly the bits
    :func:`se_kernel` would.
    """
    if lengthscale <= 0 or variance <= 0:
        raise ConfigError("kernel hyper-parameters must be positive")
    return variance * np.exp(-0.5 * sq / lengthscale ** 2)


def se_kernel(x1: np.ndarray, x2: np.ndarray, lengthscale: float,
              variance: float) -> np.ndarray:
    """Squared-exponential (RBF) kernel matrix between two point sets."""
    return kernel_from_sq(pairwise_sq(x1, x2), lengthscale, variance)


def _median_heuristic(x: np.ndarray,
                      sq: Optional[np.ndarray] = None) -> float:
    """Median pairwise distance; a standard lengthscale initialiser.

    ``sq`` optionally supplies the precomputed squared-distance matrix
    of ``x`` against itself so callers that already hold one (the
    shared-factorisation fit) do not rebuild it.
    """
    n = x.shape[0]
    if n < 2:
        return 1.0
    if sq is None:
        sq = pairwise_sq(x, x)
    upper = np.sqrt(sq[np.triu_indices(n, k=1)])
    positive = upper[upper > 0]
    if positive.size == 0:
        return 1.0
    # The same value as ``np.median``, whose NaN check imports numpy.ma
    # (about 10 ms) on the first fit of every run.
    half = positive.size // 2
    if positive.size % 2:
        return float(np.partition(positive, half)[half])
    low, high = np.partition(positive, (half - 1, half))[half - 1:half + 1]
    return float((low + high) / 2)


def _standardise(y: np.ndarray) -> Tuple[float, float, np.ndarray]:
    """Centre/scale targets exactly like :meth:`GaussianProcess.fit`."""
    mean = float(np.mean(y))
    std = float(np.std(y))
    if std < 1e-12:
        std = 1.0
    return mean, std, (y - mean) / std


def _half_log_det(chol: np.ndarray) -> np.floating:
    """Half the log-determinant of ``chol @ chol.T``."""
    return np.sum(np.log(np.diag(chol)))


def _log_marginal(y_std: np.ndarray, alpha: np.ndarray,
                  half_log_det: np.floating) -> float:
    """Log marginal likelihood from a factor's :func:`_half_log_det`.

    The determinant term depends on the factor only, so fits that score
    several targets against one factor compute it once.
    """
    n = y_std.shape[0]
    return float(-0.5 * y_std @ alpha
                 - half_log_det
                 - 0.5 * n * np.log(2 * np.pi))


@dataclass
class GpStats(DeltaCounters):
    """Process-wide GP fitting counters (profiler-snapshot friendly).

    The profiler snapshots the module-wide instance per phase and
    reports deltas (:class:`~repro.perf.counters.DeltaCounters`).
    """

    full_fits: int = 0            # per-objective fits via the grid search
    incremental_updates: int = 0  # per-objective fits via factor extension
    factorisations: int = 0       # Cholesky factorisations performed
    fit_wall_s: float = 0.0       # time spent in full (grid) fits
    update_wall_s: float = 0.0    # time spent in incremental updates
    proposal_groups: int = 0      # acquisition rounds (one per GP fit)
    proposed_points: int = 0      # candidates proposed across all groups

    @property
    def mean_proposal_group(self) -> float:
        """Average candidates proposed per acquisition round."""
        if self.proposal_groups == 0:
            return 0.0
        return self.proposed_points / self.proposal_groups


_gp_stats = GpStats()


def gp_stats() -> GpStats:
    """The process-wide GP fitting counters."""
    return _gp_stats


@dataclass
class GaussianProcess:
    """GP regressor with SE kernel and fixed observation noise.

    Attributes:
        noise: Observation noise standard deviation (on standardised y).
        lengthscale: SE kernel lengthscale; fitted if None.
        tune_lengthscale: Refine the median heuristic by maximising the
            log marginal likelihood over a small multiplicative grid.
    """

    noise: float = 1e-3
    lengthscale: Optional[float] = None
    tune_lengthscale: bool = True

    def __post_init__(self) -> None:
        if self.noise <= 0:
            raise ConfigError("noise must be positive")
        if self.lengthscale is not None and self.lengthscale <= 0:
            raise ConfigError("lengthscale must be positive when set")
        self._x: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._chol: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._fitted_lengthscale = 1.0
        self._variance = 1.0

    @property
    def fitted_lengthscale(self) -> float:
        """The lengthscale in effect after :meth:`fit`."""
        return self._fitted_lengthscale

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Fit the GP to observations (x: n x d, y: n)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ConfigError("x and y must have matching lengths")
        if x.shape[0] == 0:
            raise ConfigError("cannot fit a GP to zero observations")

        self._y_mean, self._y_std, y_std = _standardise(y)

        base = (self.lengthscale if self.lengthscale is not None
                else _median_heuristic(x))
        candidates = [base]
        if self.tune_lengthscale and self.lengthscale is None:
            candidates = [base * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]

        best: Tuple[float, float, np.ndarray, np.ndarray] | None = None
        for ls in candidates:
            try:
                chol, alpha = self._factorise(x, y_std, ls)
            except np.linalg.LinAlgError:
                continue
            lml = _log_marginal(y_std, alpha, _half_log_det(chol))
            if best is None or lml > best[0]:
                best = (lml, ls, chol, alpha)
        if best is None:
            raise ConfigError("GP factorisation failed for all lengthscales")

        _, self._fitted_lengthscale, self._chol, self._alpha = best
        self._x = x
        return self

    def _factorise(self, x: np.ndarray, y_std: np.ndarray,
                   lengthscale: float) -> Tuple[np.ndarray, np.ndarray]:
        k = se_kernel(x, x, lengthscale, self._variance)
        k[np.diag_indices_from(k)] += self.noise ** 2 + 1e-8
        chol = np.linalg.cholesky(k)
        alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y_std))
        return chol, alpha

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points (m x d)."""
        if self._x is None or self._chol is None or self._alpha is None:
            raise ConfigError("predict() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k_star = se_kernel(self._x, x, self._fitted_lengthscale, self._variance)
        mean_std = k_star.T @ self._alpha
        v = np.linalg.solve(self._chol, k_star)
        var = self._variance - np.sum(v ** 2, axis=0)
        np.maximum(var, 1e-12, out=var)
        mean = mean_std * self._y_std + self._y_mean
        std = np.sqrt(var) * self._y_std
        return mean, std


@dataclass
class _ObjectiveModel:
    """Fitted state of one objective: its lengthscale, factor and alpha.

    ``chol`` is shared (by reference) between objectives that selected
    the same lengthscale, so extension and prediction work is done once
    per distinct factor, not once per objective.
    """

    lengthscale: float
    chol: np.ndarray
    alpha: np.ndarray
    y_mean: float
    y_std: float


class MultiObjectiveGP:
    """Per-objective GPs over shared inputs with shared factorisations.

    Fitting is bit-identical to one :class:`GaussianProcess` per
    objective column: the median heuristic, the candidate lengthscale
    grid, every Gram matrix and every Cholesky factor depend only on
    the (shared) inputs, so they are computed once and reused while the
    per-objective alpha/LML selection replays the scalar arithmetic
    exactly.  :meth:`predict` likewise shares ``k_star`` and the
    variance solve between objectives that fitted the same lengthscale.

    ``refit_every`` controls the incremental path: with the default 1
    every :meth:`fit` re-runs the exact grid search; with K > 1 a fit
    whose inputs extend the previous training set by appended rows
    reuses the fitted lengthscales and extends each Cholesky factor by
    a rank-r block update, re-running the grid only once K new
    observations have accumulated (or whenever the update is not
    applicable -- changed prefix, changed width, non-PD extension).

    Args:
        noise: Observation noise std (on standardised y), per objective.
        lengthscale: Fixed SE lengthscale; fitted per objective if None.
        tune_lengthscale: Grid-refine the median heuristic.
        refit_every: Full lengthscale-grid refit cadence in observations
            (1 = always refit, the exact scalar behaviour).
    """

    def __init__(self, noise: float = 1e-3,
                 lengthscale: Optional[float] = None,
                 tune_lengthscale: bool = True,
                 refit_every: int = 1):
        if noise <= 0:
            raise ConfigError("noise must be positive")
        if lengthscale is not None and lengthscale <= 0:
            raise ConfigError("lengthscale must be positive when set")
        if refit_every < 1:
            raise ConfigError("refit_every must be at least 1")
        self.noise = noise
        self.lengthscale = lengthscale
        self.tune_lengthscale = tune_lengthscale
        self.refit_every = refit_every
        self._variance = 1.0
        self._x: Optional[np.ndarray] = None
        self._models: Optional[List[_ObjectiveModel]] = None
        self._grid_n = 0  # observation count at the last grid fit

    @property
    def num_objectives(self) -> int:
        """Fitted objective count (0 before the first fit)."""
        return 0 if self._models is None else len(self._models)

    @property
    def fitted_lengthscales(self) -> List[float]:
        """Per-objective lengthscales in effect after :meth:`fit`."""
        if self._models is None:
            raise ConfigError("fitted_lengthscales read before fit()")
        return [model.lengthscale for model in self._models]

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "MultiObjectiveGP":
        """Fit all objectives to observations (x: n x d, y: n x m)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ConfigError("x and y must have matching lengths")
        if x.shape[0] == 0 or y.shape[1] == 0:
            raise ConfigError("cannot fit a GP to zero observations")
        if self._can_extend(x, y):
            try:
                self._extend(x, y)
                return self
            except np.linalg.LinAlgError:
                pass  # non-PD extension: fall through to the exact refit
        self._full_fit(x, y)
        return self

    def _can_extend(self, x: np.ndarray, y: np.ndarray) -> bool:
        if self.refit_every <= 1 or self._models is None or self._x is None:
            return False
        prev_n, n = self._x.shape[0], x.shape[0]
        return (n > prev_n
                and x.shape[1] == self._x.shape[1]
                and y.shape[1] == len(self._models)
                and n - self._grid_n < self.refit_every
                and np.array_equal(x[:prev_n], self._x))

    def _full_fit(self, x: np.ndarray, y: np.ndarray) -> None:
        start = time.perf_counter()
        sq = pairwise_sq(x, x)
        base = (self.lengthscale if self.lengthscale is not None
                else _median_heuristic(x, sq=sq))
        candidates = [base]
        if self.tune_lengthscale and self.lengthscale is None:
            candidates = [base * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]

        jitter = self.noise ** 2 + 1e-8
        factors: List[Tuple[float, np.ndarray, np.floating]] = []
        for ls in candidates:
            k = kernel_from_sq(sq, ls, self._variance)
            k[np.diag_indices_from(k)] += jitter
            try:
                chol = np.linalg.cholesky(k)
            except np.linalg.LinAlgError:
                continue
            _gp_stats.factorisations += 1
            factors.append((ls, chol, _half_log_det(chol)))
        if not factors:
            raise ConfigError("GP factorisation failed for all lengthscales")

        models: List[_ObjectiveModel] = []
        for j in range(y.shape[1]):
            y_mean, y_scale, y_std = _standardise(y[:, j])
            best: Tuple[float, float, np.ndarray, np.ndarray] | None = None
            for ls, chol, half_log_det in factors:
                alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y_std))
                lml = _log_marginal(y_std, alpha, half_log_det)
                if best is None or lml > best[0]:
                    best = (lml, ls, chol, alpha)
            models.append(_ObjectiveModel(
                lengthscale=best[1], chol=best[2], alpha=best[3],
                y_mean=y_mean, y_std=y_scale))
        self._x = x
        self._models = models
        self._grid_n = x.shape[0]
        _gp_stats.full_fits += len(models)
        _gp_stats.fit_wall_s += time.perf_counter() - start

    def _extend(self, x: np.ndarray, y: np.ndarray) -> None:
        """Grow every factor by the appended rows (rank-r block update).

        For K = [[K_old, C], [C.T, D]] the lower Cholesky factor is
        [[L, 0], [B.T, Ls]] with B = L^-1 C and Ls = chol(D - B.T B);
        alpha is re-derived from the extended factor against the
        re-standardised targets.  Raises ``LinAlgError`` when the
        extension is not positive definite, which the caller turns into
        an exact full refit.
        """
        start = time.perf_counter()
        prev_n, n = self._x.shape[0], x.shape[0]
        x_new = x[prev_n:]
        sq_cross = pairwise_sq(self._x, x_new)
        sq_corner = pairwise_sq(x_new, x_new)
        jitter = self.noise ** 2 + 1e-8

        extended: Dict[int, np.ndarray] = {}
        models: List[_ObjectiveModel] = []
        for j, model in enumerate(self._models):
            new_chol = extended.get(id(model.chol))
            if new_chol is None:
                ls = model.lengthscale
                corner = kernel_from_sq(sq_corner, ls, self._variance)
                corner[np.diag_indices_from(corner)] += jitter
                b = np.linalg.solve(
                    model.chol, kernel_from_sq(sq_cross, ls, self._variance))
                corner_chol = np.linalg.cholesky(corner - b.T @ b)
                _gp_stats.factorisations += 1
                new_chol = np.empty((n, n))
                new_chol[:prev_n, :prev_n] = model.chol
                new_chol[:prev_n, prev_n:] = 0.0
                new_chol[prev_n:, :prev_n] = b.T
                new_chol[prev_n:, prev_n:] = corner_chol
                extended[id(model.chol)] = new_chol
            y_mean, y_scale, y_std = _standardise(y[:, j])
            alpha = np.linalg.solve(new_chol.T,
                                    np.linalg.solve(new_chol, y_std))
            models.append(_ObjectiveModel(
                lengthscale=model.lengthscale, chol=new_chol, alpha=alpha,
                y_mean=y_mean, y_std=y_scale))
        self._x = x
        self._models = models
        _gp_stats.incremental_updates += len(models)
        _gp_stats.update_wall_s += time.perf_counter() - start

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior means and stds at query points: two (m x k) arrays."""
        if self._x is None or self._models is None:
            raise ConfigError("predict() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        sq_star = pairwise_sq(self._x, x)
        means = np.empty((x.shape[0], len(self._models)))
        stds = np.empty_like(means)
        shared: Dict[Tuple[float, int], Tuple[np.ndarray, np.ndarray]] = {}
        for j, model in enumerate(self._models):
            key = (model.lengthscale, id(model.chol))
            entry = shared.get(key)
            if entry is None:
                k_star = kernel_from_sq(sq_star, model.lengthscale,
                                        self._variance)
                v = np.linalg.solve(model.chol, k_star)
                var = self._variance - np.sum(v ** 2, axis=0)
                np.maximum(var, 1e-12, out=var)
                entry = (k_star, np.sqrt(var))
                shared[key] = entry
            k_star, sqrt_var = entry
            means[:, j] = (k_star.T @ model.alpha) * model.y_std + model.y_mean
            stds[:, j] = sqrt_var * model.y_std
        return means, stds
