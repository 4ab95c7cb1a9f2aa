"""Gaussian-process regression with a squared-exponential kernel.

The paper's Phase 2 builds one GP per objective ("the widely-used
squared exponential kernel is used due to its simplicity") and drives an
SMS-EGO acquisition over the GP posterior.  This implementation keeps
the hyper-parameter story deliberately simple and robust: inputs are
normalised to [0, 1]^d by the caller, the output is standardised
internally, the lengthscale comes from the median heuristic (optionally
refined by a small grid search on the log marginal likelihood), and a
jittered Cholesky factorisation gives numerically stable posteriors.

The Gram matrix -- and therefore every candidate Cholesky factor of the
lengthscale grid -- depends only on the *inputs* and the lengthscale,
never on the objective values.  All objectives share the same training
inputs, so :class:`MultiObjectiveGP` factorises each candidate
lengthscale once and reuses the factor across objectives (5 Choleskys
per fit instead of 15 for three objectives), producing bit-identical
posteriors to three independent :class:`GaussianProcess` fits.

Picking an objective's lengthscale needs the order of its five log
marginal likelihoods, not their last bits.  One solve per factor with
all objectives as a multi-column right-hand side ranks the grid, and
only the picked factor's alpha is solved, with the scalar fit's exact
arithmetic: 5 + 2 * 3 = 11 solves per fit instead of 30.  An objective
whose best two scores nearly tie, or whose best score is not finite,
is scored by the scalar fit's per-factor loop instead and counted as
``gp.rescored``.  Each fit is a ``gp.fit`` span and each prediction a
``gp.predict`` span.

Every solve is NumPy's ``np.linalg.solve``: with no optional SciPy
path, a fit's bits do not depend on which packages the host has
installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.perf.profiler import count, span


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


#: Relative gap between a target's best and runner-up ranking scores at
#: or below which :func:`_rank_factors` leaves the pick to
#: :func:`_best_factor`.  A ranking score and the exact score differ by
#: round-off far below it (under 1e-14 relative on Phase 2's fits).
_NEAR_TIE = 1e-8

#: A grid factor: lengthscale, Cholesky factor, :func:`_half_log_det`.
_Factor = Tuple[float, np.ndarray, np.floating]


def _best_factor(factors: List[_Factor], y_std: np.ndarray
                 ) -> Tuple[float, np.ndarray, np.ndarray]:
    """The exact selection: lengthscale, factor and alpha of the first
    factor with the highest :func:`_log_marginal`, scored with
    :class:`GaussianProcess`'s arithmetic (two solves per factor)."""
    best: Tuple[float, float, np.ndarray, np.ndarray] | None = None
    for ls, chol, half_log_det in factors:
        alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y_std))
        lml = _log_marginal(y_std, alpha, half_log_det)
        if best is None or lml > best[0]:
            best = (lml, ls, chol, alpha)
    return best[1], best[2], best[3]


def _rank_factors(factors: List[_Factor],
                  targets: np.ndarray) -> List[Optional[int]]:
    """Each target column's best factor, from one solve per factor.

    With ``v = L^-1 y`` for all columns at once, ``-|v|^2 / 2 - log|L|``
    is the log marginal likelihood up to a constant.  The multi-column
    solve's last bits differ from the one-column solves
    :func:`_best_factor` makes, which is harmless in a ranking that is
    only compared, never stored.  A column whose best score is not
    finite, or within :data:`_NEAR_TIE` of its runner-up, gets ``None``:
    only the exact scores can order it.  A lone factor needs no solve.
    """
    if len(factors) == 1:
        return [0] * targets.shape[1]
    scores = np.empty((len(factors), targets.shape[1]))
    for i, (_, chol, half_log_det) in enumerate(factors):
        v = np.linalg.solve(chol, targets)
        scores[i] = -0.5 * (v * v).sum(axis=0) - half_log_det
    ranked = np.sort(scores, axis=0)  # NaN sorts last, so it is "best"
    best, runner_up = ranked[-1], ranked[-2]
    decided = np.isfinite(best) & (
        best - runner_up > _NEAR_TIE * np.maximum(1.0, np.abs(best)))
    return [int(pick) if ok else None
            for pick, ok in zip(np.argmax(scores, axis=0), decided)]


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
    the same lengthscale, so prediction work is done once per distinct
    factor, not once per objective.
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
    the (shared) inputs, so they are computed once and reused.  Each
    objective's lengthscale is the one :class:`GaussianProcess` would
    pick: :func:`_rank_factors` orders the grid, and leaves near-ties
    to the scalar loop, :func:`_best_factor`; the picked factor's alpha
    replays the scalar arithmetic exactly.  :meth:`predict` likewise
    shares ``k_star`` and the variance solve between objectives that
    fitted the same lengthscale.

    Args:
        noise: Observation noise std (on standardised y), per objective.
        lengthscale: Fixed SE lengthscale; fitted per objective if None.
        tune_lengthscale: Grid-refine the median heuristic.
    """

    def __init__(self, noise: float = 1e-3,
                 lengthscale: Optional[float] = None,
                 tune_lengthscale: bool = True):
        if noise <= 0:
            raise ConfigError("noise must be positive")
        if lengthscale is not None and lengthscale <= 0:
            raise ConfigError("lengthscale must be positive when set")
        self.noise = noise
        self.lengthscale = lengthscale
        self.tune_lengthscale = tune_lengthscale
        self._variance = 1.0
        self._x: Optional[np.ndarray] = None
        self._models: Optional[List[_ObjectiveModel]] = None

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

        with span("gp.fit"):
            sq = pairwise_sq(x, x)
            base = (self.lengthscale if self.lengthscale is not None
                    else _median_heuristic(x, sq=sq))
            candidates = [base]
            if self.tune_lengthscale and self.lengthscale is None:
                candidates = [base * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]

            jitter = self.noise ** 2 + 1e-8
            factors: List[_Factor] = []
            for ls in candidates:
                k = kernel_from_sq(sq, ls, self._variance)
                k[np.diag_indices_from(k)] += jitter
                try:
                    chol = np.linalg.cholesky(k)
                except np.linalg.LinAlgError:
                    continue
                factors.append((ls, chol, _half_log_det(chol)))
            count("gp.factorisations", len(factors))
            if not factors:
                raise ConfigError(
                    "GP factorisation failed for all lengthscales")

            standardised = [_standardise(y[:, j]) for j in range(y.shape[1])]
            picks = _rank_factors(factors, np.column_stack(
                [y_std for _, _, y_std in standardised]))
            models: List[_ObjectiveModel] = []
            for (y_mean, y_scale, y_std), pick in zip(standardised, picks):
                if pick is None:
                    ls, chol, alpha = _best_factor(factors, y_std)
                else:
                    ls, chol, _ = factors[pick]
                    alpha = np.linalg.solve(chol.T,
                                            np.linalg.solve(chol, y_std))
                models.append(_ObjectiveModel(
                    lengthscale=ls, chol=chol, alpha=alpha,
                    y_mean=y_mean, y_std=y_scale))
            self._x = x
            self._models = models
            count("gp.full_fits", len(models))
            rescored = picks.count(None)
            if rescored:
                count("gp.rescored", rescored)
        return self

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior means and stds at k query points: two (k x m) arrays."""
        if self._x is None or self._models is None:
            raise ConfigError("predict() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        with span("gp.predict"):
            sq_star = pairwise_sq(self._x, x)
            means = np.empty((x.shape[0], len(self._models)))
            stds = np.empty_like(means)
            shared: Dict[Tuple[float, int],
                         Tuple[np.ndarray, np.ndarray]] = {}
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
                means[:, j] = ((k_star.T @ model.alpha) * model.y_std
                               + model.y_mean)
                stds[:, j] = sqrt_var * model.y_std
        return means, stds
