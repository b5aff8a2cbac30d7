"""The fitted imputers of the ``knn`` and ``lin_reg`` baselines.

Every imputer is fitted on training data (respecting its observed mask)
and is the identity on complete rows. Values work in the same normalized
coordinates the models consume, continuous features only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KNN",
    "LinReg",
    "Imputer",
    "fit_imputer",
    "impute",
]


@dataclass
class KNN:
    """Average of the k nearest training rows over mutually observed coords."""

    k: int
    train_x: np.ndarray
    train_observed: np.ndarray  # 1 marks missing, same convention as masks
    fallback: np.ndarray  # per-feature means for degenerate neighborhoods

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class LinReg:
    """One least-squares model per feature, fitted on complete rows."""

    coefs: list[np.ndarray | None]  # per feature: (d,) intercept-last layout, or None to fall back
    fallback: np.ndarray


Imputer = KNN | LinReg


def _column_means(x: np.ndarray, observed_mask: np.ndarray) -> np.ndarray:
    """Each feature's mean over its observed entries."""
    d = x.shape[1]
    means = np.empty(d)
    for j in range(d):
        col = x[observed_mask[:, j] == 0, j]
        if col.size == 0:
            raise ValueError(f"feature {j}: every entry is missing, cannot fit")
        means[j] = col.mean()
    return means


def fit_imputer(kind: str, x: np.ndarray, observed_mask: np.ndarray, k: int = 5) -> Imputer:
    """Fit an imputer of the given kind ("knn" or "lin_reg")."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("training data must be a nonempty matrix")
    observed_mask = np.asarray(observed_mask, dtype=np.uint8)

    if kind == "knn":
        fallback = _column_means(x, observed_mask)
        return KNN(k=k, train_x=x.copy(), train_observed=observed_mask.copy(), fallback=fallback)
    if kind == "lin_reg":
        return _fit_lin_reg(x, observed_mask)
    raise ValueError(f"unknown imputer kind {kind!r}")


def _fit_lin_reg(x: np.ndarray, observed_mask: np.ndarray) -> LinReg:
    d = x.shape[1]
    complete = x[(observed_mask == 0).all(axis=1)]
    fallback = _column_means(x, observed_mask)
    if complete.shape[0] < d:
        warnings.warn(
            f"only {complete.shape[0]} complete rows for {d} features; "
            "falling back to mean imputation for every feature",
            stacklevel=2,
        )
        return LinReg([None] * d, fallback)
    coefs: list[np.ndarray | None] = []
    for j in range(d):
        others = np.delete(complete, j, axis=1)
        design = np.hstack([others, np.ones((others.shape[0], 1))])
        target = complete[:, j]
        if np.linalg.matrix_rank(design) < design.shape[1]:
            warnings.warn(
                f"feature {j}: rank-deficient design, falling back to mean",
                stacklevel=2,
            )
            coefs.append(None)
            continue
        beta, *_ = np.linalg.lstsq(design, target, rcond=None)
        coefs.append(beta)
    return LinReg(coefs, fallback)


def impute(imputer: Imputer, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Fill the masked entries of an (n, d) batch, given its (n, d) mask;
    observed entries pass through."""
    x = np.asarray(x, dtype=float)
    mask = np.asarray(mask)
    if x.ndim != 2 or mask.shape != x.shape:
        raise ValueError(f"expected an (n, d) batch and mask, got {x.shape} and {mask.shape}")
    if isinstance(imputer, KNN):
        return _impute_knn(imputer, x, mask)
    if isinstance(imputer, LinReg):
        return _impute_linreg(imputer, x, mask)
    raise TypeError(f"unknown imputer: {imputer!r}")


# Cap on the (query rows x training rows) pairs screened at once, which
# bounds the KNN chunk's temporaries at a few of these many floats.
_KNN_CHUNK_PAIRS = 1 << 14


def _impute_knn(imputer: KNN, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """KNN fill of every row with a masked entry.

    Neighbours are ranked by the mean squared difference over the
    coordinates observed in both rows; training rows sharing no coordinate
    are infinitely far, and ties keep the lower training index. A row
    sharing no coordinate with any training row is filled with the
    fallback. Each masked entry is the mean of the entry over the
    neighbours that observe it, or the fallback if none does.
    """
    out = x.copy()
    rows = np.flatnonzero((mask != 0).any(axis=1))
    if rows.size == 0:
        return out
    missing = mask[rows] != 0
    train_ok = imputer.train_observed == 0
    neighbours = np.full((rows.size, min(imputer.k, train_ok.shape[0])), -1)
    screen = _KnnScreen(imputer.train_x, train_ok)
    step = max(1, _KNN_CHUNK_PAIRS // train_ok.shape[0])
    for start in range(0, rows.size, step):
        chunk = slice(start, start + step)
        neighbours[chunk] = screen.neighbours(x[rows[chunk]], ~missing[chunk], neighbours.shape[1])

    # A row sharing no coordinate has no neighbours (-1), hence no donors,
    # so every masked entry of it takes the fallback.
    donors_ok = train_ok[neighbours] & (neighbours >= 0)[:, :, None]  # (rows, k, d)
    n_donors = donors_ok.sum(axis=1)
    donor_values = imputer.train_x[neighbours]
    filled = np.where(missing, imputer.fallback, x[rows])
    for c in range(1, neighbours.shape[1] + 1):
        i, j = np.nonzero(missing & (n_donors == c))
        if i.size == 0:
            continue
        # The c donors of each entry, first to last neighbour, in a
        # contiguous (entries, c) block: its row means add in the same
        # order as the mean of one entry's donors.
        first = np.argsort(~donors_ok[i, :, j], axis=1, kind="stable")[:, :c]
        values = np.ascontiguousarray(np.take_along_axis(donor_values[i, :, j], first, axis=1))
        filled[i, j] = values.mean(axis=1)
    out[rows] = filled
    return out


class _KnnScreen:
    """Exact k-nearest training rows for a chunk of query rows.

    Two products, ``q @ ok`` and ``[q, xq, xq^2] @ [t^2; -2t; ok]``, give every
    shared count and sum of ``(t - x)^2`` up to a rounding bound set by the
    training and query norms; the rows the bound cannot rule out of the k
    nearest are re-ranked exactly, as a stable sort of the exact distances.
    """

    def __init__(self, train_x: np.ndarray, train_ok: np.ndarray):
        self.train_x = train_x
        self.train_ok = train_ok
        self.ok_t = train_ok.T.astype(float)
        t = np.where(train_ok, train_x, 0.0).T
        self.terms = np.vstack([t * t, -2.0 * t, self.ok_t])
        self.t_norm = (t * t).sum(axis=0).max()

    def neighbours(self, x: np.ndarray, observed: np.ndarray, k: int) -> np.ndarray:
        """(rows, k) training indices, nearest first; -1 rows share no coordinate."""
        q = observed.astype(float)
        xq = np.where(observed, x, 0.0)
        xq_sq = xq * xq
        count = q @ self.ok_t  # shared coordinates, exact in float
        with np.errstate(divide="ignore", invalid="ignore"):
            approx = np.hstack([q, xq, xq_sq]) @ self.terms
            approx /= count
        approx[count == 0] = np.inf
        # With u = eps / 2 and N = T + |xq|^2, T the largest training-row norm, a
        # pair's shared t^2 + x^2 sum to at most N, so its exact (t - x)^2 and its
        # 3d summands t^2, -2xt, x^2 sum to at most 2N in size. Squaring t and xq
        # errs by uN in all and the 3d-term product by 3d u 2N; the exact
        # elementwise sum errs by 3u 2N rounding t - x and its square and by
        # (d - 1) u 2N adding. Dividing by count >= 1 shrinks both and rounds each
        # by u 2N. So the screen is within (4d + 9/2) eps N of the exact distance,
        # under 2 (3d + 2) eps N; the factor 4 and the + 1 cover second-order terms.
        eps = np.finfo(float).eps
        tol = 4 * (3 * x.shape[1] + 2) * eps * (self.t_norm + xq_sq.sum(axis=1) + 1.0)
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        # A row of the exact k nearest is within kth + tol exactly, hence
        # within kth + 2 tol on the screen. With fewer than k finite
        # distances kth is inf and every row is kept, as the exact ranking
        # takes the unshared rows in index order.
        live = count.any(axis=1)
        candidates = (approx <= (kth + 2.0 * tol)[:, None]) & live[:, None]
        qi, ti = np.nonzero(candidates)
        both = observed[qi] & self.train_ok[ti]
        counts = both.sum(axis=1)
        diffs = np.where(both, self.train_x[ti] - x[qi], 0.0)
        with np.errstate(invalid="ignore"):
            dists = np.where(counts > 0, (diffs**2).sum(axis=1) / np.maximum(counts, 1), np.inf)
        # lexsort is stable and ti ascends within each row, so equal
        # distances keep the lower training index first. Every live row has
        # at least k candidates: the k screened nearest.
        order = np.lexsort((dists, qi))
        starts = np.concatenate([[0], np.cumsum(candidates.sum(axis=1))[:-1]])
        out = np.full((x.shape[0], k), -1)
        out[live] = ti[order[starts[live, None] + np.arange(k)]]
        return out


def _impute_linreg(imputer: LinReg, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-feature regression fill; missing covariates are mean-filled first."""
    missing = mask != 0
    base = np.where(missing, imputer.fallback, x)
    out = x.copy()
    for j, beta in enumerate(imputer.coefs):
        rows = np.flatnonzero(missing[:, j])
        if rows.size == 0:
            continue
        if beta is None:
            out[rows, j] = imputer.fallback[j]
        else:
            out[rows, j] = np.delete(base[rows], j, axis=1) @ beta[:-1] + beta[-1]
    return out
