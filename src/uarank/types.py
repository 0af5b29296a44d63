"""Core value types: prediction matrices, ranking distributions, utility specs.

Conventions used throughout the package:
  - individuals are indexed 0..n-1,
  - labels are the ordinal values 1..L with L the most preferred,
  - rank positions are 1..n with position 1 the top; arrays storing
    per-position values put position k at index k-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

ROW_SUM_TOL = 1e-6
DS_TOL = 1e-9


def _check_distributions(rows: np.ndarray, what: str, tol: float, slack: float = 0.0) -> np.ndarray:
    """Check that every row of a 2-d float array is a probability distribution; return
    the row sums.  Entries must lie in [-slack, 1 + slack], which NaN and +-inf fail,
    and sums must be 1 within `tol`.  Errors start with `what` and count from 1."""
    # NaN propagates through min/max and fails both tests; the mask only names the cell.
    if rows.size and not (rows.min() >= -slack and rows.max() <= 1.0 + slack):
        bad = ~((rows >= -slack) & (rows <= 1.0 + slack))
        r, c = np.argwhere(bad)[0]
        raise ValidationError(
            f"{what}row {r + 1}, column {c + 1}: {rows[r, c]} is not a probability in [0, 1]"
        )
    sums = rows.sum(axis=1)
    bad = np.abs(sums - 1.0) > tol
    if bad.any():
        r = int(np.argmax(bad))
        raise ValidationError(f"{what}row {r + 1} sums to {sums[r]:.12g}, expected 1 within {tol}")
    return sums


def _check_doubly_stochastic(m: np.ndarray) -> None:
    """Check that an n x n matrix, or each matrix of a (..., n, n) stack, is doubly
    stochastic: entries within 1e-12 of [0, 1], row and column sums 1 within DS_TOL.
    A stack's rows are numbered across the whole stack."""
    rows = m.reshape(-1, m.shape[-1]) if m.ndim > 2 else m
    _check_distributions(rows, "ranking distribution: ", DS_TOL, slack=1e-12)
    if np.any(np.abs(m.sum(axis=-2) - 1.0) > DS_TOL):
        raise ValidationError(f"column sums deviate from 1 by more than {DS_TOL}")


def _checked_permutation(perm, n: int) -> np.ndarray:
    """A copy of `perm` as an index array, after an O(n) check that it holds each of
    0..n-1 exactly once."""
    p = np.asarray(perm)
    if p.shape != (n,) or p.dtype.kind not in "iu":
        raise ValidationError(f"a permutation of 0..{n - 1} must be {n} integers, got {p.dtype} of shape {p.shape}")
    if p.min() < 0 or p.max() >= n:
        bad = p[(p < 0) | (p >= n)][0]
        raise ValidationError(f"permutation entry {bad} is outside 0..{n - 1}")
    p = p.astype(np.intp)
    counts = np.bincount(p, minlength=n)
    if counts.max() > 1:
        raise ValidationError(f"permutation holds {int(np.argmax(counts))} more than once")
    return p


def _permutation_matrix(order: np.ndarray) -> np.ndarray:
    """The 0/1 matrix with M[order[k], k] = 1: individual order[k] gets rank k+1."""
    n = order.size
    M = np.zeros((n, n))
    M[order, np.arange(n)] = 1.0
    return M


@dataclass(frozen=True)
class PredictionMatrix:
    """An n x L matrix whose row i is individual i's distribution over labels."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValidationError(
                f"prediction matrix must be 2-dimensional and nonempty, got shape {rows.shape}"
            )
        sums = _check_distributions(rows, "", ROW_SUM_TOL)
        # Exact renormalization so downstream arithmetic sees true distributions.
        rows = rows / sums[:, None]
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def L(self) -> int:
        return self.rows.shape[1]

    def permuted(self, perm) -> "PredictionMatrix":
        """Row-permuted copy: row k of the result is row perm[k] of self.  `perm` must
        be a permutation of 0..n-1."""
        return PredictionMatrix(self.rows[_checked_permutation(perm, self.n)])

    def with_zero_label(self) -> "PredictionMatrix":
        """Extend by an unused top label L+1 with zero probability everywhere."""
        return PredictionMatrix(np.hstack([self.rows, np.zeros((self.n, 1))]))


@dataclass(frozen=True, repr=False, eq=False)
class RankingDistribution:
    """Doubly stochastic n x n matrix; entries[i, k-1] = Pr[individual i gets rank k].

    `entries` is a read-only view that shares memory with a float64 input array, not a
    copy (that would add an n x n pass per ranking): the input stays writable to its
    owner, and writes through it show in `entries`.

    A deterministic ranking made by `from_order` keeps its `order` (order[k-1] is the
    individual at rank k; None for every other ranking) and builds its 0/1 `entries`
    on their first read, so code that needs only the order never builds the matrix:
    the repr shows the order, and the report writers (`io.structured_parts`,
    `io.table_parts`), which take rankings, not arrays, write the matrix from
    the order.  Every other ranking they write from its `entries`.

    Rankings compare and hash by identity, so `==` never reads a matrix;
    `linf_gap` compares their values."""

    entries: np.ndarray
    order: np.ndarray | None = field(default=None, init=False)

    @classmethod
    def from_order(cls, order) -> "RankingDistribution":
        """The deterministic ranking that puts individual order[k-1] at rank k.  The
        O(n) permutation check stands in for the doubly stochastic check: the 0/1
        matrix of a permutation has exactly one 1 in every row and column."""
        n = np.size(order)
        if n == 0:
            raise ValidationError("ranking distribution must be nonempty, got shape (0, 0)")
        order = _checked_permutation(order, n)
        order.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        return self

    def __getattr__(self, name):
        # Reached only for an attribute not yet set: an order's `entries` before their first read.
        if name != "entries" or self.order is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        m = _permutation_matrix(self.order)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        return m

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64).view()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"ranking distribution must be square, got shape {m.shape}")
        if m.size == 0:
            raise ValidationError(f"ranking distribution must be nonempty, got shape {m.shape}")
        _check_doubly_stochastic(m)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    def __repr__(self) -> str:
        shown = "entries" if self.order is None else "order"
        return f"{type(self).__name__}({shown}={getattr(self, shown)!r})"

    @property
    def n(self) -> int:
        return self.entries.shape[0] if self.order is None else self.order.size

    def linf_gap(self, other: "RankingDistribution") -> float:
        """Entrywise max-norm of self - other.  Two rankings that keep their order
        compare orders, building neither matrix: 0.0 if equal, 1.0 otherwise."""
        if self.n != other.n:
            raise ValidationError(f"cannot compare arrays of shapes {(self.n,) * 2} and {(other.n,) * 2}")
        if self.order is not None and other.order is not None:
            return float(not np.array_equal(self.order, other.order))
        return float(np.abs(self.entries - other.entries).max())

    def row_gap(self, i: int, j: int) -> float:
        """Entrywise max-norm of row i - row j of `entries` (indices as numpy reads
        them).  A ranking that keeps its order builds no matrix: two distinct rows of a
        permutation matrix hold their 1 in different columns, so they differ by 1.0."""
        if self.order is None:
            return float(np.abs(self.entries[i] - self.entries[j]).max())
        rows = range(self.n)
        return float(rows[i] != rows[j])

    def position_values(self, values: np.ndarray) -> np.ndarray:
        """values @ entries: the expected value at each position.  A ranking that keeps
        its order reads the values in that order, bit for bit the product for finite
        values (+ 0.0 turns a -0.0 into the product's 0.0)."""
        return values @ self.entries if self.order is None else values[self.order] + 0.0


@dataclass(frozen=True)
class UtilitySpec:
    """Label values v_1 < ... < v_L and nonincreasing position weights w_1 >= ... >= w_n."""

    label_values: np.ndarray
    position_weights: np.ndarray

    def __post_init__(self):
        v = np.array(self.label_values, dtype=np.float64)  # copies, frozen below
        w = np.array(self.position_weights, dtype=np.float64)
        for what, x in (("label values", v), ("position weights", w)):
            if x.ndim != 1 or x.size < 1:
                raise ValidationError(f"{what} must be a nonempty vector")
            if not np.isfinite(x).all():
                raise ValidationError(f"{what}: entry {np.argmin(np.isfinite(x)) + 1} is not finite")
        if v[0] < 0 or np.any(np.diff(v) <= 0):
            raise ValidationError("label values must be nonnegative and strictly increasing")
        if np.any(w < 0) or np.any(np.diff(w) > 0):
            raise ValidationError("position weights must be nonnegative and nonincreasing")
        v.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "label_values", v)
        object.__setattr__(self, "position_weights", w)

    @classmethod
    def dcg(cls, n: int, label_values=None, L: int | None = None) -> "UtilitySpec":
        """DCG position weights w_k = 1/log2(1+k); default label values 1..L."""
        if label_values is None:
            if L is None:
                raise ValidationError("either label values or L must be given")
            label_values = np.arange(1, L + 1, dtype=np.float64)
        w = 1.0 / np.log2(1.0 + np.arange(1, n + 1))
        return cls(np.asarray(label_values, dtype=np.float64), w)

    def tau(self, P: PredictionMatrix) -> np.ndarray:
        """Expected label value per individual: tau(p_i) = sum_l v_l p_il.  A tau that
        overflows float64 is a ValidationError naming its row."""
        if P.L != self.label_values.size:
            raise ValidationError(
                f"utility spec has {self.label_values.size} label values, matrix has {P.L} labels"
            )
        with np.errstate(over="ignore"):  # an overflow is refused below, not warned about
            tau = P.rows @ self.label_values
        finite = np.isfinite(tau)
        if not finite.all():
            raise ValidationError(f"tau of row {np.argmin(finite) + 1} overflows; scale the label values down")
        return tau

    def weights_for(self, n: int) -> np.ndarray:
        if self.position_weights.size < n:
            raise ValidationError(
                f"utility spec has {self.position_weights.size} position weights, need {n}"
            )
        return self.position_weights[:n]
