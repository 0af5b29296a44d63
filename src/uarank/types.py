"""The four validated value types: the prediction matrix (`PredictionMatrix`), the
ranking distribution (`RankingDistribution`), the utility spec (`UtilitySpec`) and the
typed population the fairness audits measure (`PopulationModel`).  Each is frozen, holds
read-only arrays, and compares and hashes by identity.

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
FULL_DOMAIN_GROUP = "all"
_WEIGHT_TOL = 1e-9


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


def _check_scalar(value, name: str, interval: str, integer: bool = False) -> None:
    """Check a scalar argument: an integer (int or numpy integer) or, unless `integer`, a real number
    (also a float or numpy float), never a bool, in `interval`, such as "[1, inf)"; NaN lies in none.
    Otherwise a ValidationError names the parameter, the interval and the value's repr."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, kinds) and not isinstance(value, bool):
        lo, hi = (int(end) if end.isdigit() else float(end) for end in interval[1:-1].split(", "))
        if (lo < value if interval[0] == "(" else lo <= value) and (value < hi if interval[-1] == ")" else value <= hi):
            return
    raise ValidationError(f"{name} must be {'an integer' if integer else 'a real number'} in {interval}, got {value!r}")


def _checked_permutation(perm, n: int | None = None) -> np.ndarray:
    """A copy of `perm` as an index array, after an O(n) check that it holds each of
    0..n-1 exactly once; n defaults to its size, which must not be 0."""
    try:
        p = np.asarray(perm)
    except ValueError:
        raise ValidationError("a permutation must be a flat list of integers, got a ragged one") from None
    n = p.size if n is None else n
    if n == 0:
        raise ValidationError("ranking distribution must be nonempty, got shape (0, 0)")
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


def _freeze(self, fields: dict) -> None:
    """Set a frozen value's fields, each array read-only.  It is also every value type's
    `__setstate__`: a pickled or deep-copied value takes its fields as they were, without
    re-running (and re-normalizing in) the constructor; a ranking made by `from_order`
    stays an order, its `entries` unbuilt."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    self.__dict__.update(fields)


def _real_field(self, name: str, copy: bool = False) -> np.ndarray:
    """Field `name` of a value being built, as a float64 array: a copy if `copy`, else the
    input itself when it is a float64 array.  Ragged, string, object and complex input is a
    ValidationError naming the value type and the field, where numpy would raise its own
    ValueError, parse the strings or keep only the real parts."""
    what = f"{type(self).__name__}.{name}"
    try:
        x = np.asarray(getattr(self, name))
    except ValueError:
        raise ValidationError(f"{what} is ragged: its rows differ in length") from None
    if x.dtype.kind not in "biuf":
        raise ValidationError(f"{what} must hold real numbers, got {x.dtype}")
    return x.astype(np.float64, copy=copy)


def _permutation_matrix(order: np.ndarray) -> np.ndarray:
    """The 0/1 matrix with M[order[k], k] = 1: individual order[k] gets rank k+1."""
    n = order.size
    M = np.zeros((n, n))
    M[order, np.arange(n)] = 1.0
    return M


@dataclass(frozen=True, eq=False)
class PredictionMatrix:
    """An n x L matrix whose row i is individual i's distribution over labels."""

    rows: np.ndarray
    __setstate__ = _freeze

    def __post_init__(self):
        rows = _real_field(self, "rows")
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValidationError(
                f"prediction matrix must be 2-dimensional and nonempty, got shape {rows.shape}"
            )
        sums = _check_distributions(rows, "", ROW_SUM_TOL)
        # Exact renormalization so downstream arithmetic sees true distributions.
        _freeze(self, {"rows": rows / sums[:, None]})

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

    Like every value type, rankings compare and hash by identity, so `==` never
    reads a matrix; `linf_gap` compares their values."""

    entries: np.ndarray
    order: np.ndarray | None = field(default=None, init=False)
    __setstate__ = _freeze

    @classmethod
    def from_order(cls, order) -> "RankingDistribution":
        """The deterministic ranking that puts individual order[k-1] at rank k.  The
        O(n) permutation check stands in for the doubly stochastic check: the 0/1
        matrix of a permutation has exactly one 1 in every row and column."""
        self = object.__new__(cls)
        _freeze(self, {"order": _checked_permutation(order)})
        return self

    def __getattr__(self, name):
        # Reached only for an attribute not yet set: an order's `entries` before their first read.
        if name != "entries" or self.order is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        _freeze(self, {"entries": _permutation_matrix(self.order)})
        return self.entries

    def __post_init__(self):
        m = _real_field(self, "entries").view()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"ranking distribution must be square, got shape {m.shape}")
        if m.size == 0:
            raise ValidationError(f"ranking distribution must be nonempty, got shape {m.shape}")
        _check_doubly_stochastic(m)
        _freeze(self, {"entries": m})

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
        """Entrywise max-norm of row i - row j of `entries` (indices as numpy reads them)."""
        return float(np.abs(self.entries[i] - self.entries[j]).max())

    def position_values(self, values: np.ndarray) -> np.ndarray:
        """values @ entries: the expected value at each position.  A ranking that keeps
        its order reads the values in that order, bit for bit the product for finite
        values (+ 0.0 turns a -0.0 into the product's 0.0)."""
        return values @ self.entries if self.order is None else values[self.order] + 0.0


@dataclass(frozen=True, eq=False)
class UtilitySpec:
    """Label values v_1 < ... < v_L and nonincreasing position weights w_1 >= ... >= w_n."""

    label_values: np.ndarray
    position_weights: np.ndarray
    __setstate__ = _freeze

    def __post_init__(self):
        v = _real_field(self, "label_values", copy=True)  # copies, frozen below
        w = _real_field(self, "position_weights", copy=True)
        for what, x in (("label values", v), ("position weights", w)):
            if x.ndim != 1 or x.size < 1:
                raise ValidationError(f"{what} must be a nonempty vector")
            if not np.isfinite(x).all():
                raise ValidationError(f"{what}: entry {np.argmin(np.isfinite(x)) + 1} is not finite")
        if v[0] < 0 or np.any(np.diff(v) <= 0):
            raise ValidationError("label values must be nonnegative and strictly increasing")
        if np.any(w < 0) or np.any(np.diff(w) > 0):
            raise ValidationError("position weights must be nonnegative and nonincreasing")
        _freeze(self, {"label_values": v, "position_weights": w})

    @classmethod
    def dcg(cls, n: int, label_values=None, L: int | None = None) -> "UtilitySpec":
        """DCG position weights w_k = 1/log2(1+k); default label values 1..L."""
        _check_scalar(n, "dataset size n", "[1, inf)", integer=True)
        if label_values is None:
            _check_scalar(L, "label count L, given no label values,", "[1, inf)", integer=True)
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


@dataclass(frozen=True, eq=False)
class PopulationModel:
    """Finite typed domain with sampling weights, ground truth, predictor, groups."""

    type_names: tuple
    weights: np.ndarray  # (T,), nonnegative, sums to 1
    ground_truth: np.ndarray  # (T, L) label distributions
    predicted: np.ndarray  # (T, L) label distributions
    groups: dict  # name -> tuple of type indices; always contains the full domain
    __setstate__ = _freeze

    def __post_init__(self):
        # Copies, frozen below: the caller's arrays stay writable.
        w, gt, pred = (_real_field(self, name, copy=True) for name in ("weights", "ground_truth", "predicted"))
        T = len(self.type_names)
        if w.shape != (T,):
            raise ValidationError("type weights must be one per type")
        # Checked, not renormalized: the audits read these arrays bit for bit.
        _check_distributions(w[None], "type weights: ", _WEIGHT_TOL)
        for name, arr in (("ground truth", gt), ("predicted", pred)):
            if arr.ndim != 2 or arr.shape[0] != T:
                raise ValidationError(f"{name} distributions must be a T x L matrix")
            _check_distributions(arr, f"{name}: ", ROW_SUM_TOL)
        if gt.shape != pred.shape:
            raise ValidationError("ground-truth and predicted label counts differ")
        groups = dict(self.groups)
        for name, members in groups.items():
            members = tuple(members)
            if not members or any(not 0 <= t < T for t in members):
                raise ValidationError(f"group '{name}' must be a nonempty subset of types")
            if len(set(members)) < len(members):
                t = next(t for i, t in enumerate(members) if t in members[:i])
                raise ValidationError(f"group '{name}' lists type '{self.type_names[t]}' more than once")
            groups[name] = members
        full = tuple(range(T))
        if FULL_DOMAIN_GROUP in groups and sorted(groups[FULL_DOMAIN_GROUP]) != list(full):
            raise ValidationError(f"group '{FULL_DOMAIN_GROUP}' must hold every type: it names the full domain")
        if full not in [tuple(sorted(m)) for m in groups.values()]:
            groups[FULL_DOMAIN_GROUP] = full
        _freeze(self, {"weights": w, "ground_truth": gt, "predicted": pred, "groups": groups})

    @property
    def T(self) -> int:
        return len(self.type_names)

    @property
    def L(self) -> int:
        return self.ground_truth.shape[1]

    def group_mask(self, group: str) -> np.ndarray:
        if group not in self.groups:
            raise ValidationError(f"unknown group {group!r}; known: {sorted(self.groups)}")
        mask = np.zeros(self.T, dtype=bool)
        mask[list(self.groups[group])] = True
        return mask
