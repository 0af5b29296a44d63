"""Ranking functions: exact uncertainty-aware marginals (one leave-one-out
Poisson-binomial kernel over a stack of labels), brute-force oracle,
utility-optimal sort, mixtures, and sampled Plackett-Luce."""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .types import PredictionMatrix, RankingDistribution, UtilitySpec, _check_scalar

ORACLE_BUDGET = 10**6
# Matrix cells per UA kernel call (labels x matrices x n^2, beyond it one label per
# call), per distribution in one audit chunk and keys per pl_rank block: memory flat
# in n.  A kernel call sweeps both deconvolution passes at once only within half of it.
_CHUNK_CELLS = 2**16


@functools.lru_cache(maxsize=64)
def _legendre_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], exact for polynomials of degree
    < 2m: Newton's method on the Legendre polynomial P_m from Tricomi's guesses,
    which converges to machine precision within a few steps.  Cached, because
    audits rank thousands of same-size datasets; the arrays are read-only."""
    x = np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (m + 0.5))
    for _ in range(8):
        prev, cur = np.ones_like(x), x
        for k in range(2, m + 1):
            prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
        slope = m * (x * cur - prev) / (x * x - 1.0)  # P_m'(x)
        x = x - cur / slope
    w = 1.0 / ((1.0 - x * x) * slope**2)
    nodes, weights = (1.0 + x) / 2.0, w / w.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _sweep_plan(s: np.ndarray, m: int) -> tuple:
    """Where the two deconvolution passes of `_ua_label_kernel` are live, given the count
    s[..., i] of column i's forward nodes (its last s of m, in every slab of the stack).

    Returns (order, forward, backward).  `order` sorts each slab's columns by s, or is
    None where sorting would not pay, and then no column is dropped.  `forward` and
    `backward` are each pass's (columns, nodes) rectangle, in sorted column order, or
    None for a pass with no live entry.  Sorted, forward columns (s > 0) come last and
    backward ones (s < m) first; a rectangle spans the stack's widest slab and longest
    run, and is at least two columns wide (numpy sums a one-column node axis pairwise,
    not column by column).  The sort pays once the cells it drops per slab and step
    exceed 2n: each of the n steps then saves more than putting a slab's n^2 entries
    back in column order costs."""
    n = s.shape[-1]
    live = (np.count_nonzero(s, axis=-1).max(), np.count_nonzero(s < m, axis=-1).max())  # forward, backward
    cols = [min(n, max(int(c), 2)) if c else 0 for c in live]
    nodes = (int(s.max()), m - int(s.min()))
    order = None
    if sum((n - c) * t for c, t in zip(cols, nodes) if c) > 2 * n:
        order = np.argsort(s, axis=-1, kind="stable")
    else:
        cols = [n if c else 0 for c in cols]
    return (order, (slice(n - cols[0], n), slice(m - nodes[0], m)) if cols[0] else None,
            (slice(0, cols[1]), slice(0, nodes[1])) if cols[1] else None)


def _ua_label_kernel(rows: np.ndarray, labels: tuple) -> np.ndarray:
    """C[g, ..., i, k-1] = Pr[individual i gets rank k | i's label equals labels[g]],
    for every label g of `labels` and every i of every n x L matrix in the (..., n, L)
    stack `rows`.

    Given i's uniform tie-break draw u, each other j ranks above i independently
    with probability q_j(u) = Pr[label_j > label] + u Pr[label_j = label], so
    rank - 1 is Poisson-binomial and its pmf is a polynomial of degree < n in u,
    which n//2 + 1 Gauss-Legendre nodes integrate exactly.  Per node the product
    prod_j (1 - q_j + q_j z) is built once; each individual's own factor is then
    divided back out, forwards where its q <= 1/2 and backwards otherwise, the
    direction in which the recurrence does not amplify rounding error.  Memory
    stays O(n^2) per matrix: the weighted leave-one-out pmfs are summed one
    degree at a time.  q and p = 1 - q are built once with the node axis first,
    (nodes, labels, ..., n), and so is the product, F[k, t, labels, ...]: one pass
    over the degrees serves every label and matrix of the stack.

    Each pass sweeps only its live part.  q rises with u and the nodes descend,
    so a column's forward entries are its last s nodes: with each slab's columns
    sorted by s, one rectangle of columns x nodes per pass holds every live entry
    of the stack (`_sweep_plan`), and the rest is never touched.  Inside it a pass
    with divisor d (p forwards, q backwards) and other factor o carries X = d G,
    X_k = F_k - (o / d) X_{k-1}, and adds the node sum of (w / d) X_k to C, so no
    step divides; an entry the pass does not own has d = inf, keeps X = F_k and
    adds exact zeros.  The node sum is numpy's reduction over the leading node
    axis, which adds one node after the other for every column of a rectangle at
    least two wide.  So a column's bits depend on nothing outside the column: not
    its rectangle, its neighbours, the stack or the labels it is called with, and
    each matrix and label of a stack gets exactly what it would get alone.
    """
    n = rows.shape[-2]
    u, w = _legendre_nodes(n // 2 + 1)
    above = np.stack([rows[..., label:].sum(axis=-1) for label in labels])  # (labels, ..., n)
    equal = np.stack([rows[..., label - 1] for label in labels])
    node = (slice(None),) + (None,) * above.ndim
    q = above + u[node] * equal  # (nodes, labels, ..., n)
    p = 1.0 - q
    # The individual's axis leads in the product's loop, so it indexes like 2-d code.
    q_j, p_j = np.moveaxis(q, -1, 0), np.moveaxis(p, -1, 0)  # (n, nodes, labels, ...) views
    F = np.zeros((n + 1, *q_j.shape[1:]))  # F[k, t, labels, ...]: coefficient of z^k at node t
    F[0] = 1.0
    carried = np.empty(F.shape)  # one buffer for every step: fresh temporaries cost page faults
    for j in range(n):
        np.multiply(F[: j + 1], q_j[j], out=carried[: j + 1])
        F[: j + 2] *= p_j[j]
        F[1 : j + 2] += carried[: j + 1]
    order, forward, backward = _sweep_plan(np.count_nonzero(q <= 0.5, axis=0), u.size)
    if order is not None:  # each slab's columns sorted, one gather along the flattened slabs
        flat = (order + np.arange(0, order.size, n).reshape(*order.shape[:-1], 1)).ravel()
        q = q.reshape(u.size, -1).take(flat, axis=1).reshape(q.shape)
        p = 1.0 - q
    # F = G (p + q z) for the leave-one-out G: forwards G_k = (F_k - q G_{k-1}) / p,
    # backwards G_{k-1} = (F_k - p G_k) / q.  Unsorted passes whose node windows are as
    # long share one sweep, each pass a slab of a direction axis after the node axis, so a
    # step makes three numpy calls for both, when C holds at most half of _CHUNK_CELLS:
    # a step of the shared sweep then touches no more cells than one pass of a full chunk.
    # Otherwise each pass sweeps alone.  Either way each pass adds its node sums A to C.
    passes = [(shift, rect) for shift, rect in enumerate((forward, backward)) if rect is not None]
    windows = {nodes.stop - nodes.start for _, (_, nodes) in passes}
    shared = order is None and len(windows) == 1 and 2 * n * above.size <= _CHUNK_CELLS
    sweeps = [passes] if shared else [[one] for one in passes]
    C = np.zeros((n, *above.shape))  # C[k-1, ..., i], i in sorted order
    for sweep in sweeps:
        cols, nodes = sweep[0][1]
        shape = (nodes.stop - nodes.start, len(sweep), *above.shape[:-1], cols.stop - cols.start)
        ratio, weight, F_k = np.empty(shape), np.empty(shape), []
        for j, (shift, (_, nodes)) in enumerate(sweep):
            q_r, p_r = q[nodes, ..., cols], p[nodes, ..., cols]
            own, other = (q_r, p_r) if shift else (p_r, q_r)
            d = np.where((q_r <= 0.5) == (shift == 0), own, np.inf)
            np.divide(other, d, out=ratio[:, j])
            np.divide(w[nodes][node], d, out=weight[:, j])
            F_k.append(F[n:0:-1, nodes] if shift else F[:n, nodes])  # the degree each step reads
        F_k = (np.stack(F_k, axis=2) if len(sweep) > 1 else F_k[0][:, :, None])[..., None]
        X, A = np.zeros(shape), np.empty((n, *shape[1:]))
        for k in range(n):
            X *= ratio
            np.subtract(F_k[k], X, out=X)
            np.einsum("t...,t...->...", weight, X, out=A[k])
        for j, (shift, _) in enumerate(sweep):
            C[..., cols] += A[::-1, j] if shift else A[:, j]
    if order is not None:  # back to column order: the same index, scattered
        unsorted = np.empty(C.shape)
        unsorted.reshape(n, -1)[:, flat] = C.reshape(n, -1)
        C = unsorted
    return C.transpose(*range(1, C.ndim), 0)


def _ua_marginals(rows: np.ndarray) -> np.ndarray:
    """UA marginals of every matrix in the (..., n, L) stack `rows` of renormalized
    prediction rows, as a (..., n, n) stack: the sum over labels of Pr[label_i =
    label] times the label's conditional rank kernel, added in label order.  A
    label no row of the stack can take is skipped; the others go to the kernel in
    groups of as many labels as keep labels x matrices x n^2 within _CHUNK_CELLS,
    at least one, so one call serves every label of a small stack."""
    n = rows.shape[-2]
    labels = [label for label in range(1, rows.shape[-1] + 1) if rows[..., label - 1].any()]
    per_call = max(1, _CHUNK_CELLS // max(1, rows[..., 0].size * n))
    M = np.zeros((*rows.shape[:-1], n))
    for s in range(0, len(labels), per_call):
        group = tuple(labels[s : s + per_call])
        for label, K in zip(group, _ua_label_kernel(rows, group)):
            M += rows[..., label - 1, None] * K
    return M


def ua_rank_conditional(P: PredictionMatrix, i: int, label: int) -> np.ndarray:
    """Pr[individual i gets rank k | its label equals `label`], for all k."""
    _check_scalar(i, "individual i", f"[0, {P.n})", integer=True)
    _check_scalar(label, "label", f"[1, {P.L}]", integer=True)
    return _ua_label_kernel(P.rows, (label,))[0, i]


def ua_rank(P: PredictionMatrix) -> RankingDistribution:
    """Exact uncertainty-aware ranking distribution.

    Labels are drawn independently per row, individuals are sorted by label
    (higher is better) and ties are broken uniformly at random; the returned
    matrix holds the marginal rank probabilities of that process, the sum over
    labels of Pr[label_i = label] times the label's conditional rank kernel.
    """
    return RankingDistribution(_ua_marginals(P.rows))


def ua_rank_oracle(P: PredictionMatrix) -> RankingDistribution:
    """Brute-force UA marginals by enumerating all L^n label vectors, refused
    beyond `ORACLE_BUDGET` of them.

    Each vector is weighted by its product probability; within it, individual
    i gets probability 1/N^eq on each rank in the tie block
    (N^gt, N^gt + N^eq].  Independent of the UA kernel; used to validate it.
    """
    n, L = P.n, P.L
    count = L**n
    if count > ORACLE_BUDGET:
        raise BudgetExceededError(f"oracle needs {count} label vectors, budget is {ORACLE_BUDGET}")

    # Vector v's labels are the n base-L digits of v, most significant first, plus 1.
    vecs = np.arange(count)[:, None] // L ** np.arange(n - 1, -1, -1) % L + 1
    weights = np.ones(count)
    for i in range(n):
        weights *= P.rows[i, vecs[:, i] - 1]

    # counts[v, l-1] = how many individuals have label l in vector v;
    # greater[v, l-1] = how many have a strictly better label.
    counts = np.stack([(vecs == l).sum(axis=1) for l in range(1, L + 1)], axis=1)
    greater = np.hstack(
        [np.cumsum(counts[:, ::-1], axis=1)[:, ::-1][:, 1:], np.zeros((count, 1), dtype=int)]
    )

    M = np.zeros((n, n))
    rows_idx = np.arange(count)
    for i in range(n):
        lam = vecs[:, i] - 1
        n_gt = greater[rows_idx, lam]
        n_eq = counts[rows_idx, lam]
        w = weights / n_eq
        # Difference-array trick: spread w over the rank block, then prefix-sum.
        diff = np.zeros(n + 1)
        np.add.at(diff, n_gt, w)
        np.add.at(diff, n_gt + n_eq, -w)
        M[i] = np.cumsum(diff)[:n]
    return RankingDistribution(M)


def _sort_permutation(tau: np.ndarray, descending: bool) -> np.ndarray:
    """Stable ordering of individuals by score; ties resolved by ascending index."""
    key = -tau if descending else tau
    return np.argsort(key, kind="stable")


def opt_rank(P: PredictionMatrix, u: UtilitySpec) -> RankingDistribution:
    """Utility-maximizing deterministic ranking: sort by decreasing tau(p_i).

    Ties broken by ascending individual index, which makes the function
    deterministic and therefore non-anonymous.  The ranking keeps its order and
    builds its permutation matrix only when `entries` is read.
    """
    return RankingDistribution.from_order(_sort_permutation(u.tau(P), True))


def min_rank(P: PredictionMatrix, u: UtilitySpec) -> RankingDistribution:
    """Utility-minimizing deterministic ranking: sort by increasing tau(p_i)."""
    return RankingDistribution.from_order(_sort_permutation(u.tau(P), False))


def mix_rank(P: PredictionMatrix, u: UtilitySpec, phi: float) -> RankingDistribution:
    """Convex mixture: UA with probability phi, utility-optimal otherwise."""
    checked_ranker("mix", u=u, phi=phi)
    return RankingDistribution(
        phi * ua_rank(P).entries + (1.0 - phi) * opt_rank(P, u).entries
    )


def _seeded_rng(seed: int, samples: int) -> np.random.Generator:
    """The generator of every sampling path, after checking the sample count, then the seed."""
    _check_scalar(samples, "samples", "[1, inf)", integer=True)
    _check_scalar(seed, "seed", "[0, inf)", integer=True)
    return np.random.default_rng(seed)


def _gumbel(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill `out` with standard Gumbel draws, in place."""
    # U on the open interval (0,1): push exact zeros to the smallest positive
    # double so -log(-log(u)) stays finite.
    rng.random(out=out)
    np.maximum(out, np.finfo(np.float64).tiny, out=out)
    np.log(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    np.negative(out, out=out)


def pl_rank(P: PredictionMatrix, u: UtilitySpec, samples: int, seed: int) -> RankingDistribution:
    """Estimated Plackett-Luce marginals via the Gumbel trick.

    Each sample sorts individuals by decreasing tau(p_i) + g_i with g_i
    independent standard Gumbel noise; the returned matrix averages the
    resulting permutation matrices.  Deterministic for a fixed seed.

    Ties in tau + g go to the lower index.  Draws come in blocks of _CHUNK_CELLS
    keys, and each block is ordered by one sort of int64 words: a key's bits, mapped
    so that integer order is float order, with the low bits replaced by the
    individual's index.  Only the rows where two words agree above the index bits
    (equal keys, or keys that differ only in the replaced bits) are re-sorted
    stably by their keys.
    """
    rng = _seeded_rng(seed, samples)
    tau = u.tau(P)
    n = P.n
    bits = (n - 1).bit_length()
    counts = np.zeros(n * n)  # float64 counts stay exact integers below 2**53 samples
    cells = np.arange(n)
    rows = min(max(1, _CHUNK_CELLS // n), samples)
    buf = np.empty((rows, n))
    wbuf = np.empty((rows, n), dtype=np.int64)
    done = 0
    while done < samples:
        keys = buf[: min(rows, samples - done)]
        words = wbuf[: keys.shape[0]]
        _gumbel(rng, keys)
        keys += tau
        np.negative(keys, out=keys)  # ascending -(tau + g) is decreasing score
        keys += 0.0  # -0.0 becomes 0.0, which ties with it as a float does
        # Flip the magnitude bits of negative keys: the int64 order is then the float order.
        raw = keys.view(np.int64)
        np.right_shift(raw, 63, out=words)
        words &= 0x7FFF_FFFF_FFFF_FFFF
        words ^= raw
        words &= -1 << bits
        words |= cells
        words.sort(axis=1)
        # Equal keys are already in index order, but keys that differ only in the bits
        # the index replaced may not be: rows with words that agree above the index bits
        # take the stable order of their keys.  Elsewhere the words order the keys.
        close = words[:, 1:] ^ words[:, :-1]
        close >>= bits
        tied = np.flatnonzero((close == 0).any(axis=1))
        words &= (1 << bits) - 1  # words[s, k] is the individual at position k
        if tied.size:
            words[tied] = np.argsort(keys[tied], axis=1, kind="stable")
        words *= n
        words += cells
        np.add.at(counts, words.ravel(), 1.0)
        done += keys.shape[0]
    counts /= samples
    return RankingDistribution(counts.reshape(n, n))


class Ranker(NamedTuple):
    """How a ranking-function id is computed and which parameters it needs."""

    compute: Callable[..., RankingDistribution]  # compute(P, u=, phi=, samples=, seed=)
    params: tuple  # keyword parameters of `compute` that must not be None
    audited: bool  # supported by the theorem audits


# The one table of "which ranker needs what".  Entries look the rankers up as
# module globals at call time, so rebinding e.g. `ua_rank` here reaches them too.
RANKERS = {
    "ua": Ranker(lambda P, **kw: ua_rank(P), (), True),
    "opt": Ranker(lambda P, u, **kw: opt_rank(P, u), ("u",), True),
    "mix": Ranker(lambda P, u, phi, **kw: mix_rank(P, u, phi), ("u", "phi"), True),
    "pl": Ranker(lambda P, u, samples, seed, **kw: pl_rank(P, u, samples, seed),
                 ("u", "samples", "seed"), False),
}
RANKING_FUNCTION_IDS = tuple(RANKERS)
AUDITED_FUNCTION_IDS = tuple(fn for fn, r in RANKERS.items() if r.audited)


def checked_ranker(fn: str, audit: bool = False, **given) -> Ranker:
    """Table entry for `fn`, after checking that it exists, that audits support
    it when `audit` is set, and that each parameter it requires is not None
    among those passed in `given` (a mixture weight also within [0, 1])."""
    if fn not in RANKERS:
        raise ValidationError(f"unknown ranking function '{fn}', expected one of {RANKING_FUNCTION_IDS}")
    ranker = RANKERS[fn]
    if audit and not ranker.audited:
        raise ValidationError(f"audits support ranking functions {AUDITED_FUNCTION_IDS}; got '{fn}'")
    missing = [p for p in ranker.params if p in given and given[p] is None]
    if missing:
        raise ValidationError(f"ranking function '{fn}' requires {' and '.join(missing)}")
    if "phi" in ranker.params and "phi" in given:
        _check_scalar(given["phi"], "mixture weight phi", "[0, 1]")
    return ranker


def compute_ranking(
    fn: str,
    P: PredictionMatrix,
    u: UtilitySpec | None = None,
    phi: float | None = None,
    samples: int | None = None,
    seed: int | None = None,
) -> RankingDistribution:
    """Dispatch on a ranking-function id, validating the parameters it needs."""
    kw = {"u": u, "phi": phi, "samples": samples, "seed": seed}
    return checked_ranker(fn, **kw).compute(P, **kw)
