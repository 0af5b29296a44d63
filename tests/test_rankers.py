import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest

from uarank import (
    BudgetExceededError,
    PredictionMatrix,
    UtilitySpec,
    ValidationError,
    compute_ranking,
    min_rank,
    mix_rank,
    opt_rank,
    pl_rank,
    ua_rank,
    ua_rank_conditional,
    ua_rank_oracle,
    utility,
)

from uarank import rankers
from uarank.rankers import RANKERS, checked_ranker

from conftest import random_prediction
from reference import pl_rank_exact


def u_linear(n, L):
    return UtilitySpec(np.arange(1, L + 1, dtype=float), np.ones(n))


def hard_rows(rng, n, L):
    """Peaked Dirichlet(0.05), one-hot and half-bottom/half-top rows, so the
    kernel's per-individual probabilities q hit 0, 1 and exactly 1/2."""
    rows = rng.dirichlet(np.full(L, 0.05), size=n)
    kind = rng.integers(0, 3, size=n)
    rows[kind == 1] = np.eye(L)[rng.integers(0, L, size=int((kind == 1).sum()))]
    rows[kind == 2] = 0.0
    rows[kind == 2, 0] += 0.5
    rows[kind == 2, -1] += 0.5
    return rows


class TestUaRank:
    def test_full_tie_is_uniform(self):
        P = PredictionMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert np.allclose(ua_rank(P).entries, 0.5, atol=1e-15)

    def test_antidiagonal_identity(self):
        # Disjoint deterministic labels rank individuals deterministically.
        P = PredictionMatrix(np.eye(3)[::-1])
        assert np.allclose(ua_rank(P).entries, np.eye(3), atol=1e-15)

    def test_lower_bound_instance_rows(self, stab_lb):
        P, _ = stab_lb
        M = ua_rank(P).entries
        assert M[0] == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)
        assert M[1] == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
        assert M[2] == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_single_individual(self):
        P = PredictionMatrix(np.array([[0.3, 0.7]]))
        assert np.allclose(ua_rank(P).entries, [[1.0]])

    def test_anonymity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, L = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            P = random_prediction(rng, n, L)
            perm = rng.permutation(n)
            M = ua_rank(P).entries
            Mp = ua_rank(P.permuted(perm)).entries
            assert np.abs(Mp - M[perm]).max() <= 1e-12

    def test_zero_column_extension(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            P = random_prediction(rng, int(rng.integers(2, 6)), int(rng.integers(2, 4)))
            assert np.abs(ua_rank(P.with_zero_label()).entries - ua_rank(P).entries).max() <= 1e-12

    def test_conditional_assembly(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n, L = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            P = random_prediction(rng, n, L)
            M = ua_rank(P).entries
            for i in range(n):
                assembled = sum(
                    P.rows[i, l - 1] * ua_rank_conditional(P, i, l) for l in range(1, L + 1)
                )
                assert np.abs(assembled - M[i]).max() <= 1e-12


def _times_linear(G, n, c0, c1, c2):
    """G * (c0 + c1 x + c2 y), where G[p][q] is the coefficient of x^p y^q."""
    return [[c0 * G[p][q] + (c1 * G[p - 1][q] if p else 0) + (c2 * G[p][q - 1] if q else 0)
             for q in range(n + 1)] for p in range(n + 1)]


def _over_linear(G, n, c0, c1, c2):
    """Q = G / (c0 + c1 x + c2 y) for a G of degree n that the factor divides; each
    coefficient is solved from the lowest one the factor's nonzero term pairs it with."""
    Q = [[0] * n for _ in range(n)]
    for s in range(n):
        for p in range(s, -1, -1):  # Q[p + 1][q - 1] before Q[p][q]
            q = s - p
            if c0:
                num, den = G[p][q] - (c1 * Q[p - 1][q] if p else 0) - (c2 * Q[p][q - 1] if q else 0), c0
            elif c1:
                num, den = G[p + 1][q] - (c2 * Q[p + 1][q - 1] if q else 0), c1
            else:
                num, den = G[p][q + 1], c2
            Q[p][q], rest = divmod(num, den)
            assert rest == 0
    return Q


def ua_rank_integer(counts, D):
    """UA marginals of the rows counts / D in stdlib integers, rounded once to float.

    Per label l, individual j's factor is (below + above x + tied y), its counts of
    labels under, over and at l; the product over all j is built once, and dividing
    out i's own factor leaves, at x^p y^q, D^(n-1) Pr[p others above l, q tied].
    Given label l, i then takes each rank in (p, p + q + 1] with probability 1/(q + 1)."""
    n, L = len(counts), len(counts[0])
    lcm = math.lcm(*range(1, n + 1))
    acc = [[0] * (n + 1) for _ in range(n)]  # per individual, a difference array over ranks
    for l in range(L):
        factors = [(sum(row[:l]), sum(row[l + 1:]), row[l]) for row in counts]
        G = [[int(p == q == 0) for q in range(n + 1)] for p in range(n + 1)]
        for f in factors:
            G = _times_linear(G, n, *f)
        for i, row in enumerate(counts):
            if row[l]:
                Q = _over_linear(G, n, *factors[i])
                for p in range(n):
                    for q in range(n - p):
                        v = row[l] * Q[p][q] * (lcm // (q + 1))
                        acc[i][p] += v
                        acc[i][p + q + 1] -= v
    den = D**n * lcm
    return np.array([[s / den for s in itertools.accumulate(a[:n])] for a in acc])


def integer_rows(rng, n, L, D):
    """Integer rows summing to D: random cuts of [0, D], a third of them one-hot and
    a third with one label's count moved to the next label, leaving a zero."""
    cuts = np.sort(rng.integers(0, D + 1, size=(n, L - 1)), axis=1)
    c = np.diff(np.hstack([np.zeros((n, 1), int), cuts, np.full((n, 1), D)]), axis=1)
    kind = rng.integers(0, 3, size=n)
    c[kind == 1] = D * np.eye(L, dtype=int)[rng.integers(0, L, size=int((kind == 1).sum()))]
    z = np.flatnonzero(kind == 2)
    zero = rng.integers(0, L, size=z.size)
    c[z, (zero + 1) % L] += c[z, zero]
    c[z, zero] = 0
    return c


def peaked_integer_rows(rng, n, L, D):
    """Integer rows summing to D from Dirichlet(0.05) draws: most rows put nearly all of D
    on one label and exact zeros elsewhere, so q sits near and at 0 and 1."""
    c = np.floor(rng.dirichlet(np.full(L, 0.05), size=n) * D).astype(np.int64)
    c[np.arange(n), c.argmax(axis=1)] += D - c.sum(axis=1)
    return c


class TestUaKernelHardInputs:
    def test_matches_oracle_on_peaked_one_hot_and_tie_rows(self):
        rng = np.random.default_rng(30)
        for _ in range(60):
            n, L = int(rng.integers(1, 8)), int(rng.integers(2, 5))
            if L**n > 20_000:
                continue
            P = PredictionMatrix(hard_rows(rng, n, L))
            assert np.abs(ua_rank(P).entries - ua_rank_oracle(P).entries).max() <= 1e-12

    def test_integer_reference_matches_the_oracle(self):
        rng = np.random.default_rng(32)
        for n, L in [(1, 3), (4, 4), (6, 2), (7, 3)]:
            c = integer_rows(rng, n, L, 2**20)
            M = ua_rank_oracle(PredictionMatrix(c / 2**20)).entries
            assert np.abs(ua_rank_integer(c.tolist(), 2**20) - M).max() <= 1e-15

    @pytest.mark.parametrize("n,seeds", [(30, (0, 1)), (100, (0,))], ids=["n30", "n100"])
    def test_within_n_eps_of_the_integer_reference(self, n, seeds):
        """Every entry of `ua_rank` within n eps of the exact marginals (rows over 2^20
        are exact doubles).  Row and column sums miss errors that preserve them; this
        does not.  The worst seen is 0.25 eps at n = 30 and 0.13 eps at n = 100."""
        for seed in seeds:
            c = integer_rows(np.random.default_rng([n, seed]), n, 3, 2**20)
            M = ua_rank(PredictionMatrix(c / 2**20)).entries
            assert np.abs(M - ua_rank_integer(c.tolist(), 2**20)).max() <= n * np.finfo(float).eps

    def test_within_n_eps_of_the_integer_reference_on_peaked_rows(self):
        """n = 120, the largest n at which the integer reference takes about 2 s.  Peaked
        rows make both passes' rectangles narrow.  The worst seen is 0.48 eps."""
        n = 120
        c = peaked_integer_rows(np.random.default_rng([n, 1]), n, 3, 2**20)
        M = ua_rank(PredictionMatrix(c / 2**20)).entries
        assert np.abs(M - ua_rank_integer(c.tolist(), 2**20)).max() <= n * np.finfo(float).eps

    def test_expected_rank_closed_form_at_n150(self):
        rng = np.random.default_rng(31)
        n = 150
        P = PredictionMatrix(hard_rows(rng, n, 4))
        M = ua_rank(P).entries
        above = np.cumsum(P.rows[:, ::-1], axis=1)[:, ::-1] - P.rows  # Pr[label > l]
        # beats[i, j] = Pr[label_j > label_i] + 1/2 Pr[label_j = label_i]
        beats = P.rows @ (above + 0.5 * P.rows).T
        expected = 1.0 + beats.sum(axis=1) - np.diag(beats)
        assert np.abs(M @ np.arange(1, n + 1) - expected).max() <= 1e-9
        assert np.abs(M.sum(axis=0) - 1).max() <= 1e-9
        assert np.abs(M.sum(axis=1) - 1).max() <= 1e-9

    @pytest.mark.parametrize("alpha", [1.0, 0.05])
    @pytest.mark.parametrize("L", [2, 3, 5])
    @pytest.mark.parametrize("n", [60, 150, 300])
    def test_drift_bound(self, n, L, alpha):
        """Drift bound of the UA kernel: on Dirichlet(alpha) rows, the worst row-sum
        deviation, the worst column-sum deviation and the most negative entry of
        `ua_rank` each stay within n * eps, eps = np.finfo(float).eps.  The worst
        seen over these cases is 0.35 n eps (n=60, L=2, Dirichlet(0.05))."""
        bound = n * np.finfo(float).eps
        for seed in range(2):
            rows = np.random.default_rng([n, L, seed]).dirichlet(np.full(L, alpha), size=n)
            M = ua_rank(PredictionMatrix(rows)).entries
            assert np.abs(M.sum(axis=1) - 1).max() <= bound
            assert np.abs(M.sum(axis=0) - 1).max() <= bound
            assert -M.min() <= bound


class TestStackedKernel:
    """`_ua_marginals` on a (2, m, n, L) stack returns, matrix by matrix, exactly the
    entries `ua_rank` returns for that matrix alone."""

    @staticmethod
    def stack(make, m):
        """(2, m) prediction matrices from `make()` and their (2, m, n, L) stack of rows."""
        Ps = [[PredictionMatrix(make()) for _ in range(m)] for _ in range(2)]
        return Ps, np.array([[P.rows for P in row] for row in Ps])

    @staticmethod
    def assert_exact(Ps, rows):
        M = rankers._ua_marginals(rows)
        assert M.shape == (*rows.shape[:-1], rows.shape[-2])
        for idx in np.ndindex(rows.shape[:-2]):
            assert np.array_equal(M[idx], ua_rank(Ps[idx[0]][idx[1]]).entries)

    @pytest.mark.parametrize("n,L", [(1, 1), (1, 3), (4, 1), (2, 2), (5, 3), (7, 4), (12, 9)])
    def test_hard_rows(self, n, L):
        rng = np.random.default_rng([70, n, L])
        self.assert_exact(*self.stack(lambda: hard_rows(rng, n, L), 5))

    def test_one_hot_rows(self):
        rng = np.random.default_rng(71)
        self.assert_exact(*self.stack(lambda: np.eye(3)[rng.integers(0, 3, size=6)], 4))

    def test_label_zero_across_the_stack(self, monkeypatch):
        rng = np.random.default_rng(72)

        def rows():
            r = hard_rows(rng, 5, 4)
            r[:, 2] = 0.0
            r[r.sum(axis=1) == 0, 0] = 1.0
            return r / r.sum(axis=1, keepdims=True)

        calls, kernel = [], rankers._ua_label_kernel
        monkeypatch.setattr(rankers, "_ua_label_kernel", lambda rows, labels: calls.extend(labels) or kernel(rows, labels))
        self.assert_exact(*self.stack(rows, 6))
        assert 3 not in calls  # skipped for the stack, as for each matrix alone

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(73)
        Ps, base = self.stack(lambda: hard_rows(rng, 6, 3), 8)
        # Every other matrix, the transposed (m, 2) stack's every other pair, and a Fortran-order copy.
        for rows, sub in ((base[:, ::2], [row[::2] for row in Ps]),
                          (base.transpose(1, 0, 2, 3)[::2], [list(pair) for pair in zip(*Ps)][::2]),
                          (np.asfortranarray(base), Ps)):
            assert not rows.flags.c_contiguous
            self.assert_exact(sub, rows)


def ua_kernel_full_sweep(rows, labels):
    """`_ua_label_kernel`'s arithmetic with no sort and no trim: both passes run over every
    (node, individual) entry, and each node sum adds one node after the other, in node order."""
    n = rows.shape[-2]
    u, w = rankers._legendre_nodes(n // 2 + 1)
    above = np.stack([rows[..., label:].sum(axis=-1) for label in labels])
    equal = np.stack([rows[..., label - 1] for label in labels])
    q = above[..., None, :] + u[:, None] * equal[..., None, :]  # (labels, ..., nodes, n)
    p = 1.0 - q
    F = np.zeros((n + 1, *q.shape[:-1]))
    F[0] = 1.0
    for j in range(n):
        carried = F[: j + 1] * q[..., j]
        F[: j + 2] *= p[..., j]
        F[1 : j + 2] += carried
    C = np.zeros((*q.shape[:-2], n, n))  # C[..., i, k-1]
    fwd = q <= 0.5
    for degrees, shift, own, other, live in ((range(n), 0, p, q, fwd), (range(n, 0, -1), 1, q, p, ~fwd)):
        d = np.where(live, own, np.inf)
        ratio, weight = other / d, w[:, None] / d
        X = np.zeros(q.shape)
        for k in degrees:
            X = F[k][..., None] - X * ratio
            total = weight[..., 0, :] * X[..., 0, :]
            for t in range(1, u.size):
                total = total + weight[..., t, :] * X[..., t, :]
            C[..., k - shift] += total
    return C


def recording_plan(monkeypatch):
    """Patch the sweep plan to record, per kernel call, (column count, sorted, forward, backward)."""
    plans, plan = [], rankers._sweep_plan

    def record(s, m):
        order, forward, backward = plan(s, m)
        plans.append((s.shape[-1], order is not None, forward, backward))
        return order, forward, backward

    monkeypatch.setattr(rankers, "_sweep_plan", record)
    return plans


def width(rectangle):
    return 0 if rectangle is None else rectangle[0].stop - rectangle[0].start


def one_forward_column(rng, n):
    """n rows of two labels with Pr[label 2] > 0.7 but for one, (0.9, 0.1): given label 1
    only that row has forward nodes (q = 0.1 + 0.9u <= 1/2 for u <= 4/9), so label 1's
    forward rectangle holds one live column, of about n/5 nodes."""
    low = rng.uniform(0.0, 0.3, size=n)
    rows = np.stack([low, 1.0 - low], axis=1)
    rows[n // 3] = [0.9, 0.1]
    return rows


class TestLiveSweep:
    """`_ua_label_kernel` sweeps each pass's live rectangle only, and returns bit for bit
    what the full sweep returns: neither the trim nor the sort moves a bit."""

    CASES = {
        "hard_n150": lambda rng: hard_rows(rng, 150, 4),
        "one_hot_n150": lambda rng: np.eye(4)[rng.integers(0, 4, size=150)],
        "dirichlet005_n150": lambda rng: rng.dirichlet(np.full(4, 0.05), size=150),
        "one_forward_column": lambda rng: one_forward_column(rng, 40),
        "all_top": lambda rng: np.tile([0.0, 0.0, 1.0], (30, 1)),
        "all_bottom": lambda rng: np.tile([1.0, 0.0, 0.0], (30, 1)),
        "n1": lambda rng: hard_rows(rng, 1, 3),
        "n2": lambda rng: hard_rows(rng, 2, 3),
        "n2_stack": lambda rng: np.array([[hard_rows(rng, 2, 3) for _ in range(3)] for _ in range(2)]),
        "n9_stack": lambda rng: np.array([hard_rows(rng, 9, 3) for _ in range(40)]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_the_full_sweep(self, case):
        rows = self.CASES[case](np.random.default_rng(list(map(ord, case))))
        for labels in [(label,) for label in range(1, rows.shape[-1] + 1)] + [tuple(range(1, rows.shape[-1] + 1))]:
            assert np.array_equal(rankers._ua_label_kernel(rows, labels), ua_kernel_full_sweep(rows, labels)), labels

    @pytest.mark.parametrize("case", ["hard_n150", "one_hot_n150", "dirichlet005_n150"])
    def test_trimmed_stack_of_two_at_n150_matches_each_matrix_alone(self, monkeypatch, case):
        # 2 * 150^2 cells fit 2^16: each kernel call ranks one label of both matrices.
        rng = np.random.default_rng(list(map(ord, case)))
        Ps, rows = TestStackedKernel.stack(lambda: self.CASES[case](rng), 1)
        plans = recording_plan(monkeypatch)
        M = rankers._ua_marginals(rows)
        assert any(sorted_ and min(width(f), width(b)) < n for n, sorted_, f, b in plans)
        for idx in np.ndindex(rows.shape[:-2]):
            assert np.array_equal(M[idx], ua_rank(Ps[idx[0]][idx[1]]).entries)

    def test_single_live_column_is_widened_to_two(self, monkeypatch):
        rows = one_forward_column(np.random.default_rng(78), 40)
        plans = recording_plan(monkeypatch)
        K = rankers._ua_label_kernel(rows, (1,))
        [(_, sorted_, forward, _)] = plans
        assert sorted_ and width(forward) == 2 and forward[1].stop - forward[1].start >= 8
        assert np.array_equal(K, ua_kernel_full_sweep(rows, (1,)))
        # Stacked with another matrix, it keeps the same bits.
        other = hard_rows(np.random.default_rng(79), 40, 2)
        assert np.array_equal(rankers._ua_label_kernel(np.array([rows, other]), (1,))[:, 0], K)

    @pytest.mark.parametrize("rows,label,empty,rank", [
        (np.tile([0.0, 0.0, 1.0], (30, 1)), 1, "forward", 30),  # every other individual ranks above
        (np.tile([1.0, 0.0, 0.0], (30, 1)), 3, "backward", 1),  # every other individual ranks below
    ], ids=["all_top", "all_bottom"])
    def test_pass_with_no_live_column_is_skipped(self, monkeypatch, rows, label, empty, rank):
        plans = recording_plan(monkeypatch)
        K = rankers._ua_label_kernel(rows, (label,))[0]
        [(_, _, forward, backward)] = plans
        assert {"forward": forward, "backward": backward}[empty] is None
        assert np.abs(K - np.tile(np.eye(30)[rank - 1], (30, 1))).max() <= 1e-15

    @pytest.mark.parametrize("case", ["n30", "n60_L5", "n9_stack"])
    def test_shared_sweep_equals_the_passes_alone(self, monkeypatch, case):
        """Unsorted passes with node windows as long share one degree loop, n node sums for
        both, within half of _CHUNK_CELLS; beyond it each pass sweeps alone, with 2n node
        sums.  Every label's bits are the same either way."""
        rng = np.random.default_rng(list(map(ord, case)))
        rows = {"n30": lambda: rng.dirichlet(np.ones(3), size=30), "n60_L5": lambda: rng.dirichlet(np.ones(5), size=60),
                "n9_stack": lambda: np.array([hard_rows(rng, 9, 3) for _ in range(40)])}[case]()
        n, labels = rows.shape[-2], tuple(range(1, rows.shape[-1] + 1))
        sums, einsum = [], np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: sums.append(1) or einsum(*args, **kwargs))
        shared = rankers._ua_label_kernel(rows, labels)
        assert len(sums) == n
        monkeypatch.setattr(rankers, "_CHUNK_CELLS", 1)
        assert np.array_equal(rankers._ua_label_kernel(rows, labels), shared)
        assert len(sums) == 3 * n
        assert np.array_equal(shared, ua_kernel_full_sweep(rows, labels))

    def test_forward_nodes_are_each_columns_last(self):
        """The plan's premise: the nodes descend in u and q rises with u, so the nodes where
        q <= 1/2 are a suffix of every column's nodes."""
        for m in (1, 2, 8, 76, 501):
            assert np.all(np.diff(rankers._legendre_nodes(m)[0]) < 0)
        rows = hard_rows(np.random.default_rng(80), 150, 4)
        u = rankers._legendre_nodes(76)[0]
        for label in range(1, 5):
            q = rows[:, label:].sum(axis=1) + u[:, None] * rows[:, label - 1]
            fwd = q <= 0.5
            assert np.all(fwd[1:] >= fwd[:-1])  # once forward, forward at every later node


def recording_kernel(monkeypatch):
    """Patch the UA kernel to record (rows shape, labels) of every call; returns the record."""
    calls, kernel = [], rankers._ua_label_kernel
    monkeypatch.setattr(rankers, "_ua_label_kernel",
                        lambda rows, labels: calls.append((rows.shape, labels)) or kernel(rows, labels))
    return calls


class TestLabelGroups:
    """`_ua_marginals` hands the kernel as many labels per call as keep labels x
    matrices x n^2 within the chunk bound, at least one, and the grouping never
    changes an entry."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(74)
        stack = np.array([[hard_rows(rng, 5, 4) for _ in range(3)] for _ in range(2)])
        return {"stack": stack, "L1": np.ones((2, 3, 4, 1)), "one_hot": np.eye(3)[rng.integers(0, 3, size=(4, 6))],
                "non_contiguous": np.asfortranarray(stack)[:, ::2], "single": hard_rows(rng, 9, 5)}

    @pytest.mark.parametrize("per_call", [1, 2, None])
    def test_grouping_does_not_change_output(self, monkeypatch, per_call):
        cases = self.cases()
        whole = {name: rankers._ua_marginals(rows) for name, rows in cases.items()}
        calls = recording_kernel(monkeypatch)
        for name, rows in cases.items():
            calls.clear()
            cells = rows[..., 0].size * rows.shape[-2]
            monkeypatch.setattr(rankers, "_CHUNK_CELLS", per_call * cells if per_call else 10**9)
            assert np.array_equal(rankers._ua_marginals(rows), whole[name]), name
            taken = [label for label in range(1, rows.shape[-1] + 1) if rows[..., label - 1].any()]
            assert [label for _, labels in calls for label in labels] == taken
            assert max(len(labels) for _, labels in calls) == min(per_call or len(taken), len(taken))

    def test_absent_label_is_in_no_group(self, monkeypatch):
        rows = hard_rows(np.random.default_rng(75), 6, 4)
        rows[:, 2] = 0.0
        rows[rows.sum(axis=1) == 0, 0] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        calls = recording_kernel(monkeypatch)
        monkeypatch.setattr(rankers, "_CHUNK_CELLS", 2 * 6 * 6)
        rankers._ua_marginals(rows)
        assert [labels for _, labels in calls] == [(1, 2), (4,)]

    def test_conditional_is_a_slice_of_a_multi_label_call(self):
        P = PredictionMatrix(hard_rows(np.random.default_rng(76), 7, 4))
        K = rankers._ua_label_kernel(P.rows, (1, 2, 3, 4))
        assert K.shape == (4, 7, 7)
        for label in range(1, 5):
            for i in range(7):
                assert np.array_equal(ua_rank_conditional(P, i, label), K[label - 1, i])

    def test_one_kernel_call_ranks_every_label_of_a_small_matrix(self, monkeypatch):
        calls = recording_kernel(monkeypatch)
        ua_rank(PredictionMatrix(np.random.default_rng(77).dirichlet(np.ones(5), size=30)))
        assert [labels for _, labels in calls] == [(1, 2, 3, 4, 5)]

    def test_calls_beyond_the_bound_hold_one_label(self, monkeypatch):
        # n=150: 2 * 150^2 cells fit 2^16, 3 do not; a full audit-sized stack takes one label per call.
        calls = recording_kernel(monkeypatch)
        ua_rank(PredictionMatrix(np.random.default_rng(78).dirichlet(np.ones(5), size=150)))
        rankers._ua_marginals(np.random.default_rng(79).dirichlet(np.ones(3), size=(2, 2**16 // 25, 5)))
        assert [labels for _, labels in calls] == [(1, 2), (3, 4), (5,), (1,), (2,), (3,)]
        for shape, labels in calls:
            assert len(labels) == 1 or len(labels) * math.prod(shape[:-1]) * shape[-2] <= rankers._CHUNK_CELLS


class TestConditional:
    def test_single_individual_any_label(self):
        P = PredictionMatrix(np.array([[0.4, 0.6]]))
        for l in (1, 2):
            assert ua_rank_conditional(P, 0, l) == pytest.approx([1.0])

    def test_lower_bound_top_label(self, stab_lb):
        P, _ = stab_lb
        assert ua_rank_conditional(P, 0, 3) == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    def test_lower_bound_bottom_label(self, stab_lb):
        P, _ = stab_lb
        assert ua_rank_conditional(P, 0, 1) == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(15)
        P = random_prediction(rng, 5, 3)
        for i in range(5):
            for l in (1, 2, 3):
                assert ua_rank_conditional(P, i, l).sum() == pytest.approx(1.0, abs=1e-9)

    def test_index_out_of_range(self):
        P = PredictionMatrix(np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            ua_rank_conditional(P, 1, 1)
        with pytest.raises(ValidationError):
            ua_rank_conditional(P, 0, 3)


class TestOracle:
    def test_single_individual(self):
        P = PredictionMatrix(np.array([[0.2, 0.8]]))
        assert np.allclose(ua_rank_oracle(P).entries, [[1.0]])

    def test_deterministic_distinct(self):
        P = PredictionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(ua_rank_oracle(P).entries, np.eye(2))

    def test_matches_dp(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            P = random_prediction(rng, 4, 3)
            d = np.abs(ua_rank(P).entries - ua_rank_oracle(P).entries).max()
            assert d <= 1e-9

    def test_budget_refusal(self):
        rng = np.random.default_rng(17)
        P = random_prediction(rng, 13, 3)  # 3^13 label vectors, over the budget of 10^6
        with pytest.raises(BudgetExceededError, match="^oracle needs 1594323 label vectors, budget is 1000000$"):
            ua_rank_oracle(P)


class TestOptRank:
    def test_eps_instance_swaps(self):
        P = PredictionMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]))
        u = u_linear(2, 2)
        assert np.allclose(opt_rank(P, u).entries, [[0, 1], [1, 0]])

    def test_equal_rows_index_tiebreak(self):
        P = PredictionMatrix(np.full((3, 2), 0.5))
        assert np.allclose(opt_rank(P, u_linear(3, 2)).entries, np.eye(3))

    def test_lower_bound_instance_all_tied(self, stab_lb):
        P, _ = stab_lb
        assert np.allclose(opt_rank(P, u_linear(3, 3)).entries, np.eye(3))

    def test_optimality_over_random_ds_matrices(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            P = random_prediction(rng, n, 3)
            u = UtilitySpec.dcg(n, L=3)
            best = utility(P, opt_rank(P, u), u)
            from uarank import RankingDistribution

            # Random doubly stochastic matrix as an average of permutations.
            perms = [np.eye(n)[rng.permutation(n)] for _ in range(5)]
            M = RankingDistribution(sum(perms) / len(perms))
            assert best >= utility(P, M, u) - 1e-9

    def test_min_rank_reverses(self):
        P = PredictionMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]))
        u = u_linear(2, 2)
        assert np.allclose(min_rank(P, u).entries, np.eye(2))


class TestMixRank:
    def test_extremes(self, stab_lb):
        P, _ = stab_lb
        u = u_linear(3, 3)
        assert np.array_equal(mix_rank(P, u, 1.0).entries, ua_rank(P).entries)
        assert np.array_equal(mix_rank(P, u, 0.0).entries, opt_rank(P, u).entries)

    def test_half_mixture_entry(self, stab_lb):
        P, _ = stab_lb
        M = mix_rank(P, u_linear(3, 3), 0.5)
        assert M.entries[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_phi_out_of_range(self, stab_lb):
        P, _ = stab_lb
        with pytest.raises(ValidationError):
            mix_rank(P, u_linear(3, 3), 1.5)


def gumbel(rng, shape):
    return -np.log(-np.log(np.maximum(rng.random(shape), np.finfo(np.float64).tiny)))


def pl_rank_stable(P, u, samples, seed, draw=gumbel):
    """Reference Plackett-Luce sampler: each batch of noise `draw(rng, (b, n))` is
    ordered by one stable argsort of -(tau + g), so ties go to the lower index."""
    rng = np.random.default_rng(seed)
    tau, n = u.tau(P), P.n
    counts = np.zeros(n * n, dtype=np.int64)
    done = 0
    while done < samples:
        b = min(max(1, rankers._CHUNK_CELLS // n), samples - done)
        scores = tau[None, :] + draw(rng, (b, n))
        order = np.argsort(-scores, axis=1, kind="stable")
        counts += np.bincount((order * n + np.arange(n)).ravel(), minlength=n * n)
        done += b
    return counts.reshape(n, n) / samples


def rounded_gumbel(rng, shape):
    return np.round(gumbel(rng, shape) * 2) / 2


def signed_zeros(rng, shape):
    return rng.choice(np.array([-0.0, 0.0, 1.0]), size=shape)


def ulps_apart(rng, shape):
    """Each row a shuffle of 1 + k ulps for k < n: distinct keys whose words agree above
    the index bits, so only the stable re-sort can order them."""
    return 1.0 + np.spacing(1.0) * rng.permuted(np.broadcast_to(np.arange(shape[1]), shape), axis=1)


def shifted_gumbel(rng, shape):
    return gumbel(rng, shape) + 40.0  # every key -(tau + g) negative


def wide_gumbel(rng, shape):
    return gumbel(rng, shape) * 10.0 ** rng.integers(-300, 300, size=shape)  # both signs, any exponent


def zero_tau(n):
    return types.SimpleNamespace(tau=lambda P: np.zeros(n))


class TestPlackettLuce:
    def test_single_individual(self):
        P = PredictionMatrix(np.array([[0.5, 0.5]]))
        u = u_linear(1, 2)
        assert np.allclose(pl_rank(P, u, samples=10, seed=0).entries, [[1.0]])

    def test_equal_scores_symmetric(self):
        P = PredictionMatrix(np.full((2, 2), 0.5))
        M = pl_rank(P, u_linear(2, 2), samples=100_000, seed=1)
        assert np.abs(M.entries - 0.5).max() <= 0.01

    def test_log2_gap_softmax(self):
        # tau difference of ln 2 puts the stronger individual on top w.p. 2/3.
        P = PredictionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        u = UtilitySpec(np.array([1.0, 1.0 + np.log(2.0)]), np.ones(2))
        M = pl_rank(P, u, samples=100_000, seed=2)
        assert M.entries[0, 0] == pytest.approx(2.0 / 3.0, abs=0.01)
        assert pl_rank_exact(P, u).entries[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_exact_equal_scores(self):
        P = PredictionMatrix(np.full((2, 2), 0.5))
        assert np.allclose(pl_rank_exact(P, u_linear(2, 2)).entries, 0.5)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(19)
        P = random_prediction(rng, 5, 3)
        u = UtilitySpec.dcg(5, L=3)
        a = pl_rank(P, u, samples=5000, seed=42).entries
        b = pl_rank(P, u, samples=5000, seed=42).entries
        assert np.array_equal(a, b)

    def test_sampler_approaches_exact(self):
        rng = np.random.default_rng(20)
        P = random_prediction(rng, 3, 3)
        u = UtilitySpec.dcg(3, L=3)
        d = np.abs(pl_rank(P, u, 10**6, seed=3).entries - pl_rank_exact(P, u).entries).max()
        assert d <= 0.005

    def test_exact_budget(self):
        rng = np.random.default_rng(21)
        P = random_prediction(rng, 9, 2)
        with pytest.raises(BudgetExceededError):
            pl_rank_exact(P, UtilitySpec.dcg(9, L=2))

    @pytest.mark.parametrize("batch_elements", [1, 37 * 40 + 5])
    def test_batch_size_does_not_change_output(self, monkeypatch, batch_elements):
        rng = np.random.default_rng(23)
        P = random_prediction(rng, 40, 3)
        u = UtilitySpec.dcg(40, L=3)
        whole = pl_rank(P, u, samples=500, seed=9).entries
        monkeypatch.setattr(rankers, "_CHUNK_CELLS", batch_elements)
        assert np.array_equal(pl_rank(P, u, samples=500, seed=9).entries, whole)

    def test_requires_positive_samples(self):
        P = PredictionMatrix(np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            pl_rank(P, u_linear(1, 2), samples=0, seed=0)

    @pytest.mark.parametrize("batches", ["one", "many"])
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 300, 1024, 1025])  # 0 to 11 index bits
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_stable_reference(self, monkeypatch, n, seed, batches):
        P = random_prediction(np.random.default_rng(30 + n), n, 3)
        u = UtilitySpec.dcg(n, L=3)
        if batches == "many":  # 7 to 10 rows per batch, so the last batch is short for n > 1
            monkeypatch.setattr(rankers, "_CHUNK_CELLS", 7 * n + 3)
        got = pl_rank(P, u, samples=50, seed=seed).entries
        assert np.array_equal(got, pl_rank_stable(P, u, 50, seed))

    @pytest.mark.parametrize("batches", ["one", "many"])
    @pytest.mark.parametrize("n", [2, 40, 300])
    @pytest.mark.parametrize("draw", [rounded_gumbel, signed_zeros])
    def test_forced_ties_match_stable_reference(self, monkeypatch, n, draw, batches):
        # One-hot rows give integer tau, so tau + g ties on rounded draws.  The signed
        # draws on a tau of -0.0 and 0.0 make tau + g exactly -0.0, 0.0 or 1.0.
        rng = np.random.default_rng(40 + n)
        P = PredictionMatrix(np.eye(3)[rng.integers(0, 3, size=n)])
        if draw is signed_zeros:
            u = types.SimpleNamespace(tau=lambda P: np.where(np.arange(n) % 2 == 0, -0.0, 0.0))
        else:
            u = UtilitySpec.dcg(n, L=3)
        if batches == "many":
            monkeypatch.setattr(rankers, "_CHUNK_CELLS", 7 * n + 3)
        monkeypatch.setattr(rankers, "_gumbel", lambda rng, out: np.copyto(out, draw(rng, out.shape)))
        got = pl_rank(P, u, samples=50, seed=3).entries
        assert np.array_equal(got, pl_rank_stable(P, u, 50, 3, draw))

    @pytest.mark.parametrize("blocks", ["one", "many"])
    @pytest.mark.parametrize("n", [2, 40, 300])
    @pytest.mark.parametrize("draw", [ulps_apart, shifted_gumbel, wide_gumbel])
    def test_packed_words_match_stable_reference(self, monkeypatch, n, draw, blocks):
        # A zero tau keeps each draw's keys as drawn: ulps apart, all negative, or of both
        # signs across the exponent range.
        P = PredictionMatrix(np.full((n, 2), 0.5))
        if blocks == "many":
            monkeypatch.setattr(rankers, "_CHUNK_CELLS", 7 * n + 3)
        monkeypatch.setattr(rankers, "_gumbel", lambda rng, out: np.copyto(out, draw(rng, out.shape)))
        got = pl_rank(P, zero_tau(n), samples=50, seed=5).entries
        assert np.array_equal(got, pl_rank_stable(P, zero_tau(n), 50, 5, draw))

    def test_memory_peak(self):
        # The counts and the blocks; the n^2 result is the counts, divided in place.
        n = 1000
        P = random_prediction(np.random.default_rng(60), n, 5)
        u = UtilitySpec.dcg(n, L=5)
        tracemalloc.start()
        try:
            pl_rank(P, u, samples=2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * n * 8 + 4 * 2**20


class TestDoubleStochasticity:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_functions(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, L = int(rng.integers(2, 12)), int(rng.integers(2, 5))
        P = random_prediction(rng, n, L)
        u = UtilitySpec.dcg(n, L=L)
        for M in (
            ua_rank(P),
            opt_rank(P, u),
            mix_rank(P, u, 0.3),
            pl_rank(P, u, samples=500, seed=seed),
        ):
            assert np.abs(M.entries.sum(axis=0) - 1).max() <= 1e-9
            assert np.abs(M.entries.sum(axis=1) - 1).max() <= 1e-9


class TestRankerTable:
    KW = {"phi": 0.3, "samples": 200, "seed": 5}

    @pytest.mark.parametrize("fn", list(RANKERS))
    def test_dispatch_matches_direct_call(self, fn):
        P = random_prediction(np.random.default_rng(21), 4, 3)
        u = u_linear(4, 3)
        direct = {
            "ua": lambda: ua_rank(P),
            "opt": lambda: opt_rank(P, u),
            "mix": lambda: mix_rank(P, u, 0.3),
            "pl": lambda: pl_rank(P, u, 200, 5),
        }[fn]()
        assert np.array_equal(compute_ranking(fn, P, u=u, **self.KW).entries, direct.entries)

    @pytest.mark.parametrize("fn,param", [(fn, p) for fn, r in RANKERS.items() for p in r.params])
    def test_missing_parameter_named(self, fn, param):
        P = random_prediction(np.random.default_rng(22), 3, 2)
        kw = {"u": u_linear(3, 2), **self.KW, param: None}
        with pytest.raises(ValidationError, match=f"'{fn}' requires .*{param}"):
            compute_ranking(fn, P, **kw)

    def test_unknown_and_unaudited_ids(self):
        with pytest.raises(ValidationError, match="unknown ranking function"):
            checked_ranker("bogus")
        unaudited = [fn for fn, r in RANKERS.items() if not r.audited]
        assert unaudited == ["pl"]
        with pytest.raises(ValidationError, match="audits support"):
            checked_ranker("pl", audit=True, u=u_linear(2, 2), samples=1, seed=0)
