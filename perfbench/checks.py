"""Independent checks of uarank CLI outputs.

Every reference value here is computed from the generated input files with
plain numpy, not with uarank, so a defect in the library cannot hide itself.
"""

from __future__ import annotations

import csv
import json

import numpy as np

DS_TOL = 1e-9  # row and column sums of a ranking
ENTRY_SLACK = 1e-12  # entries may undershoot 0 or overshoot 1 by rounding
ORACLE_TOL = 1e-12  # DP vs brute-force oracle
RANK_TOL = 1e-9  # expected ranks, and utilities relative to their size
GAP_TOL = 1e-12  # exact audit gaps and bounds
SE_MULT = 4.0  # sampled gap vs exact gap, in standard errors


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def read_rows(path) -> np.ndarray:
    """Prediction rows from a CSV, renormalized as a distribution per row."""
    with open(path, newline="") as fh:
        rows = np.array([[float(c) for c in r] for r in csv.reader(fh) if r])
    return rows / rows.sum(axis=1, keepdims=True)


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_table(path) -> np.ndarray:
    with open(path) as fh:
        return np.array([[float(c) for c in line.split()] for line in fh if line.strip()])


def ranking(path) -> np.ndarray:
    return np.array(read_json(path)["ranking"], dtype=np.float64)


def doubly_stochastic(M: np.ndarray, tol: float = DS_TOL) -> float:
    """Largest row or column sum deviation; fails beyond `tol` or on entries outside [0, 1]."""
    n = M.shape[0]
    require(M.shape == (n, n), f"ranking has shape {M.shape}, expected square")
    require(np.all(np.isfinite(M)), "ranking has non-finite entries")
    require(M.min() >= -ENTRY_SLACK and M.max() <= 1.0 + ENTRY_SLACK,
            f"ranking entries span [{M.min()!r}, {M.max()!r}], outside [0, 1]")
    dev = float(max(np.abs(M.sum(axis=0) - 1).max(), np.abs(M.sum(axis=1) - 1).max()))
    require(dev <= tol, f"ranking sums deviate from 1 by {dev!r} > {tol}")
    return dev


def expected_ranks(rows: np.ndarray) -> np.ndarray:
    """Closed-form expected UA rank per individual.

    E[rank_i] = 1 + sum_{j != i} (Pr[l_j > l_i] + Pr[l_j = l_i] / 2): each
    strictly better label is one place ahead, and a uniform tie-break puts
    each tied individual ahead with probability 1/2.
    """
    better = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1] - rows  # Pr[label > l]
    beat = better + rows / 2
    return 1.0 + (rows * (beat.sum(axis=0) - beat)).sum(axis=1)


def ranks_of(M: np.ndarray) -> np.ndarray:
    return M @ np.arange(1, M.shape[0] + 1)


def ua_ranking(path, rows: np.ndarray) -> dict:
    """A UA ranking output: doubly stochastic, and right in expectation."""
    M = ranking(path)
    require(M.shape[0] == rows.shape[0], f"ranking is {M.shape[0]}x{M.shape[0]}, input has {rows.shape[0]} rows")
    dev = doubly_stochastic(M)
    err = float(np.abs(ranks_of(M) - expected_ranks(rows)).max())
    require(err <= RANK_TOL, f"expected ranks off by {err!r}")
    return {"ds_dev": dev}


def tau(rows: np.ndarray) -> np.ndarray:
    return rows @ np.arange(1, rows.shape[1] + 1, dtype=np.float64)


def opt_ranking(M: np.ndarray, rows: np.ndarray) -> dict:
    """A utility-optimal ranking: a permutation by nonincreasing tau, ties by index."""
    dev = doubly_stochastic(M)
    require(np.all((M == 0.0) | (M == 1.0)), "opt ranking is not a permutation matrix")
    order = np.argmax(M, axis=0)  # order[k] = individual at position k+1
    step = np.diff(tau(rows)[order])
    require(np.all(step <= 1e-12), "opt ranking is not sorted by decreasing tau")
    tied = step == 0.0
    require(np.all(np.diff(order)[tied] > 0), "opt ranking breaks tau ties out of index order")
    return {"ds_dev": dev}


def pl_ranking(M: np.ndarray, samples: int) -> dict:
    dev = doubly_stochastic(M)
    counts = M * samples
    require(np.abs(counts - np.round(counts)).max() <= 1e-6, "PL ranking entries are not multiples of 1/samples")
    return {"ds_dev": dev}


def table_ranking(M: np.ndarray) -> dict:
    """A ranking printed with 6 decimals: doubly stochastic up to that rounding."""
    return {"ds_dev": doubly_stochastic(M, tol=M.shape[0] * 5e-7)}


def dcg(n: int) -> np.ndarray:
    return 1.0 / np.log2(1.0 + np.arange(1, n + 1))


def close(a: float, b: float, rel: float = RANK_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def stability_opt(doc: dict, rows: np.ndarray, rows2: np.ndarray) -> dict:
    rep = doc["stability"]
    l1 = float(np.abs(rows - rows2).sum())
    same = np.array_equal(np.argsort(-tau(rows), kind="stable"), np.argsort(-tau(rows2), kind="stable"))
    require(close(rep["l1_dist"], l1), f"l1_dist {rep['l1_dist']!r} != {l1!r}")
    require(rep["inf_gap"] == (0.0 if same else 1.0), f"opt inf_gap {rep['inf_gap']!r} for permutations that {'agree' if same else 'differ'}")
    require(close(rep["ratio"], rep["inf_gap"] / l1), "ratio != inf_gap / l1_dist")
    return {}


def utility_opt(doc: dict, rows: np.ndarray) -> dict:
    rep = doc["utility"]
    t, w = np.sort(tau(rows)), dcg(rows.shape[0])
    hi, lo = float(t[::-1] @ w), float(t @ w)
    require(close(rep["max"], hi) and close(rep["min"], lo), "utility max/min differ from sorted tau . dcg")
    require(close(rep["raw"], hi) and rep["normalized"] == 1.0, "opt ranking is not utility-optimal")
    return {}


def model_alpha(model: dict) -> float:
    """Multiaccuracy violation of a population-model document, full domain included."""
    names = [t["name"] for t in model["types"]]
    w = np.array([t["weight"] for t in model["types"]])
    diff = w[:, None] * (np.array([t["groundTruth"] for t in model["types"]])
                         - np.array([t["predicted"] for t in model["types"]]))
    groups = [[names.index(m) for m in g["members"]] for g in model["groups"]]
    groups.append(list(range(len(names))))
    return float(max(np.abs(diff[g].sum(axis=0)).max() for g in groups))


def exact_gap(doc: dict, model: dict, n: int, fn: str, phi: float | None = None) -> dict:
    """The reported bound is L*n*alpha (phi*L*n*alpha + 1 - phi for mix); ua and
    mix gaps stay within it. Opt gaps need not: the two-type model exceeds it."""
    th = doc["theorem"]
    base = model["labels"] * n * model_alpha(model)
    bound = base if fn != "mix" else phi * base + (1 - phi)
    require(abs(th["bound"] - bound) <= GAP_TOL * max(1.0, bound), f"bound {th['bound']!r} != {bound!r}")
    require(th["exactGap"] >= 0.0, f"negative gap {th['exactGap']!r}")
    if fn != "opt":
        require(th["exactGap"] <= bound + GAP_TOL, f"{fn} gap {th['exactGap']!r} exceeds bound {bound!r}")
    return {}


def two_type_opt_gap(doc: dict, n: int) -> dict:
    want = (0.5 - 2.0**-n) / n
    got = doc["theorem"]["exactGap"]
    require(abs(got - want) <= GAP_TOL, f"opt gap {got!r} != (1/n)(1/2 - 2^-n) = {want!r} at n={n}")
    return {}


def sampled_gap(doc: dict, exact: float) -> dict:
    th = doc["theorem"]
    miss = abs(th["estimate"] - exact)
    require(miss <= SE_MULT * th["mc_error"] + GAP_TOL,
            f"estimate {th['estimate']!r} is {miss!r} from exact {exact!r}, se {th['mc_error']!r}")
    return {}
