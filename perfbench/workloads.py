"""Seeded inputs and the per-pass call lists of the benchmark workloads.

A pass is a fixed list of `uarank` CLI calls; the runner repeats passes as a
closed loop with one client. Inputs are generated from the workload seed and
written as CSV/JSON files, so the program sees only files, as a user's run
would. Each call carries the check of its output, which the runner applies
outside the timed phase.

Every call has a `kind` (the end-to-end metric slot it feeds, kind1..kind4,
or "probe") and a `shape`: calls of one shape do the same amount of work, so
a kind's time is the mean over its shapes of each shape's median, which does
not depend on how many calls of each shape fit into a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent

# What each end-to-end slot means per workload, in the names README.md uses.
KIND_NAMES = {
    "rank-ua": {
        "kind1": "rank_ua.n30", "kind2": "rank_ua.n60",
        "kind3": "rank_ua.n150.L3", "kind4": "rank_ua.n150.L5",
    },
    "cli-large": {
        "kind1": "cli_large.metrics", "kind2": "cli_large.rank_json",
        "kind3": "cli_large.rank_table", "kind4": "cli_large.pl_json",
    },
    "audit-theorem": {
        "kind1": "audit.exact_ua", "kind2": "audit.exact_two_type",
        "kind3": "audit.sampled_opt", "kind4": "audit.sampled_ua",
    },
}

Run = Callable[[list, str], Path]  # untimed CLI call (argv, output name) -> output path


@dataclass
class Call:
    kind: str
    shape: str
    argv: list
    out: str  # output file name inside a pass directory
    check: Callable[[Path, Run], dict]  # raises checks.CheckFailed


@dataclass
class Workload:
    calls: list = field(default_factory=list)  # one pass, in run order
    extra: list = field(default_factory=list)  # untimed verifications: Run -> dict

    def add(self, kind, shape, argv, check):
        self.calls.append(Call(kind, shape, [str(a) for a in argv], f"{len(self.calls):03d}.out", check))


def write_csv(path: Path, rows: np.ndarray) -> Path:
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    return path


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def prediction_rows(rng, n: int, L: int) -> np.ndarray:
    """Rows mixing flat Dirichlet(1), peaked Dirichlet(0.05) and 10% one-hot.

    One-hot rows (and the exact zeros peaked rows sometimes hold) drop
    (individual, label) tasks from the UA DP. The one-hot share is fixed,
    so the DP's work barely moves with the seed.
    """
    hot = round(n / 10)
    flat = (n - hot) // 2
    kind = rng.permutation(np.repeat([0, 1, 2], [hot, flat, n - hot - flat]))
    rows = np.where((kind == 1)[:, None], rng.dirichlet(np.ones(L), size=n),
                    rng.dirichlet(np.full(L, 0.05), size=n))
    rows[kind == 0] = np.eye(L)[rng.integers(0, L, hot)]
    return rows


def perturbed(rng, rows: np.ndarray, scale: float) -> np.ndarray:
    noisy = rows * (1.0 + rng.uniform(-scale, scale, rows.shape))
    return noisy / noisy.sum(axis=1, keepdims=True)


def random_population(rng, T: int, L: int) -> dict:
    """A population model in the style of the theorem-bound acceptance test."""
    w = rng.random(T) + 0.1
    gt = rng.random((T, L)) + 1e-6
    gt /= gt.sum(axis=1, keepdims=True)
    pred = np.clip(gt + rng.uniform(-0.05, 0.05, (T, L)), 1e-9, None)
    pred /= pred.sum(axis=1, keepdims=True)
    groups = [{"name": f"g{t}", "members": [f"t{t}"]} for t in range(T)]
    if T >= 3:
        groups.append({"name": "pair", "members": ["t0", "t1"]})
    return population_doc(w / w.sum(), gt, pred, groups)


def two_type_model(alpha: float) -> dict:
    """Two uniform types, truth (1/2, 1/2), predictor biased by +-alpha."""
    return population_doc(
        np.array([0.5, 0.5]), np.full((2, 2), 0.5),
        np.array([[0.5 - alpha, 0.5 + alpha], [0.5 + alpha, 0.5 - alpha]]),
        [{"name": "1", "members": ["1"]}, {"name": "2", "members": ["2"]}],
        names=["1", "2"],
    )


def population_doc(w, gt, pred, groups, names=None) -> dict:
    names = names or [f"t{t}" for t in range(len(w))]
    return {
        "labels": int(gt.shape[1]),
        "types": [
            {"name": nm, "weight": float(wt), "groundTruth": g.tolist(), "predicted": p.tolist()}
            for nm, wt, g, p in zip(names, w, gt, pred)
        ],
        "groups": groups,
    }


def group_names(model: dict) -> list:
    names = [g["name"] for g in model["groups"]]
    return names + ["all"]  # the full domain, which the loader adds


# --- checks bound to their inputs -------------------------------------------

def ua_check(csv: Path, oracle: bool = False):
    def check(out, run):
        rows = checks.read_rows(csv)
        stats = checks.ua_ranking(out, rows)
        if oracle:
            ref = checks.ranking(run(["oracle", "--in", str(csv), "--format", "structured"], f"{csv.stem}.oracle"))
            err = float(np.abs(checks.ranking(out) - ref).max())
            checks.require(err <= checks.ORACLE_TOL, f"{csv.name}: UA differs from the oracle by {err!r}")
            stats["oracle_err"] = err
        return stats
    return check


def sampled_check(model_path: Path, n: int, k: int, group: str, fn: str):
    def check(out, run):
        exact = run(["audit", "theorem", "--model", str(model_path), "--fn", fn, "--n", str(n),
                     "--k", str(k), "--group", group, "--exact", "--format", "structured"],
                    f"{model_path.stem}.{fn}.n{n}.k{k}.{group}.exact")
        return checks.sampled_gap(checks.read_json(out), checks.read_json(exact)["theorem"]["exactGap"])
    return check


def exact_check(model: dict, n: int, fn: str, phi=None, two_type_opt=False):
    def check(out, run):
        doc = checks.read_json(out)
        if two_type_opt:
            checks.two_type_opt_gap(doc, n)
        return checks.exact_gap(doc, model, n, fn, phi)
    return check


# --- the workloads -------------------------------------------------------

def probe(wl: Workload, rng, d: Path) -> None:
    """Six tiny calls, once per pass in every workload, that reach every
    traced module function, so each per-layer metric is measured (near 0,
    not absent) on every workload. They also warm the CLI up before timing."""
    p = write_csv(d / "probe.csv", prediction_rows(rng, 6, 3))
    p2 = write_csv(d / "probe2.csv", prediction_rows(rng, 6, 3))
    model = random_population(rng, 2, 2)
    m = write_json(d / "probe_pop.json", model)
    s = int(rng.integers(1 << 31))
    st = ["--format", "structured"]
    wl.add("probe", "probe.rank_ua", ["rank", "--fn", "ua", "--in", p, *st], ua_check(p, oracle=True))
    wl.add("probe", "probe.rank_pl_table", ["rank", "--fn", "pl", "--samples", 500, "--seed", s, "--in", p],
           lambda out, run: checks.table_ranking(checks.read_table(out)))
    wl.add("probe", "probe.stability", ["stability", "--fn", "opt", "--in", p, "--in2", p2, *st],
           lambda out, run: checks.stability_opt(checks.read_json(out), checks.read_rows(p), checks.read_rows(p2)))
    wl.add("probe", "probe.utility", ["utility", "--fn", "opt", "--in", p, *st],
           lambda out, run: checks.utility_opt(checks.read_json(out), checks.read_rows(p)))
    wl.add("probe", "probe.exact_mix", ["audit", "theorem", "--model", m, "--fn", "mix", "--phi", 0.5,
                                        "--n", 3, "--k", 1, "--group", "g0", "--exact", *st],
           exact_check(model, 3, "mix", 0.5))
    wl.add("probe", "probe.sampled_opt", ["audit", "theorem", "--model", m, "--fn", "opt", "--n", 3, "--k", 2,
                                          "--group", "g1", "--samples", 300, "--seed", s, *st],
           sampled_check(m, 3, 2, "g1", "opt"))


def rank_ua(wl: Workload, rng, d: Path) -> None:
    """`rank --fn ua` at n = 30, 60, 150 and L = 3, 5; the UA DP is >95% of each call."""
    st = ["--format", "structured"]

    def ua_call(kind, n, L, tag):
        csv = write_csv(d / f"n{n}_L{L}_{tag}.csv", prediction_rows(rng, n, L))
        wl.add(kind, f"n{n}.L{L}", ["rank", "--fn", "ua", "--in", csv, *st], ua_check(csv))

    # 40 calls at n=30 (enough for a tail percentile) go between the larger ones.
    big = [("kind3", 150, 3), ("kind2", 60, 3), ("kind2", 60, 5),
           ("kind4", 150, 5), ("kind2", 60, 3), ("kind2", 60, 5)]
    for b, (kind, n, L) in enumerate(big):
        ua_call(kind, n, L, str(b))
        for j in range(7 if b < 4 else 6):
            ua_call("kind1", 30, (3, 5)[j % 2], f"{b}{j}")

    for n, L in ((6, 3), (7, 4), (8, 4), (10, 3)):  # L^n <= 1e6: the oracle can check them
        csv = write_csv(d / f"oracle_n{n}_L{L}.csv", prediction_rows(rng, n, L))
        check = ua_check(csv, oracle=True)
        wl.extra.append(lambda run, csv=csv, check=check:
                        check(run(["rank", "--fn", "ua", "--in", str(csv), *st], csv.stem), run))

    ref = json.loads((HERE / "reference.json").read_text())
    for inst in ref["instances"]:
        csv = write_csv(d / f"ref_{inst['name']}.csv", np.array(inst["rows"]))

        def verify(run, csv=csv, want=np.array(inst["expectedRanks"])):
            M = checks.ranking(run(["rank", "--fn", "ua", "--in", str(csv), *st], csv.stem))
            err = float(np.abs(checks.ranks_of(M) - want).max())
            checks.require(err <= checks.RANK_TOL, f"{csv.name}: expected ranks differ from the recorded ones by {err!r}")
            return {"ds_dev": checks.doubly_stochastic(M)}
        wl.extra.append(verify)


def cli_large(wl: Workload, rng, d: Path) -> None:
    """n=1000, L=5 with the UA kernel bypassed: parsing, the doubly-stochastic
    check, serialization and the 10-13 MB writes are the cost."""
    rows = prediction_rows(rng, 1000, 5)
    a = write_csv(d / "a.csv", rows)
    bs = [write_csv(d / f"b{i}.csv", perturbed(rng, rows, 0.2)) for i in range(4)]
    seed = int(rng.integers(1 << 31))
    st = ["--format", "structured"]

    def metrics_calls(first):
        for j in range(first, first + 10):
            b = bs[j % 4]
            if j % 2:
                wl.add("kind1", "stability", ["stability", "--fn", "opt", "--in", a, "--in2", b, *st],
                       lambda out, run, b=b: checks.stability_opt(checks.read_json(out), checks.read_rows(a),
                                                                  checks.read_rows(b)))
            else:
                wl.add("kind1", "utility", ["utility", "--fn", "opt", "--in", b, *st],
                       lambda out, run, b=b: checks.utility_opt(checks.read_json(out), checks.read_rows(b)))

    def table_call(csv):
        wl.add("kind3", "rank_table", ["rank", "--fn", "opt", "--in", csv],
               lambda out, run: checks.opt_ranking(checks.read_table(out), checks.read_rows(csv)))

    wl.add("kind2", "rank_json", ["rank", "--fn", "opt", "--in", a, *st],
           lambda out, run: checks.opt_ranking(checks.ranking(out), checks.read_rows(a)))
    metrics_calls(0)
    table_call(a)
    metrics_calls(10)
    wl.add("kind4", "pl_json", ["rank", "--fn", "pl", "--samples", 2000, "--seed", seed, "--in", a, *st],
           lambda out, run: checks.pl_ranking(checks.ranking(out), 2000))
    metrics_calls(20)
    table_call(bs[0])  # a second table call: the table path varies more from call to call
    metrics_calls(30)


# (T, L, n, groups, positions): Tⁿ from 4 to 4096. The 4096-vector population
# audits two groups at the first and last position only; all (group, k)
# pairs there would take about 30 s per pass.
POPULATIONS = [
    (2, 2, 2, None, None), (2, 3, 4, None, None), (3, 2, 3, None, None),
    (3, 3, 5, None, None), (4, 2, 4, None, None), (4, 3, 6, ["g0", "all"], [1, 6]),
]


def audit_theorem(wl: Workload, rng, d: Path) -> None:
    """`audit theorem`: thousands of tiny-n rankings per call (exact), and one
    ranking pair per sample (sampled)."""
    st = ["--format", "structured"]
    exact = []
    for idx, (T, L, n, groups, ks) in enumerate(POPULATIONS):
        model = random_population(rng, T, L)
        m = write_json(d / f"pop{idx}.json", model)
        for g in groups or group_names(model):
            for k in ks or range(1, n + 1):
                exact.append(("kind1", f"exact.T{T}.L{L}.n{n}.{g}.k{k}",
                              ["audit", "theorem", "--model", m, "--fn", "ua", "--n", n, "--k", k,
                               "--group", g, "--exact", *st], exact_check(model, n, "ua")))

    two = two_type_model(float(rng.uniform(0.02, 0.4)))
    tm = write_json(d / "two_type.json", two)
    for n in range(2, 9):
        for fn, extra in (("opt", []), ("mix", ["--phi", 0.5])):
            exact.append(("kind2", f"two_type.{fn}.n{n}",
                          ["audit", "theorem", "--model", tm, "--fn", fn, *extra, "--n", n, "--k", 1,
                           "--group", "1", "--exact", *st],
                          exact_check(two, n, fn, 0.5 if fn == "mix" else None, two_type_opt=fn == "opt")))

    sampled_pop = write_json(d / "sampled_pop.json", random_population(rng, 3, 3))
    sampled = [
        ("kind3", "sampled_opt", ["audit", "theorem", "--model", tm, "--fn", "opt", "--n", 4, "--k", 1,
                                  "--group", "1", "--samples", 20000, "--seed", int(rng.integers(1 << 31)), *st],
         sampled_check(tm, 4, 1, "1", "opt")),
        ("kind4", "sampled_ua", ["audit", "theorem", "--model", sampled_pop, "--fn", "ua", "--n", 5, "--k", 2,
                                 "--group", "g1", "--samples", 20000, "--seed", int(rng.integers(1 << 31)), *st],
         sampled_check(sampled_pop, 5, 2, "g1", "ua")),
    ]
    # Spread the sampled calls through the pass so a partial pass samples both kinds.
    third = len(exact) // 3
    for i, call in enumerate(exact):
        if i in (third, 2 * third):
            wl.add(*sampled[i // third - 1])
        wl.add(*call)


BUILDERS = {"rank-ua": rank_ua, "cli-large": cli_large, "audit-theorem": audit_theorem}


def build(name: str, seed: int, d: Path) -> Workload:
    """Write the workload's inputs under `d` and return its pass."""
    d.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(BUILDERS).index(name)])
    wl = Workload()
    BUILDERS[name](wl, rng, d)
    probe(wl, rng, d)
    return wl
