#!/usr/bin/env python3
"""uarank benchmark: CLI workloads timed end to end, and per module when traced.

Run from the repository root:

    python3 perfbench/run.py --workload rank-ua --seed 1 --seconds 20 --trace 0

The runner generates the workload's inputs from the seed, imports uarank
from ./src, and drives `uarank.cli.main(argv)` in this single-threaded
process as a closed loop with one client: passes over the workload's fixed
call list repeat until `--seconds` have elapsed (at least one full pass).
Every output is then checked outside the timed phase. With `--trace 1` it
instead alternates an untraced and a traced pass, checks that both wrote
byte-identical outputs, and reports per-layer self times and work counts.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metrics are the
`end_to_end` (trace 0) or `per_layer` (trace 1) lists of BENCHMARK.json.
"""

import os

# Pin native thread pools before numpy is imported, here and in the set-up
# subprocesses that inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPS = 9
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import uarank.cli"


def setup(workload: str, seed: int):
    """Import time (in a fresh interpreter) plus input generation, SETUP_REPS times.

    Each rep is rescaled like the calls, by calibrations just before and
    after it. Returns the median set-up time and the workload."""
    def task():
        return statistics.median(calibrate.task_time() for _ in range(3))

    times = []
    for _ in range(SETUP_REPS):
        before = task()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)], cwd=ROOT, check=True)
        wl = workloads.build(workload, seed, WORK / "in")
        dt = time.perf_counter() - t0
        times.append(dt * calibrate.REF_S / statistics.fmean([before, task()]))
    return statistics.median(times), wl


class Runner:
    def __init__(self, cli, wl):
        self.cli = cli
        self.wl = wl
        self.tracer = None

    def invoke(self, call, out_dir: Path):
        argv = call.argv + ["--out", str(out_dir / call.out)]
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:  # a crash is a failed call; keep measuring the rest
            traceback.print_exc()
            rc = None
        dt = time.perf_counter() - t0
        if rc != 0:
            print(f"error: call failed ({rc}): uarank {' '.join(argv)}", file=sys.stderr)
        return rc == 0, dt

    def one_pass(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        res = []
        for i, call in enumerate(self.wl.calls):
            if self.tracer:
                self.tracer.call_id = i
            res.append(self.invoke(call, out_dir))
        return res

    def timed(self, seconds: float, out_dir: Path):
        """Closed loop over the pass until `seconds` have elapsed, at least one pass.

        The calibration sampler runs throughout; its time is taken out of
        the call it interrupted. Returns per call its raw times, its times
        rescaled to the reference machine speed, and whether each attempt
        succeeded, then the sampler. The call timeline is written to
        timeline.json."""
        out_dir.mkdir(parents=True, exist_ok=True)
        events = []
        start, passes = time.perf_counter(), 0
        with calibrate.Sampler() as speed:
            while not (passes and time.perf_counter() - start >= seconds):
                for i, call in enumerate(self.wl.calls):
                    if passes and time.perf_counter() - start >= seconds:
                        break
                    spent, t0 = speed.spent, time.perf_counter()
                    ok, dt = self.invoke(call, out_dir)
                    events.append((i, t0, dt, dt - (speed.spent - spent), ok))
                else:
                    passes += 1
        (WORK / "timeline.json").write_text(json.dumps({"calls": events, "calibration": speed.samples}))
        raw, scaled, oks = ([[] for _ in self.wl.calls] for _ in range(3))
        for i, t0, dt, net, ok in events:
            raw[i].append(net)
            scaled[i].append(net * speed.scale(t0, t0 + dt))
            oks[i].append(ok)
        return raw, scaled, oks, speed

    def check_run(self, argv, name) -> Path:
        """An untimed CLI call made by a check."""
        out = WORK / "check" / name
        out.parent.mkdir(parents=True, exist_ok=True)
        rc = self.cli.main([*argv, "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"check call failed ({rc}): uarank {' '.join(argv)}")
        return out

    def verify(self, out_dir: Path, ran_ok):
        """Check each call's output once, then the workload's extra verifications.

        Returns (indices of calls whose output failed, failed extras, stats)."""
        stats = defaultdict(list)
        bad_calls, bad_extra = set(), 0
        jobs = [(i, lambda c=c: c.check(out_dir / c.out, self.check_run))
                for i, c in enumerate(self.wl.calls) if ran_ok[i]]
        jobs += [(None, lambda v=v: v(self.check_run)) for v in self.wl.extra]
        for i, job in jobs:
            try:
                for key, v in job().items():
                    stats[key].append(v)
            except Exception as exc:  # any failure to check an output fails that output
                label = f"call {i}: uarank {' '.join(self.wl.calls[i].argv)}" if i is not None else "extra check"
                print(f"error: check failed for {label}: {exc!r}", file=sys.stderr)
                if i is None:
                    bad_extra += 1
                else:
                    bad_calls.add(i)
        return bad_calls, bad_extra, stats


def kind_metrics(wl, times, q_tail):
    """Per-kind times: the mean over the kind's shapes of each shape's mean time.

    A shape's mean, not its median: machine speed on a shared VM alternates
    between two modes about 1.7x apart every few seconds, and a shape's
    median jumps between the modes from run to run where the mean averages
    them (see README.md)."""
    by_shape = defaultdict(list)
    for call, ts in zip(wl.calls, times):
        by_shape[(call.kind, call.shape)].extend(ts)
    shape_mean = {key: statistics.fmean(ts) for key, ts in by_shape.items()}
    out = {}
    for kind in ("kind1", "kind2", "kind3", "kind4"):
        out[f"{kind}_s"] = statistics.fmean(v for (k, _), v in shape_mean.items() if k == kind)
    tail = sorted(t for call, ts in zip(wl.calls, times) if call.kind == "kind1" for t in ts)
    out["kind1.tail_s"] = tail[math.floor(q_tail * (len(tail) - 1))]
    out["pass_s"] = sum(shape_mean[(c.kind, c.shape)] for c in wl.calls)
    return out


def tail_quantile(wl) -> float:
    """The highest quantile that leaves at least ten kind1 samples beyond it in one pass."""
    m = sum(c.kind == "kind1" for c in wl.calls)
    return 1.0 - 11.0 / m


def layer_metrics(agg, overhead_s, cpu_ratio) -> dict:
    s, calls, counts = agg["self_s"], agg["calls"], agg["counts"]
    m = {f"{mod}.self_s": sum(v for k, v in s.items() if k.startswith(mod + "."))
         for mod in ("cli", "io", "types", "rankers", "metrics", "audit")}
    m.update({
        "cli.main.self_s": s["cli.main"],
        "cli.build_parser.s": s["cli.build_parser"],
        "io.load_prediction_matrix.s": s["io.load_prediction_matrix"],
        "io.load_population_model.s": s["io.load_population_model"],
        "io.load_utility_spec.s": s["io.load_utility_spec"],
        "io.serialize_structured.s": s["io.serialize_structured"],
        "io.serialize_structured.bytes": counts["io.serialize_structured"]["bytes"],
        "io.format_matrix.s": s["io.format_matrix"],
        "types.PredictionMatrix.s": s["types.PredictionMatrix"],
        "types.PredictionMatrix.calls": calls["types.PredictionMatrix"],
        "types.RankingDistribution.s": s["types.RankingDistribution"],
        "types.RankingDistribution.calls": calls["types.RankingDistribution"],
        "rankers.ua_rank.s": s["rankers.ua_rank"],
        "rankers.ua_rank.calls": calls["rankers.ua_rank"],
        "rankers.ua_rank.tasks": counts["rankers.ua_rank"]["tasks"],
        "rankers.ua_rank.s_per_task": s["rankers.ua_rank"] / max(1, counts["rankers.ua_rank"]["tasks"]),
        "rankers.opt_rank.s": s["rankers.opt_rank"],
        "rankers.opt_rank.calls": calls["rankers.opt_rank"],
        "rankers.pl_rank.s": s["rankers.pl_rank"],
        "metrics.stability_gap.self_s": s["metrics.stability_gap"],
        "metrics.normalized_utility.self_s": s["metrics.normalized_utility"],
        "audit.theorem_gap_exact.self_s": s["audit.theorem_gap_exact"],
        "audit.theorem_gap_exact.calls": calls["audit.theorem_gap_exact"],
        "audit.theorem_gap_exact.tvecs": counts["audit.theorem_gap_exact"]["tvecs"],
        "audit.theorem_gap_estimate.self_s": s["audit.theorem_gap_estimate"],
        "audit.theorem_gap_estimate.samples": counts["audit.theorem_gap_estimate"]["samples"],
        "process.cpu_ratio": cpu_ratio,
        "trace.overhead_s": overhead_s,
        "trace.spans": sum(calls.values()),
    })
    requested = sum(counts[k]["ua_requests"] for k in ("audit.theorem_gap_exact", "audit.theorem_gap_estimate"))
    m["audit.rank_cache.hit_ratio"] = 1.0 - agg["ua_from_audit"] / requested if requested else math.nan
    return m


def traced_phase(runner, seconds: float, out_dir: Path):
    """Pairs of an untraced and a traced pass until `seconds` have elapsed, at least one pair.

    Returns the per-layer values (median over pairs), whether each attempt
    succeeded, and the calls whose traced output differs from the untraced one."""
    calls = runner.wl.calls
    runner.tracer = tracer = tracing.Tracer()
    span_cost = tracer.span_cost()
    oks = [[] for _ in calls]
    passes, values, mismatched = [], [], set()
    start = time.perf_counter()
    calib = []
    while not passes or time.perf_counter() - start < seconds:
        calib += [calibrate.task_time() for _ in range(20)]
        c0, w0 = time.process_time(), time.perf_counter()
        plain = runner.one_pass(out_dir)
        cpu_ratio = (time.process_time() - c0) / (time.perf_counter() - w0)
        tracer.install()
        try:
            traced = runner.one_pass(WORK / "traced")
        finally:
            tracer.uninstall()
        spans, count_s = tracer.take()
        passes.append(spans)
        values.append(layer_metrics(tracing.aggregate(spans), len(spans) * span_cost + count_s, cpu_ratio))
        for i, call in enumerate(calls):
            oks[i] += [plain[i][0], traced[i][0]]
            if plain[i][0] and traced[i][0] and not filecmp.cmp(
                    out_dir / call.out, WORK / "traced" / call.out, shallow=False):
                print(f"error: traced output differs: uarank {' '.join(call.argv)}", file=sys.stderr)
                mismatched.add(i)
    tracing.dump(WORK / "spans.jsonl", passes)
    layers = {k: statistics.median_low([v[k] for v in values]) for k in values[0]}
    layers["machine.calib_s"] = statistics.median(calib)
    return layers, oks, mismatched


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "uarank").rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "uarank" / "__init__.py").is_file():
        print(f"error: no uarank sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    setup_s, wl = setup(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    from uarank import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported uarank from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    runner = Runner(cli, wl)
    (WORK / "warm").mkdir()
    for call in wl.calls:  # warm-up: lazy imports and first-use allocations
        if call.kind == "probe":
            runner.invoke(call, WORK / "warm")

    out_dir = WORK / "out"
    if args.trace:
        values, oks, mismatched = traced_phase(runner, args.seconds, out_dir)
    else:
        raw, scaled, oks, speed = runner.timed(args.seconds, out_dir)
        values = kind_metrics(wl, scaled, tail_quantile(wl))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        mismatched = set()
        print(f"# {args.workload}: seed {args.seed}, kind1 tail at p{100 * tail_quantile(wl):.1f}")
        for kind, label in workloads.KIND_NAMES[args.workload].items():
            print(f"#   {kind} = {label}")
        print(f"# times are rescaled to a machine on which the calibration task takes {calibrate.REF_S} s;")
        print(f"# here it took {speed.median()!r} s (median of {len(speed.samples)}). Raw times:")
        for name, v in kind_metrics(wl, raw, tail_quantile(wl)).items():
            print(f"#   {name:<14} {v!r} s")

    bad_calls, bad_extra, stats = runner.verify(out_dir, [all(o) for o in oks])
    bad_calls |= mismatched
    attempted = sum(map(len, oks)) + len(wl.extra)
    failed = sum(len(o) if i in bad_calls else o.count(False) for i, o in enumerate(oks)) + bad_extra
    values.update(setup_s=setup_s, ok_ratio=1.0 - failed / attempted, **{"src.lines": src_lines()})
    values["types.ds_max_dev"] = max(stats["ds_dev"], default=math.nan)
    values["rankers.ua_rank.max_err_vs_oracle"] = max(stats["oracle_err"], default=math.nan)

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<40} {values[m['name']]!r:>24} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
