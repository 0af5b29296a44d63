"""Command-line interface: rank, oracle, stability, utility, and audit subcommands.

Exit codes: 0 success, 1 validation failure, 2 exact-path budget refusal.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import io as io_mod
from . import metrics as metrics_mod
from . import rankers
from .errors import BudgetExceededError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uarank",
        description="Uncertainty-aware ranking distributions, stability metrics, "
        "and multigroup fairness audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_fn=True):
        if needs_fn:
            p.add_argument("--fn", choices=rankers.RANKING_FUNCTION_IDS, default="ua",
                           help="ranking function (default: ua)")
        p.add_argument("--phi", type=float,
                       help=f"mixture weight, required for --fn {_fns_requiring('phi')}")
        p.add_argument("--samples", type=int, help="sample count for sampling paths")
        p.add_argument("--seed", type=int, help="RNG seed for sampling paths")
        p.add_argument("--values", help="comma-separated label values (default 1..L)")
        p.add_argument("--weights", default="dcg",
                       help="position weights: 'dcg' or a file with one weight per line")
        p.add_argument("--out", help="write the report to this file instead of stdout")
        p.add_argument("--format", choices=("table", "structured"), default="table")

    p = sub.add_parser("rank", help="compute a ranking distribution for a prediction matrix")
    p.add_argument("--in", dest="input", required=True, help="prediction matrix CSV")
    add_common(p)

    p = sub.add_parser("oracle", help="brute-force UA ranking by label-vector enumeration")
    p.add_argument("--in", dest="input", required=True, help="prediction matrix CSV")
    p.add_argument("--budget", type=int, default=rankers.ORACLE_BUDGET,
                   help="max number of label vectors to enumerate")
    add_common(p, needs_fn=False)

    p = sub.add_parser("stability", help="ranking deviation between two prediction matrices")
    p.add_argument("--in", dest="input", required=True, help="first prediction matrix CSV")
    p.add_argument("--in2", dest="input2", required=True, help="second prediction matrix CSV")
    add_common(p)

    p = sub.add_parser("utility", help="raw and normalized utility of a ranking function")
    p.add_argument("--in", dest="input", required=True, help="prediction matrix CSV")
    add_common(p)

    p = sub.add_parser("audit", help="multigroup fairness audits over a population model")
    p.add_argument("mode", choices=("multiaccuracy", "multicalibration", "theorem", "nature"))
    p.add_argument("--model", required=True, help="population model JSON")
    p.add_argument("--delta", type=float, help="calibration bucket width (1/delta integer)")
    p.add_argument("--n", type=int, help="dataset size")
    p.add_argument("--k", type=int, help="rank position (1-based)")
    p.add_argument("--group", help="group name to audit")
    p.add_argument("--exact", action="store_true",
                   help="exact enumeration instead of Monte-Carlo sampling")
    add_common(p)

    return parser


def _utility_spec(args, n, L):
    return io_mod.load_utility_spec(n, L, args.values, args.weights)


def _fns_requiring(param: str) -> str:
    return ", ".join(fn for fn, r in rankers.RANKERS.items() if param in r.params)


def _rank_params(args, n, L, audit=False, u=None) -> dict:
    """Keyword arguments (u, phi, samples, seed) for `--fn`, checked against its
    ranker table entry; `u` is built from the flags if the ranker needs one."""
    ranker = rankers.RANKERS[args.fn]
    if audit and not ranker.audited:
        raise ValidationError(f"theorem audits support --fn {', '.join(rankers.AUDITED_FUNCTION_IDS)}")
    missing = [f"--{p}" for p in ranker.params if p != "u" and getattr(args, p) is None]
    if missing:
        raise ValidationError(f"{' and '.join(missing)} required for --fn {args.fn}")
    # Theorem audits accept and ignore a stray --phi.
    if not audit and args.phi is not None and "phi" not in ranker.params:
        raise ValidationError(f"--phi is only meaningful for --fn {_fns_requiring('phi')}")
    if u is None and "u" in ranker.params:
        u = _utility_spec(args, n, L)
    return {"u": u, "phi": args.phi, "samples": args.samples, "seed": args.seed}


def _reject_unread(args, names) -> None:
    """Refuse flags the audit mode never reads, rather than echo them as if used."""
    defaults = {"fn": "ua", "exact": False, "weights": "dcg"}
    given = [f"--{name}" for name in names if getattr(args, name) != defaults.get(name)]
    if given:
        raise ValidationError(f"{args.mode} audits do not read {', '.join(given)}")


def _echo_config(args) -> dict:
    skip = {"out", "format"}
    return {
        k: v for k, v in sorted(vars(args).items())
        if v is not None and k not in skip
    }


def _emit(args, payload: dict, table: str) -> None:
    if args.format == "structured":
        text = io_mod.serialize_structured({"config": _echo_config(args), **payload})
    else:
        text = table if table.endswith("\n") else table + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_ranking(args, M) -> None:
    table = io_mod.format_matrix(M.entries) if args.format == "table" else ""
    _emit(args, {"ranking": M.entries}, table)


def _cmd_rank(args) -> None:
    P = io_mod.load_prediction_matrix(args.input)
    _emit_ranking(args, rankers.compute_ranking(args.fn, P, **_rank_params(args, P.n, P.L)))


def _cmd_oracle(args) -> None:
    P = io_mod.load_prediction_matrix(args.input)
    _emit_ranking(args, rankers.ua_rank_oracle(P, budget=args.budget))


def _cmd_stability(args) -> None:
    P = io_mod.load_prediction_matrix(args.input)
    P2 = io_mod.load_prediction_matrix(args.input2)
    rep = metrics_mod.stability_gap(args.fn, P, P2, **_rank_params(args, P.n, P.L))
    table = (
        f"inf_gap  {rep.inf_gap:.12g}\n"
        f"l1_dist  {rep.l1_dist:.12g}\n"
        + (f"ratio    {rep.ratio:.12g}\n" if rep.ratio is not None else "")
    )
    _emit(args, {"stability": asdict(rep)}, table)


def _cmd_utility(args) -> None:
    P = io_mod.load_prediction_matrix(args.input)
    u = _utility_spec(args, P.n, P.L)
    rep = metrics_mod.normalized_utility(P, args.fn, **_rank_params(args, P.n, P.L, u=u))
    table = (
        f"raw         {rep.raw:.12g}\n"
        f"min         {rep.min:.12g}\n"
        f"max         {rep.max:.12g}\n"
        f"normalized  {rep.normalized:.12g}\n"
    )
    _emit(args, {"utility": asdict(rep)}, table)


def _cmd_audit(args) -> None:
    pop = io_mod.load_population_model(args.model)
    if args.mode in ("multiaccuracy", "multicalibration"):
        _reject_unread(args, ("fn", "phi", "samples", "seed", "n", "k", "group", "exact", "values",
                              "weights") + (("delta",) if args.mode == "multiaccuracy" else ()))

    if args.mode == "multiaccuracy":
        res = audit_mod.multiaccuracy_alpha(pop)
        table = "".join(f"{name}  {v:.12g}\n" for name, v in sorted(res.per_group.items()))
        table += f"alpha  {res.alpha:.12g}\n"
        _emit(args, {"multiaccuracy": {"perGroup": res.per_group, "alpha": res.alpha}}, table)
        return

    if args.mode == "multicalibration":
        if args.delta is None:
            raise ValidationError("--delta is required for multicalibration audits")
        res = audit_mod.multicalibration_alpha(pop, args.delta)
        cells = {f"{name}|{','.join(map(str, bucket))}": v for (name, bucket), v in res.per_cell.items()}
        table = "".join(f"{key}  {v:.12g}\n" for key, v in sorted(cells.items()))
        table += f"alpha  {res.alpha:.12g}\n"
        _emit(args, {"multicalibration": {"perCell": cells, "alpha": res.alpha}}, table)
        return

    if args.n is None:
        raise ValidationError(f"--n is required for {args.mode} audits")

    if args.mode == "nature":
        if args.fn != "ua":
            raise ValidationError(f"nature audits check the UA ranking only; got --fn {args.fn}")
        rep = audit_mod.nature_closeness_check(
            pop, args.n, seed=args.seed if args.seed is not None else 0,
            samples=args.samples if args.samples is not None else 50,
        )
        table = (
            f"eps       {rep.eps:.12g}\n"
            f"bound     {rep.bound:.12g}\n"
            f"max_gap   {rep.max_gap:.12g}\n"
            f"within    {rep.within_bound}\n"
        )
        _emit(args, {"nature": asdict(rep)}, table)
        return

    # theorem
    if args.k is None or args.group is None:
        raise ValidationError("--k and --group are required for theorem audits")
    fn = args.fn
    u = _rank_params(args, args.n, pop.L, audit=True)["u"]
    if args.exact:
        gap = audit_mod.theorem_gap_exact(
            pop, args.n, args.k, args.group, fn=fn, u=u, phi=args.phi, delta=args.delta
        )
        alpha = audit_mod._measured_alpha(pop, args.delta)
        bound = audit_mod._gap_bound(pop, args.n, fn, args.phi, alpha)
        table = f"gap    {gap:.12g}\nbound  {bound:.12g}\nalpha  {alpha:.12g}\n"
        _emit(args, {"theorem": {"exactGap": gap, "bound": bound, "alpha": alpha}}, table)
    else:
        if args.samples is None or args.seed is None:
            raise ValidationError("--samples and --seed are required for sampled theorem audits")
        rep = audit_mod.theorem_gap_estimate(
            pop, args.n, args.k, args.group, fn=fn,
            mc_samples=args.samples, seed=args.seed, u=u, phi=args.phi, delta=args.delta,
        )
        table = (
            f"estimate  {rep.estimate:.12g}\n"
            f"mc_error  {rep.mc_error:.12g}\n"
            f"bound     {rep.bound:.12g}\n"
            f"alpha     {rep.alpha:.12g}\n"
        )
        _emit(args, {"theorem": asdict(rep)}, table)


_DISPATCH = {
    "rank": _cmd_rank,
    "oracle": _cmd_oracle,
    "stability": _cmd_stability,
    "utility": _cmd_utility,
    "audit": _cmd_audit,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are validation failures here.
        return EXIT_OK if not exc.code else EXIT_VALIDATION
    try:
        _DISPATCH[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
