"""Command-line interface: rank, oracle, stability, utility, and audit subcommands.

Exit codes: 0 success, 1 validation failure, 2 budget refusal: the oracle's
enumeration budget, or the work budget of any theorem or nature audit
(`audit.AUDIT_BUDGET`).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from pathlib import Path

from . import audit as audit_mod
from . import io as io_mod
from . import metrics as metrics_mod
from . import rankers
from .errors import BudgetExceededError, ValidationError
from .types import RankingDistribution

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
        p.add_argument("--phi", type=float, help="mixture weight, required for --fn " +
                       ", ".join(fn for fn, r in rankers.RANKERS.items() if "phi" in r.params))
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
                   help="max number of label vectors to enumerate (at least 1)")
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
                   help="exact closed form instead of Monte-Carlo sampling")
    add_common(p)

    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser `main` reuses for every call in this process, built on first use
    (not at import), and each command's non-required flags as (dest, default) pairs.

    Reuse is safe: parsing does not change the parser, and argparse reads
    `sys.stdout`, `sys.stderr` and the terminal width when it prints, not when
    it is built."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {cmd: tuple((a.dest, a.default) for a in p._actions if not a.required)
             for cmd, p in sub.choices.items()}
    return parser, flags


def _rank_params(args, n, L, u=None) -> dict:
    """Keyword arguments (u, phi, samples, seed) for `--fn`; `u` is built from
    --values and --weights if the ranker needs one."""
    if u is None and "u" in rankers.RANKERS[args.fn].params:
        u = io_mod.load_utility_spec(n, L, args.values, args.weights)
    return {"u": u, "phi": args.phi, "samples": args.samples, "seed": args.seed}


# One handler per mode.  Each returns a RankingDistribution or a report:
# (payload key, structured payload, table rows as (name, value) pairs).

def _rank(args):
    P = io_mod.load_prediction_matrix(args.input)
    return rankers.compute_ranking(args.fn, P, **_rank_params(args, P.n, P.L))


def _oracle(args):
    return rankers.ua_rank_oracle(io_mod.load_prediction_matrix(args.input), budget=args.budget)


def _stability(args):
    P = io_mod.load_prediction_matrix(args.input)
    P2 = io_mod.load_prediction_matrix(args.input2)
    rep = asdict(metrics_mod.stability_gap(args.fn, P, P2, **_rank_params(args, P.n, P.L)))
    return "stability", rep, [(name, v) for name, v in rep.items() if v is not None]


def _utility(args):
    P = io_mod.load_prediction_matrix(args.input)
    u = io_mod.load_utility_spec(P.n, P.L, args.values, args.weights)
    rep = asdict(metrics_mod.normalized_utility(P, args.fn, **_rank_params(args, P.n, P.L, u=u)))
    return "utility", rep, list(rep.items())


def _multiaccuracy(args):
    res = audit_mod.multiaccuracy_alpha(io_mod.load_population_model(args.model))
    rows = [*sorted(res.per_group.items()), ("alpha", res.alpha)]
    return "multiaccuracy", {"perGroup": res.per_group, "alpha": res.alpha}, rows


def _multicalibration(args):
    res = audit_mod.multicalibration_alpha(io_mod.load_population_model(args.model), args.delta)
    cells = {f"{name}|{','.join(map(str, bucket))}": v for (name, bucket), v in res.per_cell.items()}
    return "multicalibration", {"perCell": cells, "alpha": res.alpha}, [*sorted(cells.items()), ("alpha", res.alpha)]


def _nature(args):
    given = {flag: getattr(args, flag) for flag in ("seed", "samples") if getattr(args, flag) is not None}
    rep = audit_mod.nature_closeness_check(io_mod.load_population_model(args.model), args.n, **given)
    return "nature", asdict(rep), [("eps", rep.eps), ("bound", rep.bound), ("max_gap", rep.max_gap),
                                   ("within", rep.within_bound)]


def _exact_theorem(args):
    pop = io_mod.load_population_model(args.model)
    gap = audit_mod.theorem_gap_exact(pop, args.n, args.k, args.group, fn=args.fn,
                                      u=_rank_params(args, args.n, pop.L)["u"], phi=args.phi, delta=args.delta)
    bound, alpha = audit_mod.theorem_bound(pop, args.n, args.fn, args.phi, args.delta)
    return "theorem", {"exactGap": gap, "bound": bound, "alpha": alpha}, [
        ("gap", gap), ("bound", bound), ("alpha", alpha)]


def _sampled_theorem(args):
    pop = io_mod.load_population_model(args.model)
    rep = audit_mod.theorem_gap_estimate(
        pop, args.n, args.k, args.group, fn=args.fn,
        mc_samples=args.samples, seed=args.seed, u=_rank_params(args, args.n, pop.L)["u"],
        phi=args.phi, delta=args.delta,
    )
    return "theorem", asdict(rep), [("estimate", rep.estimate), ("mc_error", rep.mc_error),
                                    ("bound", rep.bound), ("alpha", rep.alpha)]


# The one table of the commands and audit modes: (required, optional, accepted
# --fn ids, handler).  Required and optional name the flags a mode reads besides
# its inputs, --fn, --out and --format.  Where several --fn ids are accepted,
# --fn is read and its ranker adds its `rankers.RANKERS[fn].params`: `u` is read
# from --values and --weights, and phi, samples and seed are required flags.
_ANY, _AUDITED = rankers.RANKING_FUNCTION_IDS, rankers.AUDITED_FUNCTION_IDS
_MODES = {
    "rank": ((), (), _ANY, _rank),
    "oracle": ((), ("budget",), (), _oracle),
    "stability": ((), (), _ANY, _stability),
    "utility": ((), ("values", "weights"), _ANY, _utility),
    "multiaccuracy": ((), (), ("ua",), _multiaccuracy),
    "multicalibration": (("delta",), (), ("ua",), _multicalibration),
    "nature": (("n",), ("samples", "seed"), ("ua",), _nature),
    "exact theorem": (("n", "k", "group"), ("exact", "delta"), _AUDITED, _exact_theorem),
    "sampled theorem": (("n", "k", "group", "samples", "seed"), ("exact", "delta"), _AUDITED, _sampled_theorem),
}


def _reads(args) -> tuple[str, tuple, tuple, set]:
    """The call's mode, the --fn ids it accepts, the flags it requires, and every
    flag its result depends on: its `_MODES` row, plus --fn and the ranker's
    `params` when --fn picks one of several rankers."""
    mode = getattr(args, "mode", args.command)
    if mode == "theorem":  # --exact picks the mode, so both modes read it
        mode = f"{'exact' if args.exact else 'sampled'} theorem"
    required, optional, fns, _ = _MODES[mode]
    params = rankers.RANKERS[args.fn].params if len(fns) > 1 else ()
    required += tuple(p for p in params if p != "u")
    read = {*required, *optional, *(("fn",) if len(fns) > 1 else ()),
            *(("values", "weights") if "u" in params else ())}
    return mode, fns, required, read


def _check_flags(args, flags: dict) -> tuple[str, set]:
    """Refuse a --fn the mode does not accept, then every given flag it does not
    read, then require each flag it needs, naming them; return the mode and the
    flags it reads.  A flag is given when its value differs from its argparse
    default; `flags` is `_parser()`'s second item."""
    mode, fns, required, read = _reads(args)
    scope = f"{mode} audits" if args.command == "audit" else f"{mode} calls"
    fn = getattr(args, "fn", None)
    if fn is not None and fn not in fns:
        raise ValidationError(f"{scope} do not read --fn {fn}; they take --fn {', '.join(fns)}")
    if len(fns) > 1:
        scope += f" with --fn {fn}"
    given = [dest for dest, default in flags[args.command] if getattr(args, dest, default) != default]
    unread = [f"--{name}" for name in given if name not in read | {"out", "format"}]
    if unread:
        raise ValidationError(f"{scope} do not read {', '.join(unread)}")
    missing = [f"--{p}" for p in required if p not in given]
    if missing:
        raise ValidationError(f"{scope} require {', '.join(missing)}")
    return mode, read


def _echo_config(args, read: set) -> dict:
    """The command, mode and inputs, and every set flag the result depends on."""
    echoed = read | {"command", "mode", "input", "input2", "model"}
    return {k: v for k, v in sorted(vars(args).items()) if v is not None and k in echoed}


def _emit(args, result, read: set) -> None:
    """Write a handler's result: structured JSON, a ranking's matrix, or a report's
    rows, each name padded to the longest name plus two spaces.  `--out` is UTF-8."""
    key, payload, rows = ("ranking", result.entries, None) if isinstance(result, RankingDistribution) else result
    if args.format == "structured":
        text = io_mod.serialize_structured({"config": _echo_config(args, read), key: payload})
    elif rows is None:
        text = io_mod.format_matrix(payload) + "\n"
    else:
        width = 2 + max(len(name) for name, _ in rows)
        text = "".join(f"{name:<{width}}{v if isinstance(v, bool) else format(v, '.12g')}\n" for name, v in rows)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:
            raise ValidationError(f"stdout's encoding {sys.stdout.encoding} cannot write "
                                  f"{exc.object[exc.start:exc.end]!r}; --out writes UTF-8") from None


def main(argv=None) -> int:
    parser, flags = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are validation failures here.
        return EXIT_OK if not exc.code else EXIT_VALIDATION
    try:
        mode, read = _check_flags(args, flags)
        _emit(args, _MODES[mode][-1](args), read)
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
