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

from . import audit as audit_mod
from . import io as io_mod
from . import metrics as metrics_mod
from . import rankers
from .errors import BudgetExceededError, ValidationError
from .types import RankingDistribution

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2


def _flag_parser() -> argparse.ArgumentParser:
    """Every optional flag, declared once and parsed by every command; each help
    names the calls that read it.  `_check_flags` refuses a flag the call does not read."""
    p = argparse.ArgumentParser(add_help=False)
    fns = {k: ", ".join(fn for fn, r in rankers.RANKERS.items() if k in r.params) for k in ("u", "phi", "samples")}
    p.add_argument("--delta", type=float, help="bucket width 1/b, b an integer: audit multicalibration, theorem")
    p.add_argument("--n", type=int, help="dataset size: audit theorem, nature")
    p.add_argument("--k", type=int, help="rank position (1-based): audit theorem")
    p.add_argument("--group", help="group name: audit theorem")
    p.add_argument("--exact", action="store_true", help="audit theorem: exact closed form, not sampling")
    p.add_argument("--fn", choices=rankers.RANKING_FUNCTION_IDS, default="ua", help="ranking function (default ua): "
                   f"rank, stability, utility; audit theorem takes {', '.join(rankers.AUDITED_FUNCTION_IDS)}")
    p.add_argument("--phi", type=float, help="mixture weight in [0, 1]: rank, stability, utility, audit theorem "
                   f"with --fn {fns['phi']}")
    p.add_argument("--samples", type=int, help="sample count: sampled audit theorem, audit nature, "
                   f"and rank, stability, utility with --fn {fns['samples']}")
    p.add_argument("--seed", type=int, help="RNG seed: the calls that read --samples")
    p.add_argument("--values", help="label values, comma-separated (default 1..L): utility, and rank, "
                   f"stability, audit theorem with --fn {fns['u']}")
    p.add_argument("--weights", default="dcg", help="position weights, 'dcg' or a file of one weight per line: "
                   "the calls that read --values")
    p.add_argument("--out", help="write the report to this file instead of stdout: every command")
    p.add_argument("--format", choices=("table", "structured"), default="table", help="every command")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uarank", description="Uncertainty-aware ranking distributions, "
                                     "stability metrics, and multigroup fairness audits.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = [_flag_parser()]
    for cmd, what in (("rank", "compute a ranking distribution for a prediction matrix"),
                      ("oracle", "brute-force UA ranking by label-vector enumeration"),
                      ("stability", "ranking deviation between two prediction matrices"),
                      ("utility", "raw and normalized utility of a ranking function")):
        p = sub.add_parser(cmd, parents=flags, help=what)
        p.add_argument("--in", dest="input", required=True, help="prediction matrix CSV")
        if cmd == "stability":
            p.add_argument("--in2", dest="input2", required=True, help="second prediction matrix CSV")
    p = sub.add_parser("audit", parents=flags, help="multigroup fairness audits over a population model")
    p.add_argument("mode", choices=("multiaccuracy", "multicalibration", "theorem", "nature"))
    p.add_argument("--model", required=True, help="population model JSON")
    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser `main` reuses for every call in this process, built on first use
    (not at import), and each flag's default.

    Reuse is safe: parsing does not change the parser, and argparse reads
    `sys.stdout`, `sys.stderr` and the terminal width when it prints, not when
    it is built."""
    return build_parser(), vars(_flag_parser().parse_args([]))


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
    return rankers.ua_rank_oracle(io_mod.load_prediction_matrix(args.input))


def _stability(args):
    P = io_mod.load_prediction_matrix(args.input)
    P2 = io_mod.load_prediction_matrix(args.input2)
    r = functools.partial(rankers.compute_ranking, args.fn, **_rank_params(args, P.n, P.L))
    rep = asdict(metrics_mod.stability_gap(r, P, P2))
    return "stability", rep, [(name, v) for name, v in rep.items() if v is not None]


def _utility(args):
    P = io_mod.load_prediction_matrix(args.input)
    u = io_mod.load_utility_spec(P.n, P.L, args.values, args.weights)
    M = rankers.compute_ranking(args.fn, P, **_rank_params(args, P.n, P.L, u=u))
    rep = asdict(metrics_mod.normalized_utility(P, M, u))
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
# --fn ids, handler).  Every command parses every flag; required and optional
# name the flags a mode reads besides its inputs, --fn, --out and --format.
# Where several --fn ids are accepted, --fn is read and its ranker adds its
# `rankers.RANKERS[fn].params`: `u` is read from --values and --weights, and
# phi, samples and seed are required flags.
_ANY, _AUDITED = rankers.RANKING_FUNCTION_IDS, rankers.AUDITED_FUNCTION_IDS
_MODES = {
    "rank": ((), (), _ANY, _rank),
    "oracle": ((), (), ("ua",), _oracle),
    "stability": ((), (), _ANY, _stability),
    "utility": ((), ("values", "weights"), _ANY, _utility),
    "multiaccuracy": ((), (), ("ua",), _multiaccuracy),
    "multicalibration": (("delta",), (), ("ua",), _multicalibration),
    "nature": (("n",), ("samples", "seed"), ("ua",), _nature),
    "exact theorem": (("n", "k", "group"), ("exact", "delta"), _AUDITED, _exact_theorem),
    "sampled theorem": (("n", "k", "group", "samples", "seed"), ("exact", "delta"), _AUDITED, _sampled_theorem),
}


def _check_flags(args, defaults: dict) -> tuple[str, set]:
    """Refuse a --fn the mode does not accept, then every given flag it does not
    read, then require each flag it needs, naming them; return the mode and every
    flag its result depends on: its `_MODES` row, plus --fn and the ranker's
    `params` when --fn picks one of several rankers.  A flag is given when its
    value differs from its default in `defaults`, `_parser()`'s second item."""
    mode = getattr(args, "mode", args.command)
    if mode == "theorem":  # --exact picks the mode, so both modes read it
        mode = f"{'exact' if args.exact else 'sampled'} theorem"
    required, optional, fns, _ = _MODES[mode]
    scope = f"{mode} audits" if args.command == "audit" else f"{mode} calls"
    if args.fn not in fns:
        raise ValidationError(f"{scope} do not read --fn {args.fn}; they take --fn {', '.join(fns)}")
    read = set(optional)
    if len(fns) > 1:
        params = rankers.RANKERS[args.fn].params
        required += tuple(p for p in params if p != "u")
        read |= {"fn", *(("values", "weights") if "u" in params else ())}
        scope += f" with --fn {args.fn}"
    read |= set(required)
    given = [dest for dest, default in defaults.items() if getattr(args, dest) != default]
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
    rows, each name padded to the longest name plus two spaces.  `--out` is UTF-8.
    A ranking is formatted and written in row blocks as `io.write_report` asks for them,
    from its order when it keeps one."""
    key, payload, rows = ("ranking", result, None) if isinstance(result, RankingDistribution) else result
    if args.format == "structured":
        parts = io_mod.structured_parts({"config": _echo_config(args, read), key: payload})
    elif rows is None:
        parts = io_mod.table_parts(payload)
    else:
        width = 2 + max(len(name) for name, _ in rows)
        parts = ["".join(f"{name:<{width}}{v if isinstance(v, bool) else format(v, '.12g')}\n" for name, v in rows)]
    io_mod.write_report(args.out, parts)


def main(argv=None) -> int:
    parser, defaults = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are validation failures here.
        return EXIT_OK if not exc.code else EXIT_VALIDATION
    try:
        mode, read = _check_flags(args, defaults)
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
