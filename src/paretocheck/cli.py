"""Command-line front end.

Subcommands: ``eval``, ``check``, ``matrix``, ``example``, ``theorem``,
``search``.  Exit codes: 0 when every check passes (or the reproduction
matches, or the search finds nothing), 1 when a violation, mismatch, or
deviation is found, 2 on usage or configuration errors, 3 on an internal
error.  The search and example commands import ``analysis`` when they run,
so the other commands, ``theorem`` among them, never load it.
"""

from __future__ import annotations

# numpy and the package modules load ahead of argparse: in this order a
# process's peak RSS is about 0.3 MB lower
from .core import DomainIndex, ParseError, parse_profile
from .rules import Correspondence, load_table, make_rule
from .axioms import (AXIOMS, CONSISTENT_EQUAL, THEOREM_AXIOMS, THEOREM_M, axiom_matrix,
                     check_axioms, verify_theorem)

import argparse
import json
import math
import sys
from typing import Sequence

DEFAULT_MAX_DOMAIN = 2_000_000
DEFAULT_MATRIX_RULES = "pareto,tops,borda,plurality,copeland,dictator:1,all"


class ConfigError(Exception):
    pass


def _add_common(p: argparse.ArgumentParser, *, workers: bool = True) -> None:
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--max-domain", type=int, default=DEFAULT_MAX_DOMAIN,
                   help="refuse sweeps over more profiles than this")
    if workers:
        p.add_argument("--workers", type=int, default=1,
                       help="parallel sweep workers; output is identical for any count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretocheck",
        description="Axiom checking for social choice correspondences on strict-preference profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a rule at one profile")
    p.add_argument("--rule", default=None, help="catalog rule name, e.g. pareto or example:8")
    p.add_argument("--table", default=None, help="JSON table-correspondence file")
    p.add_argument("--profile", required=True, help='profile text, e.g. "xyz|yzx|zxy"')
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("check", help="check axioms for one rule over a full domain")
    p.add_argument("--rule", default=None)
    p.add_argument("--table", default=None)
    p.add_argument("--axioms", default="all", help="comma-separated axiom names, or 'all'")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("matrix", help="axiom grid over several rules")
    p.add_argument("--rules", default=DEFAULT_MATRIX_RULES)
    p.add_argument("--axioms", default="all")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("example", help="reproduce one catalog example end to end")
    p.add_argument("k", type=int)
    p.add_argument("--n", type=int, default=None,
                   help="individuals, for the examples whose n is free")
    _add_common(p)

    p = sub.add_parser("theorem", help="run one characterization level empirically")
    p.add_argument("k", type=int, choices=tuple(THEOREM_AXIOMS))
    p.add_argument("--rule", default="pareto")
    p.add_argument("--table", default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=2)
    _add_common(p)

    p = sub.add_parser("search", help="search for rules beating an axiom set")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--axioms", required=True)
    p.add_argument("--mode", choices=("single", "orbit"), default="single")
    p.add_argument("--budget", type=int, default=1_000_000)
    _add_common(p, workers=False)

    return parser


def _parse_axioms(text: str) -> tuple[str, ...]:
    if text.strip() == "all":
        return AXIOMS
    names = tuple(a.strip() for a in text.split(",") if a.strip())
    unknown = [a for a in names if a not in AXIOMS]
    if unknown:
        raise ConfigError(f"unknown axioms: {', '.join(unknown)} "
                          f"(choose from {', '.join(AXIOMS)})")
    if not names:
        raise ConfigError("no axioms given")
    return names


def _load_rule(args, m: int | None, n: int | None) -> Correspondence:
    if args.table:
        with open(args.table, "r", encoding="utf-8") as fh:
            rule = load_table(fh.read())
    elif args.rule:
        if args.rule.startswith("example:"):
            rule = make_rule(args.rule, m, n)
        else:
            rule = make_rule(args.rule, m if m is not None else 3, n if n is not None else 3)
    else:
        raise ConfigError("one of --rule or --table is required")
    if m is not None and rule.m != m:
        raise ConfigError(f"rule {rule.name!r} has m={rule.m}, got --m {m}")
    if n is not None and rule.n != n:
        raise ConfigError(f"rule {rule.name!r} has n={rule.n}, got --n {n}")
    return rule


def _guard_domain(m: int, n: int, cap: int) -> None:
    total = math.factorial(m) ** n
    if total > cap:
        raise ConfigError(f"domain has {total} profiles, above the --max-domain cap {cap}")


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _cmd_eval(args) -> int:
    if args.table:
        rule = _load_rule(args, None, None)
        profile = parse_profile(args.profile, rule.universe)
        if profile.n != rule.n:
            raise ConfigError(f"rule {rule.name!r} has n={rule.n}, "
                              f"profile has {profile.n} individuals")
    elif (args.rule or "").startswith("example:"):
        rule = _load_rule(args, None, None)
        try:
            profile = parse_profile(args.profile, rule.universe)
            if profile.n != rule.n:
                raise ConfigError(f"rule {rule.name!r} has n={rule.n}, "
                                  f"profile has {profile.n} individuals")
        except (ParseError, ConfigError):
            # examples with free sizes adapt to the profile's universe
            profile = parse_profile(args.profile)
            rule = make_rule(args.rule, profile.m, profile.n,
                             labels=profile.universe.labels)
    else:
        if not args.rule:
            raise ConfigError("one of --rule or --table is required")
        profile = parse_profile(args.profile)
        rule = make_rule(args.rule, profile.m, profile.n, labels=profile.universe.labels)
    chosen = rule.choose(profile)
    _emit(args, {"rule": rule.name, "profile": str(profile), "chosen": list(chosen.labels)},
          " ".join(chosen.labels))
    return 0


def _cmd_check(args) -> int:
    rule = _load_rule(args, args.m, args.n)
    axioms = _parse_axioms(args.axioms)
    _guard_domain(rule.m, rule.n, args.max_domain)
    d = DomainIndex(rule.m, rule.n, rule.universe.labels)
    reports = check_axioms(rule, d, axioms, workers=args.workers)
    payload = {"rule": rule.name, "m": rule.m, "n": rule.n,
               "reports": [r.to_json() for r in reports]}
    _emit(args, payload, "\n".join(r.summary() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_matrix(args) -> int:
    names = [r.strip() for r in args.rules.split(",") if r.strip()]
    if not names:
        raise ConfigError("no rules given")
    axioms = _parse_axioms(args.axioms)
    _guard_domain(args.m, args.n, args.max_domain)
    d = DomainIndex(args.m, args.n)
    rules = [make_rule(name, args.m, args.n) for name in names]
    result = axiom_matrix(rules, axioms, d, workers=args.workers)
    width = max(len(r) for r in result.rules) + 2
    lines = [" " * width + " ".join(f"{a:>17}" for a in axioms)]
    notes = []
    for rule_name in result.rules:
        cells = []
        for a in axioms:
            rep = result.report(rule_name, a)
            if rep.passed:
                cells.append(f"{'✓':>17}")
            else:
                notes.append(f"[{len(notes) + 1}] {rule_name}/{rep.summary()}")
                cells.append(f"{'✗[' + str(len(notes)) + ']':>17}")
        lines.append(f"{rule_name:<{width}}" + " ".join(cells))
    _emit(args, result.to_json(), "\n".join(lines + notes))
    return 0 if result.all_pass else 1


def _cmd_example(args) -> int:
    from .analysis import reproduce_example

    report = reproduce_example(args.k, n=args.n, workers=args.workers)
    text = "\n".join(
        f"{'ok  ' if c.passed else 'FAIL'} {c.name}" + (f" [{c.detail}]" if c.detail else "")
        for c in report.checks
    )
    _emit(args, report.to_json(), text)
    return 0 if report.ok else 1


def _cmd_theorem(args) -> int:
    m = args.m if args.m is not None else THEOREM_M[args.k][0]
    rule = _load_rule(args, m, args.n)
    _guard_domain(rule.m, rule.n, args.max_domain)
    d = DomainIndex(rule.m, rule.n, rule.universe.labels)
    result = verify_theorem(args.k, rule, d, workers=args.workers)
    lines = [f"theorem {args.k} ({', '.join(THEOREM_AXIOMS[args.k])}) for {rule.name} "
             f"at m={rule.m}, n={rule.n}: {result.verdict}"]
    if result.failing_axiom:
        lines.append("failing axiom: " + result.failing_axiom)
        lines.append(result.reports[-1].summary())
    _emit(args, result.to_json(), "\n".join(lines))
    return 0 if result.verdict == CONSISTENT_EQUAL else 1


def _cmd_search(args) -> int:
    from .analysis import perturbation_search

    axioms = _parse_axioms(args.axioms)
    _guard_domain(args.m, args.n, args.max_domain)
    d = DomainIndex(args.m, args.n)
    deviations = perturbation_search(d, axioms, mode=args.mode, budget=args.budget)
    payload = {
        "theorem": None,
        "verdict": "deviations-found" if deviations else "none-found",
        "failing_axiom": None,
        "deviations": [dev.to_json() for dev in deviations],
        "m": args.m,
        "n": args.n,
        "axioms": list(axioms),
        "mode": args.mode,
    }
    if deviations:
        lines = [f"{len(deviations)} deviation(s) satisfy {{{', '.join(axioms)}}}"]
        for dev in deviations[:20]:
            sets = ", ".join("{" + "".join(cs) + "}" for cs in dev.choice_sets[:4])
            more = " ..." if len(dev.profiles) > 4 else ""
            lines.append(f"  {dev.profiles[0]} -> {sets}{more} ({len(dev.profiles)} profile(s))")
        if len(deviations) > 20:
            lines.append(f"  ... and {len(deviations) - 20} more")
    else:
        lines = [f"no deviation within budget satisfies {{{', '.join(axioms)}}}"]
    _emit(args, payload, "\n".join(lines))
    return 1 if deviations else 0


_HANDLERS = {
    "eval": _cmd_eval,
    "check": _cmd_check,
    "matrix": _cmd_matrix,
    "example": _cmd_example,
    "theorem": _cmd_theorem,
    "search": _cmd_search,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a crash must not read as exit 1, "a violation was found"
        import traceback

        print("error: internal error", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
