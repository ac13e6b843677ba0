"""Command-line front end.

Subcommands: ``eval``, ``check``, ``matrix``, ``example``, ``theorem``,
``search``.  Exit codes: 0 when every check passes (or the reproduction
matches, or the search finds nothing), 1 when a violation, mismatch, or
deviation is found, 2 on usage or configuration errors, 3 on an internal
error.

Every command reads the axiom and theorem lists of ``core``, all that
``--help`` loads, and imports the rest of what it runs, its module in
``_COMMANDS``, and nothing more: ``eval`` runs on ``rules``; ``check``,
``matrix`` and ``theorem`` on the checkers in ``axioms``, which import
``rules`` and ``edges``; ``example`` on ``analysis`` as well; and ``search``
on ``search`` alone, so it never loads ``rules``, ``axioms`` or ``analysis``.
"""

from __future__ import annotations

import itertools
import os
import sys
from typing import TYPE_CHECKING, Sequence

from .core import AXIOMS, THEOREM_AXIOMS, THEOREM_M, DomainIndex, ParseError, parse_profile

if TYPE_CHECKING:
    import argparse

    from .rules import Correspondence

DEFAULT_MAX_DOMAIN = 2_000_000


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
    import argparse

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
    p.add_argument("--rules", default=None)  # None: the catalog
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
    p.add_argument("--n", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("search", help="search for rules beating an axiom set")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--axioms", required=True)
    p.add_argument("--mode", choices=("single", "orbit"), default="single")
    p.add_argument("--budget", type=int, default=1_000_000)
    _add_common(p, workers=False)

    return parser


def _names(text: str, kind: str, option: str) -> tuple[str, ...]:
    """The comma-separated names of ``option``: none, or one given twice, is a usage error."""
    names = tuple(a.strip() for a in text.split(",") if a.strip())
    if not names:
        raise ConfigError(f"no {kind}s given")
    for i, a in enumerate(names):
        if a in names[:i]:
            raise ConfigError(f"the {kind} {a!r} is repeated in {option}")
    return names


def _parse_axioms(text: str) -> tuple[str, ...]:
    if text.strip() == "all":
        return AXIOMS
    names = _names(text, "axiom", "--axioms")
    unknown = [a for a in names if a not in AXIOMS]
    if unknown:
        raise ConfigError(f"unknown axioms: {', '.join(unknown)} "
                          f"(choose from {', '.join(AXIOMS)})")
    return names


def _load_rule(args, m: int | None, n: int | None) -> Correspondence:
    from .rules import load_table, make_rule

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


def _guard_domain(d: DomainIndex, cap: int) -> None:
    if d.total > cap:
        raise ConfigError(f"domain has {d.total} profiles, above the --max-domain cap {cap}")


def _emit(args, payload: dict, text: str) -> None:
    try:
        if args.format == "json":
            import json

            chunks = json.JSONEncoder(indent=2).iterencode(payload)  # written in runs, never whole
            while run := "".join(itertools.islice(chunks, 1 << 14)):
                sys.stdout.write(run)
            sys.stdout.write("\n")
        else:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the command's exit code stands, and what
        # is left in the buffer is flushed at exit into nothing
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _cmd_eval(args) -> int:
    from .rules import make_rule

    profile = None
    if args.table or (args.rule or "").startswith("example:"):
        rule = _load_rule(args, None, None)
        try:
            profile = parse_profile(args.profile, rule.universe)
            if profile.n != rule.n:
                raise ConfigError(f"rule {rule.name!r} has n={rule.n}, "
                                  f"profile has {profile.n} individuals")
        except (ParseError, ConfigError):
            if args.table:
                raise
            profile = None  # examples with free sizes adapt to the profile's universe
    if profile is None:
        if not args.rule:
            raise ConfigError("one of --rule or --table is required")
        profile = parse_profile(args.profile)
        rule = make_rule(args.rule, profile.m, profile.n, labels=profile.universe.labels)
    chosen = rule.choose(profile)
    _emit(args, {"rule": rule.name, "profile": str(profile), "chosen": list(chosen)},
          " ".join(chosen))
    return 0


def _cmd_check(args) -> int:
    from .axioms import check_axioms

    rule = _load_rule(args, args.m, args.n)
    axioms = _parse_axioms(args.axioms)
    d = DomainIndex(rule.m, rule.n, rule.universe.labels)
    _guard_domain(d, args.max_domain)
    reports = check_axioms(rule, d, axioms, workers=args.workers)
    payload = {"rule": rule.name, "m": rule.m, "n": rule.n,
               "reports": [r.to_json() for r in reports]}
    _emit(args, payload, "\n".join(r.summary() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_matrix(args) -> int:
    from .axioms import axiom_matrix
    from .rules import RULE_CATALOG, make_rule

    names = _names(",".join(RULE_CATALOG) if args.rules is None else args.rules,
                   "rule", "--rules")
    axioms = _parse_axioms(args.axioms)
    d = DomainIndex(args.m, args.n)
    _guard_domain(d, args.max_domain)
    rules = [make_rule(name, args.m, args.n) for name in names]
    result = axiom_matrix(rules, axioms, d, workers=args.workers)
    width = max(len(r) for r in result.rules) + 2
    lines = [" " * width + " ".join(f"{a:>17}" for a in axioms)]
    notes = []
    for rule_name in result.rules:
        cells = []
        for a in axioms:
            rep = result.reports[rule_name][a]
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
    from .rules import EXAMPLES

    # example k's entries are reproduced at their claim sizes, or at --n when n is free
    for entry in (e for name, e in EXAMPLES.items() if name.split("-")[0] == f"example:{args.k}"):
        m, n = entry.claim_size
        _guard_domain(DomainIndex(m, n if args.n is None or "n" not in entry.free else args.n),
                      args.max_domain)
    report = reproduce_example(args.k, n=args.n, workers=args.workers)
    text = "\n".join(
        f"{'ok  ' if c.passed else 'FAIL'} {c.name}" + (f" [{c.detail}]" if c.detail else "")
        for c in report.checks
    )
    _emit(args, report.to_json(), text)
    return 0 if report.ok else 1


def _cmd_theorem(args) -> int:
    from .axioms import CONSISTENT_EQUAL, verify_theorem
    from .rules import EXAMPLES

    m, n = args.m, args.n
    if not args.table:  # a table file gives its own sizes
        m = m if m is not None else THEOREM_M[args.k][0]
        # n = 2, but an example whose n is fixed or free only from 3 takes its own
        entry = EXAMPLES.get(args.rule)
        if n is None and (entry is None or ("n" in entry.free and entry.least[1] <= 2)):
            n = 2
    rule = _load_rule(args, m, n)
    d = DomainIndex(rule.m, rule.n, rule.universe.labels)
    _guard_domain(d, args.max_domain)
    result = verify_theorem(args.k, rule, d, workers=args.workers)
    lines = [f"theorem {args.k} ({', '.join(THEOREM_AXIOMS[args.k])}) for {rule.name} "
             f"at m={rule.m}, n={rule.n}: {result.verdict}"]
    if result.failing_axiom:
        lines.append("failing axiom: " + result.failing_axiom)
        lines.append(result.reports[-1].summary())
    _emit(args, result.to_json(), "\n".join(lines))
    return 0 if result.verdict == CONSISTENT_EQUAL else 1


def _cmd_search(args) -> int:
    from .search import perturbation_search

    axioms = _parse_axioms(args.axioms)
    d = DomainIndex(args.m, args.n)
    _guard_domain(d, args.max_domain)
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


#: Each command's handler, and the package module it runs with the modules
#: that one imports.  ``main`` imports the module before argparse and json
#: load: compiled after the parser is built, the modules left a fresh
#: process's peak RSS higher, by 0.7 MB on ``theorem 4`` at (5,3) and 0.4 MB
#: on ``check --axioms all`` (medians of 7 runs, 2 shared vCPUs).
_COMMANDS = {
    "eval": (_cmd_eval, "rules"),
    "check": (_cmd_check, "axioms"),
    "matrix": (_cmd_matrix, "axioms"),
    "example": (_cmd_example, "analysis"),
    "theorem": (_cmd_theorem, "axioms"),
    "search": (_cmd_search, "search"),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        __import__(f"{__package__}.{_COMMANDS[argv[0]][1]}")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](args)
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
