"""Workloads of the paretocheck benchmark.

Each workload is a fixed list of ``paretocheck`` CLI commands.  This module
builds those lists (and the seeded table file of the ``theorem`` workload),
the set-up snippet that every fresh process of a workload pays, the
in-process library replay used by the traced run, and the correctness gate.

The gate's expected answers are written here by hand from the documented
claims and the rule definitions; nothing is read from the program under
test except the pinned output digests in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Hand copy of the documented axiom list (README).
AXIOMS = ("pareto", "tops-in", "balancedness", "monotonicity",
          "weak-monotonicity", "strong-stability", "anonymity", "neutrality")

# First failing theorem-4 axiom per rule (None: consistent-equal, exit 0).
# Catalog claims: tops fails balancedness; borda and plurality fail tops-in;
# all fails pareto; example:9 and example:8-neutral fail strong-stability
# after passing the four axioms before it.  From the rule definitions:
# copeland chooses only the Condorcet winner when there is one, not every top
# (tops-in); dictator:1 chooses one top where three differ (tops-in);
# example:9-unrestricted chooses only the tops on the profiles over its
# ordering pool, so raising an undominated non-top alternative into the
# pool drops it (weak-monotonicity; that balancedness holds before it was
# confirmed once against the seed).
THEOREM_FIRST_FAILURE = {
    "pareto": None,
    "tops": "balancedness",
    "borda": "tops-in",
    "plurality": "tops-in",
    "copeland": "tops-in",
    "dictator:1": "tops-in",
    "all": "pareto",
    "example:9": "strong-stability",
    "example:9-unrestricted": "weak-monotonicity",
    "example:8-neutral": "strong-stability",
}
# A random table with tops <= S < pareto passes pareto and tops-in by
# construction, so theorem 4 must reject it at one of the later axioms.
TABLE_FAILURES = ("balancedness", "weak-monotonicity", "strong-stability")

SINGLE_44_DEVIATIONS = 2472          # search --mode single at (4,4), three axioms
ORBIT_52_MEMBER = ("abdce|cedab", ["a", "c"])  # the one weak-monotonicity orbit deviation

TABLE_OVERRIDES = 300                # profiles overridden in the seeded table


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``cid`` names it in digests, records and errors."""

    cid: str
    kind: str                        # "check" | "theorem" | "search"
    m: int
    n: int
    rule: str | None = None          # catalog rule; None with ``table``
    table: str | None = None         # table file, relative to the checkout root
    workers: int = 1
    axioms: tuple[str, ...] = ()
    mode: str | None = None

    @property
    def argv(self) -> list[str]:
        size = ["--m", str(self.m), "--n", str(self.n)]
        if self.kind == "check":
            return ["check", "--rule", self.rule, "--axioms", "all", *size,
                    "--workers", str(self.workers), "--format", "json"]
        if self.kind == "theorem":
            source = ["--table", self.table] if self.table else ["--rule", self.rule]
            return ["theorem", "4", *source, *size, "--format", "json"]
        return ["search", *size, "--axioms", ",".join(self.axioms),
                "--mode", self.mode, "--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


WORKLOADS = ("sweep", "theorem", "search")


def build(name: str, seed: int, work_dir: Path, root: Path) -> Workload:
    """The command list of one workload; writes the seeded inputs it needs."""
    if name == "sweep":
        return Workload(name, (
            Command("check-pareto-5x3-w1", "check", 5, 3, rule="pareto", workers=1),
            Command("check-pareto-5x3-w2", "check", 5, 3, rule="pareto", workers=2),
            Command("check-pareto-6x2-w1", "check", 6, 2, rule="pareto", workers=1),
        ))
    if name == "theorem":
        table = work_dir / f"table-seed{seed}.json"
        table.write_text(json.dumps(random_table(seed), indent=1), encoding="utf-8")
        cmds = [Command(f"theorem-{r}", "theorem", 5, 3, rule=r)
                for r in ("pareto", "tops", "borda", "plurality", "copeland", "dictator:1", "all")]
        cmds += [Command("theorem-example:9", "theorem", 5, 3, rule="example:9"),
                 Command("theorem-example:9-unrestricted", "theorem", 5, 3,
                         rule="example:9-unrestricted"),
                 Command("theorem-example:8-neutral", "theorem", 5, 2, rule="example:8-neutral"),
                 Command("theorem-table", "theorem", 5, 3,
                         table=str(table.relative_to(root)))]
        return Workload(name, tuple(cmds))
    if name == "search":
        three = ("pareto", "tops-in", "balancedness")
        weak = three + ("weak-monotonicity",)
        return Workload(name, (
            Command("search-single-4x4", "search", 4, 4, axioms=three, mode="single"),
            Command("search-orbit-5x2-weak", "search", 5, 2, axioms=weak, mode="orbit"),
            Command("search-orbit-5x2-five", "search", 5, 2,
                    axioms=weak + ("strong-stability",), mode="orbit"),
        ))
    raise ValueError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")


# ---------------------------------------------------------------------------
# Seeded random table.  Dominance and tops are computed here from their
# definitions, independently of the package.


def _pareto_mask(orderings: tuple[tuple[int, ...], ...], m: int) -> int:
    mask = 0
    for y in range(m):
        dominated = any(all(r.index(x) < r.index(y) for r in orderings)
                        for x in range(m) if x != y)
        if not dominated:
            mask |= 1 << y
    return mask


def _tops_mask(orderings: tuple[tuple[int, ...], ...]) -> int:
    mask = 0
    for r in orderings:
        mask |= 1 << r[0]
    return mask


def random_table(seed: int, m: int = 5, n: int = 3, count: int = TABLE_OVERRIDES) -> dict:
    """A table correspondence at (m, n) overriding ``count`` random profiles
    with a random S, tops <= S < pareto."""
    rng = random.Random(seed)
    labels = "abcdefgh"[:m]
    overrides: dict[str, list[str]] = {}
    while len(overrides) < count:
        u = tuple(tuple(rng.sample(range(m), m)) for _ in range(n))
        text = "|".join("".join(labels[a] for a in r) for r in u)
        tops, pareto = _tops_mask(u), _pareto_mask(u, m)
        free = [x for x in range(m) if (pareto & ~tops) >> x & 1]
        if not free or text in overrides:
            continue
        while True:
            chosen = tops
            for x in free:
                if rng.random() < 0.5:
                    chosen |= 1 << x
            if chosen != pareto:
                break
        overrides[text] = [labels[x] for x in range(m) if chosen >> x & 1]
    return {"m": m, "n": n, "labels": labels, "default": "pareto",
            "overrides": dict(sorted(overrides.items()))}


# ---------------------------------------------------------------------------
# Set-up snippet and library replay


def setup_code(wl: Workload) -> str:
    """Python source that imports the package and builds every DomainIndex
    and rule object of the workload, forcing no whole-domain table."""
    lines = ["import paretocheck as pc"]
    for c in wl.commands:
        if c.kind == "search":
            line = f"pc.DomainIndex({c.m}, {c.n})"
        elif c.table:
            line = (f"G = pc.load_table(open({c.table!r}, encoding='utf-8').read()); "
                    "pc.DomainIndex(G.m, G.n, G.universe.labels)")
        else:
            line = (f"G = pc.make_rule({c.rule!r}, {c.m}, {c.n}); "
                    "pc.DomainIndex(G.m, G.n, G.universe.labels)")
        if line not in lines:
            lines.append(line)
    return "\n".join(lines)


def load_rule(c: Command, root: Path):
    """The rule object of a check or theorem command, built as the CLI does."""
    from paretocheck import rules

    if c.table:
        return rules.load_table((root / c.table).read_text(encoding="utf-8"))
    return rules.make_rule(c.rule, c.m, c.n)


def replay(c: Command, root: Path):
    """The library calls one CLI command makes, without argument parsing or
    output.  A failing theorem also replays its witness, so the traced run
    checks it.  Module attributes are looked up at call time, so a tracer's
    wrappers apply."""
    from paretocheck import analysis, axioms, core

    if c.kind == "search":
        return analysis.perturbation_search(core.DomainIndex(c.m, c.n), c.axioms, mode=c.mode)
    G = load_rule(c, root)
    d = core.DomainIndex(G.m, G.n, G.universe.labels)
    if c.kind == "check":
        return [axioms.check_axiom(a, G, d, workers=c.workers) for a in AXIOMS]
    result = analysis.verify_theorem(4, G, d)
    replayed = None
    if result.failing_axiom is not None:
        replayed = axioms.replay_witness(G, d, result.reports[-1])
    return result, replayed


def replay_failing_witness(c: Command, root: Path, axiom: str) -> bool:
    """Rebuild the canonical witness of ``axiom`` for a theorem command's
    rule and replay it from scratch (untimed gate of the untraced run)."""
    from paretocheck import DomainIndex, check_axiom, replay_witness

    G = load_rule(c, root)
    d = DomainIndex(G.m, G.n, G.universe.labels)
    report = check_axiom(axiom, G, d)
    return not report.passed and replay_witness(G, d, report)


def single_candidates(c: Command) -> int:
    """Candidate count of a single-mode search: the sum over profiles of
    2**|pareto - tops| - 1, from the public whole-domain tables."""
    import numpy as np
    from paretocheck import DomainIndex

    d = DomainIndex(c.m, c.n)
    extra = d.pareto_table & ~d.tops_table
    bits = np.zeros(d.total, dtype=np.int64)
    for x in range(c.m):
        bits += (extra >> x) & 1
    return int(((1 << bits) - 1).sum())


# ---------------------------------------------------------------------------
# Correctness gate


def load_digests() -> dict[str, str]:
    return json.loads((HERE / "digests.json").read_text(encoding="utf-8"))


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def check_output(c: Command, rc: int, stdout: bytes, digests: dict[str, str]) -> list[str]:
    """Errors in one command's exit code and JSON output; [] when correct."""
    try:
        out = json.loads(stdout)
    except ValueError:
        out = None
    if not isinstance(out, dict):
        return [f"{c.cid}: output is not a JSON object (exit {rc})"]
    if c.kind == "check":
        want_rc, errors = 0, _check_sweep(c, out)
    elif c.kind == "theorem":
        want_rc, errors = _check_theorem(c, out)
    else:
        want_rc, errors = _check_search(c, out)
    if rc != want_rc:
        errors.append(f"{c.cid}: exit {rc}, expected {want_rc}")
    pinned = digests.get(c.cid)
    if c.table is None and pinned != digest(stdout):
        errors.append(f"{c.cid}: output digest {digest(stdout)} != pinned {pinned}")
    return errors


def _check_sweep(c: Command, out: dict) -> list[str]:
    total = math.factorial(c.m) ** c.n
    want = [{"axiom": a, "verdict": "pass", "witness": None, "profiles_scanned": total}
            for a in AXIOMS]
    if out != {"rule": c.rule, "m": c.m, "n": c.n, "reports": want}:
        return [f"{c.cid}: not every axiom passes over all {total} profiles"]
    return []


def _check_theorem(c: Command, out: dict) -> tuple[int, list[str]]:
    failing = out.get("failing_axiom")
    if c.table:
        allowed, rule = TABLE_FAILURES, "table"
    else:
        allowed, rule = (THEOREM_FIRST_FAILURE[c.rule],), c.rule
    counterexample = allowed != (None,)
    want = {"theorem": 4,
            "verdict": "consistent-counterexample" if counterexample else "consistent-equal",
            "failing_axiom": failing, "deviations": [], "rule": rule, "m": c.m, "n": c.n}
    errors = []
    if failing not in allowed or out != want:
        errors.append(f"{c.cid}: got {out.get('verdict')} failing at {failing}")
    return (1 if counterexample else 0), errors


def _check_search(c: Command, out: dict) -> tuple[int, list[str]]:
    devs = out.get("deviations", [])
    head = {"theorem": None, "failing_axiom": None, "m": c.m, "n": c.n,
            "axioms": list(c.axioms), "mode": c.mode}
    errors = [f"{c.cid}: field {k} is {out.get(k)!r}"
              for k, v in head.items() if out.get(k) != v]
    if c.mode == "single":
        want_count = SINGLE_44_DEVIATIONS
        labels = "abcdefgh"[:c.m]
        for dev in devs:
            if not _single_deviation_ok(dev, labels):
                errors.append(f"{c.cid}: deviation {dev} is not tops <= S < pareto")
                break
    elif "strong-stability" in c.axioms:
        want_count = 0
    else:
        want_count = 1
        text, chosen = ORBIT_52_MEMBER
        members = dict(zip(devs[0]["profiles"], devs[0]["choice_sets"])) if devs else {}
        if members.get(text) != chosen:
            errors.append(f"{c.cid}: {text} maps to {members.get(text)}, expected {chosen}")
    if len(devs) != want_count:
        errors.append(f"{c.cid}: {len(devs)} deviations, expected {want_count}")
    verdict = "deviations-found" if want_count else "none-found"
    if out.get("verdict") != verdict:
        errors.append(f"{c.cid}: verdict {out.get('verdict')}, expected {verdict}")
    return (1 if want_count else 0), errors


def _single_deviation_ok(dev: dict, labels: str) -> bool:
    if len(dev["profiles"]) != 1 or len(dev["choice_sets"]) != 1:
        return False
    u = tuple(tuple(labels.index(a) for a in r) for r in dev["profiles"][0].split("|"))
    chosen = 0
    for a in dev["choice_sets"][0]:
        chosen |= 1 << labels.index(a)
    tops, pareto = _tops_mask(u), _pareto_mask(u, len(labels))
    return chosen & tops == tops and chosen & ~pareto == 0 and chosen != pareto


def cross_checks(wl: Workload, outputs: dict[str, bytes]) -> list[str]:
    """Checks across the commands of one pass: sweep JSON is byte-identical
    for --workers 1 and 2."""
    if wl.name != "sweep":
        return []
    one, two = outputs.get("check-pareto-5x3-w1"), outputs.get("check-pareto-5x3-w2")
    if one != two:
        return ["check-pareto-5x3: JSON differs between --workers 1 and 2"]
    return []

