"""Span tracer for the traced run of the paretocheck benchmark.

The tracer wraps the package's public calls from outside, for the duration
of an ``installed()`` block: the ``DomainIndex`` table properties (spans only
on the first access, which builds the table), ``Correspondence.value_table``,
``check_axiom``, ``replay_witness``, ``verify_theorem`` and
``perturbation_search``.  ``cli.main`` spans are opened by the caller.

A span holds an id, name, start, end, parent id and a few attributes.  Spans
stay in memory and are written out when the run ends.  The parent of a span
opened on a sweep worker thread is the innermost span open on the main
thread, so per-layer self times never count a worker's time twice.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property, wraps

from workloads import AXIOMS

CORE_TABLES = ("orderings", "_ordering_index", "ordering_table", "rank_table",
               "above_table", "swap_table", "top_table", "adjacent_relabel_table",
               "adjacent_relabel_masks", "pareto_table", "tops_table")
VALUE_TABLE_RULES = ("copeland", "borda", "plurality", "dictator", "table")
LAYERS = ("core", "rules", "axioms", "analysis")
THEOREM_RULES = ("pareto", "tops", "borda", "plurality", "copeland", "dictator-1", "all",
                 "example-9", "example-9-unrestricted", "example-8-neutral", "table")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._built: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        outer = stack or self._main_stack
        rec = {"id": next(self._ids), "name": name,
               "parent": outer[-1]["id"] if outer else None, "phase": self.phase, **attrs}
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    # -- wrappers ------------------------------------------------------------

    def _table(self, func, name):
        @wraps(func)
        def build(d):
            with self.span("core." + name, m=d.m, n=d.n) as rec:
                out = func(d)
                rec["nbytes"] = int(getattr(out, "nbytes", 0))
            return out
        return build

    def _relabel_action(self, func):
        @wraps(func)
        def relabel_action(d, theta):
            with self.span("core.relabel_action", m=d.m, n=d.n):
                return func(d, theta)
        return relabel_action

    def _value_table(self, func):
        @wraps(func)
        def value_table(G, d):
            key = (d.m, d.n, d.universe.labels)
            built = self._built.setdefault(G, set())
            build = key not in built
            built.add(key)
            rule = "table" if G.overrides else G.default.split(":")[0]
            with self.span("rules.value_table", rule=rule, build=build,
                           overrides=len(G.overrides) if build else 0):
                return func(G, d)
        return value_table

    def _check_axiom(self, func):
        @wraps(func)
        def check_axiom(axiom, G, d, *, workers=1):
            with self.span("axioms.check_axiom", axiom=axiom, workers=workers,
                           m=d.m, n=d.n) as rec:
                rep = func(axiom, G, d, workers=workers)
                rec["passed"] = rep.passed
                rec["profiles_scanned"] = rep.profiles_scanned
            return rep
        return check_axiom

    def _replay_witness(self, func):
        @wraps(func)
        def replay_witness(G, d, report):
            with self.span("axioms.replay_witness", axiom=report.axiom) as rec:
                rec["ok"] = func(G, d, report)
            return rec["ok"]
        return replay_witness

    def _verify_theorem(self, func):
        @wraps(func)
        def verify_theorem(k, G, d, *, workers=1):
            with self.span("analysis.verify_theorem", rule=G.name, m=d.m, n=d.n):
                return func(k, G, d, workers=workers)
        return verify_theorem

    def _perturbation_search(self, func):
        @wraps(func)
        def perturbation_search(d, axioms, *, mode="single", budget=1_000_000):
            with self.span("analysis.perturbation_search", mode=mode, m=d.m, n=d.n) as rec:
                found = func(d, axioms, mode=mode, budget=budget)
                rec["deviations"] = len(found)
            return found
        return perturbation_search

    @contextmanager
    def installed(self):
        """Replace the public calls by traced wrappers; restore them on exit."""
        import paretocheck
        from paretocheck import analysis, axioms, cli, core, rules

        saved: list[tuple[object, str, object]] = []

        def put(owner, name, value):
            saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

        for name in CORE_TABLES:
            prop = cached_property(self._table(vars(core.DomainIndex)[name].func, name))
            prop.__set_name__(core.DomainIndex, name)
            put(core.DomainIndex, name, prop)
        put(core.DomainIndex, "relabel_action",
            self._relabel_action(core.DomainIndex.relabel_action))
        put(rules.Correspondence, "value_table",
            self._value_table(rules.Correspondence.value_table))
        for attr, wrap in (("check_axiom", self._check_axiom),
                           ("replay_witness", self._replay_witness),
                           ("verify_theorem", self._verify_theorem),
                           ("perturbation_search", self._perturbation_search)):
            traced = wrap(getattr(paretocheck, attr))
            for module in (paretocheck, axioms, analysis, cli):
                if attr in vars(module):
                    put(module, attr, traced)
        try:
            yield self
        finally:
            for owner, name, value in reversed(saved):
                setattr(owner, name, value)


# ---------------------------------------------------------------------------
# Per-layer metrics


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the durations of its child spans."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def layer_metrics(spans: list[dict], *, library_s: float, untraced_s: float,
                  cli_s: float, cli_json_bytes: int, single_candidates: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and the accounting of the traced
    library time by layer.

    Layer times are self times of library-phase spans.  ``analysis.theorem_s``
    and ``analysis.search_s`` are inclusive times of their calls, since they
    cover a whole command.
    """
    lib = [s for s in spans if s["phase"] == "library"]
    own = self_times(lib)
    metrics: dict[str, float] = {}

    def total(pred, among: list[dict] = lib) -> float:
        return sum((own[s["id"]] for s in among if pred(s)), 0.0)

    checks = [s for s in lib if s["name"] == "axioms.check_axiom"]
    both = ({(s["m"], s["n"]) for s in checks if s["workers"] == 1}
            & {(s["m"], s["n"]) for s in checks if s["workers"] == 2})

    for a in AXIOMS:
        for w in (1, 2):
            metrics[f"axioms.check_s.{a}.w{w}"] = total(
                lambda s: s["axiom"] == a and s["workers"] == w, checks)
        busy = metrics[f"axioms.check_s.{a}.w1"]
        scanned = sum(s["profiles_scanned"] for s in checks
                      if s["axiom"] == a and s["workers"] == 1)
        metrics[f"axioms.profiles_per_s.{a}"] = scanned / busy if busy else 0.0
    w1 = total(lambda s: s["workers"] == 1 and (s["m"], s["n"]) in both, checks)
    w2 = total(lambda s: s["workers"] == 2 and (s["m"], s["n"]) in both, checks)
    metrics["axioms.speedup_w2"] = w1 / w2 if w2 else 0.0
    metrics["axioms.fail_s"] = total(lambda s: not s["passed"], checks)
    metrics["axioms.profiles_to_witness"] = sum(
        s["profiles_scanned"] for s in checks if not s["passed"])

    metrics["core.pareto_table_s"] = total(lambda s: s["name"] == "core.pareto_table")
    metrics["core.tops_table_s"] = total(lambda s: s["name"] == "core.tops_table")
    metrics["core.lookup_s"] = total(
        lambda s: s["name"].startswith("core.")
        and s["name"] not in ("core.pareto_table", "core.tops_table"))
    metrics["core.table_bytes"] = sum(s.get("nbytes", 0) for s in lib
                                      if s["name"].startswith("core."))

    for rule in VALUE_TABLE_RULES:
        metrics[f"rules.value_table_s.{rule}"] = total(
            lambda s: s["name"] == "rules.value_table" and s["rule"] == rule)
    metrics["rules.overrides"] = sum(s["overrides"] for s in lib
                                     if s["name"] == "rules.value_table")

    theorems = defaultdict(float)
    searches = {"single": 0.0, "orbit": 0.0}
    deviations = {"single": 0, "orbit": 0}
    for s in lib:
        if s["name"] == "analysis.verify_theorem":
            theorems[s["rule"].replace(":", "-")] += s["end"] - s["start"]
        elif s["name"] == "analysis.perturbation_search":
            searches[s["mode"]] += s["end"] - s["start"]
            deviations[s["mode"]] += s["deviations"]
    for rule in THEOREM_RULES:
        metrics[f"analysis.theorem_s.{rule}"] = theorems[rule]
    for mode, seconds in searches.items():
        metrics[f"analysis.search_s.{mode}"] = seconds
    metrics["analysis.deviations"] = deviations["single"] + deviations["orbit"]
    metrics["analysis.single_candidates"] = single_candidates
    metrics["analysis.single_accept_ratio"] = (
        deviations["single"] / single_candidates if single_candidates else 0.0)

    metrics["cli.main_s"] = cli_s
    metrics["cli.self_s"] = cli_s - library_s
    metrics["cli.json_bytes"] = cli_json_bytes
    metrics["trace.overhead_s"] = library_s - untraced_s

    by_layer = {layer: total(lambda s: s["name"].startswith(layer + ".")) for layer in LAYERS}
    accounting = {
        "traced_library_s": library_s,
        "layer_self_s": by_layer,
        "layer_sum_s": sum(by_layer.values()),
        "remainder_s": library_s - sum(by_layer.values()),
        "remainder_note": "domain and rule construction, table-file parsing "
                          "and tracer bookkeeping outside any span",
    }
    return metrics, accounting

