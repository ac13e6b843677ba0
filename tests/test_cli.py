import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paretocheck
from paretocheck import DomainIndex, cli, parse_profile, search
from paretocheck.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ----------------------------------------------------------------------


def test_eval_pareto_fixed_profile(capsys):
    code, out, _ = run(capsys, "eval", "--rule", "pareto", "--profile", "xyzw|ywxz|zwxy")
    assert code == 0
    assert out.strip() == "x y z w"


def test_eval_tops_unanimous(capsys):
    code, out, _ = run(capsys, "eval", "--rule", "tops", "--profile", "xyz|xyz")
    assert code == 0
    assert out.strip() == "x"


def test_eval_example_8(capsys):
    code, out, _ = run(capsys, "eval", "--rule", "example:8", "--profile", "xywzt|ztwxy")
    assert code == 0
    assert out.strip() == "x z"


def test_eval_example_11_adapts_to_profile(capsys):
    code, out, _ = run(capsys, "eval", "--rule", "example:11", "--profile", "xyz|xyz")
    assert code == 0
    assert out.strip() == "x y"


def test_eval_example_over_other_labels(capsys):
    code, out, err = run(capsys, "eval", "--rule", "example:4", "--profile", "abc|bca|cab")
    assert code == 2 and out == ""
    assert err == "error: example 4 is stated over the labels 'xyz', got 'abc'\n"
    code, out, _ = run(capsys, "eval", "--rule", "example:7", "--profile", "abcd|bcda|cdab|dabc")
    assert code == 0
    assert out.strip() == "a b c d"


def test_eval_parse_error_position(capsys):
    code, out, err = run(capsys, "eval", "--rule", "pareto", "--profile", "xyz|xy")
    assert code == 2
    assert "position 6" in err


def test_eval_json_round_trips(capsys):
    code, out, _ = run(capsys, "eval", "--rule", "example:5",
                       "--profile", "xyzw|ywxz|zwxy", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["chosen"] == ["x", "y", "z"]
    reparsed = parse_profile(data["profile"])
    assert str(reparsed) == "xyzw|ywxz|zwxy"


# -- check ---------------------------------------------------------------------


def test_check_example_10_balancedness(capsys):
    code, out, _ = run(capsys, "check", "--rule", "example:10", "--axioms", "balancedness")
    assert code == 1
    assert "balancedness: FAIL" in out
    assert "cba|acb|abc" in out or "bca|acb|acb" in out


def test_check_pareto_strong_stability_4_3(capsys):
    code, out, _ = run(capsys, "check", "--rule", "pareto", "--axioms", "strong-stability",
                       "--m", "4", "--n", "3")
    assert code == 0
    assert "pass" in out


def test_check_unknown_rule_and_axiom(capsys):
    code, _, err = run(capsys, "check", "--rule", "nosuch", "--axioms", "all")
    assert code == 2
    code, _, err = run(capsys, "check", "--rule", "pareto", "--axioms", "niceness")
    assert code == 2
    assert "niceness" in err


@pytest.mark.parametrize("argv, message", [
    (["check", "--rule", "pareto", "--axioms", ","], "no axioms given"),
    (["check", "--m", "3"], "one of --rule or --table is required"),
    (["eval", "--profile", "abc|abc"], "one of --rule or --table is required"),
    (["matrix", "--rules", ","], "no rules given"),
    (["check", "--table", "TABLE", "--n", "4"], "rule 'table' has n=3, got --n 4"),
    (["eval", "--table", "TABLE", "--profile", "abc|abc"],
     "rule 'table' has n=3, profile has 2 individuals"),
    (["eval", "--table", "TABLE", "--profile", "xyz|xyz|xyz"],
     "unknown alternative 'x' (universe 'abc') (at position 0)"),
    (["check", "--rule", "dictator:01", "--m", "3", "--n", "2"], "unknown rule 'dictator:01'"),
    (["check", "--rule", "dictator:\u0661", "--m", "3", "--n", "2"],
     "unknown rule 'dictator:\u0661'"),
    (["matrix", "--rules", "dictator:1,dictator:01", "--m", "3", "--n", "2", "--axioms", "pareto"],
     "unknown rule 'dictator:01'"),
    (["check", "--rule", "dictator:0", "--m", "3", "--n", "2"],
     "rule 'dictator:0' needs an individual in 1..2"),
    (["check", "--rule", "dictator:3", "--m", "3", "--n", "2"],
     "rule 'dictator:3' needs an individual in 1..2"),
    (["eval", "--rule", "example:12-foo", "--profile", "abc|abc"],
     "unknown example 12 (supported: 1..11)"),
])
def test_usage_errors_exit_2(argv, message, tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text('{"m": 3, "n": 3, "default": "pareto", "overrides": {}}')
    code, out, err = run(capsys, *[str(table) if a == "TABLE" else a for a in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["check", "--rule", "pareto", "--m", "3", "--n", "2", "--axioms", "pareto,tops-in,pareto"],
     "the axiom 'pareto' is repeated in --axioms"),
    (["matrix", "--rules", "pareto", "--m", "3", "--n", "2", "--axioms", "pareto,pareto"],
     "the axiom 'pareto' is repeated in --axioms"),
    (["matrix", "--rules", "pareto,tops, pareto", "--m", "3", "--n", "2"],
     "the rule 'pareto' is repeated in --rules"),
    (["search", "--m", "3", "--n", "2", "--axioms", "pareto,tops-in,tops-in"],
     "the axiom 'tops-in' is repeated in --axioms"),
])
def test_repeated_names_are_refused_before_any_domain(argv, message, monkeypatch, capsys):
    # a repeated rule was one row of the JSON matrix but two of its table, and
    # a repeated axiom was swept twice
    def no_domain(*args):
        raise AssertionError("a domain was built")
    monkeypatch.setattr(cli, "DomainIndex", no_domain)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text, field", [
    ("[1, 2]", "JSON object"),
    ('{"m": 3, "n": 2, "default": "pareto", "overrides": {"abc|abc": 5}}', "'abc|abc'"),
    ('{"m": 3, "n": 2, "default": "pareto", "overrides": [["abc|abc", "a"]]}', "'overrides'"),
    ('{"m": [3], "n": 2, "default": "pareto"}', "'m'"),
    ('{"m": 3.7, "n": 2, "default": "pareto"}', "'m'"),
    ('{"m": "3", "n": 2, "default": "pareto"}', "'m'"),
    ('{"m": 3, "n": true, "default": "pareto"}', "'n'"),
    ('{"m": 3, "n": 2, "default": "pareto", "overrides": {"abc|bca": "a", "abc | bca": "b"}}',
     "'abc|bca' and 'abc | bca'"),
    ('{"m": 3, "n": 2, "default": "pareto", "overrides": {"abc|bca": "a", "abc|bca": "b"}}',
     "'abc|bca' is repeated"),
    ('{"m": 3, "n": 2, "default": 5}', "'default'"),
    ('{"m": 3, "n": 2, "default": "pareto", "labels": 5}', "'labels'"),
])
def test_check_malformed_table_file(text, field, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", "--table", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err


def test_check_domain_cap(capsys):
    code, _, err = run(capsys, "check", "--rule", "pareto", "--m", "6", "--n", "4",
                       "--axioms", "pareto")
    assert code == 2
    assert "max-domain" in err


def test_check_json_witness_reparses(capsys):
    code, out, _ = run(capsys, "check", "--rule", "example:10",
                       "--axioms", "balancedness", "--format", "json")
    assert code == 1
    data = json.loads(out)
    report = data["reports"][0]
    assert report["verdict"] == "fail"
    for text in report["witness"]["profiles"]:
        parse_profile(text)  # must be well-formed profile strings


# -- matrix ----------------------------------------------------------------------


def test_matrix_exit_and_cells(capsys):
    code, out, _ = run(capsys, "matrix", "--m", "3", "--n", "3",
                       "--rules", "pareto,tops,borda,plurality,copeland",
                       "--axioms", "all", "--format", "json")
    assert code == 1
    data = json.loads(out)
    cells = data["cells"]
    assert cells["tops"]["balancedness"]["verdict"] == "fail"
    assert cells["plurality"]["balancedness"]["verdict"] == "fail"
    assert cells["borda"]["balancedness"]["verdict"] == "pass"
    assert cells["copeland"]["balancedness"]["verdict"] == "pass"
    assert cells["borda"]["strong-stability"]["verdict"] == "fail"
    assert cells["pareto"]["strong-stability"]["verdict"] == "pass"


def test_matrix_table_output(capsys):
    code, out, _ = run(capsys, "matrix", "--rules", "pareto,tops",
                       "--axioms", "balancedness")
    assert code == 1
    assert "✓" in out and "✗" in out


def test_matrix_rule_over_other_labels(capsys):
    # an example stated over its own labels is checked on a domain over them,
    # and the rules over the default labels on the matrix's own domain
    code, out, err = run(capsys, "matrix", "--rules", "pareto,example:4", "--m", "3", "--n", "3")
    assert code == 1 and err == ""
    assert "[1] example:4/tops-in: FAIL at xyz|yzx|zxy;" in out
    code, out, err = run(capsys, "matrix", "--rules", "pareto,example:4", "--m", "3", "--n", "3",
                         "--format", "json")
    cells = json.loads(out)["cells"]
    assert code == 1 and err == ""
    assert cells["example:4"]["tops-in"]["witness"]["profiles"] == ["xyz|yzx|zxy"]
    _, alone, _ = run(capsys, "matrix", "--rules", "pareto", "--m", "3", "--n", "3",
                      "--format", "json")
    assert cells["pareto"] == json.loads(alone)["cells"]["pareto"]
    code, out, err = run(capsys, "matrix", "--rules", "pareto,example:5", "--m", "4", "--n", "3",
                         "--axioms", "pareto")
    assert code == 0 and err == "" and "✗" not in out


# -- example ---------------------------------------------------------------------


def test_example_5_cli(capsys):
    code, out, _ = run(capsys, "example", "5")
    assert code == 0
    assert "fails monotonicity" in out
    assert "satisfies pareto" in out
    assert "satisfies tops-in" in out
    assert "satisfies balancedness" in out
    assert "FAIL" not in out


def test_example_2_cli(capsys):
    code, out, _ = run(capsys, "example", "2")
    assert code == 0
    assert "fails tops-in" in out


def test_example_unknown(capsys):
    code, _, err = run(capsys, "example", "12")
    assert code == 2
    assert "unknown example" in err


def test_example_domain_cap(capsys):
    # example 9 at n = 4 has 207,360,000 profiles; it is refused before any sweep
    code, out, err = run(capsys, "example", "9", "--n", "4")
    assert code == 2 and out == ""
    assert "max-domain" in err


# -- theorem ---------------------------------------------------------------------


def test_theorem_2_pareto(capsys):
    code, out, _ = run(capsys, "theorem", "2", "--rule", "pareto", "--m", "3", "--n", "2")
    assert code == 0
    assert "consistent-equal" in out


def test_theorem_3_example_5(capsys):
    code, out, _ = run(capsys, "theorem", "3", "--rule", "example:5", "--n", "3")
    assert code == 1
    assert "consistent-counterexample" in out and "monotonicity" in out


def test_theorem_json_shape(capsys):
    code, out, _ = run(capsys, "theorem", "1", "--rule", "pareto", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["theorem"] == 1
    assert data["verdict"] == "consistent-equal"
    assert data["failing_axiom"] is None
    assert data["deviations"] == []


@pytest.mark.parametrize("k, rule", [(1, "example:2"), (2, "example:4"), (2, "example:10"),
                                     (3, "example:5"), (3, "example:5-orbit"),
                                     (4, "example:9"), (4, "example:9-unrestricted")])
def test_theorem_example_takes_its_own_n(k, rule, capsys):
    # an example whose n is fixed, or free only from 3, runs at its own n
    # rather than the default n = 2
    code, out, err = run(capsys, "theorem", str(k), "--rule", rule)
    assert (code, err) == (1, "")
    assert run(capsys, "theorem", str(k), "--rule", rule, "--n", "3") == (1, out, "")


@pytest.mark.parametrize("rule", ["example:3", "example:8", "pareto"])
def test_theorem_other_rules_keep_n_two(rule, capsys):
    # a catalog rule and an example free down to n = 2 take the default;
    # example 8 is defined at n = 2
    code, out, _ = run(capsys, "theorem", "4", "--rule", rule)
    assert f"for {rule} at m=5, n=2: " in out


@pytest.mark.parametrize("sizes, profile", [((6, 2), "abcdef|abcdef"), ((5, 3), "abcde|abcde|abcde")])
def test_theorem_table_keeps_its_own_sizes(sizes, profile, tmp_path, capsys):
    # a table file gives m and n; the theorem's default sizes apply to --rule alone
    m, n = sizes
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"m": m, "n": n, "default": "pareto", "overrides": {profile: ["a"]}}))
    code, out, _ = run(capsys, "theorem", "4", "--table", str(path))
    assert code == 0
    assert f"for table at m={m}, n={n}: consistent-equal" in out
    if sizes == (6, 2):
        code, out, err = run(capsys, "theorem", "4", "--table", str(path), "--m", "5")
        assert code == 2 and out == ""
        assert "rule 'table' has m=6, got --m 5" in err


# -- search ----------------------------------------------------------------------


def test_search_finds_deviations_at_4_3(capsys):
    code, out, _ = run(capsys, "search", "--m", "4", "--n", "3",
                       "--axioms", "pareto,tops-in,balancedness",
                       "--mode", "single", "--budget", "100")
    assert code == 1
    assert "deviation(s)" in out


def test_search_empty_at_3_3(capsys):
    code, out, _ = run(capsys, "search", "--m", "3", "--n", "3",
                       "--axioms", "pareto,tops-in,balancedness")
    assert code == 0
    assert "no deviation" in out


def test_search_json_profiles_reparse(capsys):
    code, out, _ = run(capsys, "search", "--m", "4", "--n", "3",
                       "--axioms", "pareto,tops-in,balancedness",
                       "--format", "json", "--budget", "500")
    assert code == 1
    data = json.loads(out)
    assert data["theorem"] is None
    assert data["verdict"] == "deviations-found"
    for dev in data["deviations"]:
        for text in dev["profiles"]:
            parse_profile(text)


def test_search_budget_validation(capsys):
    code, _, err = run(capsys, "search", "--m", "3", "--n", "3",
                       "--axioms", "pareto", "--budget", "0")
    assert code == 2


@pytest.mark.parametrize("m", ["-1", "9"])
def test_search_size_out_of_range(capsys, m):
    # the domain checks its sizes before its profile count is computed
    code, out, err = run(capsys, "search", "--m", m, "--n", "2", "--axioms", "pareto")
    assert code == 2 and out == ""
    assert "2..8 alternatives" in err


def _materialised_search(argv):
    """A search command's payload, exit code and table text, formatted from
    the list ``perturbation_search`` returns."""
    args = cli.build_parser().parse_args(argv)
    axioms = args.axioms.split(",")
    devs = search.perturbation_search(DomainIndex(args.m, args.n), axioms,
                                      mode=args.mode, budget=args.budget)
    payload = {"theorem": None, "verdict": "deviations-found" if devs else "none-found",
               "failing_axiom": None, "deviations": [dev.to_json() for dev in devs],
               "m": args.m, "n": args.n, "axioms": axioms, "mode": args.mode}
    if devs:
        lines = [f"{len(devs)} deviation(s) satisfy {{{', '.join(axioms)}}}"]
        for dev in devs[:20]:
            sets = ", ".join("{" + "".join(cs) + "}" for cs in dev.choice_sets[:4])
            more = " ..." if len(dev.profiles) > 4 else ""
            lines.append(f"  {dev.profiles[0]} -> {sets}{more} ({len(dev.profiles)} profile(s))")
        if len(devs) > 20:
            lines.append(f"  ... and {len(devs) - 20} more")
    else:
        lines = [f"no deviation within budget satisfies {{{', '.join(axioms)}}}"]
    return payload, 1 if devs else 0, "\n".join(lines) + "\n"


_SEARCHES = {
    "search": ("search", "--m", "4", "--n", "4", "--axioms", "pareto,tops-in,balancedness"),
    "orbit": ("search", "--m", "5", "--n", "2", "--axioms", "pareto,tops-in", "--mode", "orbit"),
    "empty": ("search", "--m", "3", "--n", "3", "--axioms", "pareto,tops-in,balancedness"),
    "budget": ("search", "--m", "4", "--n", "3", "--axioms", "pareto,tops-in,balancedness",
               "--budget", "500"),
}


@pytest.mark.parametrize("argv", [
    *(pytest.param(argv, id=name) for name, argv in _SEARCHES.items()),
    pytest.param(("theorem", "4", "--rule", "borda"), id="theorem"),
    pytest.param(("check", "--rule", "example:10"), id="check"),
    pytest.param(("matrix",), id="matrix"),
])
def test_json_output_matches_json_dumps(argv, monkeypatch, capsys):
    # the payload is written key by key, and a search's deviations run by
    # run: at 250 profiles a run, the (4,4) search writes 10 runs, and the
    # orbit search's runs hold one deviation of 240 profiles or up to two of 120
    if argv[0] == "search":
        payload, want_code, _ = _materialised_search(argv)
    else:
        payloads, emit = [], cli._emit

        def record(args, payload, text):
            payloads.append(payload)
            emit(args, payload, text)
        monkeypatch.setattr(cli, "_emit", record)
    monkeypatch.setattr(search, "_RUN_PROFILES", 250)
    code, out, _ = run(capsys, *argv, "--format", "json")
    if argv[0] != "search":
        (payload,) = payloads
        want_code = code
    assert code == want_code
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("name", ["search", "orbit", "empty"])
def test_search_table_matches_the_listed_deviations(name, monkeypatch, capsys):
    # over 20 deviations of one profile each, over 20 of 120 or 240, and none
    _, want_code, want_text = _materialised_search(_SEARCHES[name])
    monkeypatch.setattr(search, "_RUN_PROFILES", 250)
    assert run(capsys, *_SEARCHES[name])[:2] == (want_code, want_text)


# -- determinism across worker counts ---------------------------------------------


def test_check_json_identical_across_workers(capsys):
    blobs = []
    for workers in ("1", "2", "5"):
        code, out, _ = run(capsys, "check", "--rule", "example:10", "--axioms", "all",
                           "--format", "json", "--workers", workers)
        assert code == 1
        blobs.append(out)
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_check_rejects_worker_counts_below_one(workers, capsys):
    code, out, err = run(capsys, "check", "--rule", "pareto", "--axioms", "pareto",
                         "--workers", workers)
    assert code == 2 and out == ""
    assert f"workers must be at least 1, got {workers}" in err


def test_usage_error_exit_code(capsys):
    assert main(["check", "--badflag"]) == 2
    assert main([]) == 2


def test_internal_error_exit_code(monkeypatch, capsys):
    # 1 means "a violation was found", so a crash has its own code
    def crash(args):
        raise RuntimeError("boom")
    monkeypatch.setitem(cli._COMMANDS, "check", (crash, "axioms"))
    code, out, err = run(capsys, "check", "--rule", "pareto")
    assert code == 3 and out == ""
    assert err.startswith("error: internal error\n")
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_closed_stdout_keeps_the_commands_exit_code():
    # a reader that stops early, like `| head`, is no usage error (exit 2): the
    # search's exit 1 stands and stderr stays empty.  Its 397 KB of JSON
    # exceed a pipe's 64 KB buffer, so the write after the close fails
    path = os.pathsep.join(filter(None, [str(Path(paretocheck.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "paretocheck", "search", "--m", "4", "--n", "4",
         "--axioms", "pareto,tops-in,balancedness", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path})
    head = child.stdout.read(100)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert head.startswith(b'{\n  "theorem": null') and err == b""


# -- the package namespace ----------------------------------------------------------

# every name the package exports, grouped by the module that defines it
_EXPORTS = {
    "core": (
        "AXIOMS", "THEOREM_AXIOMS", "DomainIndex", "Ordering", "ParseError", "Profile",
        "TranspositionSite", "Universe", "apply_alternative_permutation",
        "apply_individual_permutation", "apply_transposition", "enumerate_orderings",
        "lower_one", "pareto_dominates", "parse_profile", "raise_one", "transposition_sites",
    ),
    "rules": (
        "Correspondence", "RULE_CATALOG", "RuleCatalogEntry", "load_table",
        "make_rule", "pareto_set_by_elimination",
    ),
    "search": ("Deviation", "perturbation_search"),
    "axioms": (
        "AxiomReport", "TheoremResult", "Witness", "axiom_matrix", "check_axiom",
        "check_axiom_reference", "check_axioms", "replay_witness", "verify_theorem",
    ),
    "analysis": (
        "ExampleReport", "HeightResult", "gap", "height", "reproduce_example",
        "stability_descent_audit",
    ),
}

# names the package no longer exports: each has one spelling above
_REMOVED = (
    "check_pareto_condition", "check_tops_in", "check_balancedness", "check_monotonicity",
    "check_weak_monotonicity", "check_strong_stability", "check_anonymity",
    "check_neutrality", "index_profile", "profile_index", "evaluate",
)


def test_namespace_keeps_every_name():
    listed = dir(paretocheck)
    star = {}
    exec("from paretocheck import *", star)
    for module, names in _EXPORTS.items():
        sub = importlib.import_module("paretocheck." + module)
        for name in names:
            imported = {}
            exec(f"from paretocheck import {name}", imported)
            value = getattr(sub, name)
            assert getattr(paretocheck, name) is value, name
            assert imported[name] is value and star[name] is value, name
            # kept after the first lookup, where wrappers installed by name find it
            assert vars(paretocheck)[name] is value, name
            assert name in listed, name
    assert paretocheck.__version__ == "0.1.0" and "__version__" in listed


def test_benchmark_names_resolve_where_it_reads_them():
    # benchmarks/workloads.py calls analysis.perturbation_search and
    # analysis.verify_theorem, and benchmarks/tracing.py wraps them by name in
    # each module that holds them: one object each, loaded from its own module.
    # The axiom and theorem lists are stated once, in core
    from paretocheck import analysis, axioms, core, search

    assert paretocheck._MODULE_OF["perturbation_search"] == "search"
    assert paretocheck._MODULE_OF["verify_theorem"] == "axioms"
    assert paretocheck._MODULE_OF["AXIOMS"] == paretocheck._MODULE_OF["THEOREM_AXIOMS"] == "core"
    assert paretocheck.perturbation_search is search.perturbation_search is analysis.perturbation_search
    assert paretocheck.verify_theorem is axioms.verify_theorem is analysis.verify_theorem
    assert paretocheck.AXIOMS is core.AXIOMS is axioms.AXIOMS
    assert paretocheck.THEOREM_AXIOMS is core.THEOREM_AXIOMS is axioms.THEOREM_AXIOMS


def test_namespace_rejects_unknown_names():
    with pytest.raises(AttributeError, match="module 'paretocheck' has no attribute 'nosuch'"):
        paretocheck.nosuch
    with pytest.raises(ImportError, match="nosuch"):
        exec("from paretocheck import nosuch", {})
    for name in _REMOVED:
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(paretocheck, name)
        assert name not in dir(paretocheck), name


# -- threads of a fresh process ---------------------------------------------------

# conftest imports numpy first, so only a fresh process shows what importing
# the package starts
_THREAD_PROBE = """
import json, os, sys
import paretocheck
paretocheck.DomainIndex  # imports numpy, whose OpenBLAS could start threads
status = "/proc/self/status"
threads = None
if os.path.exists(status):
    threads = int(open(status).read().split("Threads:")[1].split()[0])
print(json.dumps({"threads": threads, "pool": "concurrent.futures" in sys.modules,
                  "blas": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def _probe(script=_THREAD_PROBE, **env):
    path = os.pathsep.join(filter(None, [str(Path(paretocheck.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, env={**child, "PYTHONPATH": path, **env}).stdout
    return json.loads(out)


def test_fresh_process_runs_on_one_thread():
    default, caller_set = _probe(), _probe(OPENBLAS_NUM_THREADS="2")
    assert default["blas"] == "1" and caller_set["blas"] == "2"
    assert not default["pool"] and not caller_set["pool"]
    if default["threads"] is None:
        pytest.skip("no /proc/self/status to count threads")
    assert default["threads"] == 1


# -- what a fresh process loads ----------------------------------------------------

_LOAD_PROBE = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("paretocheck."))
import paretocheck as pc
out = {"import": loaded(), "numpy": "numpy" in sys.modules}
pc.DomainIndex(4, 4)
out["DomainIndex"] = loaded()
pc.make_rule("pareto", 3, 3)
out["make_rule"] = loaded()
from paretocheck.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    out["codes"] = [main(["check", "--rule", "pareto", "--m", "3", "--n", "3"]),
                    main(["matrix", "--rules", "pareto,tops", "--axioms", "balancedness"])]
out["check"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    out["codes"].append(main(["theorem", "2", "--rule", "pareto"]))
out["theorem"] = loaded()
print(json.dumps(out))
"""


# one command in a fresh process: its exit code, the package modules it
# loaded, and those it loaded after argparse (sys.modules lists modules in the
# order their imports finished)
_COMMAND_PROBE = """
import contextlib, io, sys
from paretocheck.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
order = [m for m in sys.modules if m.startswith("paretocheck.") or m == "argparse"]
late = order[order.index("argparse"):]
import json
print(json.dumps({{"code": code, "loaded": sorted(m for m in order if m.startswith("paretocheck.")),
                  "late": [m for m in late if m.startswith("paretocheck.")]}}))
"""


def test_fresh_process_loads_only_the_modules_it_runs():
    out = _probe(_LOAD_PROBE)
    assert out["import"] == [] and not out["numpy"]
    assert out["DomainIndex"] == ["paretocheck.core"]
    assert out["make_rule"] == ["paretocheck.core", "paretocheck.rules"]
    assert out["codes"] == [0, 1, 0]
    assert out["check"] == ["paretocheck.axioms", "paretocheck.cli", "paretocheck.core",
                            "paretocheck.edges", "paretocheck.rules"]
    assert "paretocheck.analysis" not in out["theorem"]
    search = _probe(_COMMAND_PROBE.format(argv=[
        "search", "--m", "4", "--n", "3", "--axioms", "pareto,tops-in,balancedness",
        "--mode", "orbit", "--format", "json"]))
    assert search == {"code": 1, "late": [],
                      "loaded": ["paretocheck.cli", "paretocheck.core", "paretocheck.edges",
                                 "paretocheck.search"]}
    evaluated = _probe(_COMMAND_PROBE.format(argv=[
        "eval", "--rule", "borda", "--profile", "abc|bca|cab", "--format", "json"]))
    assert evaluated == {"code": 0, "late": [],
                         "loaded": ["paretocheck.cli", "paretocheck.core", "paretocheck.rules"]}
    helped = _probe(_COMMAND_PROBE.format(argv=["--help"]))
    assert helped == {"code": 0, "late": [], "loaded": ["paretocheck.cli", "paretocheck.core"]}
    theorem = _probe(_COMMAND_PROBE.format(argv=["theorem", "2", "--rule", "pareto"]))
    assert theorem["code"] == 0 and theorem["late"] == []


# np.unique imports numpy.ma on first use, about 10 ms and 1 MB in a fresh process
_MA_PROBE = """
import contextlib, io, json, sys
from paretocheck.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["search", "--m", "4", "--n", "3", "--axioms", "pareto,tops-in,balancedness",
                   "--mode", mode, "--budget", budget])
             for mode in ("single", "orbit") for budget in ("100", "1000000")]
print(json.dumps({"codes": codes, "ma": "numpy.ma" in sys.modules}))
"""


def test_search_never_imports_numpy_ma():
    out = _probe(_MA_PROBE)
    assert out == {"codes": [1, 1, 1, 1], "ma": False}


_MA_THEOREM_PROBE = """
import contextlib, io, json, sys
from paretocheck.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["theorem", "4", "--rule", "example:9", "--n", "3"]),
             main(["theorem", "4", "--rule", "example:8-neutral"])]
print(json.dumps({"codes": codes, "ma": "numpy.ma" in sys.modules}))
"""


def test_override_checks_never_import_numpy_ma():
    # the profiles a rule's overrides touch are deduplicated without np.unique
    assert _probe(_MA_THEOREM_PROBE) == {"codes": [1, 1], "ma": False}
