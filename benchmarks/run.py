"""Benchmark of the paretocheck CLI.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, and nothing needs building.  Workloads (``workloads.py``)
are lists of ``paretocheck`` commands, each run as a fresh process, one after
another, from this one parent process; no command uses more than 2 sweep
workers.

``--trace 0`` measures the end-to-end metrics.  It repeats whole passes over
the command list while they fit in ``--seconds``, timing each command from
spawn to exit; each command's figures are medians over the passes.  Before
each pass it times two fresh processes that only import the package and
build the workload's domain and rule objects (``setup_s``).

``--trace 1`` replays each command in this process, after a warm-up pass:
once untraced, once with the span tracer (``tracing.py``), and once as
``cli.main(argv)`` with stdout captured.  The spans give the per-layer
metrics.

Every command's exit code and JSON output pass a correctness gate outside
the timed region.  The last line of stdout is the result object; the full
record (environment, per-pass values, spans) goes to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES_PER_PASS = 2

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from workloads import Workload  # noqa: E402


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    # a fixed hash seed keeps set and dict layouts, and so timings, alike across runs
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
                PYTHONHASHSEED="0")


def spawn(argv: list[str]) -> dict:
    """Run one child process to completion; wall time, rusage and output."""
    with open(OUT / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        try:
            with proc.stdout:
                stdout = proc.stdout.read()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        # reap here rather than in Popen.wait, to get the child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "rc": proc.returncode,
            "stdout": stdout, "stderr": stderr.decode(errors="replace")}


def spread(values: list[float]) -> dict:
    """Median, range and quartile spread of per-pass values."""
    med = statistics.median(values)
    out = {"values": values, "median": med, "min": min(values), "max": max(values),
           "range_share": (max(values) - min(values)) / med if med else 0.0}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["iqr_share"] = (q3 - q1) / med if med else 0.0
    return out


def gate(wl: Workload, outputs: dict[str, tuple[int, bytes]], witness_ok: dict[str, bool],
         digests: dict[str, str]) -> dict[str, list[str]]:
    """Errors per command of one pass over the workload."""
    errors = {}
    for c in wl.commands:
        rc, stdout = outputs[c.cid]
        errs = workloads.check_output(c, rc, stdout, digests)
        if witness_ok.get(c.cid) is False:
            errs.append(f"{c.cid}: witness does not replay")
        errors[c.cid] = errs
    for err in workloads.cross_checks(wl, {cid: out for cid, (_, out) in outputs.items()}):
        errors[wl.commands[0].cid].append(err)
    return errors


def failing_axiom(stdout: bytes) -> str | None:
    try:
        return json.loads(stdout).get("failing_axiom")
    except (ValueError, AttributeError):
        return None


def timed_run(wl: Workload, seconds: float) -> dict:
    warm = spawn(["-m", "paretocheck", "--help"])  # fills the bytecode cache
    if warm["rc"] != 0:
        raise RuntimeError("cannot run paretocheck: " + warm["stderr"])
    code = workloads.setup_code(wl)
    setups: list[float] = []
    passes: list[dict] = []
    start = time.perf_counter()
    while True:  # whole passes, as many as fit in ``seconds`` (at least one)
        for _ in range(SETUP_SAMPLES_PER_PASS):
            res = spawn(["-c", code])
            if res["rc"] != 0:
                raise RuntimeError("set-up failed: " + res["stderr"])
            setups.append(res["wall_s"])
        passes.append({c.cid: spawn(["-m", "paretocheck", *c.argv]) for c in wl.commands})
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    # gate, outside the timed region; witnesses replay once per command
    digests = workloads.load_digests()
    witness_ok = {}
    for c in wl.commands:
        axiom = failing_axiom(passes[0][c.cid]["stdout"])
        if c.kind == "theorem" and axiom is not None:
            witness_ok[c.cid] = workloads.replay_failing_witness(c, ROOT, axiom)
    errors: list[str] = []
    attempted = failed = 0
    for results in passes:
        errs = gate(wl, {cid: (r["rc"], r["stdout"]) for cid, r in results.items()},
                    witness_ok, digests)
        attempted += len(errs)
        failed += sum(1 for e in errs.values() if e)
        errors += [e for es in errs.values() for e in es]

    # per-command medians over passes, so one slow stretch moves one sample
    def per_command(key: str) -> dict[str, float]:
        return {c.cid: statistics.median(p[c.cid][key] for p in passes) for c in wl.commands}

    # A --workers 2 command's wall time mostly shows how much of the second
    # core the shared host grants (1.9 s to 4.0 s in one set of runs), so
    # wall_s leaves it out; its CPU time, RSS and output still count.
    serial = [c.cid for c in wl.commands if c.workers == 1]
    walls = per_command("wall_s")
    metrics = {"wall_s": sum(walls[cid] for cid in serial),
               "cpu_s": sum(per_command("cpu_s").values()),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": max(per_command("rss_mb").values())}
    per_pass = {"wall_s": [sum(p[cid]["wall_s"] for cid in serial) for p in passes],
                "cpu_s": [sum(r["cpu_s"] for r in p.values()) for p in passes],
                "peak_rss_mb": [max(r["rss_mb"] for r in p.values()) for p in passes]}
    return {
        "attempted": attempted, "failed": failed, "errors": sorted(set(errors))[:50],
        "metrics": metrics,
        "noise": {**{name: spread(values) for name, values in per_pass.items()},
                  "setup_s": spread(setups)},
        "passes": len(passes),
        "commands": {c.cid: {"argv": c.argv,
                             "wall_s": [p[c.cid]["wall_s"] for p in passes],
                             "cpu_s": [p[c.cid]["cpu_s"] for p in passes],
                             "rss_mb": [p[c.cid]["rss_mb"] for p in passes],
                             "digest": workloads.digest(passes[-1][c.cid]["stdout"]),
                             "stderr": passes[-1][c.cid]["stderr"][-2000:]}
                     for c in wl.commands},
        "setup_code": code,
    }


def traced_run(wl: Workload) -> dict:
    import paretocheck.cli
    import tracing

    def replay_all() -> tuple[float, dict[str, float], dict]:
        per_cmd, results = {}, {}
        for c in wl.commands:
            t0 = time.perf_counter()
            results[c.cid] = workloads.replay(c, ROOT)
            per_cmd[c.cid] = time.perf_counter() - t0
        return sum(per_cmd.values()), per_cmd, results

    replay_all()  # warm-up: the first in-process pass pays one-off allocation costs
    untraced_s, untraced_per_cmd, _ = replay_all()
    tracer = tracing.Tracer()
    outputs: dict[str, tuple[int, bytes]] = {}
    with tracer.installed():
        tracer.phase = "library"
        library_s, library_per_cmd, results = replay_all()
        tracer.phase = "cli"
        cli_s = 0.0
        for c in wl.commands:
            buf = io.StringIO()
            with tracer.span("cli.main", cid=c.cid) as rec, contextlib.redirect_stdout(buf):
                rc = paretocheck.cli.main(c.argv)
            cli_s += rec["end"] - rec["start"]
            outputs[c.cid] = (rc, buf.getvalue().encode())

    witness_ok = {cid: res[1] for cid, res in results.items()
                  if isinstance(res, tuple) and res[1] is not None}
    errs = gate(wl, outputs, witness_ok, workloads.load_digests())
    candidates = sum(workloads.single_candidates(c) for c in wl.commands
                     if c.kind == "search" and c.mode == "single")
    metrics, accounting = tracing.layer_metrics(
        tracer.spans, library_s=library_s, untraced_s=untraced_s, cli_s=cli_s,
        cli_json_bytes=sum(len(out) for _, out in outputs.values()),
        single_candidates=candidates)
    return {
        "attempted": len(errs), "failed": sum(1 for e in errs.values() if e),
        "errors": [e for es in errs.values() for e in es][:50],
        "metrics": metrics, "accounting": accounting,
        "untraced_library_s": untraced_s, "untraced_s_per_command": untraced_per_cmd,
        "library_s_per_command": library_per_cmd,
        "spans": tracer.spans,
    }


def environment() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if level in ("2", "3"):
            caches[f"L{level}"] = read(f"{index}/size") + ("" if kind == "Unified" else f" {kind}")
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "caches": caches,
        "notes": [
            "shared 2-vCPU virtual machine: other tenants' load adds run-to-run noise",
            "no hardware counters, no cache dropping, no cgroup or kernel changes",
            "core.table_bytes is computed from array nbytes, not measured",
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paretocheck" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a paretocheck checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed, OUT, ROOT)
    run = traced_run(wl) if args.trace else timed_run(wl, args.seconds)
    if set(run["metrics"]) != set(listed):
        print(f"error: metrics {sorted(set(run['metrics']) ^ set(listed))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **run,
              "failed_ops_ratio": run["failed"] / run["attempted"]}
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    for err in run["errors"]:
        print("error:", err)
    if args.trace:
        acc = run["accounting"]
        print(f"traced library {acc['traced_library_s']:.3f}s = layers "
              f"{acc['layer_sum_s']:.3f}s + remainder {acc['remainder_s']:.3f}s")
    else:
        for name, s in run["noise"].items():
            print(f"{name}: median {s['median']:.4f} over {len(s['values'])} samples, "
                  f"range {100 * s['range_share']:.1f}%")
    print(f"record: {path.relative_to(ROOT)}; failed_ops_ratio {record['failed_ops_ratio']}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in listed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
