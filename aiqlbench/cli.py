"""Command-line entry points: the contract runner and the suite commands.

``run.py --workload W --seed N --seconds S --trace 0|1`` is the contract
the driver calls (one workload, one pass kind, one JSON result line).
``python -m aiqlbench run|noise|compare`` are the developer commands built
on it; see ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from aiqlbench import ROOT, require_program

WORKLOADS = ("investigate", "hunt", "live", "sharded")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full") -> dict:
    """Run one workload in this process; the contract's result object.

    ``BENCHMARK.json`` is the one list of metric names: a workload
    returns whatever it measured and only the declared names of this pass
    kind are reported.  An end-to-end metric it did not produce is an
    error, a per-layer one is 0 (that layer does not run there).
    """
    require_program()
    from aiqlbench.harness import (SCALES, Checker, HostSpeed, Recorder,
                                   peak_rss_mb)
    spec = load_spec()
    module = importlib.import_module(f"aiqlbench.{workload}")
    checker = Checker()
    host = HostSpeed()
    recorder = Recorder(workload) if trace else None
    try:
        measured = module.run(seed, seconds, SCALES[scale], checker, host,
                              recorder)
    finally:
        if recorder is not None:
            recorder.restore()   # un-wrap the program's functions
        gc.unfreeze()            # harness.settle() froze the loaded stores
    if recorder is not None:
        recorder.dump()
    # sharded reads its own: its workers are gone by now.
    measured.setdefault("peak_rss_mb", peak_rss_mb())
    measured["bench.host_speed_ratio"] = host.ratio
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        if entry["name"] not in measured and not trace:
            raise SystemExit(f"aiqlbench: {workload} did not measure "
                             f"{entry['name']}")
        value = float(measured.get(entry["name"], 0.0))
        if not math.isfinite(value):
            raise SystemExit(f"aiqlbench: {workload} measured a non-finite "
                             f"{entry['name']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def print_result(workload: str, seed: int, trace: bool, result: dict) -> None:
    """Every metric by name with its unit, then the one-line JSON object."""
    print(f"workload={workload} seed={seed} trace={int(trace)} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_ops_ratio={result['failed'] / result['attempted']:.6f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:16.4f} {metric['unit']}")
    print(json.dumps(result))


def _child_pids() -> list[int]:
    """Direct children of this process, live or zombie, from ``/proc``."""
    own = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                ppid = int(handle.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == own:
            pids.append(int(entry))
    return pids


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The contract runner calls it on every path out.  A sharded store's
    workers are joined by its ``close()``; what is left is what an
    exception stranded and ``multiprocessing``'s resource tracker, which
    the spawn context starts beside the first worker.  The tracker only
    ends once the last holder of its pipe is gone — after this process,
    unless told to — and then nobody reaps it.  Workers hold that pipe
    too, so they go first.
    """
    import multiprocessing
    import signal
    import time
    from multiprocessing import resource_tracker

    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(grace)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()    # closes the tracker's pipe, then waits for it
    # Whatever neither of the two knows about (the tracker ignores SIGTERM,
    # so an interpreter without ``_stop`` ends it here).
    deadline = time.monotonic() + grace
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            while time.monotonic() < deadline:
                if os.waitpid(pid, os.WNOHANG)[0]:
                    break
                time.sleep(0.01)
            else:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main_run(argv: list[str] | None = None) -> int:
    import signal

    def terminated(signum, _frame):    # unwind, so the finally below runs
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminated)
    try:
        return _main_run(argv)
    finally:
        stop_children()


def _main_run(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(prog="aiqlbench/run.py",
                                     description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke test's input size")
    args = parser.parse_args(argv)
    seconds = (args.seconds if args.seconds is not None
               else load_spec()["run_seconds"])
    result = measure(args.workload, args.seed, seconds, bool(args.trace),
                     args.scale)
    print_result(args.workload, args.seed, bool(args.trace), result)
    return 0


# ---------------------------------------------------------------------------
# Suite commands: python -m aiqlbench run | noise | compare
# ---------------------------------------------------------------------------

def _contract_run(workload: str, seed: int, seconds: float, trace: bool,
                  scale: str) -> dict:
    """One contract run in a fresh process (own RSS, own metrics registry)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "aiqlbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace)),
         "--scale", scale],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"aiqlbench: {workload} exited {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_suite(seed: int, seconds: float, scale: str,
              order: tuple[str, ...] = WORKLOADS) -> dict:
    """Every workload, timing pass then traced pass; one ``runs`` entry."""
    workloads = {}
    for workload in order:
        timing = _contract_run(workload, seed, seconds, False, scale)
        traced = _contract_run(workload, seed, seconds, True, scale)
        print_result(workload, seed, False, timing)
        print_result(workload, seed, True, traced)
        workloads[workload] = {
            "end_to_end": {n: m["value"] for n, m in timing["metrics"].items()},
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
            "attempted": timing["attempted"] + traced["attempted"],
            "failed": timing["failed"] + traced["failed"],
        }
    return {"seed": seed, "workloads": workloads}


def fingerprint(seed: int, seconds: float, scale: str) -> dict:
    require_program()
    from aiqlbench.harness import SCALES
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system(),
            "seed": seed, "run_seconds": seconds,
            "scale": {"name": scale, **asdict(SCALES[scale])}}


def write_results(path: str, seed: int, seconds: float, scale: str,
                  runs: list[dict], extra: dict | None = None) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = {"schema": 1, "fingerprint": fingerprint(seed, seconds, scale),
                "runs": runs, **(extra or {})}
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {target}")


def _relative_gap(a: float, b: float) -> float:
    low = min(abs(a), abs(b))
    return abs(a - b) / low if low else 0.0


def noise_floor(runs: list[dict]) -> dict:
    """Per workload and end-to-end metric: the gap between two runs of the
    same code, as a share of the smaller value."""
    first, second = runs[0]["workloads"], runs[1]["workloads"]
    return {workload: {name: _relative_gap(value,
                                           second[workload]["end_to_end"][name])
                       for name, value in entry["end_to_end"].items()}
            for workload, entry in first.items()}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def compare(path_a: str, path_b: str) -> int:
    """The gate: B against A on every (workload, end-to-end metric).

    A pair regresses when B's median is worse than A's by more than the
    metric's bound in ``BENCHMARK.json``, or when more operations fail.
    When the run-to-run spread of either side exceeds the bound the pair
    is ``unresolved`` — the runs cannot tell — never ``unchanged``.
    """
    spec = load_spec()
    with open(path_a, encoding="utf-8") as handle:
        runs_a = json.load(handle)["runs"]
    with open(path_b, encoding="utf-8") as handle:
        runs_b = json.load(handle)["runs"]
    regressions = 0
    print(f"{'workload':12s} {'metric':20s} {'A q1/median/q3':>36s} "
          f"{'B q1/median/q3':>36s} {'B/A':>7s}  verdict")
    for workload in WORKLOADS:
        entries_a = [r["workloads"][workload] for r in runs_a
                     if workload in r["workloads"]]
        entries_b = [r["workloads"][workload] for r in runs_b
                     if workload in r["workloads"]]
        if not entries_a or not entries_b:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            qa = _quartiles([e["end_to_end"][name] for e in entries_a])
            qb = _quartiles([e["end_to_end"][name] for e in entries_b])
            ratio = qb[1] / qa[1]
            worse = ratio - 1 if metric["better"] == "lower" else 1 / ratio - 1
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(f"{workload:12s} {name:20s} "
                  f"{qa[0]:11.3f}/{qa[1]:11.3f}/{qa[2]:11.3f} "
                  f"{qb[0]:11.3f}/{qb[1]:11.3f}/{qb[2]:11.3f} "
                  f"{ratio:7.3f}  {verdict} (B/A, base A; bound {bound})")
        failed_a = statistics.median(e["failed"] / e["attempted"]
                                     for e in entries_a)
        failed_b = statistics.median(e["failed"] / e["attempted"]
                                     for e in entries_b)
        verdict = "unchanged"
        if failed_b > failed_a:
            verdict = "REGRESSION"
            regressions += 1
        print(f"{workload:12s} {'failed_ops_ratio':20s} {failed_a:36.6f} "
              f"{failed_b:36.6f} {'':7s}  {verdict}")
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m aiqlbench",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "all four workloads, timing then traced pass"),
                       ("noise", "the full set twice, alternating order; "
                                 "reports the noise floor")):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument("--seconds", type=float, default=None)
        sub.add_argument("--scale", choices=("full", "tiny"), default="full")
        sub.add_argument("--out", default=None,
                         help="result file (default: .bench_out/<command>-"
                              "seed<seed>.json)")
    sub = commands.add_parser("compare", help="gate B.json against A.json")
    sub.add_argument("a")
    sub.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b)
    seconds = (args.seconds if args.seconds is not None
               else load_spec()["run_seconds"])
    out = args.out or str(ROOT / ".bench_out"
                          / f"{args.command}-seed{args.seed}.json")
    runs = [run_suite(args.seed, seconds, args.scale)]
    extra = None
    if args.command == "noise":
        runs.append(run_suite(args.seed, seconds, args.scale,
                              order=WORKLOADS[::-1]))
        extra = {"noise_floor": noise_floor(runs)}
        for workload, floor in extra["noise_floor"].items():
            for name, gap in floor.items():
                print(f"noise floor {workload:12s} {name:22s} {gap:8.4f}")
    write_results(out, args.seed, seconds, args.scale, runs, extra)
    failed = sum(entry["failed"] for run in runs
                 for entry in run["workloads"].values())
    return 1 if failed else 0
