"""Benchmark of the dlbisim command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ... [--save FILE]
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  For the named workload it generates the
documents from the seed, measures set-up time in fresh interpreters,
then runs the workload's command session in one more fresh interpreter
for S seconds and checks every output.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Each time is the median over passes; the lines above the JSON give
quartiles and sample counts.  --smoke runs every workload and check at
tiny sizes, traced and untraced, and exits 1 on any failure.

See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from tracer import COMMAND_LAYER, COUNTERS, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 7
RUN_LIMIT_S = 170.0

KIND_METRICS = {"partition": "partition_s", "minimize": "minimize_s", "bisim": "bisim_s",
                "witness": "witness_s", "check-kb": "check_kb_s", "eval": "eval_s"}
END_TO_END = [("setup_s", "s"), ("wall_s", "s")] + \
    [(m, "s") for m in KIND_METRICS.values()] + [("peak_rss_mb", "MB")]
# per-layer share: (metric, command kind, layer); the share of that kind's
# command time spent in the layer's own code
SHARES = [("refine.partition_share", "partition", "refine.partition"),
          ("bisim.verdict_share", "bisim", "bisim.verdict"),
          ("semantics.check_kb_share", "check-kb", "semantics.eval")]
LAYER_NAMES = list(dict.fromkeys(layer for layer, _, _ in LAYERS))
PER_LAYER = [(layer + "_s", "s") for layer in LAYER_NAMES] + \
    [("semantics.validate_s", "s"), (COMMAND_LAYER + ".self_s", "s")] + \
    [(c, "bytes" if "bytes" in c else "count") for c in COUNTERS] + \
    [(m, "ratio") for m, _, _ in SHARES] + \
    [("semantics.validate_share", "ratio"), ("trace.overhead_ratio", "ratio")]


class BenchError(Exception):
    pass


def _commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _setup_times(spec_path: str, deadline: float, probes: int) -> dict:
    """Seconds from a fresh interpreter to a finished warm-up command.

    Scaled and raw CPU seconds as each probe reports them.  The first
    probe is dropped: it may compile the bytecode cache.
    """
    out: dict[str, list[float]] = {"scaled": [], "cpu": []}
    for i in range(probes + 1):
        try:
            proc = subprocess.run([sys.executable, WORKER, "probe", spec_path], cwd=ROOT,
                                  env=_env(), stdout=subprocess.PIPE,
                                  timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError("set-up probe did not finish in time")
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 3 or lines[0] != b"ready":
            raise BenchError("set-up probe failed: %r, exit %d" % (proc.stdout, proc.returncode))
        if i:
            out["cpu"].append(float(lines[1]))
            out["scaled"].append(float(lines[2]))
    return out


def _layer_metrics(result: dict) -> dict:
    layered = result["layers"]
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    series: dict[str, list[float]] = {}
    for lp in layered:
        for layer in LAYER_NAMES:
            series.setdefault(layer + "_s", []).append(lp["layers"].get(layer, 0.0))
        series.setdefault("semantics.validate_s", []).append(lp["validate_s"])
        series.setdefault(COMMAND_LAYER + ".self_s", []).append(lp["layers"].get(COMMAND_LAYER, 0.0))
        for metric, kind, layer in SHARES + [("semantics.validate_share", "witness", None)]:
            part = lp["by_kind"].get(kind, {})
            own = lp["validate_s"] if layer is None else part.get(layer, 0.0)
            series.setdefault(metric, []).append(own / sum(part.values()) if part else 0.0)
    metrics = {name: _summary(values) for name, values in series.items()}
    for counter in COUNTERS:
        metrics[counter] = _summary([float(lp["counts"].get(counter, 0)) for lp in layered])
    ratio = statistics.median(sum(p["times"]) for p in traced) / \
        statistics.median(sum(p["times"]) for p in plain)
    metrics["trace.overhead_ratio"] = {"value": ratio, "q1": ratio, "q3": ratio, "n": len(traced)}
    return metrics


def _by_kind(result: dict) -> dict:
    """Median self time per command kind and layer over the traced passes."""
    table: dict[str, dict[str, list[float]]] = {}
    for lp in result["layers"]:
        for kind, layers in lp["by_kind"].items():
            for layer, value in layers.items():
                table.setdefault(kind, {}).setdefault(layer, []).append(value)
    return {kind: {layer: statistics.median(v) for layer, v in layers.items()}
            for kind, layers in table.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.build(name, seed, work, smoke)
    spec_path = os.path.join(work, "session.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    setup = _setup_times(spec_path, deadline, 2 if smoke else SETUP_PROBES)

    result_path = os.path.join(work, "result.json")
    proc = subprocess.Popen([sys.executable, WORKER, "run", spec_path, repr(seconds),
                             "1" if trace else "0", result_path], cwd=ROOT, env=_env())
    try:
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload %s did not finish within %.0f s" % (name, RUN_LIMIT_S))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError("workload %s: worker exit %d" % (name, code))
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)

    plain = [p for p in result["passes"] if not p["traced"]]
    if trace:
        metrics = _layer_metrics(result)
        units = dict(PER_LAYER)
    else:
        metrics = {"setup_s": _summary(setup["scaled"]),
                   "wall_s": _summary([sum(p["times"]) for p in plain])}
        for kind, metric in KIND_METRICS.items():
            metrics[metric] = _summary([sum(t for t, k in zip(p["times"], result["kinds"])
                                            if k == kind) for p in plain])
        rss = result["peak_rss_mb"]
        metrics["peak_rss_mb"] = {"value": rss, "q1": rss, "q3": rss, "n": 1}
        units = dict(END_TO_END)
    for metric, entry in metrics.items():
        entry["unit"] = units[metric]
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "sizes": spec["sizes"], "commit": _commit(), "engine": result["engine"],
        "numba": result["numba"], "python": result["python"], "numpy": result["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "passes": len(result["passes"]),
        "commands": len(result["kinds"]), "attempted": result["attempted"],
        "failed": result["failed"], "errors": result["errors"], "untraced": result["untraced"],
        "correct": result["failed"] == 0 and not result["errors"],
        "elapsed_s": perf_counter() - started, "metrics": metrics,
        "unscaled": {
            "setup_cpu_s": statistics.median(setup["cpu"]),
            "pass_cpu_s": statistics.median(sum(p["cpu"]) for p in plain),
            "pass_wall_s": statistics.median(sum(p["wall"]) for p in plain),
            "calibration_s": statistics.median(c for p in plain for c in p["cal"]),
        },
    }
    if trace:
        record["self_s_by_kind"] = _by_kind(result)
    return record


def _print_record(record: dict) -> None:
    print("# %s seed=%d trace=%d engine=%s numba=%s python=%s numpy=%s nproc=%d commit=%s"
          % (record["workload"], record["seed"], record["trace"], record["engine"],
             record["numba"], record["python"], record["numpy"], record["nproc"],
             record["commit"][:12]))
    print("# passes=%d commands/pass=%d attempted=%d failed=%d elapsed=%.1fs"
          % (record["passes"], record["commands"], record["attempted"], record["failed"],
             record["elapsed_s"]))
    for name, m in record["metrics"].items():
        print("%-28s %14.6g %-6s q1=%-12.6g q3=%-12.6g n=%d"
              % (name, m["value"], m["unit"], m["q1"], m["q3"], m["n"]))
    for kind, layers in record.get("self_s_by_kind", {}).items():
        total = sum(layers.values())
        parts = ", ".join("%s %.0f%%" % (layer, 100 * v / total)
                          for layer, v in sorted(layers.items(), key=lambda kv: -kv[1]) if v > 0)
        print("# %-9s %.4fs: %s" % (kind, total, parts))
    for message in record["errors"]:
        print("error: %s: %s" % (record["workload"], message), file=sys.stderr)
    for name in record["untraced"]:
        print("note: %s no longer exists and is not traced" % name, file=sys.stderr)


def _line(records: list[dict], prefix: bool) -> str:
    metrics = {}
    for r in records:
        for name, m in r["metrics"].items():
            key = "%s/%s" % (r["workload"], name) if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({"correct": all(r["correct"] for r in records),
                       "attempted": sum(r["attempted"] for r in records),
                       "failed": sum(r["failed"] for r in records), "metrics": metrics})


def _smoke() -> int:
    problems = []
    for trace in (False, True):
        for name in workloads.WORKLOADS:
            record = run_workload(name, 1, 0.0, trace, smoke=True)
            _print_record(record)
            want = {m for m, _ in (PER_LAYER if trace else END_TO_END)}
            if not record["correct"] or record["failed"]:
                problems.append("%s trace=%d: %s" % (name, trace, record["errors"]))
            if set(record["metrics"]) != want:
                problems.append("%s trace=%d: metrics %s" % (name, trace,
                                                             sorted(set(record["metrics"]) ^ want)))
            if not trace and min(m["value"] for m in record["metrics"].values()) <= 0:
                problems.append("%s: an end-to-end metric is not positive" % name)
    for p in problems:
        print("smoke: %s" % p, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload and check")
    parser.add_argument("--save", help="also write the full records, with metadata, to this file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dlbisim", "cli.py")):
        print("error: %s has no dlbisim sources; run from the root of a checkout"
              % os.path.join(SRC, "dlbisim"), file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return _smoke()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            _print_record(records[-1])
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump({"records": records}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(_line(records, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
