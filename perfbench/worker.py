"""One workload session in a fresh interpreter.

    worker.py probe SPEC            import dlbisim.cli, run the warm-up
                                    command, print "ready" and set-up times
    worker.py run SPEC SECONDS TRACE RESULT

`run` repeats the session (a closed loop: one command at a time, each
through dlbisim.cli.main in this process) until SECONDS have passed,
checks every output outside the timed region, and writes timings,
checks and, with TRACE=1, per-layer self times and counters to RESULT.
With TRACE=1 untraced and traced passes alternate, so that the two
give the tracing overhead.  run.py starts this; PYTHONPATH must hold the
checkout's src directory.

Times are CPU seconds of this process (the program is single-threaded
and its only I/O is reading and writing files in the page cache),
scaled to a reference speed.  On a shared machine the speed of the same
code drifts by up to 2x within minutes, in CPU time as much as in wall
time.  A fixed calibration loop runs between commands; a command's
time is its CPU time times CAL_REF_S over the median of the six
calibration times nearest to it (three before, three after), i.e. the
seconds it would take where the calibration loop takes CAL_REF_S.  Raw
wall and CPU times are kept in RESULT too.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import sys
from time import perf_counter, process_time

MIN_PASSES = 3
CAL_REF_S = 0.03


def _load_spec(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _call(main, argv: list) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2


def calibrate() -> float:
    """CPU seconds of a fixed mix of the kinds of work dlbisim does.

    Python loops over numpy scalars (the refinement kernel), building
    tuples, sets and adjacency dicts (documents and interpretations), and
    JSON text round trips (loading and writing documents).
    """
    import numpy

    start = process_time()
    rng = random.Random(0)
    pairs = [(rng.randrange(30000), rng.randrange(30000)) for _ in range(15000)]
    adjacency: dict = {}
    for x, y in frozenset(pairs):
        adjacency.setdefault(x, []).append(y)
    json.loads(json.dumps({"roles": sorted(pairs)}))
    arr = numpy.zeros(30000, dtype=numpy.int64)
    for x, y in pairs[:5000]:
        arr[x] = arr[y] + 1
    return process_time() - start


def probe(spec_path: str) -> None:
    """Report set-up CPU seconds, then the scaled value once calibrated."""
    from dlbisim import cli

    code = _call(cli.main, _load_spec(spec_path)["warmup"])
    setup = process_time()
    if code != 0:
        print("warm-up exit %d" % code, flush=True)
        return
    print("ready %r" % setup, flush=True)
    cals = sorted(calibrate() for _ in range(3))
    print(repr(setup * CAL_REF_S / cals[1]), flush=True)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        return ""


# The benchmark's own modules are imported inside the functions that use
# them, so that the set-up probe does not pay for them.


def _layer_pass(tracer, commands: list, scale: list[float]) -> dict:
    """Scaled self time per layer and per command kind, from one traced pass."""
    from tracer import self_times

    layers: dict[str, float] = {}
    by_kind: dict[str, dict[str, float]] = {}
    validate = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        layer, command = span[0], span[5]
        own *= scale[command]
        layers[layer] = layers.get(layer, 0.0) + own
        kind = by_kind.setdefault(commands[command]["kind"], {})
        kind[layer] = kind.get(layer, 0.0) + own
        if layer == "semantics.eval" and tracer.spans[span[4]][0] == "quotient.witness":
            validate += own
    return {"layers": layers, "by_kind": by_kind, "validate_s": validate,
            "counts": dict(tracer.counts)}


def _check(first: list, i: int, cmd: dict, code: int) -> str | None:
    """Why command i's output is wrong, or None; later passes must repeat the first."""
    import workloads

    text = _read(cmd["argv"][cmd["argv"].index("--output") + 1])
    if first[i] is None:
        try:
            why = workloads.check(cmd["check"], code, text)
        except Exception as exc:  # a malformed output is a failed check
            why = "check raised %s: %s" % (type(exc).__name__, exc)
        first[i] = (code, text, why)
        return why
    if (code, text) != first[i][:2]:
        return "output differs from the first pass"
    return first[i][2]


def run(spec_path: str, seconds: float, trace: bool, result_path: str) -> None:
    import numpy

    import dlbisim
    from dlbisim import _kernels, cli

    from tracer import Tracer

    spec = _load_spec(spec_path)
    commands = spec["commands"]
    warm = _call(cli.main, spec["warmup"])
    first: list = [None] * len(commands)
    errors: list[str] = []
    passes: list[dict] = []
    layer_passes: list[dict] = []
    spans: list = []
    untraced: list[str] = []
    attempted = failed = 0
    start = perf_counter()
    while len(passes) < MIN_PASSES * (2 if trace else 1) or perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if traced:
            tracer.install()
        walls, cpus, codes = [], [], []
        gc.collect()
        cals = [calibrate()]
        for i, cmd in enumerate(commands):
            if traced:
                tracer.begin(i, cmd["kind"])
            t0, c0 = perf_counter(), process_time()
            code = _call(cli.main, cmd["argv"])
            cpus.append(process_time() - c0)
            walls.append(perf_counter() - t0)
            if traced:
                tracer.end()
            codes.append(code)
            cals.append(calibrate())
        scale = [CAL_REF_S / statistics.median(cals[max(0, i - 2):i + 4])
                 for i in range(len(commands))]
        if traced:
            tracer.uninstall()
            tracer.settle()
            layer_passes.append(_layer_pass(tracer, commands, scale))
            spans += [s + [len(passes)] for s in tracer.spans]
            untraced = tracer.missing
        passes.append({"traced": traced, "times": [c * k for c, k in zip(cpus, scale)],
                       "cpu": cpus, "wall": walls, "cal": cals})
        for i, cmd in enumerate(commands):
            why = _check(first, i, cmd, codes[i])
            attempted += 1
            if why is not None:
                failed += 1
                message = "command %d (%s): %s" % (i, cmd["kind"], why)
                if message not in errors:
                    errors.append(message)

    counts = [lp["counts"] for lp in layer_passes]
    if any(c != counts[0] for c in counts):
        errors.append("deterministic counters differ between traced passes: %r" % counts)
    if warm != 0:
        errors.append("warm-up command exit %d" % warm)
    result = {
        "engine": dlbisim.active_engine(),
        "numba": bool(_kernels.HAVE_NUMBA),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kinds": [cmd["kind"] for cmd in commands],
        "passes": passes,
        "layers": layer_passes,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "untraced": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if trace:
        with open(os.path.join(os.path.dirname(result_path), "spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"clock": "process CPU seconds, unscaled",
                       "columns": ["layer", "function", "start", "end", "parent", "command",
                                   "pass"], "spans": spans}, handle)


if __name__ == "__main__":
    if sys.argv[1] == "probe":
        probe(sys.argv[2])
    else:
        run(sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1", sys.argv[5])
