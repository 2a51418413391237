"""twistnet benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload small_batch_train --seed 0 --seconds 30 --trace 0

Run from the root of a twistnet checkout; the package is imported from its
``src/`` directory. ``--trace 0`` times the workload with nothing patched and
prints every end-to-end metric of BENCHMARK.json. ``--trace 1`` first runs
one untraced pass, then traced passes that wrap twistnet's public functions,
and prints every per-layer metric. Every output line but the last starts
with ``#``; the last is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The traced run also writes its spans to
``.perfbench_out/``. Work files live in ``.perfbench_work/`` while it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_ITERATIONS = 2  # checkpoint bytes are compared between repeats


class OpFailed(Exception):
    """An operation raised; the rest of its iteration is skipped."""


class Recorder:
    """Times operations, counts attempts and failures, collects rates."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.tracing = False
        self.times: dict[str, list[float]] = defaultdict(list)
        self.rates: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._last_op = None
        self._last_failed = False

    def run(self, op, fn, *args):
        self.attempted += 1
        self._last_op, self._last_failed = op, False
        if self.tracing:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            if self.tracing:
                with self.tracer.span(f"bench.{op}"):
                    result = fn(*args)
            else:
                result = fn(*args)
        except Exception as exc:  # any failure of the program is a failed operation
            self._fail(f"{op}: {type(exc).__name__}: {exc}")
            raise OpFailed(op) from exc
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        dt = time.perf_counter() - start
        self.times[op].append(dt)
        return result, dt

    def group(self, fn, *args):
        """Run operations that depend on each other: a failure skips the rest
        of the group, and the round goes on with the next group."""
        try:
            fn(*args)
        except OpFailed:
            pass

    def check(self, ok, what):
        """A failed check fails the most recent operation, once."""
        if not ok:
            self._fail(f"{self._last_op}: check failed: {what}")

    def verify(self, what, problems):
        """A stand-alone check counted as an operation of its own."""
        self.attempted += 1
        self._last_op, self._last_failed = what, False
        for problem in problems:
            self._fail(f"{what}: {problem}")

    def rate(self, metric, value):
        self.rates[metric].append(value)

    def _fail(self, message):
        self.errors.append(message)
        if not self._last_failed:
            self.failed += 1
            self._last_failed = True


def summarize(values):
    """Median, quartiles, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out.update(q1=q1, q3=q3)
    for p in (99.9, 99, 95, 90, 75, 50):
        if math.floor(n * (1 - p / 100)) >= 10:
            out[f"p{p:g}"] = statistics.quantiles(xs, n=1000)[int(p * 10) - 1]
            break
    return out


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def machine():
    """The hardware and numerical stack a result was measured on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(np),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_bytes": _l3_bytes(),
    }


def _blas_threads(np):
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _l3_bytes():
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        except (OSError, ValueError):
            continue
    return None


def import_twistnet():
    """Import twistnet from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "twistnet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no twistnet sources at {src}/twistnet")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import twistnet
    import twistnet.cli  # noqa: F401  (the CLI is part of what every user imports)
    elapsed = time.perf_counter() - start
    if Path(twistnet.__file__).resolve().parent != (src / "twistnet").resolve():
        raise SystemExit(f"perfbench: imported twistnet from {twistnet.__file__}, not {src}")
    return twistnet, elapsed


def trace_problems(tracer, expect):
    """Counts the traced pass must reproduce, as a list of mismatches."""
    from tracing import nearest

    names, _, _, parent = tracer.arrays()
    op = nearest(names, parent, lambda n: n.startswith("bench."))

    def count(name, in_op):
        return sum(1 for i, n in enumerate(names) if n == name and op[i] >= 0
                   and names[op[i]] == in_op)

    problems = []
    steps = count("train.adam_step", "bench.train")
    if steps != expect.get("train_steps"):
        problems.append(f"adam_step ran {steps} times, results imply "
                        f"{expect.get('train_steps')} steps")
    softmax = count("layers.softmax_cross_entropy", "bench.train")
    evals = count("train.evaluate", "bench.train")
    if softmax != 2 * steps + evals:
        problems.append(f"softmax_ce ran {softmax} times in train, expected "
                        f"2 x {steps} steps + {evals} evaluate calls")
    params = [tracer.attrs[i]["params"] for i, n in enumerate(names)
              if n == "train.grad_check_report"]
    if params:
        softmax = count("layers.softmax_cross_entropy", "bench.gradcheck")
        if softmax != 1 + 4 * params[0]:
            problems.append(f"softmax_ce ran {softmax} times in gradcheck, expected "
                            f"1 + 4 x {params[0]} parameters")
    return problems


def run_untraced(wl, rec, seconds):
    setup = []
    for _ in range(SETUP_REPEATS):
        _, dt = rec.run("setup", wl.setup)
        setup.append(dt)
    deadline = time.perf_counter() + seconds
    iterations = 0
    while iterations < MIN_ITERATIONS or time.perf_counter() < deadline:
        try:
            wl.iteration(rec)
        except OpFailed:
            pass
        iterations += 1
    return setup


def run_traced(tn, wl, rec, seconds):
    """One untraced reference pass, then traced passes until time is up.

    Returns (per-layer metrics averaged over traced passes, the overhead of
    tracing on each end-to-end rate, the span table and spans of the last pass).
    """
    from tracing import Tracer, count_draws, layer_metrics, span_table

    ref = Recorder()
    try:
        with count_draws(tn.ndcore.Rng) as made:
            _, ref_setup = ref.run("setup", wl.setup)
            wl.iteration(ref)
    finally:
        rec.errors.extend(f"untraced pass: {e}" for e in ref.errors)
        rec.failed += ref.failed
        rec.attempted += ref.attempted
    ref_draws = sum(r._counter for r in made)

    tracer = Tracer()
    rec.tracer = tracer
    tracer.install()
    try:
        deadline = time.perf_counter() + seconds
        passes, setups = [], []
        while not passes or time.perf_counter() < deadline:
            tracer.clear()
            rec.tracing = True
            try:
                # the workload compares each checkpoint's bytes with the
                # previous one's, so the first traced pass checks them
                # against the untraced pass
                with count_draws(tn.ndcore.Rng) as made:
                    _, dt = rec.run("setup", wl.setup)
                    wl.iteration(rec)
            except OpFailed:
                break
            finally:
                rec.tracing = False
            setups.append(dt)
            problems = trace_problems(tracer, wl.expect)
            draws = sum(r._counter for r in made)
            if draws != ref_draws:
                problems.append(f"traced pass drew {draws} random values, untraced {ref_draws}")
            rec.verify("trace self-check", problems)
            passes.append(layer_metrics(tracer))
        table = span_table(tracer)
        table_names = sorted(set(tracer.names))
        code = {name: i for i, name in enumerate(table_names)}
        spans = {"names": table_names, "name": [code[n] for n in tracer.names],
                 "start_ns": tracer.start, "end_ns": tracer.end, "parent": tracer.parent}
    finally:
        tracer.uninstall()

    keys = sorted(set().union(*passes)) if passes else []
    metrics = {k: statistics.fmean(p.get(k, 0.0) for p in passes) for k in keys}
    overhead = {"setup_s": median_or_zero(setups) - ref_setup}
    for metric, values in rec.rates.items():
        overhead[metric] = median_or_zero(values) - median_or_zero(ref.rates[metric])
    return metrics, overhead, table, spans


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    from workloads import SCALES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'tiny' only exercises the plumbing")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tn, import_s = import_twistnet()
    info = machine()
    cfg = SCALES[args.scale][args.workload]
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print(f"# machine {json.dumps(info, sort_keys=True)}")
    if args.workload == "wide_batch" and info["l3_bytes"]:
        block = cfg["rows"] * math.comb(cfg["features"], cfg["m"]) * 8
        print(f"# working set: one expanded block is {block / 1e6:.0f} MB, "
              f"{block / info['l3_bytes']:.1f} x the L3 cache")

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        wl = WORKLOADS[args.workload](tn, cfg, args.seed, Path(tmp))
        rec = Recorder()
        if args.trace:
            try:
                layer, overhead, table, spans = run_traced(tn, wl, rec, args.seconds)
            except OpFailed:
                layer, overhead, table, spans = {}, {}, {}, {}
            values = dict(layer)
            values.update({f"trace_overhead.{k}": v for k, v in overhead.items()})
            wanted = spec["per_layer"]
        else:
            try:
                setup = run_untraced(wl, rec, args.seconds)
            except OpFailed:
                setup = []
            values = {m: median_or_zero(v) for m, v in rec.rates.items()}
            values["setup_s"] = import_s + median_or_zero(setup)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = spec["end_to_end"]

    print(f"# import_s {import_s:.6f} (added once to setup_s)")
    for op, times in sorted(rec.times.items()):
        print(f"# op {op} seconds {json.dumps(summarize(times))}")
    for metric, rates in sorted(rec.rates.items()):
        print(f"# rate {metric} {json.dumps(summarize(rates))}")
    for key, samples in sorted(wl.details.items()):
        print(f"# detail {key} {json.dumps(summarize(samples))}")
    if args.trace:
        listed = {m["name"] for m in spec["per_layer"]}
        for key in sorted(values):
            mark = "" if key in listed else "  (not in BENCHMARK.json: not on every workload)"
            print(f"# layer {key} {values[key]:.6g}{mark}")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps({"machine": info, "args": vars(args), "metrics": values,
                                    "span_table_last_pass": table,
                                    "spans_last_pass": spans}))
        print(f"# spans written to {path.relative_to(ROOT)}")
    for error in rec.errors:
        print(f"perfbench: {error}", file=sys.stderr)

    metrics = {}
    for m in wanted:
        if m["name"] not in values and not rec.failed:
            raise SystemExit(f"perfbench: metric {m['name']} was not measured")
        # a failed run may leave a metric unmeasured; it reads 0 and correct is false
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    print(json.dumps({"correct": rec.failed == 0 and rec.attempted > 0,
                      "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
