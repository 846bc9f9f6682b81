"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload order-basis --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: polymatkit is imported from ./src, never
from an installed copy, and the run fails without printing a result when
./src/polymatkit is missing. Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer split (see README.md). End-to-end times are in reference
seconds: wall time scaled by a yardstick probed around each timed stretch
(calibration.py), so that the machine's drifting speed cancels out; the
wall-clock medians are printed and kept in the results file too. Raw
samples go to .perfbench/results/, and spans of traced runs to
.perfbench/spans/.
Exit code 1 means an output failed its independent check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 5     # fresh processes timing import + field + inputs; median reported
COLD_PASSES = 9      # passes after clearing the library's caches; median reported
TAIL = 75            # percentile of pass_s.tail and op_slowdown.tail; a 30 s run
                     # gives 36 to 68 passes, so 9 or more lie beyond it

WORKLOADS = ("order-basis", "expansion", "arbitrary-prime", "cli")

END_TO_END = {
    # name -> unit; fail_rate and wrong_answers are reported as the result
    # line's failed/attempted and correct fields, since they are usually 0
    "pass_s.p50": "s",
    "pass_s.tail": "s",
    "op_s.geomean": "s",
    "op_slowdown.tail": "ratio",
    "setup_s": "s",
    "first_pass_s": "s",
    "peak_rss_mib": "MiB",
}


class SetupError(Exception):
    pass


def _cap_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)


def _sources() -> Path:
    src = ROOT / "src"
    if not (src / "polymatkit" / "__init__.py").is_file():
        raise SetupError(f"no polymatkit sources under {src}")
    return src


def _import_library():
    src = _sources()
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import polymatkit

    if Path(polymatkit.__file__).resolve().parent != (src / "polymatkit").resolve():
        raise SetupError(f"polymatkit was imported from {polymatkit.__file__}, not {src}")
    return polymatkit


def _setup(workload: str, seed: int, workdir: Path):
    """Import the library and build the workload; this is what setup_s times."""
    pk = _import_library()
    import numpy as np

    from perfbench import workloads

    crng = np.random.default_rng([seed, 2])  # the check stream, apart from the inputs
    return workloads.build(workload, pk, seed, crng, str(workdir)), crng


def _setup_probe(workload: str, seed: int) -> dict:
    """Set-up wall time in this (fresh) process, and the yardstick right after it.

    The yardstick runs here, not in the parent, because the child may run on
    another core, at another speed.
    """
    start = time.perf_counter()
    workdir = OUT / "work" / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _setup(workload, seed, workdir)
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    from perfbench import calibration

    return {"setup_s": wall, "probe_s": calibration.probe()}


def _probe_setup_s(workload: str, seed: int) -> dict:
    """Set-up time of a fresh process, which imports everything anew."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def clear_caches():
    """Empty the library's memo caches (twiddles, bit-reversal), keeping fields."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("polymatkit.") or name == "polymatkit.field":
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and getattr(obj, "__module__", "") == name:
                obj.cache_clear()


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


class Runner:
    """Runs passes of one workload and keeps every sample."""

    def __init__(self, wl, seed, crng):
        self.wl, self.seed, self.crng = wl, seed, crng
        self.passes = 0
        self.attempted = self.failed = self.wrong = 0
        self.failures = []
        self.pass_ops = []  # per steady pass: {op name: seconds} of its verified ops

    def op_seeds(self):
        import numpy as np

        rng = np.random.default_rng([self.seed, 1, self.passes])
        return [int(rng.integers(0, 2**31)) for _ in self.wl.ops]

    def run_pass(self, tracer=None):
        """One closed-loop pass; returns (pass seconds, per-op seconds or None)."""
        seeds = self.op_seeds()
        self.passes += 1
        raws, times = [], []
        clock = time.perf_counter
        t_pass = clock()
        for i, op in enumerate(self.wl.ops):
            t0 = clock()
            try:
                raw = op.call(seeds[i]) if tracer is None else tracer.call_op(i, op.name, op.call, seeds[i])
            except Exception as exc:  # a failed op; the pass goes on
                raw = exc
            times.append(clock() - t0)
            raws.append(raw)
        pass_s = clock() - t_pass
        ok = self.check(raws)
        return pass_s, [t if good else None for t, good in zip(times, ok)]

    def collect(self, samples, pass_s, op_s, factor=1.0):
        """Keep a steady pass: its time in ``samples``, its verified ops' in pass_ops.

        Op times are multiplied by ``factor``, the pass's own scaling.
        """
        samples.append(pass_s)
        self.pass_ops.append({op.name: t * factor for op, t in zip(self.wl.ops, op_s)
                              if t is not None})

    def check(self, raws):
        from perfbench import checks, workloads

        ok = []
        for op, raw in zip(self.wl.ops, raws):
            self.attempted += 1
            reason = None
            if isinstance(raw, Exception):
                reason = f"{type(raw).__name__}: {raw}"
            else:
                try:
                    op.check(op.extract(raw), self.crng)
                except workloads.OpFailed as exc:
                    reason = f"OpFailed: {exc}"
                except checks.CheckFailed as exc:
                    self.wrong += 1
                    reason = f"wrong answer: {exc}"
                except Exception as exc:  # an output the checks cannot even read
                    self.wrong += 1
                    reason = f"wrong answer: check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.failed += 1
                self.failures.append({"pass": self.passes, "op": op.name, "reason": reason})
            ok.append(reason is None)
        return ok


def end_to_end(pass_times, pass_ops, setup_s, cold_s, peak_rss_mib):
    """The end-to-end metrics from steady-state pass and op samples.

    An op sample's slowdown is its time over that op's median, divided by
    the median of that ratio over the ops of its own pass: a stretch in
    which the whole machine runs slow moves every op of a pass alike and
    cancels out, while an op that retries or falls back stands out against
    the others of its pass.
    """
    op_times = {}
    for ops in pass_ops:
        for name, t in ops.items():
            op_times.setdefault(name, []).append(t)
    medians = {k: statistics.median(v) for k, v in op_times.items()}
    slowdowns = []
    for ops in pass_ops:
        ratios = [t / medians[k] for k, t in ops.items()]
        if ratios:
            pace = statistics.median(ratios)
            slowdowns += [r / pace for r in ratios]
    return {
        "pass_s.p50": statistics.median(pass_times),
        "pass_s.tail": percentile(pass_times, TAIL),
        "op_s.geomean": math.exp(statistics.fmean(math.log(m) for m in medians.values())),
        "op_slowdown.tail": percentile(slowdowns, TAIL),
        "setup_s": statistics.median(setup_s),
        "first_pass_s": statistics.median(cold_s),
        "peak_rss_mib": peak_rss_mib,
    }


def _peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
                for k, v in deps.items()}
    except TypeError:  # numpy < 1.25 only prints
        blas = None
    return {
        "cpu": _cpu_model(),
        "nproc": NPROC,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": git_sha(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, passes: int | None = None):
    """Run one workload; ``passes`` bounds the steady (or traced) passes, for tests."""
    _sources()
    workdir = OUT / "work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        wl, crng = _setup(workload, seed, workdir)
        setup_main_s = time.perf_counter() - t0
        runner = Runner(wl, seed, crng)
        if trace:
            result = _measure_traced(runner, wl, seed, seconds, passes, setup_main_s)
        else:
            result = _measure_untraced(runner, wl, seed, seconds, passes, setup_main_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["counts"] = (runner.attempted, runner.failed, runner.wrong)
    result["failures"] = runner.failures[:100]
    return result


def _measure_untraced(runner, wl, seed, seconds, passes, setup_main_s):
    from perfbench import calibration

    # Cold passes and set-up probes are spread evenly over the run, so that
    # they see the same mix of machine load as the steady passes around them.
    events = sorted([(i * seconds / COLD_PASSES, "cold") for i in range(COLD_PASSES)]
                    + [((i + 0.5) * seconds / SETUP_PROBES, "probe") for i in range(SETUP_PROBES)])
    setup_s = []  # reference seconds
    wall = {"pass_s": [], "first_pass_s": [], "setup_s": []}
    scaler = calibration.Scaler()
    cold, steady = [], []  # stretch index; (stretch index, op seconds)

    def run_event(kind):
        if kind == "cold":
            clear_caches()
            t = runner.run_pass()[0]
            wall["first_pass_s"].append(t)
            cold.append(scaler.add(t))
        else:
            child = _probe_setup_s(wl.name, seed)
            wall["setup_s"].append(child["setup_s"])
            setup_s.append(child["setup_s"] * calibration.REFERENCE_S / child["probe_s"])
            scaler.restart()

    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds and (
            passes is None or len(steady) < passes):
        if events and elapsed >= events[0][0]:
            run_event(events.pop(0)[1])
        else:
            t, op_s = runner.run_pass()
            wall["pass_s"].append(t)
            steady.append((scaler.add(t), op_s))
    for _, kind in events:  # a run cut short by ``passes`` still takes every sample
        run_event(kind)
    factors = scaler.factors()
    scaled = [wall_s * f for (wall_s, _), f in zip(scaler.stretches, factors)]
    cold = [scaled[i] for i in cold]
    pass_times = []
    for i, op_s in steady:
        runner.collect(pass_times, scaled[i], op_s, factors[i])
    metrics = end_to_end(pass_times, runner.pass_ops, setup_s, cold, _peak_rss_mib())
    return {
        "metrics": metrics,
        "wall_metrics": {"pass_s.p50": statistics.median(wall["pass_s"]),
                         "setup_s": statistics.median(wall["setup_s"]),
                         "first_pass_s": statistics.median(wall["first_pass_s"])},
        "samples": {"pass_s": pass_times, "op_s": runner.pass_ops, "first_pass_s": cold,
                    "setup_s": setup_s, "setup_main_s": setup_main_s, "wall": wall,
                    "calibration_probe_s": scaler.probes, "scale_factors": factors},
    }


def _measure_traced(runner, wl, seed, seconds, passes, setup_main_s):
    from perfbench import tracing

    tracer = tracing.Tracer()
    runner.run_pass()  # warm the caches; not counted
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and (passes is None or len(traced) < passes):
        runner.collect(plain, *runner.run_pass())
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer)[0])
        finally:
            tracer.uninstall()
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics, seconds = tracing.per_layer_metrics(tracer, len(traced), statistics.fmean(traced),
                                                 overhead)
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_dir / f"{wl.name}.seed{seed}.jsonl")
    return {
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "units": {k: v["unit"] for k, v in metrics.items()},
        "seconds": seconds,
        "samples": {"pass_s": plain, "traced_pass_s": traced, "setup_main_s": setup_main_s},
        "spans": {"kept": len(tracer.span_start), "dropped": tracer.dropped},
    }


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    _cap_threads()
    args = _parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps(_setup_probe(args.workload, args.seed)))
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    return _report(args, result)


def _report(args, result) -> int:
    attempted, failed, wrong = result.pop("counts")
    units = result.get("units") or END_TO_END
    names = list(units)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"passes {len(result['samples']['pass_s'])}"
          + (f" traced {len(result['samples']['traced_pass_s'])}" if args.trace else ""))
    for name in names:
        print(f"{name} {result['metrics'][name]!r} {units[name]}")
    for name, value in result.get("wall_metrics", {}).items():
        print(f"wall {name} {value!r} s")
    print(f"fail_rate {failed / attempted!r} ratio")
    print(f"wrong_answers {wrong} count")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed, "wrong_answers": wrong,
        "percentiles": {"pass_s.tail": TAIL, "op_slowdown.tail": TAIL},
        "machine": machine_record(), **result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}.{time.time_ns()}"
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": result["metrics"][n], "unit": units[n]} for n in names},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
