#!/usr/bin/env python3
"""v2vchan benchmark: closed-loop runs of one workload, untraced or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload drive-transition --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --write-reference         # refresh reference.json

``--trace 0`` reports the end-to-end metrics (``run_per_probe``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` reports the per-layer metrics from traced
operations interleaved with untraced ones.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with the environment, every sample and the
span table, goes to ``.perfbench_out/results/``.  See ``perfbench/README.md``.
"""

import os

# Fixed before numpy loads, and the same on every commit measured.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["V2VCHAN_WORKERS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("drive-transition", "images-order3", "measured-analysis")

# Set-up repeats between operations, at most once per operation, while it
# has taken less than SETUP_SHARE of the run and until it has run
# SETUP_MIN_REPS times, so its samples span the run as the operations do.
SETUP_MIN_REPS, SETUP_SHARE = 3, 0.25


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the self-test")
    ap.add_argument("--write-reference", action="store_true",
                    help="run each workload once at the default seed and rewrite reference.json")
    return ap.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "v2vchan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": BLAS_THREADS,
            "git_commit": _git_commit(), "src_sha256": _src_digest()}


def timed_setup(wl, seed, workdir, size):
    t0 = time.perf_counter()
    state = wl.setup(seed, workdir, size)
    return time.perf_counter() - t0, state


def probe(a) -> float:
    """Seconds taken by a fixed piece of CPU work (an interpreter loop and
    FFTs of ``a``) that calls no v2vchan code.  A change to the program
    cannot move it, while neighbours on a shared host slow it as much as
    they slow the operation run next to it."""
    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for i in range(150_000):
        acc += math.sqrt((i * 0.37) % 7.1)
        seen[i % 1021] = acc
    spec = a
    for _ in range(10):
        spec = np.fft.fft(np.fft.ifft(spec, axis=1) * a, axis=1)
    return time.perf_counter() - t0


def run_op(wl, state, ref, tracer=None):
    """One timed operation and its output check: (seconds, problems)."""
    with tracer.installed() if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            out = wl.run(state)
        except Exception:  # a failed operation is counted, not fatal
            return time.perf_counter() - t0, [traceback.format_exc(limit=4)]
        dt = time.perf_counter() - t0
    try:
        return dt, wl.check(state, out, ref)
    except Exception:
        return dt, ["output check raised: " + traceback.format_exc(limit=4)]


def measure(wl, args, ref, workdir):
    """Run the closed loop for ``args.seconds``; returns the run record."""
    from tracer import Tracer, layer_metrics, shares

    setup_tracer, op_tracer = Tracer(), Tracer()
    with setup_tracer.installed() if args.trace else nullcontext():
        dt, state = timed_setup(wl, args.seed, workdir, args.size)
    setup_times = [dt]
    # unit-modulus, so the probe's FFTs neither grow nor shrink their input
    probe_input = np.exp(2j * np.pi * np.random.default_rng(0).random((64, 1024)))
    probes = [probe(probe_input)]
    plain, traced, problems, per_probe = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    modes = [(None, plain), (op_tracer, traced)][:1 + args.trace]
    while True:
        if not args.trace and (len(setup_times) < SETUP_MIN_REPS or sum(setup_times[1:])
                               < SETUP_SHARE * (time.perf_counter() - start)):
            # the repeat's state is discarded: operations keep the first one
            setup_times.append(timed_setup(wl, args.seed, workdir, args.size)[0])
        modes.reverse()  # traced and untraced take turns going first
        for tracer, samples in modes:
            dt, found = run_op(wl, state, ref, tracer)
            samples.append(dt)
            probes.append(probe(probe_input))
            if tracer is None:
                per_probe.append(dt / (0.5 * (probes[-2] + probes[-1])))
            attempted += 1
            if found:
                failed += 1
                problems.extend(found[:3])
        if time.perf_counter() >= deadline:
            break
    record = {"samples_s": plain, "setup_samples_s": setup_times,
              "probe_samples_s": probes, "per_probe_samples": per_probe,
              "run_min_s": min(plain), "run_median_s": statistics.median(plain),
              "run_p90_s": statistics.quantiles(plain, n=10)[-1] if len(plain) > 1 else plain[0],
              "attempted": attempted, "failed": failed, "problems": problems[:20]}
    if args.trace:
        overhead = statistics.median(traced) / statistics.median(plain)
        metrics = layer_metrics(op_tracer, setup_tracer, len(traced), sum(traced), overhead)
        record.update(traced_samples_s=traced, spans=op_tracer.record(),
                      setup_spans=setup_tracer.record(),
                      shares_pct=shares(op_tracer, sum(traced), wl.dominant))
    else:
        # On a shared host, neighbours slow stretches of a run by up to 90 %
        # and for minutes at a time.  The probes before and after each
        # operation are slowed alike, so the ratio cancels the slowdown that
        # the operation's own wall time keeps.
        metrics = {"run_per_probe": (statistics.median(per_probe), "ratio"),
                   "setup_s": (min(setup_times), "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   "MB")}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def print_summary(name, record):
    n = len(record["samples_s"])
    print(f"== {name}: {record['attempted']} operations, {record['failed']} failed "
          f"(fail_frac {record['failed'] / record['attempted']:.4g}), "
          f"{n} untraced samples; min {record['run_min_s']:.6g} s, "
          f"median {record['run_median_s']:.6g} s, p90 {record['run_p90_s']:.6g} s")
    for key, m in record["metrics"].items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    for p in record["problems"]:
        print(f"  FAILED: {p.strip()}")


def run_one(args) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    wl = WORKLOADS[args.workload]
    ref = None
    if args.seed == DEFAULT_SEED and args.size == "full":
        ref = json.loads(REFERENCE.read_text())[wl.name]
    workdir = OUT / f"work-{wl.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        record = measure(wl, args, ref, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env, **record}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{wl.name}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    out.write_text(json.dumps(record, indent=1))
    print_summary(wl.name, record)
    if args.trace:
        pct = record["shares_pct"]
        print("  share of traced wall time: "
              + ", ".join(f"{k} {v:.1f}%" for k, v in pct.items()))
        print(f"  coverage {record['metrics']['trace.coverage_pct']['value']:.1f}%; "
              f"absent targets: {record['spans']['absent'] or 'none'}; "
              f"hook errors: {record['spans']['hook_errors'] or 'none'}")
    print("env: " + json.dumps(env))
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"== {name}: benchmark exited with {done.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print("\nworkload            metric                                   value        unit")
    for name, res in results.items():
        print(f"{name:19s} {'fail_frac':40s} {res['failed'] / res['attempted']:<12.6g} 1")
        for key, m in res["metrics"].items():
            print(f"{name:19s} {key:40s} {m['value']:<12.6g} {m['unit']}")
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": m for name, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return status


def write_reference() -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    ref = {}
    for name, wl in WORKLOADS.items():
        workdir = OUT / f"reference-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            state = wl.setup(DEFAULT_SEED, workdir, "full")
            out = wl.run(state)
            problems = wl.check(state, out, None)
            if problems:
                print(f"{name}: invariants fail, reference not written: {problems}",
                      file=sys.stderr)
                return 1
            ref[name] = wl.reference(state, out)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "v2vchan" / "__init__.py").is_file():
        print(f"perfbench: no v2vchan package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
