#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json is printed with its unit in both
modes, that a corrupted output is counted as a failed operation, that the
reference comparison trips on a real difference but not on rounding noise,
and that the images-order3 path dump is byte-identical at one and two
workers.
"""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import run  # sets the BLAS thread count before numpy loads

import numpy as np  # noqa: E402

sys.path[:0] = [str(run.SRC)]

import workloads  # noqa: E402


class SelfTestError(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise SelfTestError(message)


def check_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for name in run.WORKLOAD_NAMES:
            done = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            expect(done.returncode == 0, f"{name} trace={trace}: exit {done.returncode}\n"
                                         f"{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: {result['failed']} of {result['attempted']} failed")
            printed = result["metrics"]
            for m in spec[group]:
                expect(m["name"] in printed, f"{name} trace={trace}: {m['name']} missing")
                expect(printed[m["name"]]["unit"] == m["unit"],
                       f"{name}: {m['name']} printed in {printed[m['name']]['unit']}, "
                       f"declared {m['unit']}")
            expect(set(printed) == {m["name"] for m in spec[group]},
                   f"{name} trace={trace}: undeclared metrics "
                   f"{sorted(set(printed) - {m['name'] for m in spec[group]})}")
            if trace == 0:
                expect(all(v["value"] > 0 for v in printed.values()),
                       f"{name}: an end-to-end metric reads 0")
        print(f"ok: every {group} metric printed with its unit on every workload")


def _nan_tensor(state, out):
    out["tensor"].data[0, 0, 0, 0] = np.nan


def _short_path(state, code):
    path = sorted((state.out_dir / "trace").glob("paths_*.csv"))[-1]
    lines = path.read_text().splitlines()
    row = lines[1].split(",")
    row[3] = repr(float(row[3]) * 0.5)  # shorter than the direct path
    path.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")


def _truncated_gain(state, codes):
    path = state.out_dir / "gain.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


class Corrupted:
    """A workload whose every output is damaged after the operation."""

    def __init__(self, wl, corrupt):
        self.wl, self.corrupt = wl, corrupt
        self.name, self.dominant = wl.name, wl.dominant

    def setup(self, *args):
        return self.wl.setup(*args)

    def run(self, state):
        out = self.wl.run(state)
        self.corrupt(state, out)
        return out

    def check(self, *args):
        return self.wl.check(*args)


def check_corruption_fails(workdir):
    args = SimpleNamespace(seed=5, size="tiny", seconds=0.01, trace=0)
    for name, corrupt in (("drive-transition", _nan_tensor),
                          ("images-order3", _short_path),
                          ("measured-analysis", _truncated_gain)):
        wl = workloads.WORKLOADS[name]
        clean = run.measure(wl, args, None, workdir)
        expect(clean["failed"] == 0, f"{name}: clean run failed: {clean['problems']}")
        bad = run.measure(Corrupted(wl, corrupt), args, None, workdir)
        expect(bad["attempted"] >= 1 and bad["failed"] == bad["attempted"],
               f"{name}: corrupted output counted {bad['failed']} failures "
               f"of {bad['attempted']}")
    print("ok: a corrupted output counts as a failed operation on every workload")


def check_reference_tolerance():
    want = np.array([-78.3, 1.2e-8, np.nan])
    expect(not workloads._mismatch("x", want * (1 + 1e-9), want), "rounding noise flagged")
    expect(workloads._mismatch("x", want * (1 + 1e-3), want), "1e-3 change not flagged")
    expect(workloads._mismatch("x", np.nan_to_num(want), want), "NaN change not flagged")
    ref = json.loads(run.REFERENCE.read_text())
    expect(set(ref) == set(run.WORKLOAD_NAMES), f"reference workloads {sorted(ref)}")
    print("ok: reference comparison uses tolerances")


def check_workers_identical(workdir):
    wl = workloads.WORKLOADS["images-order3"]
    state = wl.setup(7, workdir, "tiny")
    expect(state.n_snap >= 4, "too few snapshots to start a worker pool")
    dumps = []
    for workers in (1, 2):
        state.workers = workers
        state.out_dir = workdir / f"images-w{workers}"
        expect(wl.run(state) == 0, f"trace failed at --workers {workers}")
        expect(not wl.check(state, 0, None), f"invalid dump at --workers {workers}")
        dumps.append({p.name: p.read_bytes()
                      for p in sorted((state.out_dir / "trace").glob("*.csv"))})
    expect(dumps[0] == dumps[1], "path dump differs between --workers 1 and 2")
    print("ok: images-order3 path dump byte-identical at --workers 1 and 2")


def main() -> int:
    workdir = run.OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        check_reference_tolerance()
        check_corruption_fails(workdir)
        check_workers_identical(workdir)
        check_printed_metrics()
    except SelfTestError as e:
        print(f"SELFTEST FAILED: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
