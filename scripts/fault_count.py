#!/usr/bin/env python3
"""Minor page faults and time per repetition of a benchmark body.

Runs the timed body of one ``perfbench`` workload for the program
(``src/plurigeo``) and, unless ``--alone``, for the frozen reference build
(``perfbench/reference/plurigeo_ref``), alternating which goes first, in
this one process, as the benchmark's measuring worker does.  For each
build it prints the median body time and the median number of minor page
faults (``ru_minflt`` of ``getrusage`` on this process) per body: a
program that allocates and frees large arrays on every call faults its
pages back in each time, which shows here without the harness.  The BLAS
thread counts are pinned as the benchmark pins them.  The workloads are
imported from ``perfbench/workloads.py`` and not changed.

Usage: python scripts/fault_count.py [--workload flow-torus] [--seed 1]
       [--reps 20] [--alone]
"""

import argparse
import contextlib
import io
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "perfbench" / "reference"), str(CHECKOUT / "perfbench")]

from run import THREAD_VARS, THREADS  # noqa: E402  (imports no numpy)

for var in THREAD_VARS:
    os.environ[var] = THREADS

from workloads import PROGRAM, REFERENCE, WORKLOADS, Ops, load_build  # noqa: E402


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _body(wl, build, inputs, workdir, index):
    """One repetition of ``build``: seconds and minor faults of its body."""
    out = tempfile.mkdtemp(prefix="rep-", dir=workdir)
    ops = Ops()
    with contextlib.redirect_stdout(io.StringIO()):  # the CLI's progress lines
        faults, start = _faults(), time.perf_counter()
        wl.body(build, inputs, out, ops, index)
        elapsed, faults = time.perf_counter() - start, _faults() - faults
    shutil.rmtree(out)
    if ops.failed:
        raise RuntimeError(f"{build.cli.__name__} failed: {ops.failures}")
    return elapsed, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="flow-torus", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=20, help="repetitions of each build")
    parser.add_argument("--alone", action="store_true", help="run the program's body only")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    wl = WORKLOADS[args.workload]
    packages = (PROGRAM,) if args.alone else (PROGRAM, REFERENCE)
    with tempfile.TemporaryDirectory(prefix="fault-count-") as workdir:
        builds, inputs = {}, {}
        for package in packages:
            builds[package] = load_build(package)
            os.makedirs(os.path.join(workdir, package))
            inputs[package] = wl.prepare(builds[package], os.path.join(workdir, package), args.seed)
        for package in packages:  # warm-up: lazy set-up and caches
            _body(wl, builds[package], inputs[package], workdir, 0)
        samples = {package: [] for package in packages}
        for index in range(args.reps):
            order = packages if index % 2 == 0 else packages[::-1]
            for package in order:
                samples[package].append(_body(wl, builds[package], inputs[package], workdir, index))
    print(f"{wl.name}, seed {args.seed}, {args.reps} repetitions per build, alternating")
    for package, runs in samples.items():
        seconds = statistics.median(s for s, _ in runs)
        faults = statistics.median(f for _, f in runs)
        print(f"{package:14s} median body {seconds * 1e3:9.2f} ms   minor faults per body {faults:9.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
