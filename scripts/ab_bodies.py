#!/usr/bin/env python3
"""Alternating body times and page faults of one or two builds in one process.

Each side is a build: a checkout, meaning its ``src/plurigeo``, or a
package directory such as ``perfbench/reference/plurigeo_ref``.  The
sides are imported into this one process under the package names
``plurigeo_a`` and ``plurigeo_b``, as the benchmark's measuring worker
imports the program and the frozen reference, and the timed body of one
``perfbench`` workload runs for each, alternating which goes first.  For
each side it prints the median and quartiles of the body time and the
median number of minor page faults (``ru_minflt`` of ``getrusage`` on
this process) per body: a program that allocates and frees large arrays
on every call faults its pages back in each time, which shows here
without the harness.  With two sides it then prints the median of the
per-pair ratios B/A and the number of pairs in which B was faster; a
single side runs alone, ``--pairs`` times.  Each side builds its own
inputs with ``prepare`` and runs one warm-up body first.

A against B is the in-process A/B of a change; the parent against a
padded parent (the parent with the change's new code pasted in unused) is
the layout control for a claimed gain, in one command.  The BLAS thread
counts are pinned as the benchmark pins them; ``PLURIGEO_THREADS`` is read
from the environment.  The workloads are imported from this checkout's
``perfbench/workloads.py`` and not changed.

Usage: python scripts/ab_bodies.py A [B] [--workload flow-torus] [--seed 1]
       [--pairs 20]
"""

import argparse
import contextlib
import importlib.util
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
sys.path[:0] = [str(CHECKOUT / "perfbench")]

from run import THREAD_VARS, THREADS  # noqa: E402  (imports no numpy)

for var in THREAD_VARS:
    os.environ[var] = THREADS

from workloads import WORKLOADS, Ops, load_build  # noqa: E402

SIDES = ("plurigeo_a", "plurigeo_b")


def _import_as(name: str, side: Path) -> None:
    """Import the package of ``side`` (a checkout's ``src/plurigeo``, or
    ``side`` itself) as the package ``name``; its modules import each other
    relatively, so they stay within the package."""
    for package in (side / "src" / "plurigeo", side):
        init = package / "__init__.py"
        if init.is_file():
            break
    else:
        raise SystemExit(f"{side}: neither a checkout with src/plurigeo nor a package directory")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)


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


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="build A (the baseline)")
    parser.add_argument("b", type=Path, nargs="?", help="build B; without it, A runs alone")
    parser.add_argument("--workload", default="flow-torus", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=20, help="alternating pairs of bodies")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    wl = WORKLOADS[args.workload]
    paths = (args.a,) if args.b is None else (args.a, args.b)
    sides = SIDES[: len(paths)]
    for side, build in zip(sides, paths):
        _import_as(side, build.resolve())
    with tempfile.TemporaryDirectory(prefix="ab-bodies-") as workdir:
        builds, inputs = {}, {}
        for side in sides:
            builds[side] = load_build(side)
            os.makedirs(os.path.join(workdir, side))
            inputs[side] = wl.prepare(builds[side], os.path.join(workdir, side), args.seed)
        for side in sides:  # warm-up: lazy set-up and caches
            _body(wl, builds[side], inputs[side], workdir, 0)
        samples = {side: [] for side in sides}
        for index in range(args.pairs):
            for side in sides if index % 2 == 0 else sides[::-1]:
                samples[side].append(_body(wl, builds[side], inputs[side], workdir, index))
    print(f"{wl.name}, seed {args.seed}, {args.pairs} {'alternating pairs' if len(sides) == 2 else 'bodies'}")
    for side, build in zip(sides, paths):
        q1, med, q3 = _quartiles([s for s, _ in samples[side]])
        faults = statistics.median(f for _, f in samples[side])
        print(
            f"{side[-1].upper()} {str(build):30s} median body {med * 1e3:9.3f} ms "
            f"[{q1 * 1e3:.3f}, {q3 * 1e3:.3f}]   minor faults per body {faults:8.0f}"
        )
    if len(sides) == 2:
        ratios = [b / a for (a, _), (b, _) in zip(*samples.values())]
        wins = sum(r < 1.0 for r in ratios)
        print(f"B/A median ratio {statistics.median(ratios):.4f}; B faster in {wins}/{len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
