"""One workload in one process: set-up, timed repetitions, gates, peak RSS.

Started by ``run.py``, which sets the BLAS and OpenMP thread counts in
this process's environment before it starts, so numpy reads them at
import.  Usage::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace [--build plurigeo|plurigeo_ref] \
        --scratch DIR --result PATH

``setup`` only imports ``--build`` and builds its inputs, and reports the
set-up time.  ``run`` sets up the program, then repeats pairs of one
program and one reference repetition while the next pair is expected to
end within ``--seconds``.  ``trace`` does the
same with pairs of one untraced and one traced program repetition.  The
result is written as JSON to ``--result``.
"""

import time

_T0 = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SOURCES = {"plurigeo": CHECKOUT / "src", "plurigeo_ref": HERE / "reference"}
sys.path[:0] = [str(p) for p in SOURCES.values()] + [str(HERE)]

import numpy as np  # noqa: E402

from run import THREAD_VARS, load_spec  # noqa: E402
from workloads import PROGRAM, REFERENCE, WORKLOADS, Ops, load_build  # noqa: E402


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def _load(package: str):
    build = load_build(package)
    where = Path(build.cli.__file__).resolve().parent
    if where != SOURCES[package] / package:
        raise ImportError(f"{package} imported from {where}, not from {SOURCES[package]}")
    return build


def _prepare(wl, build, package, workdir, seed):
    path = os.path.join(workdir, package)
    os.makedirs(path)
    return wl.prepare(build, path, seed)


def _rep(wl, build, inputs, workdir, index, ops, tracer=None):
    """One program repetition: the timed body, then the untimed gates."""
    out = os.path.join(workdir, f"rep-{index}")
    os.makedirs(out)
    if tracer is None:
        start = time.perf_counter()
        wl.body(build, inputs, out, ops, index)
        elapsed = time.perf_counter() - start
    else:
        with tracer.repetition():
            start = time.perf_counter()
            wl.body(build, inputs, out, ops, index)
            elapsed = time.perf_counter() - start
    checked = wl.verify(inputs, out, ops, index)
    shutil.rmtree(out)
    return elapsed, checked


def _reference_rep(wl, build, inputs, workdir, index):
    """One reference repetition, timed; it is not gated, but must not fail."""
    out = os.path.join(workdir, f"ref-{index}")
    os.makedirs(out)
    ops = Ops()
    start = time.perf_counter()
    wl.body(build, inputs, out, ops, index)
    elapsed = time.perf_counter() - start
    shutil.rmtree(out)
    if ops.failed:
        raise RuntimeError(f"the reference build failed: {ops.failures}")
    return elapsed


def _repeat(seconds, run_one):
    """Repeat while the next repetition is expected to end within ``seconds``."""
    start = time.perf_counter()
    times = []
    while True:
        times.append(run_one())
        elapsed = time.perf_counter() - start
        if elapsed + max(times) > seconds:
            return times


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(
    wl, seed: int, seconds: float, mode: str, scratch: str, t0: float | None = None, package: str = PROGRAM
) -> dict:
    """Run one workload; returns the raw measurements (see ``run.py``)."""
    t0 = time.perf_counter() if t0 is None else t0
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch)
    try:
        if mode == "setup":
            _prepare(wl, _load(package), package, workdir, seed)
            return {"workload": wl.name, "build": package, "setup_s": time.perf_counter() - t0}
        program = _load(PROGRAM)
        inputs = _prepare(wl, program, PROGRAM, workdir, seed)
        raw = {"workload": wl.name, "setup_s": time.perf_counter() - t0}
        ops = Ops()
        observations = {}
        work: list[int] = []

        def rep(tracer=None):
            elapsed, info = _rep(wl, program, inputs, workdir, len(work), ops, tracer)
            work.append(info["work"])
            observations.update(info["observations"])
            return elapsed

        rep_s = []
        if mode == "run":
            start = time.perf_counter()
            rep_s.append(rep())
            # The reference is imported only now, so the peak RSS is the program's own.
            raw["peak_rss_mb"] = _peak_rss_mb()
            reference = _load(REFERENCE)
            ref_inputs = _prepare(wl, reference, REFERENCE, workdir, seed)
            ref_s = [_reference_rep(wl, reference, ref_inputs, workdir, 0)]

            def pair():
                # Both builds run repetition ``index`` (the same input), and
                # they alternate which goes first, so neither gains from order.
                index = len(work)
                if len(ref_s) % 2:
                    ref_s.append(_reference_rep(wl, reference, ref_inputs, workdir, index))
                    rep_s.append(rep())
                else:
                    rep_s.append(rep())
                    ref_s.append(_reference_rep(wl, reference, ref_inputs, workdir, index))
                return rep_s[-1] + ref_s[-1]

            _repeat(seconds - (time.perf_counter() - start), pair)
            raw["ref_s"] = ref_s
        else:
            import tracer as tracing

            tracer = tracing.Tracer()
            traced = []

            def pair():
                rep_s.append(rep())
                traced.append(rep(tracer))
                return rep_s[-1] + traced[-1]

            _repeat(seconds, pair)
            raw["per_layer"] = tracing.per_layer_metrics(
                tracer, load_spec()["per_layer"], len(traced), statistics.fmean(traced), statistics.fmean(rep_s)
            )
            raw["traced_rep_s"] = traced
            raw["peak_rss_mb"] = _peak_rss_mb()
            tracer.write(os.path.join(scratch, f"spans-{wl.name}.json"))
        raw.update(
            rep_s=rep_s,
            work=work,
            attempted=ops.attempted,
            failed=ops.failed,
            failures=ops.failures,
            observations=observations,
            env=environment(seed),
        )
        return raw
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--build", default=PROGRAM, choices=sorted(SOURCES))
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    raw = execute(WORKLOADS[args.workload], args.seed, args.seconds, args.mode, args.scratch, _T0, args.build)
    with open(args.result, "w") as fh:
        json.dump(raw, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
