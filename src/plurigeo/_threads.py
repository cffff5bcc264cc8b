"""The one worker thread of the stencil pass, the surface kernel and the
identity suite.

:func:`plurigeo.grid._jet_pass` and :func:`plurigeo.hermitian.surface_flow`
(an RK4 stage's kernel and a record's, whatever outputs it is asked for)
split their whole-grid work between the calling thread and this worker
on grids of at least ``SPLIT_NODES`` nodes, and
:func:`plurigeo.hermitian.identity_suite` its batches of at least
``SPLIT_JETS`` jets, when two threads are allowed; smaller
work runs all of it in the calling thread and starts no thread.  Each
part keeps its operations, operands and order, so every result is
bit-identical for every thread count.  The worker runs under the
caller's numpy error state.  Its parts call the public kernels of
:mod:`plurigeo.hermitian` (the identity suite's half does), so a
:func:`split` entered in the worker runs all its parts there, in order:
handing them to itself would wait on itself forever.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# Nodes from which work is split, one threshold for the stencil pass and
# the surface kernel.  On a 2-vCPU x86_64 VM (alternating rounds of 10
# calls, one BLAS thread, the jet in a run's workspace), split time over
# one thread's, median of 30 rounds, for surface_jet plus surface_flow as
# a flow stage calls them: 1.93 at 2,048 nodes (8x4x8x8), 1.01 and 1.40
# at 4,096 (8^4, 16x4x16x4), 1.13 and 1.09 at 6,144 (12x8x8x8,
# 16x6x8x8), 0.96 at 8,192 (16x8x8x8) and 0.68 at 16,384; as a record
# calls them (with |Omega|^2), 0.96 at 4,096, 0.77 and 0.81 at 6,144, 0.73
# at 8,192 and 0.50 at 16,384.  For surface_jet alone it was 2.32,
# 1.48-1.56, 1.14-1.23, 0.96-0.97 and 0.66-0.67.  Stages outnumber
# records, so the threshold is the first size where the split wins as a
# stage.
SPLIT_NODES = 8192

# Jets from which identity_suite splits its batch in two halves.  On a
# 2-vCPU x86_64 VM (numpy 2.4.6, one BLAS thread), the time of the two
# halves on two threads over the whole batch's on one was 2.13 at 100
# jets, 1.54 at 500, 1.15 at 1,000, 0.78 at 2,500 and 0.64 at 4,096: the
# worker wins from about 1,500 jets on.
SPLIT_JETS = 1500

_pool = None  # (pid, executor) of the worker thread, made by the first split
_pool_lock = threading.Lock()
_local = threading.local()  # .worker is set in the worker thread


def stencil_threads() -> int:
    """Threads the stencil pass and the surface kernel may use:
    ``PLURIGEO_THREADS`` if set, else the CPUs of this process's affinity
    mask, and never more than 2.  Every result is bit-identical for every
    value.  Raises ValueError if the variable is not an integer >= 1; the
    CLI reports that as a config error, and library calls then run on one
    thread."""
    val = os.environ.get("PLURIGEO_THREADS")
    cap = 2
    if val is not None:
        try:
            cap = int(val)
        except ValueError as exc:
            raise ValueError(f"PLURIGEO_THREADS must be an integer, got {val!r}") from exc
        if cap < 1:
            raise ValueError("PLURIGEO_THREADS must be >= 1")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cap, cpus, 2)


def _worker():
    """The one worker thread, made on first use and again in a forked child,
    which inherits the executor but not its thread."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = (
                os.getpid(),
                ThreadPoolExecutor(max_workers=1, thread_name_prefix="plurigeo-stencil", initializer=_mark_worker),
            )
        return _pool[1]


def _mark_worker():
    _local.worker = True


def split(nodes: int, least: int = SPLIT_NODES):
    """The parts of one computation on ``nodes`` nodes, as a context manager:
    run in the worker thread from ``least`` nodes on when two threads are
    allowed, else in the calling thread.  Entered in the worker thread
    itself, the parts run there.

    ``run(fn, *args)`` hands over ``fn(*args)``.  Split, the worker starts
    it at once, under the caller's numpy error state, and ``run`` returns
    its future; an argument that is the future of an earlier part is
    replaced by that part's value.  Otherwise ``run`` computes the value at
    once and returns it.  ``get`` gives a part's value either way, waiting
    for it and raising its exception.  Parts run in the order they were
    handed over.  Leaving the ``with`` block waits for every part, so an
    exception leaves no part running.  If the caller fails, the first part
    that failed raises instead, as it would have on one thread, where it
    runs before the caller goes on: every exception, like every value, is
    the same for every thread count."""
    if nodes >= least and not getattr(_local, "worker", False):
        try:
            threads = stencil_threads()
        except ValueError:  # malformed: the CLI rejects it; library calls never raise on it
            threads = 1
        if threads >= 2:
            return _TwoThreads()
    return _ONE_THREAD


class _OneThread:
    """:func:`split` in the calling thread alone: one shared instance, so the
    small grids of the call-bound workloads pay for no object per call."""

    threaded = False

    @staticmethod
    def run(fn, *args):
        return fn(*args)

    @staticmethod
    def get(part):
        return part

    def __enter__(self) -> "_OneThread":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        pass


_ONE_THREAD = _OneThread()


class _TwoThreads:
    """:func:`split` with the worker thread."""

    threaded = True

    def __init__(self):
        from concurrent.futures import Future

        self._pool, self._future, self._futures = _worker(), Future, []
        # numpy's error state is context-local: the worker would start from the defaults
        self._err = dict(np.geterr(), call=np.geterrcall())

    def run(self, fn, *args):
        def part():
            with np.errstate(**self._err):
                return fn(*map(self.get, args))

        done = self._pool.submit(part)
        self._futures.append(done)
        return done

    def get(self, part):
        return part.result() if isinstance(part, self._future) else part

    def __enter__(self) -> "_TwoThreads":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        for done in self._futures:
            failed = done.exception()  # waits
            if failed is not None and isinstance(exc, Exception):
                raise failed
