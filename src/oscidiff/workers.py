"""Independent solves in forked worker processes.

``run_tasks`` runs a list of zero-argument tasks and returns, in task
order, each task's outcome: its result, or the exception it raised. With
two or more usable CPUs and a ``fork`` start method, the tasks run in
forked children, at most one per usable CPU, task i in child i mod n. A
forked child inherits the caller's memory, so a task may close over
anything (fields, slice operators); only the outcomes cross back, pickled
over one ``multiprocessing`` pipe per child. Fork, not spawn: the tasks
close over state a spawned worker would have to rebuild, after importing
numpy and scipy again (about half a second). The tasks run in-process, in
order, when one CPU is usable, when the platform has no ``fork``, when
the caller is itself a worker (a worker never forks again), or when the
caller runs other threads (a fork copies only the calling thread, and a
lock another thread holds would stay held in the child).

A child runs each OpenBLAS it maps on one thread: n children that each
inherit a pool of one thread per CPU would oversubscribe the CPUs and
stall. A task computes what it would compute in-process, so the outcomes
do not depend on the worker count. Warnings that pass the caller's
filters in a child are re-emitted in the caller, in task order; an
exception crosses without its traceback, so a serial run (``taskset -c
0``) is the one to debug or profile.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import sys
import threading
import warnings


_MISSING = object()  # the outcome of a task whose child exited before sending it


def usable_cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _openblas():
    """(get, set) thread-count calls of each OpenBLAS mapped into this
    process (/proc/self/maps), such as numpy's and scipy's builds, whose
    symbols may carry a scipy_ prefix and a 64_ suffix (64-bit integers)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = map(ctypes.CDLL, sorted({line.split()[-1] for line in fh
                                            if "openblas" in line.lower() and ".so" in line}))
    except OSError:  # no process map on this platform
        return []
    names = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
             "openblas_{}_num_threads64_", "openblas_{}_num_threads")
    calls = []
    for lib in libs:
        name = next((n for n in names if hasattr(lib, n.format("get"))), None)
        if name is not None:
            get, set_ = (getattr(lib, name.format(verb)) for verb in ("get", "set"))
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            calls.append((get, set_))
    return calls


def blas_threads():
    """The thread count of each OpenBLAS mapped into this process."""
    return [get() for get, _ in _openblas()]


def _forks():
    """Whether a call may fork its workers (module docstring)."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and multiprocessing.parent_process() is None
            and threading.active_count() == 1)


def _outcome(task):
    try:
        return task()
    except Exception as err:  # the caller decides what a failed task means
        return err


def run_tasks(tasks):
    """Run ``tasks`` (zero-argument callables) and return each one's result
    or exception, in task order. Every child is joined before this returns
    or raises; a ``KeyboardInterrupt`` in the caller terminates them."""
    tasks = list(tasks)
    n = min(len(tasks), usable_cpus())
    if n < 2 or not _forks():
        return [_outcome(task) for task in tasks]
    ctx = multiprocessing.get_context("fork")
    outcomes, shown = [_MISSING] * len(tasks), [()] * len(tasks)
    procs, readers = [], []
    # a buffer not flushed now would be written again by each child
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        # an interrupt waits until every started child is in ``procs``; the
        # children inherit the mask and ignore it (``_work``)
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for w in range(n):
                reader, writer = ctx.Pipe(duplex=False)
                readers.append(reader)
                with writer:  # the child's copy alone stays open, so its exit ends the pipe
                    proc = ctx.Process(target=_work, daemon=True,
                                       args=(tasks, range(w, len(tasks), n), writer))
                    proc.start()
                procs.append(proc)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        pending = list(readers)
        while pending:
            for reader in multiprocessing.connection.wait(pending):
                try:
                    i, outcomes[i], shown[i] = reader.recv()
                except EOFError:  # the child sent its last outcome and exited
                    pending.remove(reader)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for reader in readers:
            reader.close()
        for proc in procs:
            proc.join()
        codes = [proc.exitcode for proc in procs]
        for proc in procs:
            proc.close()
    for j, outcome in enumerate(outcomes):
        if outcome is _MISSING:  # task j ran in child j mod n
            outcomes[j] = ChildProcessError(
                f"worker exited with code {codes[j % n]} before task {j} returned")
    for caught in shown:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
    return outcomes


def _portable(err):
    """``err``, or a RuntimeError naming it if it does not survive pickling
    (an exception whose constructor needs more than its ``args``)."""
    try:
        pickle.loads(pickle.dumps(err))
        return err
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")


def _work(tasks, indices, conn):
    """A child's loop: run its tasks and send (index, outcome, warnings) for each."""
    # an interrupt reaches the caller, which terminates its workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for _, set_threads in _openblas():  # module docstring
        set_threads(1)
    for i in indices:
        with warnings.catch_warnings(record=True) as caught:
            outcome = _outcome(tasks[i])
        if isinstance(outcome, Exception):
            outcome = _portable(outcome)
        shown = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        try:
            conn.send((i, outcome, shown))
        except Exception as err:  # a result or warning that cannot be pickled
            conn.send((i, RuntimeError(f"task {i}: outcome not sent: {err!r}"), []))
    conn.close()
