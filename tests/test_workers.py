"""Forked workers: outcomes bitwise equal to a one-CPU run, errors and
warnings that cross the pipe intact, and no child left behind."""

import inspect
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from oscidiff import cellsolve as cs, effmat as em, errors, harness as hz, pdesolve as pde
from oscidiff import workers
from oscidiff.fields import CellGrid, make_field

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
STUDY_DATA = {"n_x": 32, "n_t": 4, "T": 2.0**-6}
STUDY_GRID = CellGrid(M_y=16, M_s=8)
TABLE_KEYS = [0.0, 0.01, 0.1, 1.0, 10.0]


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that ``run_tasks`` sees: 1 runs in-process,
    2 forks two workers on any host with ``fork``."""
    if not workers._forks():
        pytest.skip("no fork start method, or threads running")

    def use(n):
        monkeypatch.setattr(workers, "usable_cpus", lambda: n)

    return use


def _study(r, eps_list=(1 / 2, 1 / 4)):
    return hz.run_convergence_study(make_field("trig1d_st"), 0.5, r, list(eps_list),
                                    data=STUDY_DATA, cell_grid=STUDY_GRID)


def test_tasks_run_in_children_in_task_order(cpus):
    cpus(2)
    assert workers.run_tasks([os.getpid] * 4)[0] != os.getpid()
    out = workers.run_tasks([lambda i=i: (i, os.getpid()) for i in range(5)])
    assert [i for i, _ in out] == list(range(5))
    # task i runs in child i mod 2
    assert len({pid for _, pid in out[::2]}) == len({pid for _, pid in out[1::2]}) == 1
    cpus(1)
    assert workers.run_tasks([os.getpid] * 2) == [os.getpid()] * 2


def test_forked_worker_runs_blas_on_one_thread(cpus):
    # children that each kept the caller's pool of BLAS threads would
    # oversubscribe the CPUs and stall; a child runs every OpenBLAS on one
    # thread, and the caller keeps its own count
    before = workers.blas_threads()
    if not before:
        pytest.skip("no OpenBLAS with a thread-count call is mapped")
    cpus(2)
    try:
        for _, set_threads in workers._openblas():
            set_threads(2)
        assert workers.blas_threads() == [2] * len(before)
        assert workers.run_tasks([workers.blas_threads] * 2) == [[1] * len(before)] * 2
        assert workers.blas_threads() == [2] * len(before)
    finally:
        for (_, set_threads), n in zip(workers._openblas(), before):
            set_threads(n)
    assert workers.blas_threads() == before


@pytest.mark.parametrize("r", [2.0, 3.0])
def test_study_bitwise_equal_on_one_and_two_workers(cpus, r):
    cpus(1)
    serial = _study(r)
    cpus(2)
    forked = _study(r)
    assert not forked.partial
    assert forked.to_json() == serial.to_json()  # floats by repr: bit for bit
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name,p", [("trig1d_st", 0.5), ("trig2d_st", 1.5)])
def test_table_bitwise_equal_on_one_and_two_workers(cpus, name, p):
    field, grid = make_field(name), CellGrid(M_y=8, M_s=4)
    runs = []
    for n in (1, 2):
        cpus(n)
        runs.append(em._tabulate_critical(field, grid, p, TABLE_KEYS))
    (serial, serial_cells), (forked, forked_cells) = runs
    for attr in ("matrices", "corrector_norms", "grad_grams"):
        assert getattr(forked, attr).tobytes() == getattr(serial, attr).tobytes(), attr
    assert [[c.phi.tobytes() for c in key] for key in forked_cells] == \
        [[c.phi.tobytes() for c in key] for key in serial_cells]


def _raise(err):
    raise err


def _toolkit_errors():
    """One instance of each errors.py class, with its attributes set."""
    attrs = {"witness": (np.array([0.25]), 0.5, np.array([1.0])), "residual": 0.125,
             "defect": 0.5, "step": 3}
    out = []
    for cls in vars(errors).values():
        if isinstance(cls, type) and issubclass(cls, errors.OscidiffError):
            names = [n for n in inspect.signature(cls.__init__).parameters if n in attrs]
            out.append(cls(f"{cls.__name__} raised", **{n: attrs[n] for n in names}))
    return out


def test_every_toolkit_error_crosses_the_pipe_with_its_attributes(cpus):
    cpus(2)
    sent = _toolkit_errors()
    assert {name for err in sent for name in err.__dict__} == {
        "witness", "residual", "defect", "step"}
    got = workers.run_tasks([lambda err=err: _raise(err) for err in sent])
    for want, err in zip(sent, got):
        assert type(err) is type(want) and str(err) == str(want)
        assert err.__dict__.keys() == want.__dict__.keys()
        for name, value in want.__dict__.items():
            if name == "witness":
                assert all(np.array_equal(a, b) for a, b in zip(getattr(err, name), value))
            else:
                assert getattr(err, name) == value


def test_exception_that_does_not_unpickle_arrives_named(cpus):
    class NeedsTwo(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a}/{b}")

    cpus(2)
    got = workers.run_tasks([lambda: _raise(NeedsTwo(1, 2)), lambda: 3])
    assert isinstance(got[0], RuntimeError) and str(got[0]) == "NeedsTwo: 1/2"
    assert got[1] == 3


def test_table_raises_first_failing_key_and_leaves_no_child(cpus, monkeypatch):
    # every key with c > 0 fails; the error names the first of them
    cpus(2)

    def stalled(*args, **kwargs):
        raise errors.PeriodicityNotReached("period map stalled", defect=0.5)

    monkeypatch.setattr(cs, "_solve_periodic", stalled)
    with pytest.raises(errors.PeriodicityNotReached,
                       match=r"^u0abs=0\.01: period map stalled$") as info:
        em.tabulate_ahom_critical(make_field("trig1d_st"), CellGrid(M_y=8, M_s=4),
                                  p=0.5, u0abs_grid=TABLE_KEYS)
    assert info.value.defect == 0.5
    assert isinstance(info.value.__cause__, errors.PeriodicityNotReached)
    assert multiprocessing.active_children() == []


def test_study_raises_the_effective_branch_error(cpus, monkeypatch):
    cpus(2)

    def failing(*args, **kwargs):
        raise errors.SolverDiverged("cell solve failed", residual=0.25)

    monkeypatch.setattr(hz, "prepare_effective", failing)
    with pytest.raises(errors.SolverDiverged, match="cell solve failed") as info:
        _study(3.0)
    assert info.value.residual == 0.25
    assert multiprocessing.active_children() == []


def test_failing_micro_solve_gives_the_serial_partial_report(cpus, monkeypatch):
    solve = pde.solve_micro

    def fails_at_quarter(prob):
        if prob.eps == 1 / 4:
            raise errors.NewtonStalled("stalled", step=2, residual=1.0)
        return solve(prob)

    monkeypatch.setattr(pde, "solve_micro", fails_at_quarter)
    reports = []
    for n in (1, 2):
        cpus(n)
        reports.append(_study(3.0, (1 / 2, 1 / 4, 1 / 8)))
    serial, forked = reports
    assert forked.partial and forked.cause == "eps=0.25: stalled"
    assert len(forked.sol_err) == 1
    assert forked.to_json() == serial.to_json()


def test_worker_warning_is_reemitted_in_the_caller(cpus):
    cpus(2)

    def warn():
        warnings.warn("raised in a worker", UserWarning)
        return os.getpid()

    with pytest.warns(UserWarning, match="raised in a worker"):
        pid = workers.run_tasks([lambda: None, warn])[1]
    assert pid != os.getpid()


def test_worker_runs_nested_tasks_in_process(cpus):
    cpus(2)

    def nested():
        return os.getpid(), workers.run_tasks([os.getpid, os.getpid])

    (pid, inner), _ = workers.run_tasks([nested, lambda: None])
    assert pid != os.getpid() and inner == [pid, pid]


def test_interrupt_terminates_and_joins_the_workers(cpus):
    cpus(2)
    parent = os.getpid()

    def interrupt():
        os.kill(parent, signal.SIGINT)
        time.sleep(60)

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        workers.run_tasks([interrupt, lambda: time.sleep(60)])
    assert time.perf_counter() - t0 < 30
    assert multiprocessing.active_children() == []


def test_caller_with_threads_runs_in_process(cpus):
    # a fork copies only the calling thread, with any lock another one holds
    cpus(2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert workers.run_tasks([os.getpid] * 2) == [os.getpid()] * 2
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


def test_child_that_dies_fails_only_its_tasks(cpus):
    cpus(2)
    got = workers.run_tasks([lambda: os._exit(3), lambda: 1, lambda: 2, lambda: 4])
    assert got[1::2] == [1, 4]
    assert all(isinstance(err, ChildProcessError) and "code 3" in str(err)
               for err in got[::2])


def test_stdout_buffered_before_a_fork_is_printed_once():
    script = ("import os, sys\n"
              "from oscidiff import workers\n"
              "workers.usable_cpus = lambda: 2\n"
              "sys.stdout.write('buffered before the fork;')\n"
              "workers.run_tasks([os.getpid, os.getpid])\n")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out == "buffered before the fork;"

