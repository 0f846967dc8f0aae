"""fork_map: item order, a process's exception in its item's turn, and
no thread started in the caller nor process left behind."""

import multiprocessing
import os
import threading
import time

import pytest

from eegsweep.parallel import fork_map


def slow_first(i):
    # item 0 finishes last, so the later items wait for their turn
    time.sleep(0.2 if i == 0 else 0.001)
    return i * i, os.getpid()


def test_results_come_in_item_order_from_fork_processes():
    out = list(fork_map(slow_first, range(12), 3))
    assert [square for square, _ in out] == [i * i for i in range(12)]
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids and len(pids) == 3
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("width, items", [(1, range(5)), (4, range(1)),
                                          (0, range(3)), (2, range(0))])
def test_below_two_processes_it_runs_in_this_process(width, items):
    assert list(fork_map(slow_first, items, width)) \
        == [(i * i, os.getpid()) for i in items]


def test_a_process_exception_is_raised_with_its_type_and_text():
    def fn(i):
        if i == 4:
            raise KeyError("no subject %d" % i)
        return i

    got = []
    with pytest.raises(KeyError, match="no subject 4"):
        for value in fork_map(fn, range(9), 2):
            got.append(value)
    assert got == [0, 1, 2, 3]
    assert multiprocessing.active_children() == []


def test_a_process_that_dies_is_reported():
    def fn(i):
        if i == 2:
            os._exit(3)
        return i

    with pytest.raises(RuntimeError, match="exited with code 3"):
        list(fork_map(fn, range(6), 2))
    assert multiprocessing.active_children() == []


def test_it_starts_no_thread_in_the_caller():
    before = threading.active_count()
    counts = [threading.active_count()
              for _ in fork_map(slow_first, range(8), 2)]
    assert counts == [before] * 8


def test_an_early_close_ends_every_process():
    def fn(i):
        time.sleep(0.05)
        return i

    run = fork_map(fn, range(40), 2)
    assert next(run) == 0
    run.close()
    assert multiprocessing.active_children() == []
