"""The library's one fork path: a map over fork processes, which cohort
I/O and the sweep's spec processes share, and the width it runs at.

`fork_map` starts no thread in its caller. It waits on the processes'
pipes itself (`multiprocessing.connection.wait`), where a
`multiprocessing.Pool` starts three threads to feed and drain its
queues, and a benchmark process that read and wrote its cohorts through
a `Pool` peaked 14-22% higher than through this map. A fork copies the
calling thread alone, so the library forks only where no other thread
of its own runs: the feature table's threads have exited before a sweep
forks its spec processes.
"""

from __future__ import annotations

import multiprocessing
import os
from itertools import islice
from multiprocessing.connection import wait


def _usable_cpus():
    """CPUs this process may run on, at least 1; the machine's count where
    the platform has no affinity call (macOS), and 1 where that count is
    unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn, items, width):
    """fn(item) for each item of the sequence `items`, yielded in item
    order, computed in min(width, len(items)) fork processes, or in this
    process where that is below 2.

    The processes inherit `fn` and `items` by the fork, so neither is
    pickled; each result comes back pickled through its process's pipe,
    and the process is then sent its next index. An exception that `fn`
    raises in a process is raised here, with its type and text, in its
    item's turn. The processes have exited once the last result is in,
    and when the generator raises or is closed: the ones still computing
    an item are terminated, and the others stop at the end of their
    pipe. They are daemonic, so a generator that is left open cannot
    hold up the interpreter's exit, and `fn` cannot start processes of
    its own (no `fork_map` inside a `fork_map`).
    """
    width = min(width, len(items))
    if width < 2:
        yield from map(fn, items)
        return
    ctx = multiprocessing.get_context("fork")
    queue = iter(range(len(items)))
    ends = {}   # this process's end of each pipe -> the process at the other
    busy = {}   # the same, of the processes computing an item
    ready = {}  # index -> (result, exception), waiting for its turn

    def stop():
        for conn, proc in ends.items():
            if conn in busy:
                proc.terminate()
            conn.close()
        for proc in ends.values():
            proc.join()
        ends.clear()

    try:
        for index in islice(queue, width):
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_serve, daemon=True,
                               args=(fn, items, there, [*ends, here]))
            proc.start()
            there.close()   # so that a process's death ends its pipe
            ends[here] = busy[here] = proc
            here.send(index)
        for index in range(len(items)):
            while index not in ready:
                for conn in wait(list(busy)):
                    try:
                        done, result, exc = conn.recv()
                    except EOFError:
                        busy[conn].join()
                        raise RuntimeError(
                            "a fork_map process exited with code %s"
                            % busy[conn].exitcode) from None
                    ready[done] = result, exc
                    following = next(queue, None)
                    if following is None:
                        del busy[conn]
                    else:
                        conn.send(following)
            if not busy:
                stop()
            result, exc = ready.pop(index)
            if exc is not None:
                raise exc
            yield result
    finally:
        stop()


def _serve(fn, items, conn, inherited):
    """A fork_map process: for each index its pipe sends, send back
    (index, fn(items[index]), None), or (index, None, the exception fn
    raised); return at the pipe's end. It first closes the caller's pipe
    ends that the fork copied, `inherited`, so that the pipe ends when
    the caller closes its end or exits."""
    for end in inherited:
        end.close()
    while True:
        try:
            index = conn.recv()
        except EOFError:
            return
        try:
            out = index, fn(items[index]), None
        except Exception as exc:
            out = index, None, exc
        conn.send(out)
