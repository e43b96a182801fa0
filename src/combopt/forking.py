"""The one fork helper: independent jobs, each in its own forked child process.

The portfolio solver runs its branches through :func:`run_forked`, and the
qubo-sa baseline its read batches.  A child inherits the parent's memory, so
a frozen model or an encoded QUBO is not pickled; only each job's result
travels back, through a one-way pipe.
"""

from __future__ import annotations

import os

from .errors import StateError


def fork_available() -> bool:
    """True where jobs can run in forked processes."""
    return hasattr(os, "fork")


def default_workers() -> int:
    """One worker per CPU, at most 8: the solver's default branch count and
    the number of processes the qubo-sa baseline anneals its batches on."""
    return min(os.cpu_count() or 1, 8)


def run_forked(job, n: int, name: str) -> list:
    """``job(i, stop)`` for each ``i`` in ``range(n)``, each in a forked daemon
    child; the results in order of ``i``.

    ``stop`` is an event that every child shares.  The first child failure is
    re-raised with its own type and the other children are terminated; a child
    that exits without sending a result raises ``StateError`` naming it as
    ``"{name} {i}"``.  Every child is joined before this returns.
    """
    # imported here: importing multiprocessing takes about 10 ms, which every
    # run that never forks would pay
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    stop = ctx.Event()

    def child(i, conn):
        try:
            result = job(i, stop)
        except Exception as exc:  # the parent re-raises it
            result = exc
        conn.send(result)

    procs, conns, results = [], {}, {}
    try:
        for i in range(n):
            recv_end, send_end = ctx.Pipe(duplex=False)
            conns[recv_end] = i
            proc = ctx.Process(target=child, args=(i, send_end), daemon=True)
            proc.start()
            procs.append(proc)
            send_end.close()
        while len(results) < n:
            for conn in wait([c for c, i in conns.items() if i not in results]):
                i = conns[conn]
                try:
                    results[i] = conn.recv()
                except EOFError:
                    raise StateError(f"{name} {i} process exited without a result") from None
                if isinstance(results[i], Exception):
                    raise results[i]
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()
    return [results[i] for i in range(n)]
