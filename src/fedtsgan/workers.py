"""Independent chunks of work on the usable cores, one forked worker each.

``run_chunks(fn, chunks)`` returns ``[fn(chunk) for chunk in chunks]``: the
first chunk runs in this process, each other one in a worker forked for it,
which sends its result (or its error) back pickled through a pipe. Workers
are forked bare, with ``os.fork`` and ``os._exit``, so a call costs a fork
and a reap per worker and no process pool. ``split`` cuts a count of items
into the contiguous chunks a caller hands it. A forked worker holds only
the thread that forked it, so call ``run_chunks`` where this process runs
no other thread. While workers run, numpy's OpenBLAS is held to one
thread in each process: a BLAS pool of one thread per core in each of
one process per core would put cores² busy threads on the cores, and
OpenBLAS's idle threads spin.

Callers: ``federation.train_many`` (every list of trainings) and
``data.save_csv`` (the dataset export).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import pickle
import signal

import numpy as np


def usable_cores() -> int:
    """The cores this process may run on (so ``taskset`` limits the
    workers), or the machine's count where there is no affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split(n: int, most: int | None = None) -> list[slice]:
    """``range(n)`` cut into contiguous slices of near-equal length: one per
    usable core, but no more than ``most`` or ``n``, and one where this
    platform cannot fork; no slice for n = 0."""
    parts = usable_cores() if hasattr(os, "fork") else 1
    if most is not None:
        parts = min(parts, most)
    parts = min(max(parts, 1), n)
    return [slice(k * n // parts, (k + 1) * n // parts) for k in range(parts)]


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS bundled with
    numpy's wheel, or None where numpy links another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)  # already loaded by numpy: the same library
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread here, and so in the workers
    forked meanwhile, then give it back its count."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _serve(fn, chunk, out: int, inherited: list[int]) -> None:
    """The worker's side: close the pipe ends it inherited, send
    ``fn(chunk)`` or the error it raised through ``out``, and leave without
    running any of the parent's exit handlers."""
    try:
        for fd in inherited:
            os.close(fd)
        try:
            message = pickle.dumps((True, fn(chunk)))
        except BaseException as exc:  # every error, interrupts too, goes to the caller
            try:
                message = pickle.dumps((False, exc))
            except Exception:  # an error that does not pickle goes as its text
                message = pickle.dumps((False, RuntimeError(f"worker failed: {exc!r}")))
        with open(out, "wb") as fh:
            fh.write(message)
    finally:
        os._exit(0)


def _receive(pid: int, fd: int):
    """Read worker ``pid``'s pipe to EOF and return its result, or raise
    its error here. The caller closes ``fd``."""
    with open(fd, "rb", closefd=False) as fh:
        message = fh.read()
    if not message:
        raise RuntimeError(f"worker {pid} exited without sending a result")
    ok, value = pickle.loads(message)
    if not ok:
        raise value
    return value


def run_chunks(fn, chunks: list) -> list:
    """``[fn(chunk) for chunk in chunks]``, in chunk order: the first chunk
    in this process, each other one in a worker forked for it, all at once.

    A worker's error is raised here once this process has run its own
    chunk. On the way out, normal or not, every worker is killed and
    reaped, so an error in this process's chunk does not wait for the
    workers. Where this platform cannot fork, every chunk runs here.
    """
    if len(chunks) < 2 or not hasattr(os, "fork"):
        return [fn(chunk) for chunk in chunks]
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    with _one_blas_thread():
        try:
            for chunk in chunks[1:]:
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:
                    _serve(fn, chunk, write, [read] + [fd for _, fd in workers])
                os.close(write)
                workers.append((pid, read))
            results = [fn(chunks[0])]
            results += [_receive(pid, read) for pid, read in workers]
            return results
        finally:
            for pid, read in workers:
                os.close(read)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)
