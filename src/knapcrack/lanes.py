"""The DAG t-search's lanes: child processes that run t's beside the caller.

With L lanes, lane i of a search walks every L-th of its t's from its i-th
on, and the calling process is lane 0 (``run_in_lanes``).  Lanes 1..L-1 are
processes forked by the first search that needs them and kept for every
later search of the process that forked them (``_fork_lane``).  Each search
sends each lane the pickled step and the lane's t's under a new search
number; the lane answers (search, t, step(t)) for each, and the records of
earlier searches are read past.  A lane stops its search after a rescue,
when it runs out of t's, or when a newer command is waiting, which it looks
for between t's without waiting.  A t that raises an Exception in a lane
gets a "no record" answer, and the lane waits for the next search.  The
pipes carry length-prefixed pickles, read unbuffered, so a poll of a pipe
sees every byte not yet read.

A lane runs the code and module state it had when it was forked: a module
patched or imported again since is not seen there.

Lanes belong to the process that forked them.  A fork hook empties the
lane table of every child forked later (a ``bench`` pool worker, a lane, a
user's fork) and closes the pipes it inherited, and an exit handler kills
and reaps the lanes; both are registered by the first fork, not at import.
A lane leaves when its command pipe ends or a write fails, so one whose
parent was killed does not linger.  A lane found dead (its pipe ended, a
torn record, a failed send) is reaped, and the next search forks a new one.
"""

from __future__ import annotations

import atexit
import gc
import os
import pickle
import select
import signal
from collections.abc import Callable, Iterator
from contextlib import suppress
from itertools import count

from .formulations import AttackVerdict

_MISSING = object()  # a lane raised or died before it sent this t's record
_NO_RECORD = "no record"  # what a lane sends for a t that raised there
# This process's lanes beyond lane 0, as (pid, command fd, record fd).
_lanes: list[tuple[int, int, int]] = []
_searches = count(1)  # the numbers of the searches sent to the lanes
_registered = False  # whether the fork hook and the exit handler are in place


def run_in_lanes(step: Callable[[int], AttackVerdict | None], ts: range, lanes: int
                 ) -> Iterator[tuple[int, AttackVerdict | None]]:
    """(t, step(t)) for each t of ts in order, run in lanes processes.

    Lane i walks ts[i::lanes].  Records are taken in t order, so a t that
    raises here raises only after every smaller t has been judged.  A t
    without a record, because its lane raised, died or could not get a pipe
    or a process, runs here, with its own errors.  Closing the generator
    tells the lanes to stop this search and does not wait for them.
    """
    while len(_lanes) < lanes - 1 and _fork_lane():
        pass
    search, readers = next(_searches), {}
    try:
        for i, lane in enumerate(_lanes[:lanes - 1], 1):
            if _command(lane, (search, step, ts[i::lanes])):
                readers[i] = lane
        for j, t in enumerate(ts):
            i = j % lanes
            record = _record(readers[i], search) if i in readers else _MISSING
            if record is _MISSING:
                readers.pop(i, None)
            yield t, step(t) if record is _MISSING else record
    finally:
        for lane in readers.values():
            _command(lane, None)


def _fork_lane() -> bool:
    """Fork one more lane for this process; False when no pipe or process is to spare.

    The first fork registers a fork hook, which empties the lane table of
    every child forked later (a lane, a pool worker), and an exit handler
    that kills and reaps the lanes (``_close_lanes``).
    """
    global _registered
    if not _registered:
        os.register_at_fork(after_in_child=_forget_lanes)
        atexit.register(_close_lanes)
        _registered = True
    fds: list[int] = []
    try:
        fds += os.pipe()  # commands: this process writes, the lane reads
        fds += os.pipe()  # records: the lane writes, this process reads
        pid = os.fork()
    except OSError:  # no descriptor or process to spare: the t's run here
        for fd in fds:
            os.close(fd)
        return False
    commands, to_lane, from_lane, records = fds
    if pid == 0:
        os.close(to_lane)
        os.close(from_lane)
        _serve(commands, records)
    os.close(commands)
    os.close(records)
    _lanes.append((pid, to_lane, from_lane))
    return True


def _forget_lanes() -> None:
    """In a forked child: close the parent's lane pipes; the lanes are not its own."""
    for _, commands, records in _lanes:
        os.close(commands)
        os.close(records)
    _lanes.clear()


def _close_lanes() -> None:
    """Kill and reap every lane of this process; the next search forks anew."""
    while _lanes:
        _drop(_lanes[-1])


def _drop(lane: tuple[int, int, int]) -> None:
    """Close, kill and reap a lane.

    One already reaped elsewhere (SIGCHLD ignored, a ``waitpid(-1)`` of the
    host) is gone, which is all this needs.
    """
    _lanes.remove(lane)
    pid, commands, records = lane
    os.close(commands)
    os.close(records)
    with suppress(ProcessLookupError, ChildProcessError):
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _command(lane: tuple[int, int, int], message: object) -> bool:
    """Send a lane a search, or None to stop one; False when the lane does not get it.

    A lane found dead is dropped.  While the lane's command pipe is full, the
    lane may be blocked writing records of an earlier search, so those are
    read and thrown away.  A step that does not pickle, such as one of a
    module imported again since, is not sent; its t's run here.
    """
    _, commands, records = lane
    if lane not in _lanes:  # closed while this search was open
        return False
    try:
        frame = memoryview(_frame(message))
    except pickle.PicklingError:
        return False
    ready = select.poll()
    ready.register(commands, select.POLLOUT)
    ready.register(records, select.POLLIN)
    try:
        while frame:
            if commands in dict(ready.poll()):
                frame = frame[os.write(commands, frame[:select.PIPE_BUF]):]
            else:
                _receive(records)  # the lane has not read this command: the record is stale
    except (OSError, EOFError):
        _drop(lane)
        return False
    return True


def _record(lane: tuple[int, int, int], search: int) -> object:
    """The lane's next record of this search, past those of earlier searches;
    _MISSING once it raised in this search, or died (and is dropped)."""
    _, _, records = lane
    try:
        while True:
            sent, _, record = _receive(records)
            if sent == search:
                return _MISSING if record == _NO_RECORD else record
    except EOFError:  # a lane killed mid-write leaves a torn record
        _drop(lane)
        return _MISSING


def _frame(message: object) -> bytes:
    """message pickled, after its length in 8 bytes."""
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(8, "little") + data


def _receive(fd: int) -> object:
    """The next framed message on fd, read unbuffered; EOFError when the pipe ends first."""
    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _read(fd: int, size: int) -> bytes:
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            raise EOFError
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _send(fd: int, message: object) -> None:
    frame = memoryview(_frame(message))
    while frame:
        frame = frame[os.write(fd, frame):]


def _serve(commands: int, records: int) -> None:
    """A forked lane: runs the searches sent on commands; leaves by os._exit.

    It freezes the objects it inherited, so no finalizer of the parent's runs
    here.  For each t of a search it sends (search, t, step(t)), or
    (search, t, _NO_RECORD) when the step raises an Exception, and then waits
    for the next command.  Before each t it looks for a newer command without
    waiting, and it stops a search after a rescue, since its later t's come
    after it.  It leaves when the command pipe ends or a write fails: the
    parent is gone.
    """
    try:
        gc.freeze()
        waiting = select.poll()
        waiting.register(commands, select.POLLIN)
        message = _receive(commands)
        while True:
            message = _lane_search(message, commands, records, waiting) or _receive(commands)
    finally:
        os._exit(0)


def _lane_search(message, commands: int, records: int, waiting) -> object:
    """A lane's run of one search; the newer command that stopped it, or None.

    waiting polls the command pipe.  A solved record is a rescue, which ends
    the search: the lane's later t's come after it.
    """
    if message is None:  # a stop for a search this lane already left
        return None
    search, step, ts = message
    for t in ts:
        if waiting.poll(0):
            return _receive(commands)
        try:
            record = step(t)
        except Exception:  # this process runs t again and raises it there
            _send(records, (search, t, _NO_RECORD))
            return None
        _send(records, (search, t, record))
        if record is not None and record.solved:
            return None
    return None
