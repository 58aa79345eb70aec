"""The DAG t-search's lane: one child process that runs every other t beside the caller.

The calling process runs a search's t's ts[0::2] and its lane ts[1::2]
(``run_in_lanes``).  The lane is forked by the first search that needs it
and kept for every later search of the process that forked it
(``_fork_lane``).  The protocol has one invariant: every search sent to the
lane ends with exactly one ``_DONE`` record, and before the next search is
sent this process reads the lane's records up to that ``_DONE``.  A search
is the pickled step and the lane's t's; the lane answers one record per t,
step(t), or ``_NO_RECORD`` for a t that raised an Exception there, and goes
on with its next t.  It ends its search after a rescue, when it runs out of
t's, or at the stop (None), which it looks for between t's without waiting
and which is the only command it can see mid-search; a stop read between
searches belongs to one that had already ended.  The pipes carry
length-prefixed pickles, read unbuffered, so a poll of a pipe sees every
byte not yet read.

A lane runs the code and module state it had when it was forked: a module
patched or imported again since is not seen there.

The lane belongs to the process that forked it.  A fork hook forgets it in
every child forked later (a ``bench`` pool worker, a user's fork) and closes
the pipes that child inherited, and an exit handler kills and reaps it; both
are registered by the first fork, not at import.  A lane leaves when its
command pipe ends or a write fails, so one whose parent was killed does not
linger.  A lane found dead (its pipe ended, a torn record, a failed send) is
reaped, and the next search forks a new one.
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

from .formulations import AttackVerdict

_NO_RECORD = "no record"  # the lane's record of a t that raised there
_DONE = "done"  # the lane's last record of each search
_lane: tuple[int, int, int] | None = None  # this process's lane: (pid, command fd, record fd)
_owed = False  # whether the lane owes this process the _DONE of a search sent to it
_registered = False  # whether the fork hook and the exit handler are in place


def run_in_lanes(step: Callable[[int], AttackVerdict | None], ts: range
                 ) -> Iterator[tuple[int, AttackVerdict | None]]:
    """(t, step(t)) for each t of ts in order; the lane runs ts[1::2].

    Records are taken in t order, so a t that raises here raises only after
    every smaller t has been judged.  A t without a record, because the lane
    raised at it, ended its search, died or could not get a pipe or a
    process, runs here, with its own errors.  Closing the generator tells
    the lane to stop this search and does not wait for it: the next search
    reads what the lane still owes before it sends its own.
    """
    global _owed
    while _owed:  # the last search's records, up to its _DONE
        _record()
    if _lane is not None or _fork_lane():
        _owed = _command((step, ts[1::2]))
    try:
        for j, t in enumerate(ts):
            record = _record() if j % 2 and _owed else _NO_RECORD
            yield t, step(t) if record == _NO_RECORD else record
    finally:
        if _owed:
            _command(None)


def _fork_lane() -> bool:
    """Fork this process's lane; False when no pipe or process is to spare.

    The first fork registers a fork hook, which forgets the lane in every
    child forked later (``_forget_lane``), and an exit handler that kills
    and reaps it (``_drop``).
    """
    global _registered, _lane
    if not _registered:
        os.register_at_fork(after_in_child=_forget_lane)
        atexit.register(_drop)
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
    _lane = (pid, to_lane, from_lane)
    return True


def _forget_lane() -> None:
    """Close the lane's pipes and forget it; in a forked child, the lane is not its own."""
    global _lane, _owed
    if _lane is not None:
        _, commands, records = _lane
        os.close(commands)
        os.close(records)
    _lane, _owed = None, False


def _drop() -> None:
    """Close, kill and reap this process's lane, if it has one; the next search forks anew.

    One already reaped elsewhere (SIGCHLD ignored, a ``waitpid(-1)`` of the
    host) is gone, which is all this needs.
    """
    if _lane is None:
        return
    pid = _lane[0]
    _forget_lane()
    with suppress(ProcessLookupError, ChildProcessError):
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _command(message: object) -> bool:
    """Send the lane a search, or None to stop one; False when the lane does not get it.

    A lane found dead is dropped.  A step that does not pickle, such as a
    closure or one of a module imported again since, is not sent; its t's
    run here.
    """
    try:
        frame = _frame(message)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    try:
        _write(_lane[1], frame)
    except OSError:
        _drop()
        return False
    return True


def _record() -> object:
    """The lane's next record; _NO_RECORD once it ended its search (its _DONE
    is read) or died (it is dropped)."""
    global _owed
    try:
        record = _receive(_lane[2])
    except EOFError:  # a lane killed mid-write leaves a torn record
        _drop()
        return _NO_RECORD
    if record == _DONE:
        _owed = False
        return _NO_RECORD
    return record


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


def _write(fd: int, frame: bytes) -> None:
    frame = memoryview(frame)
    while frame:
        frame = frame[os.write(fd, frame):]


def _serve(commands: int, records: int) -> None:
    """A forked lane: runs the searches sent on commands; leaves by os._exit.

    It freezes the objects it inherited, so no finalizer of the parent's runs
    here.  It ends each search with one _DONE record and then waits for the
    next command.  It leaves when the command pipe ends or a write fails:
    the parent is gone.
    """
    try:
        gc.freeze()
        waiting = select.poll()
        waiting.register(commands, select.POLLIN)
        while True:
            search = _receive(commands)
            if search is not None:  # None: the stop of a search that had ended
                _lane_search(*search, commands, records, waiting)
                _write(records, _frame(_DONE))
    finally:
        os._exit(0)


def _lane_search(step, ts, commands: int, records: int, waiting) -> None:
    """A lane's run of one search: one record per t of ts, up to the stop or a rescue.

    waiting polls the command pipe, on which only the stop can come
    mid-search.  A t that raises gets _NO_RECORD.  A solved record is a
    rescue, which ends the search: the lane's later t's come after it.
    """
    for t in ts:
        if waiting.poll(0):
            _receive(commands)
            return
        try:
            record = step(t)
        except Exception:  # this process runs t again and raises it there
            record = _NO_RECORD
        _write(records, _frame(record))
        if record is not _NO_RECORD and record is not None and record.solved:
            return
