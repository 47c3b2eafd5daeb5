"""The next rotor position, computed on a second core.

Overset connectivity and the least-squares edge geometry depend only on
where the blades are, and the next step's position is fixed as soon as
this step's rotor has moved.  :class:`PositionHelper` forks one
long-lived helper process per :class:`~repro.core.composite.CompositeMesh`
at its first request.  While the main process runs a step's graphs and
Picard loop, the helper runs the code the main process would run next:
``system.advance_rotor(dt)``, then ``update_connectivity()``.  At the next
step the main process moves its own blades (it stays the authority on
state) and takes the reply only if every blade reached byte-equal
coordinates; otherwise it computes inline.  A reply is a function of the
blade coordinates alone, so taking one changes host time and nothing
else.  Misses: a changed ``dt``, a rewind (``set_state``), a cold
restart's first step, and every step once the helper is gone.

Rules the mechanism keeps:

* ``os.fork``, not ``multiprocessing.Process``: a daemonic campaign worker
  may not start ``multiprocessing`` children, but it may fork.  One
  ``multiprocessing.Pipe`` does the framing.
* The fork is lazy (the first request), so constructing a simulation
  costs what it did.
* At most one request is outstanding; every ``update_connectivity`` (which
  ``set_state`` calls) consumes it.
* The helper never forks and never touches the world, ledger, tracer or
  hub.  It exits on EOF, so it cannot outlive the process that owns it,
  and on any error; either way it closes its end and leaves with
  ``os._exit``.  The owner reads EOF as "compute inline from now on".
* ``weakref.finalize`` (or :meth:`PositionHelper.close`) closes the pipe,
  stops the helper and reaps it, in the owning process only: a process
  forked later holds a copy of this object and must leave it alone.
* The helper is used only where ``os.fork`` exists and the process may
  run on at least two CPUs -- capability checks, not an option.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import weakref
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from repro.core.composite import CompositeMesh
    from repro.mesh.hexmesh import HexMesh
    from repro.overset.assembler import OversetConnectivity

#: What a hit hands over: the connectivity and the store's ``lsq_edges``
#: and ``lsq_normal`` pairs.
Reply = tuple["OversetConnectivity", tuple, tuple]


def second_core_available() -> bool:
    """Whether a helper can run beside this process: ``os.fork`` exists
    and the process may run on at least two CPUs."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


class PositionHelper:
    """The owner's end of one forked position helper."""

    def __init__(self) -> None:
        self._conn: Connection | None = None
        self.pid = 0
        self._pending = False
        #: No helper from now on: none can run here, or it is gone.
        self._inline = False
        self._finalizer: weakref.finalize | None = None

    def request(self, comp: CompositeMesh, dt: float) -> None:
        """Have the helper compute the position one ``advance_rotor(dt)``
        on from ``comp``'s blades as they are now."""
        if self._inline:
            return
        if self._conn is None and not self._start(comp):
            return
        try:
            self._conn.send(([m.coords for m in comp.system.blades], dt))
        except OSError:
            self.close()
            return
        self._pending = True

    def take(self, blades: list[HexMesh]) -> Reply | None:
        """The outstanding reply if its blades are byte-equal to
        ``blades``; None (compute inline) otherwise.  Consumes it either
        way."""
        if not self._pending:
            return None
        self._pending = False
        try:
            coords, *position = self._conn.recv()
        except (EOFError, OSError):
            self.close()
            return None
        if any(
            c.tobytes() != m.coords.tobytes()
            for c, m in zip(coords, blades, strict=True)
        ):
            return None
        return tuple(position)

    def close(self) -> None:
        """Stop and reap the helper now; compute inline from then on."""
        self._inline = True
        self._pending = False
        if self._finalizer is not None:
            self._finalizer()

    def _start(self, comp: CompositeMesh) -> bool:
        # Inline unless the fork succeeds; the helper's copy stays inline,
        # so the helper never forks.
        self._inline = True
        if not second_core_available():
            return False
        try:
            parent_end, child_end = multiprocessing.Pipe()
        except OSError:  # out of descriptors: inline, as without a core
            return False
        try:
            pid = os.fork()
        except OSError:  # out of processes or memory: likewise
            parent_end.close()
            child_end.close()
            return False
        if pid == 0:
            parent_end.close()
            _serve(comp, child_end)
        child_end.close()
        self._inline = False
        self._conn, self.pid = parent_end, pid
        self._finalizer = weakref.finalize(
            self, _reap, parent_end, pid, os.getpid()
        )
        return True


def _reap(conn: Connection, pid: int, owner: int) -> None:
    if os.getpid() != owner:
        return
    conn.close()
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def _serve(comp: CompositeMesh, conn: Connection) -> None:
    """The helper's whole life: answer requests until EOF or an error."""
    # Objects inherited from the owner stay out of this process's
    # collections: a collection would write every header and copy the
    # owner's heap page by page.
    gc.freeze()
    try:
        blades = comp.system.blades
        while True:
            coords, dt = conn.recv()  # EOFError once the owner is gone
            for mesh, c in zip(blades, coords, strict=True):
                mesh.coords[:] = c
            comp.system.advance_rotor(dt)
            comp.update_connectivity()
            conn.send(
                (
                    [m.coords for m in blades],
                    comp.connectivity,
                    comp.store.lsq_edges,
                    comp.store.lsq_normal,
                )
            )
    finally:
        conn.close()
        os._exit(0)
