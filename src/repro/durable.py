"""The one durable file commit: tmp write -> fsync -> ``os.replace``.

Checkpoints, stored results, the campaign manifest, job leases and
attempt outcomes all commit through :func:`atomic_write`, so a kill at
any instant leaves either the old file or the new one, never a torn
one.  Lint rule RL007 flags any ``os.replace``/``os.rename`` elsewhere
in the package; the protocol itself is checked where it runs, by the
fsync/replace fault matrix of ``tests/test_durable.py``.  Fault
injection (``on_io``) and retry loops belong to the callers.
"""

from __future__ import annotations

import os


def atomic_write(
    path: str, data: bytes, *, tmp_suffix: str | None = None
) -> None:
    """Durably replace ``path`` with ``data``.

    The temp file lives beside the target (same filesystem, so the
    rename is atomic) as ``path + tmp_suffix``.  The default suffix
    carries the pid because several processes may commit the same path
    (coordinator and worker both touch a lease); a single-writer caller
    passes a fixed suffix so a retry overwrites the temp a killed
    predecessor left behind.  A failed write removes its temp.
    """
    if tmp_suffix is None:
        tmp_suffix = f".tmp.{os.getpid()}"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + tmp_suffix
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        # Through the module attribute: the campaign chaos tripwire
        # patches ``os.replace`` to die between write and commit.
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
