"""Trace notes: named values recorded beside a run's deterministic output.

``recording()`` sets a recorder, a dict, for the current context, and
``note(name, value)`` writes into the recorder of the context it runs in, or
does nothing when none is set. A callable value is called only under a
recorder, so a note that costs work (a converged lambda_min, say) costs
nothing in an untraced run.

The recorder lives in a ``contextvars.ContextVar``: it belongs to the thread
that set it, and a worker thread sees it when its work runs in a copy of the
submitting context (``contextvars.copy_context().run``), as the rows of
``harness.run_sweep`` do under ``--workers``. A recorder set inside a worker
stays in that worker's copy. Importing this module makes one ContextVar and
does no other work.
"""

from __future__ import annotations

import contextlib
import contextvars

_RECORDER: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "reconstab_trace", default=None
)


@contextlib.contextmanager
def recording():
    """Record the notes made in this context, and in copies of it, into a
    fresh dict, yielded; the previous recorder is back on exit."""
    notes: dict = {}
    token = _RECORDER.set(notes)
    try:
        yield notes
    finally:
        _RECORDER.reset(token)


def active() -> bool:
    """Whether notes made here are recorded."""
    return _RECORDER.get() is not None


def note(name: str, value) -> None:
    """Record ``value``, or what it returns if it is callable, as ``name``."""
    notes = _RECORDER.get()
    if notes is not None:
        notes[name] = value() if callable(value) else value
