"""A process-wide default with thread-local override scopes.

Both registries — propagation backends and execution strategies — need
the same shape: one process-wide default, overridable for a ``with``
block *on the current thread only*, so the service's concurrent
placement jobs can each pin their own backend/strategy without leaking
into one another.  :class:`ScopedDefault` is that shape, written once.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Generic, TypeVar

T = TypeVar("T")


class ScopedDefault(Generic[T]):
    """One default value, with nestable per-thread override scopes.

    Reads resolve to the innermost active :meth:`scoped` block on the
    calling thread, falling back to the process-wide value set at
    construction or via :meth:`set_global`.
    """

    def __init__(self, initial: T) -> None:
        self._global = initial
        self._local = threading.local()

    def _stack(self) -> list[T]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def get(self) -> T:
        """The effective value for the calling thread."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else self._global

    def set_global(self, value: T) -> None:
        """Set the process-wide fallback (all threads, outside scopes)."""
        self._global = value

    @contextmanager
    def scoped(self, value: T) -> Iterator[T]:
        """Override the value for a ``with`` block on this thread only."""
        stack = self._stack()
        stack.append(value)
        try:
            yield value
        finally:
            stack.pop()
