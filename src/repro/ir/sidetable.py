"""Explicit side tables for out-of-band annotations on IR objects.

The IR value/instruction/type hierarchies are fully ``__slots__``-ed (the
raw-speed pass over the substrate), so analyses can no longer stash ad-hoc
attributes on IR objects — an assignment to an undeclared attribute raises
``AttributeError`` instead of silently landing in a per-object ``__dict__``.
That is deliberate: hidden attributes survive longer than the analysis that
wrote them, leak across pipeline stages, and are invisible to printing,
pickling and verification.

Annotations that genuinely live *outside* the IR belong in a
:class:`ValueSideTable`: a ``WeakKeyDictionary`` keyed by the annotated
object (every slotted IR class keeps a ``__weakref__`` slot for exactly
this), scoped to whatever owns the table.  When the IR object dies, the
annotation goes with it; when the owning analysis dies, all its annotations
vanish at once — no sweep phase.

A value must never reference its key, directly or through the IR (a block's
``parent``, a function's ``module``): the table holds values strongly, so
such an entry keeps its key — and everything the key reaches — alive for
as long as the table lives.  Results that describe an IR object and point
back into it (CFG orders, dominator trees) belong on the object itself; see
``Function.analyses``.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, Tuple, TypeVar
from weakref import WeakKeyDictionary

__all__ = ["ValueSideTable"]

T = TypeVar("T")


class ValueSideTable(Generic[T]):
    """A weak mapping from IR objects to analysis-private annotations."""

    __slots__ = ("name", "_table")

    def __init__(self, name: str = "sidetable"):
        self.name = name
        self._table: "WeakKeyDictionary[object, T]" = WeakKeyDictionary()

    def set(self, obj: object, value: T) -> None:
        self._table[obj] = value

    def get(self, obj: object, default: Optional[T] = None) -> Optional[T]:
        return self._table.get(obj, default)

    def pop(self, obj: object, default: Optional[T] = None) -> Optional[T]:
        return self._table.pop(obj, default)

    def __contains__(self, obj: object) -> bool:
        return obj in self._table

    def __len__(self) -> int:
        return len(self._table)

    def items(self) -> Iterator[Tuple[object, T]]:
        return iter(self._table.items())

    def __repr__(self) -> str:
        return f"<ValueSideTable {self.name!r} entries={len(self._table)}>"
