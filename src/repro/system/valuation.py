"""Valuations: immutable observations of the observable variables.

A valuation ``v : X -> D`` (paper §II-A) maps every observable variable
to a value.  Observations are hashable so trace sets can deduplicate and
the explicit-state engine can key on state projections.

Lookups are dict-backed (O(1)); the sorted item tuple is kept alongside
for the hash, ordered iteration/equality and the pickle contract.
:func:`column` and :func:`first_satisfying` read the backing dicts
directly, for the scans that touch every observation of a trace set:
``Valuation.__getitem__`` is a Python-level call per lookup.
:func:`valuation_schema` builds valuations over a fixed set of names
from value tuples, sorting the names once instead of every item tuple:
the stepping kernel's observations and next states are built this way.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from operator import itemgetter


class Valuation(Mapping[str, int]):
    """Immutable mapping from variable names to values."""

    __slots__ = ("_items", "_dict", "_hash")

    def __init__(self, values: Mapping[str, int] | None = None, **kwargs: int):
        merged = dict(values or {})
        merged.update(kwargs)
        self._dict = merged
        self._items = tuple(sorted(merged.items()))
        self._hash = hash(self._items)

    def __getitem__(self, key: str) -> int:
        return self._dict[key]

    def __iter__(self) -> Iterator[str]:
        return (name for name, _value in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Valuation):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._dict == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value}" for name, value in self._items)
        return f"Valuation({inner})"

    def __reduce__(self):
        # Rebuild through __init__ so _hash is recomputed under the
        # *receiving* interpreter's string-hash seed: a hash cached by the
        # sending process (e.g. a pool worker under spawn) is wrong
        # here, and a stale one silently breaks set/dict deduplication.
        return (Valuation, (dict(self._items),))

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, int]:
        return dict(self._dict)

    def project(self, names: Mapping[str, object] | list[str] | tuple[str, ...] | set[str]) -> "Valuation":
        """Restrict to the given variable names."""
        wanted = set(names)
        return Valuation({n: v for n, v in self._items if n in wanted})

    def primed(self) -> dict[str, int]:
        """Environment binding this valuation to the primed copies ``x'``."""
        return {f"{name}'": value for name, value in self._items}

    def merged_with(self, other: Mapping[str, int]) -> "Valuation":
        """New valuation with ``other``'s bindings added/overriding."""
        merged = dict(self._dict)
        merged.update(other)
        return Valuation(merged)

    def key(self, names: Iterable[str]) -> tuple[int, ...]:
        """Projection as a plain tuple (a fast dict key)."""
        return tuple(map(self._dict.__getitem__, names))


def valuation_schema(
    names: tuple[str, ...],
) -> Callable[[tuple[int, ...]], Valuation]:
    """A function making valuations over the distinct ``names`` from
    value tuples in the same order.

    The names are sorted here, once; each built valuation has the
    ``_items``, hash, equality and ``__reduce__`` of
    ``Valuation(dict(zip(names, values)))``, and its lookups keep the
    order of ``names``.
    """
    order = sorted(range(len(names)), key=names.__getitem__)
    sorted_names = tuple(names[index] for index in order)
    # itemgetter of one index returns a bare value; a tuple of at most
    # one value is already in order.
    pick = itemgetter(*order) if len(order) > 1 else tuple
    new = Valuation.__new__

    def build(values: tuple[int, ...]) -> Valuation:
        items = tuple(zip(sorted_names, pick(values)))
        valuation = new(Valuation)
        valuation._items = items
        valuation._dict = dict(zip(names, values))
        valuation._hash = hash(items)
        return valuation

    return build


def column(valuations: Iterable[Valuation], name: str) -> list[int]:
    """``[v[name] for v in valuations]``."""
    return [valuation._dict[name] for valuation in valuations]


def first_satisfying(
    valuations: Sequence[Valuation],
    predicate: Callable[[Mapping[str, int]], int],
) -> int | None:
    """Index of the first valuation whose bindings satisfy ``predicate``
    (a compiled evaluator, which must not mutate them), or None."""
    for index, valuation in enumerate(valuations):
        if predicate(valuation._dict):
            return index
    return None
