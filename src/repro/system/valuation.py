"""Valuations: immutable observations of the observable variables.

A valuation ``v : X -> D`` (paper §II-A) maps every observable variable
to a value.  Observations are hashable so trace sets can deduplicate and
the explicit-state engine can key on state projections.

Lookups are dict-backed (O(1)); the sorted item tuple is kept alongside
for the hash, ordered iteration/equality and the pickle contract.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping


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

    def key(self, names: tuple[str, ...]) -> tuple[int, ...]:
        """Projection as a plain tuple (fast dict key for BFS)."""
        table = self._dict
        return tuple(table[name] for name in names)
