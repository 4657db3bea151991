"""Reduced Ordered Binary Decision Diagrams.

A compact BDD package supporting what symbolic reachability needs:
hash-consed nodes, memoised ``ite``-based apply, memoised restriction,
existential quantification over variable sets, a fused relational
product (``and_exists``), order-preserving variable renaming and model
counting.

Variables are non-negative integers and the variable order is fixed:
variable ``i`` sits above variable ``j`` iff ``i < j``.  Symbolic model
checking allocates its bits in the interleaved current/next layout
(next bit = current bit + 1), so that order is the classic one and the
post-image next→current rename preserves it.

Nodes are integers indexing into the manager's tables; 0 and 1 are the
terminals.  This representation keeps the hot paths allocation-free.
The node store is append-only -- ids are never freed or recycled, so a
node id denotes the same Boolean function for the manager's lifetime.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator


class _CountingCache(dict):
    """Op cache that counts probes and insertions (profiling mode only).

    Hit/miss accounting must not slow the structural recursions down,
    so the recursions never increment anything: in profiling mode the
    caches themselves are swapped for this subclass, and the stats fall
    out of two invariants -- every lookup goes through :meth:`get`, and
    every miss stores exactly once -- giving ``misses = insertions`` and
    ``hits = probes - insertions``.  The default (plain ``dict``) caches
    cost nothing.  ``dict.clear`` leaves both counters intact, so they
    are lifetime totals across :meth:`BddManager.clear_caches`.
    """

    __slots__ = ("insertions", "probes")

    def __init__(self) -> None:
        super().__init__()
        self.probes = 0
        self.insertions = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __setitem__(self, key, value) -> None:
        self.insertions += 1
        super().__setitem__(key, value)


class BddManager:
    """Owns the node store and the operation caches."""

    FALSE = 0
    TRUE = 1

    def __init__(self, profile_caches: bool | None = None) -> None:
        # node id -> (var, low, high); terminals use var = -1 sentinel.
        self._var: list[int] = [-1, -1]
        self._low: list[int] = [0, 0]
        self._high: list[int] = [0, 0]
        self._unique: dict[tuple[int, int, int], int] = {}
        # Operation caches (all cleared by clear_caches).
        # ``profile_caches`` (default: on iff a telemetry session is
        # active at construction) swaps them for counting dicts; plain
        # dicts keep the recursions free of accounting overhead.
        if profile_caches is None:
            from ..core import telemetry

            profile_caches = telemetry.metrics() is not None
        self.profile_caches = bool(profile_caches)
        _cache: Callable[[], dict] = (
            _CountingCache if self.profile_caches else dict
        )
        self._ite_cache: dict[tuple[int, int, int], int] = _cache()
        self._exists_cache: dict[tuple[int, frozenset[int]], int] = _cache()
        self._rename_cache: dict[
            tuple[int, tuple[tuple[int, int], ...]], int
        ] = _cache()
        self._restrict_cache: dict[tuple[int, int, bool], int] = _cache()
        self._andex_cache: dict[tuple[int, int, frozenset[int]], int] = _cache()
        self._support_cache: dict[int, frozenset[int]] = {}
        # Model counting uses per-call local caches; their stats are
        # folded into these totals after each walk (profiling mode).
        self._count_models_hits = 0
        self._count_models_misses = 0
        self.cache_clears = 0
        self.cache_dropped = 0
        self._published_metrics: dict[str, int] = {}

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    def _mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def var(self, index: int) -> int:
        """The BDD of variable ``index``."""
        if index < 0:
            raise ValueError(f"variable index must be >= 0, got {index}")
        return self._mk(index, self.FALSE, self.TRUE)

    @property
    def num_nodes(self) -> int:
        return len(self._var)

    @property
    def peak_nodes(self) -> int:
        """Allocation high-water mark.

        The store is append-only (ids are never freed), so the current
        table length *is* the peak; exposed under its own name so
        owners can record it without baking that invariant in.
        """
        return len(self._var)

    def cofactors(self, node: int, var: int) -> tuple[int, int]:
        """(low, high) cofactors of ``node`` w.r.t. ``var``."""
        if self._var[node] == var:
            return self._low[node], self._high[node]
        return node, node

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def ite(self, cond: int, then: int, other: int) -> int:
        """If-then-else: the universal connective."""
        if cond == self.TRUE:
            return then
        if cond == self.FALSE:
            return other
        if then == other:
            return then
        if then == self.TRUE and other == self.FALSE:
            return cond
        key = (cond, then, other)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        var = min(self._var[n] for n in (cond, then, other) if n > 1)
        c0, c1 = self.cofactors(cond, var)
        t0, t1 = self.cofactors(then, var)
        o0, o1 = self.cofactors(other, var)
        result = self._mk(
            var, self.ite(c0, t0, o0), self.ite(c1, t1, o1)
        )
        self._ite_cache[key] = result
        return result

    def apply_and(self, a: int, b: int) -> int:
        return self.ite(a, b, self.FALSE)

    def apply_or(self, a: int, b: int) -> int:
        return self.ite(a, self.TRUE, b)

    def apply_xor(self, a: int, b: int) -> int:
        return self.ite(a, self.apply_not(b), b)

    def apply_not(self, a: int) -> int:
        return self.ite(a, self.FALSE, self.TRUE)

    def apply_xnor(self, a: int, b: int) -> int:
        return self.ite(a, b, self.apply_not(b))

    def apply_implies(self, a: int, b: int) -> int:
        return self.ite(a, b, self.TRUE)

    def conjoin(self, terms: Iterable[int]) -> int:
        result = self.TRUE
        for term in terms:
            result = self.apply_and(result, term)
            if result == self.FALSE:
                return result
        return result

    def disjoin(self, terms: Iterable[int]) -> int:
        result = self.FALSE
        for term in terms:
            result = self.apply_or(result, term)
            if result == self.TRUE:
                return result
        return result

    # ------------------------------------------------------------------
    # restriction / quantification / renaming
    # ------------------------------------------------------------------
    def restrict(self, node: int, var: int, value: bool) -> int:
        """Cofactor w.r.t. ``var = value`` (memoised over the shared DAG)."""
        return self._restrict_rec(node, var, bool(value))

    def _restrict_rec(self, node: int, var: int, value: bool) -> int:
        if node <= 1:
            return node
        node_var = self._var[node]
        if node_var > var:
            return node
        if node_var == var:
            return self._high[node] if value else self._low[node]
        key = (node, var, value)
        cached = self._restrict_cache.get(key)
        if cached is not None:
            return cached
        result = self._mk(
            node_var,
            self._restrict_rec(self._low[node], var, value),
            self._restrict_rec(self._high[node], var, value),
        )
        self._restrict_cache[key] = result
        return result

    def exists(self, node: int, variables: Iterable[int]) -> int:
        """Existential quantification over a set of variables."""
        var_set = frozenset(variables)
        if not var_set or node <= 1:
            return node
        return self._exists_rec(node, var_set, max(var_set))

    def _exists_rec(self, node: int, var_set: frozenset[int], max_var: int) -> int:
        if node <= 1:
            return node
        var = self._var[node]
        if var > max_var:
            return node  # ordering: no quantified variable below here
        key = (node, var_set)
        cached = self._exists_cache.get(key)
        if cached is not None:
            return cached
        low = self._exists_rec(self._low[node], var_set, max_var)
        if var in var_set:
            if low == self.TRUE:
                result = self.TRUE
            else:
                high = self._exists_rec(self._high[node], var_set, max_var)
                result = self.apply_or(low, high)
        else:
            high = self._exists_rec(self._high[node], var_set, max_var)
            result = self._mk(var, low, high)
        self._exists_cache[key] = result
        return result

    def and_exists(self, a: int, b: int, variables: Iterable[int]) -> int:
        """Relational product ``∃ vars. a ∧ b`` (image computation core).

        Fused: the conjunction is never materialised above the last
        quantified variable in the order, which is what keeps partitioned
        image steps from re-growing the intermediate product they exist
        to avoid.
        """
        var_set = frozenset(variables)
        if not var_set:
            return self.apply_and(a, b)
        return self._and_exists_rec(a, b, var_set, max(var_set))

    def _and_exists_rec(
        self, a: int, b: int, var_set: frozenset[int], max_var: int
    ) -> int:
        if a == self.FALSE or b == self.FALSE:
            return self.FALSE
        if a == self.TRUE:
            return self._exists_rec(b, var_set, max_var)
        if b == self.TRUE or a == b:
            return self._exists_rec(a, var_set, max_var)
        var = min(self._var[a], self._var[b])
        if var > max_var:
            return self.apply_and(a, b)
        if a > b:
            a, b = b, a  # ∧ commutes: normalise the cache key
        key = (a, b, var_set)
        cached = self._andex_cache.get(key)
        if cached is not None:
            return cached
        a0, a1 = self.cofactors(a, var)
        b0, b1 = self.cofactors(b, var)
        if var in var_set:
            low = self._and_exists_rec(a0, b0, var_set, max_var)
            if low == self.TRUE:
                result = self.TRUE
            else:
                high = self._and_exists_rec(a1, b1, var_set, max_var)
                result = self.apply_or(low, high)
        else:
            result = self._mk(
                var,
                self._and_exists_rec(a0, b0, var_set, max_var),
                self._and_exists_rec(a1, b1, var_set, max_var),
            )
        self._andex_cache[key] = result
        return result

    def rename(self, node: int, mapping: dict[int, int]) -> int:
        """Simultaneous variable substitution ``node[old := new, ...]``.

        The mapping must preserve the order of the node's support (as
        the interleaved next→current rename of an image step does), so
        the result is one structural walk.  A mapping that reorders or
        merges support variables raises ``ValueError``.
        """
        if node <= 1 or not mapping:
            return node
        items = tuple(sorted(mapping.items()))
        for _, new in items:
            if new < 0:
                raise ValueError(f"variable index must be >= 0, got {new}")
        key = (node, items)
        cached = self._rename_cache.get(key)
        if cached is not None:
            return cached
        support = self.support(node)
        if not support & mapping.keys():
            self._rename_cache[key] = node
            return node
        renamed = [mapping.get(v, v) for v in sorted(support)]
        if any(x >= y for x, y in zip(renamed, renamed[1:], strict=False)):
            raise ValueError(
                f"renaming {mapping} does not preserve the variable order"
            )
        result = self._rename_rec(node, items, mapping)
        self._rename_cache[key] = result
        return result

    def _rename_rec(
        self, node: int, items: tuple[tuple[int, int], ...], mapping: dict[int, int]
    ) -> int:
        if node <= 1:
            return node
        key = (node, items)
        cached = self._rename_cache.get(key)
        if cached is not None:
            return cached
        var = self._var[node]
        result = self._mk(
            mapping.get(var, var),
            self._rename_rec(self._low[node], items, mapping),
            self._rename_rec(self._high[node], items, mapping),
        )
        self._rename_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # support
    # ------------------------------------------------------------------
    def support(self, node: int) -> frozenset[int]:
        """Variables the function actually depends on (memoised).

        Drives the early-quantification scheduler: a variable can be
        quantified out as soon as no remaining conjunct's support
        mentions it.
        """
        cache = self._support_cache

        def rec(n: int) -> frozenset[int]:
            if n <= 1:
                return frozenset()
            cached = cache.get(n)
            if cached is None:
                cached = (
                    rec(self._low[n]) | rec(self._high[n]) | {self._var[n]}
                )
                cache[n] = cached
            return cached

        return rec(node)

    # ------------------------------------------------------------------
    # cache accounting
    # ------------------------------------------------------------------
    @property
    def cache_entries(self) -> int:
        """Total entries across every operation cache."""
        return (
            len(self._ite_cache)
            + len(self._exists_cache)
            + len(self._rename_cache)
            + len(self._restrict_cache)
            + len(self._andex_cache)
            + len(self._support_cache)
        )

    def clear_caches(self) -> int:
        """Drop every operation cache; returns the number of entries dropped.

        Owners of long-lived managers call this to bound memory between
        workloads; node ids stay valid, only memoised results are lost.
        """
        dropped = self.cache_entries
        self._ite_cache.clear()
        self._exists_cache.clear()
        self._rename_cache.clear()
        self._restrict_cache.clear()
        self._andex_cache.clear()
        self._support_cache.clear()
        self.cache_clears += 1
        self.cache_dropped += dropped
        return dropped

    @property
    def cache_stats(self) -> dict[str, int]:
        """Per-op-cache hit/miss counters plus clear accounting.

        Exact only in profiling mode (``profile_caches``; see
        :class:`_CountingCache`) -- otherwise every hit/miss reads 0.
        Hits/misses survive :meth:`clear_caches` (they are lifetime
        totals; a clear shows up as the ``clears``/``dropped`` pair and
        a subsequent dip in hit rate, not as a counter reset).
        """
        stats: dict[str, int] = {}
        for name, cache in (
            ("ite", self._ite_cache),
            ("restrict", self._restrict_cache),
            ("exists", self._exists_cache),
            ("and_exists", self._andex_cache),
            ("rename", self._rename_cache),
        ):
            probes = getattr(cache, "probes", 0)
            insertions = getattr(cache, "insertions", 0)
            stats[name + "_hits"] = probes - insertions
            stats[name + "_misses"] = insertions
        stats["count_models_hits"] = self._count_models_hits
        stats["count_models_misses"] = self._count_models_misses
        stats["clears"] = self.cache_clears
        stats["dropped"] = self.cache_dropped
        return stats

    def publish_metrics(self, registry, prefix: str = "bdd.") -> None:
        """Fold this manager's counters into a telemetry registry.

        Counter-style values are published as *deltas* since the last
        publish (tracked per manager), so owners may call this after
        every image step without double counting.  Peaks (node store,
        cache entries) go out as max-merged gauges.
        """
        counters = {
            "cache." + name: value for name, value in self.cache_stats.items()
        }
        published = self._published_metrics
        for name in sorted(counters):
            diff = counters[name] - published.get(name, 0)
            if diff:
                registry.inc(prefix + name, diff)
                published[name] = counters[name]
        registry.gauge_max(prefix + "peak_nodes", self.peak_nodes)
        registry.gauge_max(prefix + "cache_entries_peak", self.cache_entries)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def evaluate(self, node: int, assignment: Callable[[int], bool]) -> bool:
        """Evaluate under a variable assignment function."""
        while node > 1:
            node = (
                self._high[node]
                if assignment(self._var[node])
                else self._low[node]
            )
        return node == self.TRUE

    def count_models(self, node: int, num_vars: int) -> int:
        """Number of satisfying assignments over ``num_vars`` variables
        (variables indexed 0..num_vars-1).

        The function's support must lie within the counted variables.
        """
        for v in self.support(node):
            if v >= num_vars:
                raise ValueError(
                    f"cannot count over {num_vars} variables: "
                    f"support contains variable {v}"
                )
        cache: dict[int, int] = (
            _CountingCache() if self.profile_caches else {}
        )

        def count(n: int) -> tuple[int, int]:
            """(models over variables var..num_vars-1, var) of a node;
            terminals sit at ``num_vars``."""
            if n == self.FALSE:
                return 0, num_vars
            if n == self.TRUE:
                return 1, num_vars
            var = self._var[n]
            cached = cache.get(n)
            if cached is not None:
                return cached, var
            low_models, low_var = count(self._low[n])
            high_models, high_var = count(self._high[n])
            total = low_models * (1 << (low_var - var - 1)) + high_models * (
                1 << (high_var - var - 1)
            )
            cache[n] = total
            return total, var

        models, top = count(node)
        if self.profile_caches:
            self._count_models_misses += cache.insertions
            self._count_models_hits += cache.probes - cache.insertions
        return models << top

    def one_model(self, node: int) -> dict[int, bool] | None:
        """Some satisfying assignment (partial: only decided variables)."""
        if node == self.FALSE:
            return None
        model: dict[int, bool] = {}
        while node > 1:
            if self._low[node] != self.FALSE:
                model[self._var[node]] = False
                node = self._low[node]
            else:
                model[self._var[node]] = True
                node = self._high[node]
        return model

    def iter_nodes(self, node: int) -> Iterator[int]:
        """All reachable nodes of a BDD (for size measurements)."""
        seen: set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in seen or current <= 1:
                continue
            seen.add(current)
            stack.append(self._low[current])
            stack.append(self._high[current])
        return iter(seen)

    def size(self, node: int) -> int:
        return sum(1 for _ in self.iter_nodes(node))
