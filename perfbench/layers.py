"""Layer attribution for the traced run: timing wrappers installed from outside.

Each layer is a named set of public functions.  :class:`LayerTracer`
replaces every function at the module or class attribute its caller
looks it up through (a function imported by name, such as
``synthesize_separator`` in ``repro.learn.t2m``, is patched in the
importing module, not where it is defined), times each call, and charges
the layer with the call's *self* time: wall time minus the time of the
wrapped calls nested inside it.  Self times therefore add up without
double counting, and their sum over ``total_s`` is the coverage.

Counts come from the same wrappers: ``calls`` per layer plus the extras
listed in :data:`LAYERS`, read off arguments and results at the layer
boundary (for example ``SolveResult.propagations_delta``).
"""

from __future__ import annotations

import functools
import importlib
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Hook:
    """One wrapped attribute: ``owner`` is a module path, optionally with
    ``:Class``; ``before(args)`` snapshots state, ``after(args, result,
    snapshot)`` returns the layer's count increments."""

    owner: str
    name: str
    before: Callable | None = None
    after: Callable | None = None


def _clause_delta(args, result, before):
    return {"clauses": args[0].encoder.clause_cursor() - before}


def _sat_counts(args, result, before):
    return {
        "propagations": result.propagations_delta,
        "conflicts": result.conflicts_delta,
    }


def _explore_states(args, result, before):
    return {"states": len(args[0]._table) - before}


def _spurious(args, result, before):
    return {"spurious": int(result.name == "SPURIOUS")}


def _splice(args, result, before):
    return {"new_traces": result.num_added, "duplicates": result.duplicates_skipped}


#: layer name -> hooks.  Layer names are the program's module names; see
#: README.md for the end-to-end metric each layer should move.
LAYERS: dict[str, tuple[Hook, ...]] = {
    "traces.generate": (
        Hook(
            "repro.evaluation",
            "random_traces",
            after=lambda a, r, b: {"steps": sum(len(t) for t in r)},
        ),
    ),
    "learn.session": (
        Hook("repro.core.loop", "start_session"),
        Hook(
            "repro.learn.t2m:T2MSession",
            "add_traces",
            after=lambda a, r, b: {"warm": int(a[0].warm)},
        ),
        Hook("repro.learn.t2m:T2MLearner", "learn"),
    ),
    "learn.synthesize": (
        Hook(
            "repro.learn.t2m",
            "synthesize_separator",
            after=lambda a, r, b: {"found": int(r is not None)},
        ),
    ),
    "conditions.extract": tuple(
        Hook(owner, "extract_conditions", after=lambda a, r, b: {"conditions": len(r)})
        for owner in ("repro.core.loop", "repro.evaluation")
    ),
    # The runners validate every system before checking it (validate=True).
    "analysis.validate": (Hook("repro.analysis.system_check", "validate_system"),),
    "oracle.check": (
        Hook(
            "repro.core.oracle:CompletenessOracle",
            "check",
            after=lambda a, r, b: {"violations": int(not r.holds)},
        ),
    ),
    "oracle.solve": (
        Hook(
            "repro.mc.condition_check:IncrementalConditionChecker",
            "check",
            after=lambda a, r, b: {"sat": int(not r.holds)},
        ),
    ),
    "oracle.classify": (
        Hook("repro.mc.spurious:ExplicitSpuriousness", "classify", after=_spurious),
        Hook("repro.mc.symbolic:SymbolicSpuriousness", "classify", after=_spurious),
    ),
    "oracle.strengthen": (Hook("repro.core.oracle", "strengthened_assumption"),),
    "smt.encode": (
        Hook(
            "repro.smt.solver:SmtSolver",
            "add",
            before=lambda a: a[0].encoder.clause_cursor(),
            after=_clause_delta,
        ),
    ),
    "sat.solve": (Hook("repro.sat.solver:Solver", "solve", after=_sat_counts),),
    "bdd.image": (
        Hook(
            "repro.mc.symbolic:SharedBddContext",
            "image",
            before=lambda a: a[0].image_hits,
            after=lambda a, r, b: {"memo_hits": a[0].image_hits - b},
        ),
    ),
    "mc.explicit": (
        Hook(
            "repro.mc.explicit:ExplicitReachability",
            "explore",
            before=lambda a: len(a[0]._table),
            after=_explore_states,
        ),
        Hook("repro.core.loop", "reachable_formula"),
        Hook("repro.evaluation", "reachable_formula"),
    ),
    "refine.splice": (Hook("repro.core.loop", "augment_traces", after=_splice),),
    "invariants.extract": (Hook("repro.core.loop", "extract_invariants"),),
    "eval.score": (Hook("repro.evaluation", "transition_match_score"),),
}


class LayerTracer:
    """Installs the :data:`LAYERS` wrappers and accumulates per-layer stats.

    Wrappers count only while :attr:`enabled` is set, so set-up and the
    output checks run through them untimed.  ``uninstall`` restores
    every original attribute.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts: dict[str, dict[str, int]] = {layer: {} for layer in LAYERS}
        # One accumulator of nested wrapped time per open wrapped call.
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, hooks in LAYERS.items():
            for hook in hooks:
                module_path, _, class_name = hook.owner.partition(":")
                owner = importlib.import_module(module_path)
                if class_name:
                    owner = getattr(owner, class_name)
                original = getattr(owner, hook.name)
                self._patched.append((owner, hook.name, original))
                setattr(owner, hook.name, self._wrap(layer, hook, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _wrap(self, layer: str, hook: Hook, fn: Callable) -> Callable:
        stack = self._stack
        counts = self.counts[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            snapshot = hook.before(args) if hook.before is not None else None
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.self_s[layer] += elapsed - nested
                self.calls[layer] += 1
            if hook.after is not None:
                for key, value in hook.after(args, result, snapshot).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper
