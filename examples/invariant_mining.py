#!/usr/bin/env python3
"""Use-case from paper §VI: mine invariants and cross-check implementations.

Scenario: a team maintains two implementations of the same vending
machine design.  The second implementation contains a bug -- a dime
inserted at ten cents resets the machine to zero, swallowing the money.

1. Learn a complete abstraction of the *reference* implementation; the
   extracted completeness conditions are invariants of the reference.
2. Check those invariants against the *buggy* implementation with the
   same model checker; the violated invariant pinpoints the divergence,
   even though no requirement document mentions it.

Run:  python examples/invariant_mining.py
"""

from repro.core import ActiveLearner
from repro.expr import Var, enum_sort, ite
from repro.learn import T2MLearner
from repro.mc import check_condition
from repro.system import make_system
from repro.traces import random_traces

COIN = enum_sort("Coin", "none", "nickel", "dime")
SLOT = enum_sort("Slot", "Zero", "Five", "Ten", "Fifteen")


def reference_machine():
    """The reference vending machine: correct dime handling."""
    coin = Var("coin", COIN)
    slot = Var("slot", SLOT)
    nickel = coin.prime().eq("nickel")
    dime = coin.prime().eq("dime")
    next_slot = ite(
        slot.eq("Zero"), ite(nickel, 1, ite(dime, 2, 0)),
        ite(
            slot.eq("Five"), ite(nickel, 2, ite(dime, 3, 1)),
            ite(
                slot.eq("Ten"), ite(nickel, 3, ite(dime, 3, 2)),
                0,  # Fifteen dispenses and resets
            ),
        ),
    )
    return make_system(
        "vending_ref", [slot], [coin], {"slot": 0}, {slot: next_slot}
    )


def buggy_machine():
    """A re-implementation that swallows a dime inserted at Ten."""
    coin = Var("coin", COIN)
    slot = Var("slot", SLOT)
    nickel = coin.prime().eq("nickel")
    dime = coin.prime().eq("dime")
    next_slot = ite(
        slot.eq("Zero"), ite(nickel, 1, ite(dime, 2, 0)),
        ite(
            slot.eq("Five"), ite(nickel, 2, ite(dime, 3, 1)),
            ite(
                slot.eq("Ten"), ite(nickel, 3, ite(dime, 0, 2)),  # BUG
                0,
            ),
        ),
    )
    return make_system(
        "vending_buggy", [slot], [coin], {"slot": 0}, {slot: next_slot}
    )


def main() -> None:
    reference = reference_machine()
    learner = T2MLearner(
        mode_vars=["slot"],
        variables={v.name: v for v in reference.variables},
        prefer_vars=["coin"],
    )
    result = ActiveLearner(reference, learner, k=10).run(
        random_traces(reference, count=20, length=20, seed=3)
    )
    assert result.converged
    print(f"Learned reference abstraction: N={result.num_states}, "
          f"α={result.alpha}, {len(result.invariants)} invariants\n")

    buggy = buggy_machine()
    print("Checking reference invariants against the new implementation:")
    failures = 0
    for index, invariant in enumerate(result.invariants, start=1):
        outcome = check_condition(buggy, invariant.assumption, invariant.conclusion)
        status = "holds" if outcome.holds else "VIOLATED"
        print(f"  [{index}] {status}: {invariant.render()}")
        if not outcome.holds:
            failures += 1
            v_t, v_t1 = outcome.counterexample
            print(f"        counterexample: {dict(v_t)} -> {dict(v_t1)}")
    print()
    if failures:
        print(
            f"{failures} invariant(s) violated -- the divergence was caught "
            "without any hand-written specification."
        )
    else:
        print("implementations agree on all mined invariants")
    assert failures > 0, "the planted bug must be caught"


if __name__ == "__main__":
    main()
