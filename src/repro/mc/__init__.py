"""Model-checking substrate: the CBMC stand-in.

Engines: one-step condition checks (Fig. 3a), BMC, k-induction, exact
explicit-state reachability, and the spuriousness classifier (Fig. 3b).
"""

from .bmc import BoundedModelChecker, IncrementalUnroller, bmc, bmc_single_query
from .condition_check import (
    IncrementalConditionChecker,
    check_condition,
    check_init_condition,
)
from .explicit import (
    ExplicitReachability,
    StateSpaceLimitExceeded,
    reachable_formula,
    shared_reachability,
)
from .harness import (
    Harness,
    condition_harness,
    run_condition_harness,
    run_spurious_harness,
    spurious_harness,
    strengthened_assumption,
)
from .kinduction import (
    KInductionEngine,
    k_induction,
    prove_unreachable,
    shared_kinduction,
    step_case_holds,
)
from .symbolic import (
    BddCompiler,
    BddGateBuilder,
    SharedBddContext,
    SymbolicReachability,
    SymbolicSpuriousness,
    TransitionPartition,
    build_transition_partition,
    shared_bdd_context,
    shared_symbolic_reachability,
)
from .spurious import (
    SPURIOUS_ENGINES,
    ExplicitSpuriousness,
    KInductionSpuriousness,
    SpuriousnessChecker,
    build_spurious_checker,
    state_equality_formula,
)
from .verdicts import (
    BmcResult,
    ConditionCheckResult,
    InductionOutcome,
    KInductionResult,
    SpuriousVerdict,
)

__all__ = [
    "BddCompiler",
    "BddGateBuilder",
    "BmcResult",
    "BoundedModelChecker",
    "ConditionCheckResult",
    "IncrementalUnroller",
    "KInductionEngine",
    "ExplicitReachability",
    "ExplicitSpuriousness",
    "Harness",
    "IncrementalConditionChecker",
    "InductionOutcome",
    "KInductionResult",
    "KInductionSpuriousness",
    "SPURIOUS_ENGINES",
    "SharedBddContext",
    "SpuriousVerdict",
    "SpuriousnessChecker",
    "SymbolicReachability",
    "SymbolicSpuriousness",
    "StateSpaceLimitExceeded",
    "TransitionPartition",
    "build_spurious_checker",
    "build_transition_partition",
    "reachable_formula",
    "shared_bdd_context",
    "shared_kinduction",
    "shared_reachability",
    "shared_symbolic_reachability",
    "bmc",
    "bmc_single_query",
    "check_condition",
    "check_init_condition",
    "condition_harness",
    "k_induction",
    "prove_unreachable",
    "run_condition_harness",
    "run_spurious_harness",
    "spurious_harness",
    "state_equality_formula",
    "step_case_holds",
    "strengthened_assumption",
]
