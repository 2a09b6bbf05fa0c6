"""Solvers and verification oracles for general matching games.

The package covers three submodels: one-to-many additive separable markets
(solved by deferred acceptance with competitions and refined by the
renegotiation process), matching with contracts, and roommates markets.
Everything authoritative runs on exact rational arithmetic; independent
brute-force oracles certify every solver output.
"""

from .contracts import (
    ChoiceRules,
    ContractModel,
    check_hm_stability,
    check_irc,
    check_substitutability,
    choice_doctor,
    choice_hospital,
    is_individually_rational,
    is_pairwise_stable,
    run_da_contracts,
)
from .core import (
    Allocation,
    BimatrixGame,
    CyclePunishment,
    CycleStrategy,
    Doctor,
    Hospital,
    MatchingGameInstance,
    PayoffReport,
    evaluate_payoffs,
    format_rational,
    load_allocation,
    load_instance,
    parse_rational,
    serialize_allocation,
    serialize_instance,
)
from .dac import run_dac
from .lp import game_value
from .qcqp import (
    affine_transform,
    distribution_to_cycle,
    solve_qcqp_repeated,
)
from .renegotiation import (
    CneResult,
    ReservationPair,
    compute_cne_repeated,
    punishment_levels,
    reservation_payoffs,
    run_renegotiation,
)
from .roommates import (
    demand_set,
    is_aspiration,
    realize_aspiration,
    solve_aspiration_zero_sum,
)
from .stability import (
    StabilityReport,
    find_blocking_coalition,
    find_blocking_pair,
    verify_renegotiation_proof,
)

__version__ = "0.1.0"
