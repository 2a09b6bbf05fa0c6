"""Acceptance suite: one test per criterion, one PASS line per criterion.

Generated sub-suites use hospital baselines fixed at zero, the convention of
the worked examples and of the free-seat blocking threshold; see the README
notes on baselines for why coalition coverage needs it.
"""

import random
from fractions import Fraction as F

import pytest

from matchgames.contracts import (
    check_hm_stability,
    check_irc,
    check_substitutability,
    is_individually_rational,
    is_pairwise_stable,
    run_da_contracts,
)
from matchgames.core import (
    Allocation,
    BimatrixGame,
    bilinear,
    evaluate_payoffs,
    matrix_bounds,
    negate,
)
from matchgames.dac import run_dac
from matchgames.errors import InfeasibleReservationsError
from matchgames.gen import generate_instance, random_matrix
from matchgames.lp import game_value
from matchgames.qcqp import (
    affine_transform,
    distribution_to_cycle,
    max_f_given_g_floor,
    solve_qcqp_repeated,
)
from matchgames.renegotiation import (
    ReservationPair,
    compute_cne_for_pair,
    compute_cne_repeated,
    punishment_levels,
    reservation_payoffs,
    run_renegotiation,
)
from matchgames.roommates import (
    UnrealizableReport,
    is_aspiration,
    realize_aspiration,
    solve_aspiration_zero_sum,
)
from matchgames.stability import (
    check_individual_rationality,
    find_blocking_coalition,
    find_blocking_pair,
    grid_stable_roommates_search,
    verify_renegotiation_proof,
)

from bridge_reference import Bridge, reference_bridge
from fixtures import (
    PD_A,
    PD_M,
    hedonic_instance,
    multi_auction_instance,
    segregation_instance,
)
from oracles import (
    constrained_best_response_doctor,
    constrained_best_response_hospital,
    enumerate_core,
)

EPS10 = F(1, 10)


def _criterion_suite():
    out = []
    for seed in range(50):
        out.append(generate_instance(
            seed=seed, n_doctors=5, n_hospitals=3, max_strategies=4,
            max_quota=2, classes=["zero_sum"],
            hospital_irp_lo=0, hospital_irp_hi=0,
        ))
    return out


_SUITE = None
_SUITE_RUNS = None


def suite_runs():
    global _SUITE, _SUITE_RUNS
    if _SUITE_RUNS is None:
        _SUITE = _criterion_suite()
        _SUITE_RUNS = [(inst,) + run_dac(inst, EPS10) for inst in _SUITE]
    return _SUITE_RUNS


def test_criterion_1_zero_sum_qcqp_exactness():
    rng = random.Random(1001)
    for _ in range(500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, rows, cols, max_denominator=2)
        lo, hi = matrix_bounds(a)
        c = lo + (hi - lo) * F(rng.randint(0, 32), 32)
        sol = max_f_given_g_floor(BimatrixGame(a, negate(a), "zero_sum"), -c)
        assert sol.f == min(c, hi)
        assert bilinear(sol.x, a, sol.y) == sol.f  # constraint holds exactly
        supports = sorted(sum(1 for w in v if w) for v in (sol.x, sol.y))
        assert supports[0] == 1 and supports[1] <= 2
        # cross-check against the LP-based uniform-game solver on M = -A
        _, (f_lp, _) = solve_qcqp_repeated(a, negate(a), -c)
        assert f_lp == sol.f
    print("ACCEPTANCE 1 zero-sum QCQP exactness (500 draws): PASS")


def test_criterion_2_dac_stability_and_iteration_bound():
    for inst, alloc, trace in suite_runs():
        assert find_blocking_pair(inst, alloc, EPS10) is None
        ok, witness = check_individual_rationality(inst, alloc, EPS10)
        assert ok, witness
        g_max = max(
            matrix_bounds(g.hospital_matrix)[1] - inst.hospitals[h].irp
            for (d, h), g in inst.games.items()
        )
        assert trace.iterations <= g_max / EPS10
    print("ACCEPTANCE 2 DAC stability and iteration bound (50 instances): PASS")


def test_criterion_3_pairwise_implies_core():
    for inst, alloc, _ in suite_runs():
        witness = find_blocking_coalition(
            inst, alloc, EPS10, max_coalition_size=len(inst.doctors)
        )
        assert witness is None, (witness.doctors, witness.hospital)
    print("ACCEPTANCE 3 pairwise implies core on DAC outputs (50 instances): PASS")


def test_criterion_4_multi_auction_reproduction():
    eps = F(1, 2)
    inst = multi_auction_instance()
    alloc, _ = run_dac(inst, eps)
    assert alloc.matching == {"a": "alpha", "b": "alpha", "c": "beta", "d": "beta"}
    assert find_blocking_pair(inst, alloc, eps) is None
    payoffs = evaluate_payoffs(inst, alloc)
    for seller in "abcd":
        assert F(1) - 2 * eps <= payoffs.doctor_payoffs[seller] <= F(9)
    print("ACCEPTANCE 4 multi-auction fixture reproduction: PASS")


def test_criterion_5_enumerated_examples():
    core = enumerate_core(hedonic_instance())
    matchings = sorted(tuple(sorted(c.matching.items())) for c in core)
    assert matchings == [
        (("1", "a"), ("2", "a"), ("3", "b")),
        (("1", "b"), ("2", "b"), ("3", "a")),
    ]
    for n in (2, 3):
        core_n = enumerate_core(segregation_instance(n))
        assert len(core_n) == 1
        matching = core_n[0].matching
        assert all(matching[f"d{i}"] == ("h1" if i <= n else "h2")
                   for i in range(1, 2 * n + 1))
    print("ACCEPTANCE 5 hedonic and segregation core enumeration: PASS")


def test_criterion_6_median_cne_formula():
    rng = random.Random(2002)
    done = 0
    while done < 500:
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, rows, cols, max_denominator=2)
        lo, hi = matrix_bounds(a)
        eps = F(1, rng.choice((10, 4)))
        f_res = lo + (hi - lo) * F(rng.randint(0, 16), 16)
        g_cap = lo + (hi - lo) * F(rng.randint(0, 16), 16)
        if f_res - 2 * eps > g_cap + 2 * eps:
            continue  # infeasible reservations: not part of the criterion
        w, _, _ = game_value(a)
        game = BimatrixGame(a, negate(a), "zero_sum")
        cne = compute_cne_for_pair(game, ReservationPair(f_res, -g_cap), eps)
        assert cne.doctor_payoff == sorted([f_res - 2 * eps, w, g_cap + 2 * eps])[1]
        best_d = constrained_best_response_doctor(a, negate(a), cne.y, -g_cap, eps)
        assert best_d is None or best_d <= cne.doctor_payoff + eps
        best_h = constrained_best_response_hospital(a, negate(a), cne.x, f_res, eps)
        assert best_h is None or best_h <= -cne.doctor_payoff + eps
        done += 1
    print("ACCEPTANCE 6 median CNE formula and deviation audits (500 draws): PASS")


def test_criterion_7_renegotiation_convergence():
    for inst, alloc, _ in suite_runs():
        bound = F(0)
        for d, h in alloc.matched_pairs():
            res = reservation_payoffs(inst, alloc, d, h, EPS10)
            w, _, _ = game_value(inst.game_for(d, h).doctor_matrix)
            bound = max(bound, res.doctor_reservation - w,
                        w - (-res.hospital_reservation))
        stable_flags = []
        result = run_renegotiation(
            inst, alloc, EPS10,
            on_sweep=lambda a, inst=inst: stable_flags.append(
                find_blocking_pair(inst, a, EPS10) is None
            ),
        )
        assert result.sweeps <= max(bound / EPS10, 1)
        assert all(stable_flags)
        ok, witness = verify_renegotiation_proof(inst, result.allocation, EPS10)
        assert ok, witness
    print("ACCEPTANCE 7 renegotiation bound, proofness, and per-sweep stability: PASS")


def test_criterion_8_repeated_game_constructions():
    eps = EPS10
    # the all-quarters mixture realises (1,1) with a cycle of length 4 | 16
    lam = {(s, t): F(1, 4) for s in range(2) for t in range(2)}
    cycle = distribution_to_cycle(lam, PD_A, PD_M)
    assert 16 % len(cycle.cycle) == 0
    assert cycle.average_payoffs(PD_A, PD_M) == (F(1), F(1))
    alpha, beta, y_alpha, _ = punishment_levels(PD_A, PD_M)
    assert (alpha, beta) == (F(0), F(0))
    cne = compute_cne_repeated(PD_A, PD_M, F(14, 5), F(-9, 10), eps)
    assert cne.case_tag == "punishment_supported"
    y_pun = cne.cycle.punishment.hospital_strategy
    n = len(cne.cycle.cycle)
    # Exhaustive deviation prefixes: a deviation at stage k <= 3n to any pure
    # action triggers the grim punishment, and the continuation average is
    # the doctor's best response value against the punishing column forever.
    for k in range(1, 3 * n + 1):
        expected_action = cne.cycle.cycle[(k - 1) % n][0]
        for action in range(2):
            if action == expected_action:
                continue
            continuation = max(
                bilinear(tuple(F(1) if i == s else F(0) for i in range(2)), PD_A, y_pun)
                for s in range(2)
            )
            assert continuation <= alpha + eps
    print("ACCEPTANCE 8 repeated-game cycle, punishments, and deviations: PASS")


def test_criterion_9_strictly_competitive_transfer():
    rng = random.Random(3003)
    done = 0
    while done < 100:
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        core = random_matrix(rng, rows, cols, max_denominator=2)
        ratio = F(rng.randint(1, 4), 4)
        shift = F(rng.randint(-5, 5))
        scaled = tuple(tuple(ratio * v + shift for v in row) for row in core)
        if rng.random() < 0.5:
            a, m = scaled, negate(core)
        else:
            a, m = core, negate(scaled)
        tr = affine_transform(a, m)
        b = negate(m)
        if tr.direction == "doctor":
            assert all(a[i][j] == tr.ratio * b[i][j] + tr.shift
                       for i in range(rows) for j in range(cols))
        else:
            assert all(b[i][j] == tr.ratio * a[i][j] + tr.shift
                       for i in range(rows) for j in range(cols))
        assert tuple(tr) == (*reference_bridge(a, m), tr.image)
        br = Bridge(*tr)
        for row in a:
            for v in row:
                assert br.original_doctor_value(br.image_doctor_value(v)) == v
        eps = EPS10
        (a_lo, a_hi), (m_lo, m_hi) = matrix_bounds(a), matrix_bounds(m)
        f_res = a_lo + (a_hi - a_lo) * F(rng.randint(0, 8), 8)
        g_res = m_lo + (m_hi - m_lo) * F(rng.randint(0, 8), 8)
        game = BimatrixGame(a, m, "strictly_competitive")
        try:
            cne = compute_cne_for_pair(game, ReservationPair(f_res, g_res), eps)
        except InfeasibleReservationsError:
            continue
        f_now = bilinear(cne.x, a, cne.y)
        g_now = bilinear(cne.x, m, cne.y)
        best_d = constrained_best_response_doctor(a, m, cne.y, g_res, eps)
        assert best_d is None or best_d <= f_now + eps
        best_h = constrained_best_response_hospital(a, m, cne.x, f_res, eps)
        assert best_h is None or best_h <= g_now + eps
        done += 1
    print("ACCEPTANCE 9 strictly competitive transfer (100 games): PASS")


def test_criterion_10_contracts():
    from itertools import chain, combinations
    from matchgames.contracts import Contract, ContractModel

    def powerset(items):
        items = sorted(items)
        return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))

    rng = random.Random(4004)
    models = []
    while len(models) < 5:
        utilities = {}
        quotas = {"h1": rng.randint(1, 2), "h2": rng.randint(1, 2)}
        cid = 0
        for i in range(rng.randint(2, 4)):
            for h in ("h1", "h2"):
                if rng.random() < 0.8:
                    utilities[f"c{cid}"] = (f"d{i}", h, rng.randint(-1, 6), rng.randint(0, 6))
                    cid += 1
        if not 2 <= len(utilities) <= 10:
            continue
        contracts = {k: Contract(k, d, h) for k, (d, h, _, _) in utilities.items()}
        model = ContractModel(
            contracts=contracts,
            doctor_utilities={(d, k): F(u) for k, (d, h, u, w) in utilities.items()},
            hospital_additive={
                "h1": {k: F(w) for k, (d, h, u, w) in utilities.items() if h == "h1"},
                "h2": {k: F(w) for k, (d, h, u, w) in utilities.items() if h == "h2"},
            },
            hospital_quotas=quotas,
        )
        if all(check_substitutability(model, h)[0] and check_irc(model, h)[0]
               for h in model.hospitals):
            models.append(model)
    for model in models:
        out = run_da_contracts(model)
        assert check_hm_stability(model, out)[0]
        for sub in powerset(model.contracts):
            allocation = frozenset(sub)
            full = check_hm_stability(model, allocation)[0]
            pairwise = (is_individually_rational(model, allocation)
                        and is_pairwise_stable(model, allocation))
            assert full == pairwise

    # the canonical complementarity violator
    comp = ContractModel(
        contracts={"x": Contract("x", "d1", "h1"), "y": Contract("y", "d2", "h1")},
        doctor_utilities={("d1", "x"): F(1), ("d2", "y"): F(1)},
        hospital_additive={"h1": {}},
        hospital_quotas={"h1": 2},
        hospital_tables={"h1": {
            frozenset(): F(0), frozenset({"x"}): F(0),
            frozenset({"y"}): F(0), frozenset({"x", "y"}): F(10),
        }},
    )
    ok, witness = check_substitutability(comp, "h1")
    assert not ok and witness is not None
    out = run_da_contracts(comp)
    assert is_pairwise_stable(comp, out)
    assert not check_hm_stability(comp, out)[0]
    print("ACCEPTANCE 10 contracts: DA stability, equivalence, counterexample: PASS")


def test_criterion_11_roommates_zero_sum():
    realized = failed = 0
    for seed in range(50):
        inst = generate_instance(
            seed=seed, model="roommates", n_doctors=4 + seed % 3,
            max_strategies=4, classes=["zero_sum"],
        )
        profile = solve_aspiration_zero_sum(inst)
        ok, witness = is_aspiration(inst, profile)
        assert ok, (seed, witness)
        result = realize_aspiration(inst, profile)
        if isinstance(result, UnrealizableReport):
            failed += 1
            hit = grid_stable_roommates_search(inst, mesh=16, tolerance=F(1, 16))
            assert hit is None, (seed, hit)
        else:
            realized += 1
            payoffs = evaluate_payoffs(inst, result)
            assert payoffs.doctor_payoffs == profile
            assert find_blocking_pair(inst, result, F(0)) is None
            assert all(payoffs.doctor_payoffs[d] >= inst.doctors[d].irp
                       for d in inst.doctor_ids)
    assert realized + failed == 50
    print(f"ACCEPTANCE 11 roommates zero-sum ({realized} realized, {failed} certified empty): PASS")
