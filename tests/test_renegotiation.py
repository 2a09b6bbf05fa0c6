import hashlib
import random
from fractions import Fraction as F

import pytest

from matchgames.cli import main
from matchgames.core import (
    Allocation,
    BimatrixGame,
    Doctor,
    Hospital,
    MatchingGameInstance,
    _integer_weights,
    bilinear,
    negate,
    pure,
)
from matchgames.errors import InfeasibleReservationsError, InputNotPairwiseStableError
from matchgames.gen import generate_instance, random_game, random_matrix
from matchgames.lp import game_value
from matchgames.dac import run_dac
from matchgames.renegotiation import (
    ReservationPair,
    _deviation_fault,
    _one_shot_cne,
    compute_cne_for_pair,
    compute_cne_repeated,
    punishment_levels,
    reservation_payoffs,
    run_renegotiation,
)
from matchgames.roommates import realize_aspiration, solve_aspiration_zero_sum
from matchgames.stability import find_blocking_pair, verify_renegotiation_proof
from matchgames.core import matrix_bounds

from bridge_reference import bridge
from fixtures import PD_A, PD_M
from oracles import (
    EQ,
    GE,
    OPTIMAL,
    LinearProgram,
    constrained_best_response_doctor,
    constrained_best_response_hospital,
    deviation_fault,
    fraction_simplex_lp,
)


class TestReservations:
    def build(self, outside_matrix):
        # d1 matched to h1; h2 is the outside option with a free seat.
        a1 = ((F(-3), F(3)),)
        return MatchingGameInstance(
            model="additive_separable",
            doctors={"d1": Doctor("d1", F(-9), ("s",))},
            hospitals={
                "h1": Hospital("h1", F(0), 1, ("t1", "t2")),
                "h2": Hospital("h2", F(0), 1, ("u1", "u2")),
            },
            games={
                ("d1", "h1"): BimatrixGame(a1, negate(a1), "zero_sum"),
                ("d1", "h2"): BimatrixGame(outside_matrix, negate(outside_matrix), "zero_sum"),
            },
        )

    def alloc(self):
        return Allocation(
            matching={"d1": "h1"},
            doctor_strategies={"d1": (F(1),)},
            hospital_strategies={("h1", "d1"): (F(1), F(0))},
        )

    def test_isolated_couple_falls_back_to_irps(self):
        inst = self.build(((F(-3), F(3)),))
        del inst.games[("d1", "h2")]
        res = reservation_payoffs(inst, self.alloc(), "d1", "h1", F(1, 2))
        assert res.doctor_reservation == F(-9)
        assert res.hospital_reservation == F(0)

    def test_outside_option_with_attainable_threshold(self):
        res = reservation_payoffs(
            self.build(((F(-4), F(4)),)), self.alloc(), "d1", "h1", F(1, 2)
        )
        # free seat at h2: threshold 0 + 1/2, doctor keeps at most -1/2
        assert res.doctor_reservation == F(-1, 2)

    def test_unreachable_outside_threshold_is_ignored(self):
        # h2's per-seat demand 0 + 1/2 exceeds everything this game can give
        # it (hospital payoffs in [-4, 0]), so only the IRP remains.
        res = reservation_payoffs(
            self.build(((F(0), F(4)),)), self.alloc(), "d1", "h1", F(1, 2)
        )
        assert res.doctor_reservation == F(-9)

    def test_hospital_side_with_saturated_outside_doctor(self):
        # An outside doctor already at her maximum cannot be strictly
        # improved; the hospital reservation falls back to its baseline.
        a1 = ((F(-3), F(3)),)
        a2 = ((F(5), F(5)),)  # d2's game vs h1 pays d2 a flat 5
        inst = MatchingGameInstance(
            model="additive_separable",
            doctors={"d1": Doctor("d1", F(-9), ("s",)), "d2": Doctor("d2", F(5), ("s",))},
            hospitals={"h1": Hospital("h1", F(-2), 1, ("t1", "t2"))},
            games={
                ("d1", "h1"): BimatrixGame(a1, negate(a1), "zero_sum"),
                ("d2", "h1"): BimatrixGame(a2, negate(a2), "zero_sum"),
            },
        )
        alloc = Allocation(
            matching={"d1": "h1", "d2": None},
            doctor_strategies={"d1": (F(1),)},
            hospital_strategies={("h1", "d1"): (F(1), F(0))},
        )
        res = reservation_payoffs(inst, alloc, "d1", "h1", F(1, 10))
        assert res.hospital_reservation == F(-2)


def _zero_sum_pair(a):
    return BimatrixGame(a, negate(a), "zero_sum")


PENNIES = ((F(1), F(-1)), (F(-1), F(1)))


class TestZeroSumCne:
    # A zero-sum pair's doctor-unit cap g_cap is the hospital reservation -g_cap.
    def test_saddle_case(self):
        cne = compute_cne_for_pair(_zero_sum_pair(PENNIES), ReservationPair(F(-1), F(-1)), F(1, 10))
        assert cne.case_tag == "saddle_value"
        assert cne.doctor_payoff == 0
        assert cne.x == (F(1, 2), F(1, 2)) and cne.y == (F(1, 2), F(1, 2))

    def test_doctor_binding_case(self):
        cne = compute_cne_for_pair(_zero_sum_pair(PENNIES), ReservationPair(F(1, 2), F(-1)), F(1, 10))
        assert cne.case_tag == "doctor_binding"
        assert cne.doctor_payoff == F(1, 2) - F(2, 10)

    def test_hospital_binding_case(self):
        cne = compute_cne_for_pair(_zero_sum_pair(PENNIES), ReservationPair(F(-1), F(1, 2)), F(1, 10))
        assert cne.case_tag == "hospital_binding"
        assert cne.doctor_payoff == F(-1, 2) + F(2, 10)

    def test_infeasible_band(self):
        with pytest.raises(InfeasibleReservationsError):
            compute_cne_for_pair(_zero_sum_pair(PENNIES), ReservationPair(F(5), F(-10)), F(1, 10))

    def test_median_formula_and_deviations_random(self):
        rng = random.Random(61)
        checked = 0
        while checked < 120:
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = random_matrix(rng, rows, cols, max_denominator=2)
            lo, hi = matrix_bounds(a)
            eps = F(1, rng.choice((10, 4)))
            f_res = lo + (hi - lo) * F(rng.randint(0, 8), 8)
            g_cap = lo + (hi - lo) * F(rng.randint(0, 8), 8)
            if f_res - 2 * eps > g_cap + 2 * eps:
                continue
            w, _, _ = game_value(a)
            cne = compute_cne_for_pair(_zero_sum_pair(a), ReservationPair(f_res, -g_cap), eps)
            assert cne.doctor_payoff == sorted([f_res - 2 * eps, w, g_cap + 2 * eps])[1]
            # explicit constrained best-response audits
            best_d = constrained_best_response_doctor(a, negate(a), cne.y, -g_cap, eps)
            assert best_d is None or best_d <= cne.doctor_payoff + eps
            best_h = constrained_best_response_hospital(a, negate(a), cne.x, f_res, eps)
            assert best_h is None or best_h <= -cne.doctor_payoff + eps
            checked += 1


class TestStrictlyCompetitiveCne:
    def test_transfer_example(self):
        # A = 2B + U with B = [[2,0],[0,1]]; reservations (3, -3/2), eps 1/5.
        # The doctor's tight side binds: value f_res - 2*eps = 13/5.
        a = ((F(5), F(1)), (F(1), F(3)))
        m = negate(((F(2), F(0)), (F(0), F(1))))
        game = BimatrixGame(a, m, "strictly_competitive")
        cne = compute_cne_for_pair(game, ReservationPair(F(3), F(-3, 2)), F(1, 5))
        assert cne.case_tag == "doctor_binding"
        assert cne.doctor_payoff == F(13, 5)
        assert cne.hospital_payoff == bilinear(cne.x, m, cne.y)

    def test_constant_game_any_profile(self):
        a = ((F(3), F(3)),)
        m = ((F(-1), F(-1)),)
        game = BimatrixGame(a, m, "strictly_competitive")
        cne = compute_cne_for_pair(game, ReservationPair(F(3), F(-1)), F(1, 10))
        assert cne.doctor_payoff == 3 and cne.hospital_payoff == -1

    def test_infeasible_transformed_reservations(self):
        a = ((F(5), F(1)), (F(1), F(3)))
        m = negate(((F(2), F(0)), (F(0), F(1))))
        game = BimatrixGame(a, m, "strictly_competitive")
        with pytest.raises(InfeasibleReservationsError):
            compute_cne_for_pair(game, ReservationPair(F(100), F(-3, 2)), F(1, 5))

    def test_random_transfer_deviations_in_original_game(self):
        rng = random.Random(77)
        done = 0
        while done < 60:
            core = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), max_denominator=2)
            ratio = F(rng.randint(1, 4), 4)
            shift = F(rng.randint(-3, 3))
            scaled = tuple(tuple(ratio * v + shift for v in row) for row in core)
            if rng.random() < 0.5:
                a, m = scaled, negate(core)
            else:
                a, m = core, negate(scaled)
            (lo_f, hi_f), (lo_g, hi_g) = matrix_bounds(a), matrix_bounds(m)
            eps = F(1, 10)
            f_res = lo_f + (hi_f - lo_f) * F(rng.randint(0, 4), 4)
            g_res = lo_g + (hi_g - lo_g) * F(rng.randint(0, 4), 4)
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


class TestPunishmentLevels:
    def test_prisoners_dilemma(self):
        alpha, beta, y_alpha, x_beta = punishment_levels(PD_A, PD_M)
        assert (alpha, beta) == (F(0), F(0))
        assert y_alpha == (F(0), F(1)) and x_beta == (F(0), F(1))

    def test_zero_sum_levels_coincide_with_value(self):
        a = ((F(2), F(0)), (F(0), F(1)))
        alpha, beta, _, _ = punishment_levels(a, negate(a))
        w, _, _ = game_value(a)
        assert alpha == w and beta == -w

    def test_constant_matrices(self):
        a = ((F(3), F(3)),)
        m = ((F(-1), F(-1)),)
        alpha, beta, _, _ = punishment_levels(a, m)
        assert (alpha, beta) == (F(3), F(-1))


class TestRepeatedCne:
    def test_uniform_equilibrium_prefers_total_surplus(self):
        cne = compute_cne_repeated(PD_A, PD_M, F(1, 2), F(1, 2), F(1, 10))
        assert cne.case_tag == "uniform_equilibrium"
        assert (cne.doctor_payoff, cne.hospital_payoff) == (F(2), F(2))
        assert cne.cycle.punishment.punisher == "both"

    def test_dominated_target_still_goes_to_two_two(self):
        eps = F(1, 10)
        cne = compute_cne_repeated(PD_A, PD_M, F(1) + eps, F(1) + eps, eps)
        assert (cne.doctor_payoff, cne.hospital_payoff) == (F(2), F(2))

    def test_mixed_case_hospital_bump_capped_by_hull(self):
        # Acceptable set forces f >= 27/10; max g on that face is -1/10 and
        # the epsilon bump would leave the hull, so the point stays put.
        eps = F(1, 10)
        cne = compute_cne_repeated(PD_A, PD_M, F(14, 5), F(-9, 10), eps)
        assert cne.case_tag == "punishment_supported"
        assert cne.cycle.punishment.punisher == "hospital"
        assert (cne.doctor_payoff, cne.hospital_payoff) == (F(27, 10), F(-1, 10))

    def test_mixed_case_bump_applies_when_hull_allows(self):
        # Stage game with a thick hull: bumping the exposed side stays inside.
        a = ((F(0), F(0)), (F(4), F(4)))
        m = ((F(0), F(4)), (F(0), F(4)))
        eps = F(1, 10)
        alpha, beta, _, _ = punishment_levels(a, m)
        assert alpha == 4 and beta == 4  # punishments are toothless here
        cne = compute_cne_repeated(a, m, F(4), F(1), eps)
        assert cne.doctor_payoff + eps >= F(4)

    def test_infeasible_acceptable_set(self):
        with pytest.raises(InfeasibleReservationsError):
            compute_cne_repeated(PD_A, PD_M, F(10), F(10), F(1, 10))

    def test_punished_deviations_capped_by_minimax(self):
        eps = F(1, 10)
        cne = compute_cne_repeated(PD_A, PD_M, F(14, 5), F(-9, 10), eps)
        y_pun = cne.cycle.punishment.hospital_strategy
        alpha, _, _, _ = punishment_levels(PD_A, PD_M)
        # Any pure deviation prefix of up to 3 cycle lengths: afterwards the
        # doctor faces the punishing column forever.
        n = len(cne.cycle.cycle)
        for prefix in range(1, 3 * n + 1):
            for action in range(2):
                continuation = max(
                    bilinear((F(1), F(0)) if s == 0 else (F(0), F(1)), PD_A, y_pun)
                    for s in range(2)
                )
                assert continuation <= alpha + eps


class TestRenegotiationProcess:
    def isolated_couple(self):
        a = ((F(1), F(-1)), (F(-1), F(1)))
        inst = MatchingGameInstance(
            model="additive_separable",
            doctors={"d1": Doctor("d1", F(-2), ("s1", "s2"))},
            hospitals={"h1": Hospital("h1", F(-2), 1, ("t1", "t2"))},
            games={("d1", "h1"): BimatrixGame(a, negate(a), "zero_sum")},
        )
        alloc = Allocation(
            matching={"d1": "h1"},
            doctor_strategies={"d1": (F(1), F(0))},
            hospital_strategies={("h1", "d1"): (F(1, 2), F(1, 2))},
        )
        return inst, alloc

    def test_isolated_couple_reaches_fixed_point_fast(self):
        inst, alloc = self.isolated_couple()
        eps = F(1, 10)
        assert find_blocking_pair(inst, alloc, eps) is None
        result = run_renegotiation(inst, alloc, eps)
        assert result.sweeps <= 1
        ok, _ = verify_renegotiation_proof(inst, result.allocation, eps)
        assert ok

    def test_already_proof_input_changes_nothing(self):
        inst, alloc = self.isolated_couple()
        eps = F(1, 10)
        first = run_renegotiation(inst, alloc, eps)
        second = run_renegotiation(inst, first.allocation, eps)
        assert second.sweeps == 0
        assert second.allocation.doctor_strategies == first.allocation.doctor_strategies

    def test_rejects_unstable_input(self):
        inst, alloc = self.isolated_couple()
        # hand-corrupt: doctor takes -1 while a Pareto move to the saddle is
        # available? an isolated zero-sum couple cannot be blocked, so build
        # a two-hospital violation instead
        a = ((F(-5), F(5)),)
        inst = MatchingGameInstance(
            model="additive_separable",
            doctors={"d1": Doctor("d1", F(-9), ("s",))},
            hospitals={
                "h1": Hospital("h1", F(-9), 1, ("t1", "t2")),
                "h2": Hospital("h2", F(-9), 1, ("u1", "u2")),
            },
            games={
                ("d1", "h1"): BimatrixGame(a, negate(a), "zero_sum"),
                ("d1", "h2"): BimatrixGame(a, negate(a), "zero_sum"),
            },
        )
        alloc = Allocation(
            matching={"d1": "h1"},
            doctor_strategies={"d1": (F(1),)},
            hospital_strategies={("h1", "d1"): (F(1), F(0))},  # doctor at -5
        )
        with pytest.raises(InputNotPairwiseStableError):
            run_renegotiation(inst, alloc, F(1, 10))

    def test_pipeline_keeps_stability_every_sweep(self):
        eps = F(1, 10)
        for seed in (0, 5, 9):
            inst = generate_instance(seed=seed, n_doctors=5, n_hospitals=3,
                                     max_strategies=4, max_quota=2, classes=["zero_sum"])
            alloc, _ = run_dac(inst, eps)
            flags = []
            result = run_renegotiation(
                inst, alloc, eps,
                on_sweep=lambda a, inst=inst: flags.append(
                    find_blocking_pair(inst, a, eps) is None
                ),
            )
            assert all(flags)
            ok, witness = verify_renegotiation_proof(inst, result.allocation, eps)
            assert ok, witness

    def test_mixed_class_pipeline_with_small_ratios(self):
        # Strictly competitive pairs with ratio < 1/2 once leaked doctor
        # deviations worth eps*(1/ratio - 1): the sweep's epsilon shift must
        # happen in image units, not original units.
        eps = F(1, 10)
        for seed in (1000, 1041, 1046):
            inst = generate_instance(seed=seed, n_doctors=5, n_hospitals=3,
                                     max_strategies=4, max_quota=2,
                                     classes=["zero_sum", "strictly_competitive", "repeated"],
                                     hospital_irp_lo=-3, hospital_irp_hi=2,
                                     max_denominator=2)
            alloc, _ = run_dac(inst, eps)
            result = run_renegotiation(inst, alloc, eps)
            ok, witness = verify_renegotiation_proof(inst, result.allocation, eps)
            assert ok, witness
            assert find_blocking_pair(inst, result.allocation, eps) is None

    def test_sweep_bound_on_zero_sum_runs(self):
        eps = F(1, 10)
        for seed in range(8):
            inst = generate_instance(seed=seed, n_doctors=4, n_hospitals=2,
                                     max_strategies=3, max_quota=2, classes=["zero_sum"])
            alloc, _ = run_dac(inst, eps)
            bound = F(0)
            for d, h in alloc.matched_pairs():
                res = reservation_payoffs(inst, alloc, d, h, eps)
                w, _, _ = game_value(inst.game_for(d, h).doctor_matrix)
                bound = max(bound, res.doctor_reservation - w,
                            w - (-res.hospital_reservation))
            result = run_renegotiation(inst, alloc, eps)
            assert result.sweeps <= max(bound / eps, 1)


# ---------------------------------------------------------------------------
# Closed-form constrained best responses against an LP reference


def _lp_best_response(gain, guard, floor):
    """max p.gain over the simplex with p.guard >= floor, by the reference LP."""
    lp = LinearProgram(objective=list(gain))
    lp.add([F(1)] * len(gain), EQ, F(1))
    lp.add(list(guard), GE, floor)
    result = fraction_simplex_lp(lp)
    return result.value if result.status == OPTIMAL else None


def _random_mix(rng, n):
    if rng.random() < 0.3:
        return pure(rng.randrange(n), n)
    weights = [rng.randint(0, 4) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    return tuple(F(w, sum(weights)) for w in weights)


def _guard_floors(rng, guard):
    """Floors below the attainable range, inside it, at its maximum, above it."""
    lo, hi = min(guard), max(guard)
    inside = lo + (hi - lo) * F(rng.randint(0, 12), 12)
    return [lo - 1, inside, hi, hi + F(1, 3)]


def test_closed_form_best_responses_match_lp():
    rng = random.Random(2024)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        den = rng.choice((1, 3))
        a = random_matrix(rng, rows, cols, max_denominator=den)
        m = random_matrix(rng, rows, cols, max_denominator=den)
        eps = F(1, rng.choice((10, 4)))
        y0, x0 = _random_mix(rng, cols), _random_mix(rng, rows)

        gain = [bilinear(pure(i, rows), a, y0) for i in range(rows)]
        guard = [bilinear(pure(i, rows), m, y0) for i in range(rows)]
        for floor in _guard_floors(rng, guard):
            want = _lp_best_response(gain, guard, floor)
            assert constrained_best_response_doctor(a, m, y0, floor + eps, eps) == want
            assert floor <= max(guard) or want is None

        gain = [bilinear(x0, m, pure(j, cols)) for j in range(cols)]
        guard = [bilinear(x0, a, pure(j, cols)) for j in range(cols)]
        for floor in _guard_floors(rng, guard):
            want = _lp_best_response(gain, guard, floor)
            assert constrained_best_response_hospital(a, m, x0, floor + eps, eps) == want
            assert floor <= max(guard) or want is None


def _audit_game(rng):
    """A one-shot game of either class, 1 x n and n x 1 shapes included,
    denominators 1-5, and payoffs drawn from {-1, 0, 1} a third of the time
    so that rows, columns and guards tie."""
    rows, cols = rng.choice(((1, rng.randint(1, 4)), (rng.randint(1, 4), 1),
                             (rng.randint(2, 4), rng.randint(2, 4))))
    den = rng.randint(1, 5)
    span = 1 if rng.random() < 1 / 3 else 10
    core = random_matrix(rng, rows, cols, lo=-span, hi=span, max_denominator=den)
    if rng.random() < 0.5:
        return BimatrixGame(core, negate(core), "zero_sum")
    ratio, shift = F(rng.randint(1, 5), rng.randint(1, 5)), F(rng.randint(-3, 3), rng.randint(1, 5))
    scaled = tuple(tuple(ratio * v + shift for v in row) for row in core)
    if rng.random() < 0.5:
        return BimatrixGame(scaled, negate(core), "strictly_competitive")
    return BimatrixGame(core, negate(scaled), "strictly_competitive")


def _audit_levels(rng, values, best, eps):
    """Floors or current payoffs to audit at: a value exactly, the
    reference's best exactly at the bar (best - eps pays exactly the bar),
    just under it, and a random one."""
    levels = [rng.choice(values), F(rng.randint(-12, 12), rng.randint(1, 5))]
    if best is not None:
        levels += [best - eps, best - eps - F(1, 97)]
    return levels


def test_integer_audit_equals_the_fraction_reference():
    rng = random.Random(2510)
    outcomes = {"doctor": 0, "hospital": 0, None: 0}
    at_the_bar = mixes_at_the_bar = 0
    for _ in range(400):
        game = _audit_game(rng)
        a, m = game.doctor_matrix, game.hospital_matrix
        x, y = _random_mix(rng, len(a)), _random_mix(rng, len(a[0]))
        scaled_x, scaled_y = _integer_weights(x), _integer_weights(y)
        eps = F(1, rng.choice((1, 2, 4, 10)))
        # Floors exactly at a pure strategy's guard, and anywhere else.
        doctor_guards = [bilinear(pure(i, len(a)), m, y) for i in range(len(a))]
        hospital_guards = [bilinear(x, a, pure(j, len(a[0]))) for j in range(len(a[0]))]
        g_res = rng.choice(doctor_guards + _guard_floors(rng, doctor_guards)) + eps
        f_res = rng.choice(hospital_guards + _guard_floors(rng, hospital_guards)) + eps
        best_d = constrained_best_response_doctor(a, m, y, g_res, eps)
        best_h = constrained_best_response_hospital(a, m, x, f_res, eps)
        doctor_gains = [bilinear(pure(i, len(a)), a, y) for i in range(len(a))]
        hospital_gains = [bilinear(x, m, pure(j, len(a[0]))) for j in range(len(a[0]))]
        for f_now in _audit_levels(rng, doctor_gains, best_d, eps):
            for g_now in _audit_levels(rng, hospital_gains, best_h, eps):
                want = deviation_fault(a, m, x, y, f_now, g_now, f_res, g_res, eps)
                assert _deviation_fault(game, scaled_x, scaled_y, f_now, g_now, f_res, g_res, eps) == want
                outcomes[want and want.split()[0]] += 1
                at_the_bar += (best_d == f_now + eps) + (want is None and best_h == g_now + eps)
                mixes_at_the_bar += best_d == f_now + eps and best_d not in doctor_gains
    assert min(outcomes.values()) >= 1000 and at_the_bar >= 1000 and mixes_at_the_bar >= 50, (
        outcomes, at_the_bar, mixes_at_the_bar)


# ---------------------------------------------------------------------------
# Binding-case witnesses, pinned


def _binding_reservations(game):
    """(f_res, g_res) putting the doctor, then the hospital, on the binding side."""
    br = bridge(game)
    w = game_value(br.image)[0]
    return [
        (br.original_doctor_value((w + br.z_max) / 2), br.original_hospital_value(-br.z_max)),
        (br.original_doctor_value(br.z_min), br.original_hospital_value(-(w + br.z_min) / 2)),
    ]


PINNED_WITNESSES = [  # (seed, tight, case tag, x, y)
    (1, False, "doctor_binding", (F(1), F(0)),
     (F(389, 735), F(346, 735), F(0), F(0))),
    (1, True, "doctor_binding", (F(1), F(0)),
     (F(382, 735), F(353, 735), F(0), F(0))),
    (1, False, "hospital_binding", (F(223, 420), F(197, 420)),
     (F(1), F(0), F(0), F(0))),
    (1, True, "hospital_binding", (F(209, 420), F(211, 420)),
     (F(1), F(0), F(0), F(0))),
    (2, False, "doctor_binding", (F(0), F(1)),
     (F(3, 10), F(7, 10))),
    (2, True, "doctor_binding", (F(0), F(1)),
     (F(2, 5), F(3, 5))),
    (2, False, "hospital_binding", (F(73, 140), F(67, 140)),
     (F(1), F(0))),
    (2, True, "hospital_binding", (F(37, 70), F(33, 70)),
     (F(1), F(0))),
    (3, False, "doctor_binding", (F(1), F(0)),
     (F(23, 40), F(0), F(0), F(17, 40))),
    (3, True, "doctor_binding", (F(1), F(0)),
     (F(3, 5), F(0), F(0), F(2, 5))),
    (3, False, "hospital_binding", (F(47, 140), F(93, 140)),
     (F(0), F(1), F(0), F(0))),
    (3, True, "hospital_binding", (F(23, 70), F(47, 70)),
     (F(0), F(1), F(0), F(0))),
    (5, False, "doctor_binding", (F(1), F(0), F(0), F(0)),
     (F(6547, 9660), F(3113, 9660), F(0))),
    (5, True, "doctor_binding", (F(1), F(0), F(0), F(0)),
     (F(3193, 4830), F(1637, 4830), F(0))),
    (5, False, "hospital_binding", (F(2230343, 2511600), F(17176, 156975), F(2147, 837200), F(0)),
     (F(0), F(0), F(1))),
    (5, True, "hospital_binding", (F(375239, 418600), F(5296, 52325), F(993, 418600), F(0)),
     (F(0), F(0), F(1))),
    (7, False, "doctor_binding", (F(0), F(1), F(0)),
     (F(413, 600), F(187, 600))),
    (7, True, "doctor_binding", (F(0), F(1), F(0)),
     (F(139, 200), F(61, 200))),
    (7, False, "hospital_binding", (F(467, 560), F(93, 560), F(0)),
     (F(1), F(0))),
    (7, True, "hospital_binding", (F(471, 560), F(89, 560), F(0)),
     (F(1), F(0))),
    (8, False, "doctor_binding", (F(0), F(1)),
     (F(19, 40), F(21, 40), F(0))),
    (8, True, "doctor_binding", (F(0), F(1)),
     (F(17, 40), F(23, 40), F(0))),
    (8, False, "hospital_binding", (F(17, 30), F(13, 30)),
     (F(0), F(1), F(0))),
    (8, True, "hospital_binding", (F(23, 40), F(17, 40)),
     (F(0), F(1), F(0))),
    (10, False, "doctor_binding", (F(0), F(0), F(1), F(0)),
     (F(19, 30), F(11, 30))),
    (10, True, "doctor_binding", (F(0), F(0), F(1), F(0)),
     (F(13, 20), F(7, 20))),
    (10, False, "hospital_binding", (F(0), F(43, 50), F(7, 50), F(0)),
     (F(0), F(1))),
    (10, True, "hospital_binding", (F(0), F(22, 25), F(3, 25), F(0)),
     (F(0), F(1))),
    # Seeds 134 and 219 tie at the largest slide step; the smallest index wins.
    (134, False, "doctor_binding", (F(0), F(0), F(1)),
     (F(1161, 9830), F(461, 1966), F(0), F(3182, 4915))),
    (134, True, "doctor_binding", (F(0), F(0), F(1)),
     (F(52, 445), F(19, 89), F(0), F(298, 445))),
    (134, False, "hospital_binding", (F(53, 75), F(0), F(22, 75)),
     (F(0), F(1), F(0), F(0))),
    (134, True, "hospital_binding", (F(18, 25), F(0), F(7, 25)),
     (F(1), F(0), F(0), F(0))),
    (219, False, "doctor_binding", (F(0), F(1), F(0), F(0)),
     (F(5299, 17120), F(11821, 17120), F(0), F(0))),
    (219, True, "doctor_binding", (F(0), F(1), F(0), F(0)),
     (F(649, 2140), F(1491, 2140), F(0), F(0))),
    (219, False, "hospital_binding",
     (F(3367, 14873), F(20607, 29746), F(0), F(2405, 29746)),
     (F(1), F(0), F(0), F(0))),
    (219, True, "hospital_binding",
     (F(16086, 74365), F(52534, 74365), F(0), F(1149, 14873)),
     (F(1), F(0), F(0), F(0))),
]


@pytest.mark.parametrize("seed", sorted({case[0] for case in PINNED_WITNESSES}))
def test_binding_case_witnesses_are_pinned(seed):
    rng = random.Random(seed)
    game = random_game(rng, rng.randint(2, 4), rng.randint(2, 4),
                       rng.choice(["zero_sum", "strictly_competitive"]), max_denominator=2)
    got = []
    for f_res, g_res in _binding_reservations(game):
        for tight in (False, True):
            cne = _one_shot_cne(game, f_res, g_res, F(1, 10), tight)
            got.append((seed, tight, cne.case_tag, cne.x, cne.y))
    assert got == [case for case in PINNED_WITNESSES if case[0] == seed]


# ---------------------------------------------------------------------------
# Renegotiation witnesses on generated markets, pinned byte for byte

# (generator seed, doctors, hospitals, classes) -> sha256 of the renegotiate
# document followed by the verify --renegotiation document, at epsilon 1/2.
PINNED_MARKET_DIGESTS = {
    (1, 40, 10, 'zero_sum'): '3a4e7e982ef3f927f2f125dd21b34ed8693e3b46b7eeeb1e4b9c890763e2f318',
    (2, 40, 10, 'zero_sum'): 'f79d3407f6ccb46cad8c11c779614e84eb3bf973b93591d6dd5d3e78b9aa5ac2',
    (3, 40, 10, 'zero_sum'): '27bce867ec97477b0c57f64da4e185b88fd104ef1932b1ff502d9d2eeceb9786',
    (4, 40, 10, 'zero_sum'): 'd2a7f4439849635ca8c3ca4cbc753f44dcfef85689d6cf6aeac11bb5bad949ed',
    (1, 20, 6, 'zero_sum,strictly_competitive'): '72caf9da91e9a791f3262d247106c6d3ce2e5a4a57c7d1a0e386a16614c06e14',
    (2, 20, 6, 'zero_sum,strictly_competitive'): '33c37116074e04ec365aceb16f729dcf489bf13f99383c310bc94584c005f4cb',
    (3, 20, 6, 'zero_sum,strictly_competitive'): 'fcc04e87bb9caaf7885cafb12945d514940510cdad66d8b9f996ef44a89f014a',
    (4, 20, 6, 'zero_sum,strictly_competitive'): 'a84bbec03ac739a943bfa4dda2c3161b03574ddceb348a204f914f8d64648051',
    (5, 20, 6, 'zero_sum,strictly_competitive'): '8cc21818010aba047bbdacea3de6e6adfb927e2036b8003eaa0e5aa2914709b7',
    (6, 20, 6, 'zero_sum,strictly_competitive'): 'b0a682a451cb7415f6a072ec3bccdf5be7fe43a485afa50a1195c76aaf779a1c',
    (7, 20, 6, 'zero_sum,strictly_competitive'): 'a6c76713416d584bbfa5a52d161b8b5f441effc90edfa9769ee4ea53038b145c',
    (8, 20, 6, 'zero_sum,strictly_competitive'): '5717e79adc2b82ca826409a93bd9ae932d04f3034a0b5fec0a50bee948a1d2df',
}


def _market_documents(tmp_path, seed, doctors, hospitals, classes):
    inst, alloc, reneg, report = (tmp_path / name for name in
                                  ("inst.json", "alloc.json", "reneg.json", "report.json"))
    assert main(["gen", "--seed", str(seed), "--doctors", str(doctors), "--hospitals",
                 str(hospitals), "--classes", classes, "--output", str(inst)]) == 0
    common = ["--input", str(inst), "--epsilon", "1/2"]
    assert main(["solve-dac", *common, "--output", str(alloc)]) == 0
    assert main(["renegotiate", *common, "--allocation", str(alloc), "--output", str(reneg)]) == 0
    assert main(["verify", *common, "--allocation", str(reneg), "--renegotiation",
                 "--output", str(report)]) == 0
    return reneg.read_bytes() + report.read_bytes()


@pytest.mark.parametrize("market", sorted(PINNED_MARKET_DIGESTS))
def test_market_renegotiation_witnesses_are_pinned(market, tmp_path):
    digest = hashlib.sha256(_market_documents(tmp_path, *market)).hexdigest()
    assert digest == PINNED_MARKET_DIGESTS[market]


# Generator seed of an 8 x 3 market mixing all three exact classes -> sha256
# of its solve-dac, verify --coalitions 4 and renegotiate documents, at
# epsilon 1/2.  Every one holds repeated couples, so these pin the repeated
# class's witnesses, cycles and frontier queries end to end.  The hull
# polygon left every byte as the hull LP wrote it except the method label,
# now "exact_hull".
PINNED_REPEATED_MARKET_DIGESTS = {
    3: '236bfec854aaeacf342906ffe75e7006bdfb19eff210901a72f5344b51b038db',
    6: 'eb0a9160167e1ecfb2a63ed3400feb059009c3b6e836842fcc57f1fbdc4f3e87',
    8: '35456304292a0110064ccc3b0cfb35d10ed82e1390eda475cd1e98397945308d',
    10: '6d49eb68f73bf1d135dc1a14210913ae0d8b05659082d6b69ace56a30d87d551',
}


def _repeated_market_documents(tmp_path, seed):
    inst, alloc, report, reneg = (tmp_path / name for name in
                                  ("inst.json", "alloc.json", "report.json", "reneg.json"))
    assert main(["gen", "--seed", str(seed), "--doctors", "8", "--hospitals", "3", "--classes",
                 "zero_sum,strictly_competitive,repeated", "--output", str(inst)]) == 0
    common = ["--input", str(inst), "--epsilon", "1/2"]
    assert main(["solve-dac", *common, "--output", str(alloc)]) == 0
    assert main(["verify", *common, "--allocation", str(alloc), "--coalitions", "4",
                 "--output", str(report)]) == 0
    assert main(["renegotiate", *common, "--allocation", str(alloc), "--output", str(reneg)]) == 0
    assert b'"cycles"' in reneg.read_bytes()
    return alloc.read_bytes() + report.read_bytes() + reneg.read_bytes()


@pytest.mark.parametrize("seed", sorted(PINNED_REPEATED_MARKET_DIGESTS))
def test_repeated_market_documents_are_pinned(seed, tmp_path):
    digest = hashlib.sha256(_repeated_market_documents(tmp_path, seed)).hexdigest()
    assert digest == PINNED_REPEATED_MARKET_DIGESTS[seed]


def test_pinned_markets_take_both_game_value_paths(monkeypatch, tmp_path):
    """The pinned markets reach strict saddles (closed form, no LP) and tied
    ones, a 1 x n or n x 1 game among them, which the simplex decides."""
    import matchgames.lp as lp_module
    import matchgames.renegotiation as renegotiation_module

    solves, paths = [], []
    solve, value = lp_module.solve_lp, lp_module.game_value

    def counting_solve(k, scale):
        solves.append(k)
        return solve(k, scale)

    def recording_value(a):
        before = len(solves)
        result = value(a)
        paths.append((len(a), len(a[0]), len(solves) - before))
        return result

    monkeypatch.setattr(lp_module, "solve_lp", counting_solve)
    monkeypatch.setattr(renegotiation_module, "game_value", recording_value)
    for market in ((1, 40, 10, "zero_sum"), (7, 20, 6, "zero_sum,strictly_competitive")):
        _market_documents(tmp_path, *market)
    assert {lp_solves for _, _, lp_solves in paths} == {0, 1}
    assert any(lp_solves == 1 and 1 in (rows, cols) for rows, cols, lp_solves in paths)


def test_punishment_levels_are_solved_once_per_repeated_game(monkeypatch, tmp_path):
    """On the pinned three-class markets, one renegotiate solves each
    repeated game's two punishment game values once: the CNE checks and
    constructions of the sweep and the closing certificate share them."""
    import matchgames.renegotiation as renegotiation_module
    from matchgames.core import load_instance

    value = renegotiation_module.game_value
    for seed in sorted(PINNED_REPEATED_MARKET_DIGESTS):
        inst, alloc, reneg = (tmp_path / f"{name}{seed}.json" for name in ("inst", "alloc", "reneg"))
        assert main(["gen", "--seed", str(seed), "--doctors", "8", "--hospitals", "3", "--classes",
                     "zero_sum,strictly_competitive,repeated", "--output", str(inst)]) == 0
        common = ["--input", str(inst), "--epsilon", "1/2"]
        assert main(["solve-dac", *common, "--output", str(alloc)]) == 0
        calls = []
        monkeypatch.setattr(renegotiation_module, "game_value",
                            lambda a: calls.append(a) or value(a))
        assert main(["renegotiate", *common, "--allocation", str(alloc),
                     "--output", str(reneg)]) == 0
        monkeypatch.undo()
        repeated = [g for g in load_instance(str(inst)).games.values() if g.class_tag == "repeated"]
        per_game = [sum(a in (g.doctor_matrix, negate(g.hospital_matrix)) for a in calls)
                    for g in repeated]
        assert max(per_game) == 2 and all(n in (0, 2) for n in per_game), per_game


def _sweep_inputs():
    eps = F(1, 2)
    for seed in range(2):
        inst = generate_instance(seed=seed, n_doctors=40, n_hospitals=10)
        yield inst, run_dac(inst, eps)[0], eps
    for classes in (["zero_sum", "strictly_competitive"], ["repeated"]):
        inst = generate_instance(seed=11, n_doctors=12, n_hospitals=4, classes=classes)
        yield inst, run_dac(inst, eps)[0], eps
    inst = generate_instance(seed=1, model="roommates", n_doctors=8)
    realized = realize_aspiration(inst, solve_aspiration_zero_sum(inst))
    assert isinstance(realized, Allocation)
    yield inst, realized, eps


def test_sweep_skips_only_checks_that_would_pass(monkeypatch):
    # Every reservation read is followed by a check or skips it; a fresh
    # check at the read must pass wherever the sweep skipped.
    from matchgames import renegotiation

    check = renegotiation.check_couple_is_cne
    reservations = renegotiation._PayoffLedger.reservations
    copy = renegotiation._copy_allocation
    copies, reads, checked = [], [], set()

    def read(ledger, d, partner):
        answer = reservations(ledger, d, partner)
        verdict = check(ledger.instance, copies[-1], d, partner, answer, ledger.epsilon)
        reads.append(verdict)
        return answer

    def counted(instance, current, d, partner, res, epsilon):
        checked.add(len(reads) - 1)
        return check(instance, current, d, partner, res, epsilon)

    monkeypatch.setattr(renegotiation, "_copy_allocation",
                        lambda a: copies.append(copy(a)) or copies[-1])
    monkeypatch.setattr(renegotiation._PayoffLedger, "reservations", read)
    monkeypatch.setattr(renegotiation, "check_couple_is_cne", counted)
    for inst, allocation, eps in _sweep_inputs():
        copies.clear()
        run_renegotiation(inst, allocation, eps)
    skipped = [verdict for i, verdict in enumerate(reads) if i not in checked]
    assert skipped and checked
    assert all(verdict == (True, None) for verdict in skipped)


def test_a_new_profile_is_checked_again_at_reservations_it_passed_before(monkeypatch):
    # (a, h) passes at r1, fails at r2 and takes a new profile, then meets
    # r1 again: that pass belonged to the old profile, so it is checked.
    from matchgames import renegotiation, stability
    from matchgames.renegotiation import CneResult, ReservationPair

    a = ((F(1), F(0)), (F(0), F(1)))
    inst = MatchingGameInstance(
        model="additive_separable",
        doctors={d: Doctor(d, F(-9), ("s", "t")) for d in ("a", "b")},
        hospitals={h: Hospital(h, F(-9), 1, ("u", "v")) for h in ("h", "k")},
        games={(d, h): BimatrixGame(a, negate(a), "zero_sum") for d in ("a", "b") for h in ("h", "k")},
    )
    allocation = Allocation(matching={"a": "h", "b": "k"},
                            doctor_strategies={"a": pure(0, 2), "b": pure(0, 2)},
                            hospital_strategies={("h", "a"): pure(0, 2), ("k", "b"): pure(0, 2)})
    r1, r2 = ReservationPair(F(0), F(-1)), ReservationPair(F(1, 2), F(-1))
    # Per couple and sweep: (reservations read, verdict of a check).
    script = {("a", "h"): [(r1, True), (r2, False), (r1, True)],
              ("b", "k"): [(r2, False), (r1, True), (r1, True)]}
    reads, checks = {couple: -1 for couple in script}, []

    def reservations(ledger, d, partner):
        reads[(d, partner)] += 1
        return script[(d, partner)][reads[(d, partner)]][0]

    def check(instance, current, d, partner, res, epsilon):
        checks.append(((d, partner), reads[(d, partner)]))
        return script[(d, partner)][reads[(d, partner)]][1], None

    def select(game, res, epsilon):  # a profile paying the doctor 0, not 1
        return CneResult(pure(1, 2), pure(0, 2), None, F(0), F(0), "scripted")

    monkeypatch.setattr(stability, "find_blocking_pair", lambda *args, **kwargs: None)
    monkeypatch.setattr(renegotiation._PayoffLedger, "reservations", reservations)
    monkeypatch.setattr(renegotiation, "check_couple_is_cne", check)
    monkeypatch.setattr(renegotiation, "select_process_cne", select)
    assert run_renegotiation(inst, allocation, F(1, 2)).sweeps == 2
    # (b, k) passed at r1 in sweep 2 with the profile it still holds, so
    # its third read is not checked.
    assert checks == [(("a", "h"), 0), (("b", "k"), 0), (("a", "h"), 1), (("b", "k"), 1),
                      (("a", "h"), 2)]
