import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest

from matchgames.core import (
    FRONTIER_CLASSES,
    Allocation,
    BimatrixGame,
    Doctor,
    Hospital,
    MatchingGameInstance,
    NEG_INF,
    bilinear,
    evaluate_payoffs,
    negate,
    pure,
)
from matchgames.dac import run_dac
from matchgames.errors import CapExceededError, UnsupportedClassError
from matchgames.gen import generate_instance
from matchgames.qcqp import max_g_point
from matchgames.stability import (
    CLASS_METHODS,
    _first_team,
    check_individual_rationality,
    find_blocking_coalition,
    find_blocking_pair,
    full_report,
)

from fixtures import (
    hedonic_instance,
    multi_auction_instance,
    roommates_as_general_instance,
    segregation_instance,
)
from oracles import enumerate_core, partner_options


def two_hospital_instance():
    a1 = ((F(-3), F(3)),)
    a2 = ((F(-4), F(4)),)
    return MatchingGameInstance(
        model="additive_separable",
        doctors={"d1": Doctor("d1", F(-9), ("s",))},
        hospitals={
            "h1": Hospital("h1", F(0), 1, ("t1", "t2")),
            "h2": Hospital("h2", F(0), 1, ("u1", "u2")),
        },
        games={
            ("d1", "h1"): BimatrixGame(a1, negate(a1), "zero_sum"),
            ("d1", "h2"): BimatrixGame(a2, negate(a2), "zero_sum"),
        },
    )


class TestBlockingPair:
    def test_constructed_violation_found_and_replayable(self):
        inst = two_hospital_instance()
        # doctor parked at her minimum at h1 while h2 has a free seat
        alloc = Allocation(
            matching={"d1": "h1"},
            doctor_strategies={"d1": (F(1),)},
            hospital_strategies={("h1", "d1"): (F(1), F(0))},
        )
        witness = find_blocking_pair(inst, alloc, F(1, 10))
        assert witness is not None
        assert (witness.doctor, witness.partner) == ("d1", "h2")
        game = inst.game_for("d1", "h2")
        new_f = bilinear(witness.x, game.doctor_matrix, witness.y)
        new_g = bilinear(witness.x, game.hospital_matrix, witness.y)
        payoffs = evaluate_payoffs(inst, alloc)
        assert new_f > payoffs.doctor_payoffs["d1"] + F(1, 10)
        assert new_g > inst.hospitals["h2"].irp + F(1, 10)

    def test_huge_epsilon_blocks_nothing(self):
        inst = two_hospital_instance()
        alloc = Allocation(
            matching={"d1": "h1"},
            doctor_strategies={"d1": (F(1),)},
            hospital_strategies={("h1", "d1"): (F(1), F(0))},
        )
        assert find_blocking_pair(inst, alloc, F(100)) is None

    def test_dac_outputs_never_blocked(self):
        eps = F(1, 10)
        for seed in range(10):
            inst = generate_instance(seed=seed, n_doctors=4, n_hospitals=2,
                                     max_strategies=3, max_quota=2,
                                     classes=["zero_sum", "repeated"])
            alloc, _ = run_dac(inst, eps)
            assert find_blocking_pair(inst, alloc, eps) is None

    def test_grid_method_on_general_class_pairs(self):
        a = ((F(2), F(0)), (F(0), F(1)))
        m = ((F(1), F(0)), (F(0), F(2)))
        inst = MatchingGameInstance(
            model="additive_separable",
            doctors={"d1": Doctor("d1", F(0), ("s1", "s2"))},
            hospitals={"h1": Hospital("h1", F(0), 1, ("t1", "t2"))},
            games={("d1", "h1"): BimatrixGame(a, m, "general")},
        )
        alloc = Allocation(
            matching={"d1": "h1"},
            doctor_strategies={"d1": (F(0), F(1))},
            hospital_strategies={("h1", "d1"): (F(1), F(0))},  # payoff (0, 0)
        )
        witness = find_blocking_pair(inst, alloc, F(1, 10), grid_mesh=4)
        assert witness is not None
        assert witness.method == "grid(1/4)"
        # grid witnesses replay exactly
        assert bilinear(witness.x, a, witness.y) > F(0) + F(1, 10)
        assert bilinear(witness.x, m, witness.y) > F(0) + F(1, 10)
        # the coalition check has no frontier to price the pair on
        with pytest.raises(UnsupportedClassError, match=r"coalition check: pair \(d1, h1\) has class general"):
            find_blocking_coalition(inst, alloc, F(1, 10), max_coalition_size=2)
        # ... nor DAC a seat to sell
        with pytest.raises(UnsupportedClassError, match=r"pair \('d1', 'h1'\) has unsupported class general"):
            run_dac(inst, F(1, 10))

    def test_class_methods_cover_the_frontier_classes(self):
        assert tuple(CLASS_METHODS) == FRONTIER_CLASSES


class TestCoalitions:
    def test_example_one_mixed_allocation_witness(self):
        inst = segregation_instance(2)
        mixed = Allocation(matching={"d1": "h1", "d3": "h1", "d2": "h2", "d4": "h2"})
        witness = find_blocking_coalition(inst, mixed, F(0), max_coalition_size=2)
        assert witness is not None
        assert witness.doctors == ("d1", "d2") and witness.hospital == "h1"

    def test_example_one_segregated_is_clean(self):
        inst = segregation_instance(2)
        segregated = Allocation(matching={"d1": "h1", "d2": "h1", "d3": "h2", "d4": "h2"})
        assert find_blocking_coalition(inst, segregated, F(0), max_coalition_size=4) is None

    def test_hedonic_partition_13_2_is_blocked(self):
        inst = hedonic_instance()
        alloc = Allocation(matching={"1": "a", "3": "a", "2": "b"})
        witness = find_blocking_coalition(inst, alloc, F(0), max_coalition_size=3)
        assert witness is not None
        # the pair {1,2} blocks (both gain 1 versus (-2, 0)); the scanner may
        # surface the singleton {1} first, which is also a strict improvement
        payoffs = evaluate_payoffs(inst, alloc)
        members = frozenset({"1", "2"})
        for d in members:
            assert inst.coalition_doctor_payoffs[(d, members, "b")] > payoffs.doctor_payoffs[d]

    def test_strategic_coalition_scan_matches_pair_logic(self):
        # Null hospital baselines are the regime where pairwise stability
        # covers coalitions.  A positive baseline lets two newcomers, each
        # paying just below baseline + eps, out-sum a single incumbent under
        # the team-replacement comparison; a negative baseline makes a
        # hospital holding negative seats "blocked" by its best single seat.
        eps = F(1, 10)
        for seed in range(8):
            inst = generate_instance(seed=seed, n_doctors=4, n_hospitals=2,
                                     max_strategies=3, max_quota=2, classes=["zero_sum"],
                                     hospital_irp_lo=0, hospital_irp_hi=0)
            alloc, _ = run_dac(inst, eps)
            assert find_blocking_coalition(inst, alloc, eps, max_coalition_size=4) is None

    def test_nonzero_baselines_admit_literal_coalition_witnesses(self):
        # Sanity check of the caveat above: witnesses found on nonzero
        # baselines must replay with strict per-doctor gains.
        eps = F(1, 10)
        for seed in range(4):
            inst = generate_instance(seed=seed, n_doctors=4, n_hospitals=2,
                                     max_strategies=3, max_quota=2, classes=["zero_sum"],
                                     hospital_irp_lo=-10, hospital_irp_hi=2)
            alloc, _ = run_dac(inst, eps)
            assert find_blocking_pair(inst, alloc, eps) is None
            witness = find_blocking_coalition(inst, alloc, eps, max_coalition_size=4)
            if witness is not None:
                payoffs = evaluate_payoffs(inst, alloc)
                for d in witness.doctors:
                    x, y = witness.profiles[d]
                    game = inst.game_for(d, witness.hospital)
                    assert bilinear(x, game.doctor_matrix, y) > payoffs.doctor_payoffs[d] + eps


def _seat_sup(game, f_floor):
    """sup of the partner's payoff over profiles paying the doctor strictly
    above ``f_floor``, or None when she cannot beat it."""
    point = max_g_point(game, f_floor, strict=True)
    return None if point is None else point.g


def _unpruned_coalition_scan(inst, alloc, eps, max_size):
    """The coalition scan without the size bound: every combination of every
    size is summed and compared.  Returns the first blocking (doctors,
    hospital), or None."""
    payoffs = evaluate_payoffs(inst, alloc)
    for h in inst.hospital_ids:
        eligible = []
        for d in inst.doctor_ids:
            if inst.has_game(d, h):
                sup_g = _seat_sup(inst.game_for(d, h), payoffs.doctor_payoffs[d] + eps)
                if sup_g is not None:
                    eligible.append((d, sup_g))
        current = payoffs.hospital_payoffs[h]
        for size in range(1, min(max_size, inst.hospitals[h].quota, len(eligible)) + 1):
            for combo in combinations(eligible, size):
                if current is NEG_INF or sum(g for _, g in combo) > current + eps:
                    return tuple(d for d, _ in combo), h
    return None


def _assert_replays(inst, alloc, eps, witness):
    """Every member's profile (or hull distribution) pays her above her
    payoff plus eps, and the seat values sum above the hospital's payoff
    plus eps, by the claimed gain."""
    payoffs = evaluate_payoffs(inst, alloc)
    total = F(0)
    for d in witness.doctors:
        game = inst.game_for(d, witness.hospital)
        a, m = game.doctor_matrix, game.hospital_matrix
        lam = witness.cycle_distributions.get(d)
        if lam is not None:
            assert witness.profiles[d] == (None, None) and sum(lam.values()) == 1
            f = sum(a[s][t] * w for (s, t), w in lam.items())
            g = sum(m[s][t] * w for (s, t), w in lam.items())
        else:
            x, y = witness.profiles[d]
            f, g = bilinear(x, a, y), bilinear(x, m, y)
        assert f > payoffs.doctor_payoffs[d] + eps
        total += g
    current = payoffs.hospital_payoffs[witness.hospital]
    if current is NEG_INF:
        assert witness.hospital_gain is None
    else:
        assert total > current + eps
        assert witness.hospital_gain == total - current


def _coalition_as_unpruned_scan(inst, alloc, eps, max_size=4):
    """The coalition found, after checking that it is the unpruned scan's
    first team and that it replays exactly."""
    witness = find_blocking_coalition(inst, alloc, eps, max_coalition_size=max_size)
    expected = _unpruned_coalition_scan(inst, alloc, eps, max_size)
    assert (None if witness is None else (witness.doctors, witness.hospital)) == expected
    if witness is not None:
        _assert_replays(inst, alloc, eps, witness)
    return witness


def _scrambled_allocation(inst, rng):
    """Random hospitals (quotas ignored) and pure profiles: many blocked
    teams, and over-quota hospitals whose payoff is -inf."""
    alloc = Allocation(matching={})
    for d in inst.doctor_ids:
        h = rng.choice(inst.hospital_ids + [None])
        alloc.matching[d] = h
        if h is not None:
            game = inst.game_for(d, h)
            alloc.doctor_strategies[d] = pure(rng.randrange(game.n_rows), game.n_rows)
            alloc.hospital_strategies[(h, d)] = pure(rng.randrange(game.n_cols), game.n_cols)
    return alloc


class TestCoalitionBound:
    def test_known_team_replacement_witness(self):
        eps = F(1, 10)
        inst = generate_instance(seed=1696459287, n_doctors=20, n_hospitals=6,
                                 classes=["zero_sum", "strictly_competitive", "repeated"])
        alloc, _ = run_dac(inst, eps)
        witness = _coalition_as_unpruned_scan(inst, alloc, eps)
        assert (witness.doctors, witness.hospital) == (("d12", "d17"), "h3")

    @pytest.mark.parametrize("seed", range(6))
    def test_dac_outputs_match_unpruned_scan(self, seed):
        classes = ["zero_sum", "strictly_competitive"] + (["repeated"] if seed % 2 else [])
        inst = generate_instance(seed=seed, n_doctors=20, n_hospitals=6, max_quota=4,
                                 classes=classes)
        for eps in (F(1, 2), F(1, 10)):
            alloc, _ = run_dac(inst, eps)
            _coalition_as_unpruned_scan(inst, alloc, eps)

    @pytest.mark.parametrize("seed", range(6))
    def test_scrambled_allocations_match_unpruned_scan(self, seed):
        rng = random.Random(f"coalition-bound-{seed}")
        inst = generate_instance(seed=seed, n_doctors=10, n_hospitals=3, max_quota=4,
                                 classes=["zero_sum", "strictly_competitive"])
        for _ in range(4):
            alloc = _scrambled_allocation(inst, rng)
            eps = F(1, rng.choice((1, 2, 10)))
            _coalition_as_unpruned_scan(inst, alloc, eps)

    def test_a_market_of_many_combinations_answers(self):
        # Sizes up to 4 over 36 doctors hold more than 2^16 combinations at a
        # hospital; the answer is read from the sorted sups alone.
        eps = F(1, 2)
        inst = generate_instance(seed=5, n_doctors=36, n_hospitals=6, max_quota=4,
                                 classes=["zero_sum", "strictly_competitive"])
        alloc, _ = run_dac(inst, eps)
        assert _coalition_as_unpruned_scan(inst, alloc, eps) is None

    def test_first_team_is_the_first_clearing_combination(self):
        rng = random.Random("first-team")
        checked = 0
        while checked < 10_000:
            n = rng.randint(1, 7)
            sups = [F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(n)]
            size = rng.randint(1, min(4, n))
            bar = F(rng.randint(-12, 12), rng.choice((1, 2, 4)))
            first = next((team for team in combinations(range(n), size)
                          if sum(sups[i] for i in team) > bar), None)
            if first is not None:
                assert tuple(_first_team(sups, size, bar)) == first, (sups, size, bar)
                checked += 1

    def test_a_doctor_at_her_best_payoff_is_no_candidate(self):
        # At epsilon 1/2 d's floor, her payoff plus epsilon, is her best
        # payoff at h: she cannot gain strictly and is no candidate.  At 1/3
        # she is one, but what she can pay h does not clear its bar.
        a = ((F(0), F(4)),)
        inst = MatchingGameInstance(
            model="additive_separable",
            doctors={"d": Doctor("d", F(7, 2), ("s",))},
            hospitals={"h": Hospital("h", F(0), 1, ("t1", "t2"))},
            games={("d", "h"): BimatrixGame(a, negate(a), "zero_sum")},
        )
        alloc = Allocation(matching={"d": None})
        assert find_blocking_coalition(inst, alloc, F(1, 2)) is None
        assert find_blocking_coalition(inst, alloc, F(1, 3)) is None


class TestEnumerateCore:
    def test_hedonic_core_is_the_two_labelings(self):
        core = enumerate_core(hedonic_instance())
        matchings = sorted(tuple(sorted(c.matching.items())) for c in core)
        assert matchings == [
            (("1", "a"), ("2", "a"), ("3", "b")),
            (("1", "b"), ("2", "b"), ("3", "a")),
        ]

    @pytest.mark.parametrize("n", [2, 3])
    def test_segregation_unique_core(self, n):
        core = enumerate_core(segregation_instance(n))
        assert len(core) == 1
        matching = core[0].matching
        for i in range(1, 2 * n + 1):
            assert matching[f"d{i}"] == ("h1" if i <= n else "h2")

    def test_roommates_encoding_matches_classical_oracle(self):
        rng = random.Random(41)
        for _ in range(5):
            ids = [f"d{i}" for i in range(4)]
            v = {}
            for a in ids:
                for b in ids:
                    if a != b:
                        v[(a, b)] = F(rng.randint(1, 20))
            inst = roommates_as_general_instance(v, n_hospitals=4)
            core = enumerate_core(inst)
            partitions = {
                frozenset(
                    frozenset(x for x, hx in c.matching.items() if hx == h)
                    for h in inst.hospital_ids
                    if any(hx == h for hx in c.matching.values())
                )
                for c in core
            }
            oracle = _classical_stable_partitions(ids, v)
            assert partitions == oracle

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_core(segregation_instance(2), cap=3)


def _classical_stable_partitions(ids, v):
    """Brute-force stable roommates: no pair strictly prefers each other."""
    out = set()

    def matchings(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for sub in matchings(rest):
            yield [(head, None)] + sub
        for i, p in enumerate(rest):
            for sub in matchings(rest[:i] + rest[i + 1:]):
                yield [(head, p)] + sub

    for matching in matchings(ids):
        value = {}
        for a, b in matching:
            if b is None:
                value[a] = F(0)
            else:
                value[a], value[b] = v[(a, b)], v[(b, a)]
        blocked = False
        for a in ids:
            for b in ids:
                if a < b and v[(a, b)] > value[a] and v[(b, a)] > value[b]:
                    blocked = True
        if not blocked:
            out.add(frozenset(
                frozenset((a, b)) if b else frozenset((a,)) for a, b in matching
            ))
    return out


class TestReport:
    def test_full_report_on_clean_output(self):
        eps = F(1, 2)
        inst = multi_auction_instance()
        alloc, _ = run_dac(inst, eps)
        report = full_report(inst, alloc, eps, coalition_size=4, check_renegotiation=False)
        assert report.individually_rational
        assert report.blocking_pair is None
        assert report.blocking_coalition is None

    def test_ir_detects_quota_breach(self):
        # d2 and d3 share h1 (quota 1) at their first strategies, where each
        # is above its IRP, and d1 stays unmatched: only the quota fails.
        inst2, alloc = _one_hospital_allocation(["d2", "d3"])
        assert inst2.hospitals["h1"].quota == 1
        ok, witness = check_individual_rationality(inst2, alloc, F(1, 10))
        assert (ok, witness) == (False, "hospital h1 over quota")

    def test_ir_detects_a_seat_below_the_baseline(self):
        # d3 alone at h1 pays the hospital -7 for the seat, below its IRP -1.
        inst2, alloc = _one_hospital_allocation(["d3"])
        ok, witness = check_individual_rationality(inst2, alloc, F(1, 10))
        assert (ok, witness) == (False, "hospital h1 seat d3 below the per-seat baseline")
        ok, witness = check_individual_rationality(*_one_hospital_allocation(["d2"]), F(1, 10))
        assert (ok, witness) == (True, None)

    def test_ir_detects_an_enumerated_hospital_below_its_irp(self):
        # Every coalition pays hospital a 0; with its IRP at 1 the coalition
        # {1, 2}, which pays each doctor 1, leaves a below it.
        inst = hedonic_instance()
        inst.hospitals["a"] = replace(inst.hospitals["a"], irp=F(1))
        alloc = Allocation(matching={"1": "a", "2": "a", "3": "b"},
                           doctor_strategies={}, hospital_strategies={})
        ok, witness = check_individual_rationality(inst, alloc, F(1, 2))
        assert (ok, witness) == (False, "hospital a below IRP")
        ok, _ = check_individual_rationality(inst, alloc, F(1))
        assert ok


def _one_hospital_allocation(members):
    """Generated market seed 0 (three doctors, h1 of quota 1) with
    ``members`` at h1, each pair at its first pure strategies."""
    inst = generate_instance(seed=0, n_doctors=3, n_hospitals=1,
                             max_strategies=2, max_quota=1, classes=["zero_sum"])

    def first(n):
        return tuple([F(1)] + [F(0)] * (n - 1))

    alloc = Allocation(
        matching={d: "h1" if d in members else None for d in inst.doctor_ids},
        doctor_strategies={d: first(len(inst.doctors[d].strategies)) for d in members},
        hospital_strategies={("h1", d): first(len(inst.hospitals["h1"].strategies)) for d in members},
    )
    return inst, alloc


# ---------------------------------------------------------------------------
# Per-agent floors against per-pair reference scans


def _pair_floor_reference(inst, alloc, payoffs, d, partner):
    """(doctor floor, partner floor) of one pair, recomputed from the
    payoffs for that pair alone."""
    f_floor = payoffs.doctor_payoffs[d]
    if inst.model == "roommates":
        return f_floor, payoffs.doctor_payoffs[partner]
    hosp = inst.hospitals[partner]
    members = payoffs.members.get(partner, ())
    if alloc.matching.get(d) == partner:
        return f_floor, payoffs.seat_values[(partner, d)]
    if len(members) >= hosp.quota:
        return f_floor, min(payoffs.seat_values[(partner, m)] for m in members)
    return f_floor, hosp.irp


def _reference_blocking_pair(inst, alloc, eps):
    from matchgames.stability import BlockingPairWitness, _pair_block_profile

    payoffs = evaluate_payoffs(inst, alloc)
    for d in inst.doctor_ids:
        for partner in partner_options(inst, d):
            game = inst.game_for(d, partner)
            f_floor, g_floor = _pair_floor_reference(inst, alloc, payoffs, d, partner)
            found = _pair_block_profile(game, f_floor + eps, g_floor + eps)
            if found is None:
                continue
            x, y, lam, method = found
            if lam is not None:
                f_new = sum(game.doctor_matrix[s][t] * w for (s, t), w in lam.items())
                g_new = sum(game.hospital_matrix[s][t] * w for (s, t), w in lam.items())
            else:
                f_new = bilinear(x, game.doctor_matrix, y)
                g_new = bilinear(x, game.hospital_matrix, y)
            assert f_new > f_floor + eps and g_new > g_floor + eps
            return BlockingPairWitness(d, partner, f_new - f_floor, g_new - g_floor, method,
                                       x, y, lam)
    return None


def _reference_renegotiation_check(inst, alloc, eps):
    """Each couple's reservations priced pair by pair, with no ledger."""
    from matchgames.qcqp import max_f_point
    from matchgames.renegotiation import ReservationPair, check_couple_is_cne

    payoffs = evaluate_payoffs(inst, alloc)
    roommates = inst.model == "roommates"

    def outside(d, exclude):
        best = inst.doctors[d].irp
        for k in partner_options(inst, d):
            if k == exclude:
                continue
            if roommates:
                bar = payoffs.doctor_payoffs[k]
            else:
                hosp = inst.hospitals[k]
                others = [m for m in payoffs.members.get(k, ()) if m != d]
                bar = (hosp.irp if len(others) < hosp.quota
                       else min(payoffs.seat_values[(k, m)] for m in others))
            point = max_f_point(inst.game_for(d, k), bar + eps, strict=True)
            if point is not None and point.f > best:
                best = point.f
        return best

    for d, p in alloc.matched_pairs():
        if roommates and d > p:
            continue
        if roommates:
            g_res = outside(p, d)
        else:
            g_res = inst.hospitals[p].irp
            for k in inst.doctor_ids:
                if k in payoffs.members.get(p, ()) or not inst.has_game(k, p):
                    continue
                point = max_g_point(inst.game_for(k, p), payoffs.doctor_payoffs[k] + eps,
                                    strict=True)
                if point is not None and point.g > g_res:
                    g_res = point.g
        ok, witness = check_couple_is_cne(inst, alloc, d, p, ReservationPair(outside(d, p), g_res),
                                          eps)
        if not ok:
            return False, f"couple ({d},{p}): {witness}"
    return True, None


def _scrambled_roommates(inst, rng):
    """A random pairing with pure strategies."""
    alloc = Allocation(matching={d: None for d in inst.doctor_ids})
    free = list(inst.doctor_ids)
    rng.shuffle(free)
    while len(free) >= 2 and rng.random() < 0.8:
        a, b = free.pop(), free.pop()
        alloc.matching[a], alloc.matching[b] = b, a
    for d, p in alloc.matching.items():
        if p is not None:
            size = len(inst.doctors[d].strategies)
            alloc.doctor_strategies[d] = pure(rng.randrange(size), size)
    return alloc


def _floor_cases():
    """(instance, allocation, epsilon): DAC and renegotiation outputs of
    zero-sum, mixed and roommates instances, and scrambled allocations,
    many of them over quota."""
    from matchgames.renegotiation import run_renegotiation
    from matchgames.roommates import realize_aspiration, solve_aspiration_zero_sum

    cases = []
    for seed, classes in ((3, ["zero_sum"]), (4, ["zero_sum", "strictly_competitive"]),
                          (5, ["zero_sum", "strictly_competitive", "repeated"])):
        inst = generate_instance(seed=seed, n_doctors=12, n_hospitals=4, max_quota=3,
                                 classes=classes)
        for eps in (F(1, 2), F(1, 10)):
            alloc, _ = run_dac(inst, eps)
            cases.append((inst, alloc, eps))
            cases.append((inst, run_renegotiation(inst, alloc, eps).allocation, eps))
        rng = random.Random(f"floors-{seed}")
        for _ in range(4 if "repeated" not in classes else 0):  # pure profiles only
            cases.append((inst, _scrambled_allocation(inst, rng), F(1, rng.choice((1, 2, 10)))))
    for seed in range(1, 4):
        inst = generate_instance(seed=seed, model="roommates", n_doctors=8)
        realized = realize_aspiration(inst, solve_aspiration_zero_sum(inst))
        if isinstance(realized, Allocation):
            cases.append((inst, realized, F(1, 2)))
            cases.append((inst, run_renegotiation(inst, realized, F(1, 2)).allocation, F(1, 2)))
        rng = random.Random(f"floors-roommates-{seed}")
        for _ in range(3):
            cases.append((inst, _scrambled_roommates(inst, rng), F(1, rng.choice((1, 2, 10)))))
    return cases


def test_per_agent_floors_give_the_per_pair_witnesses():
    from matchgames.stability import verify_renegotiation_proof

    seen = set()
    for inst, alloc, eps in _floor_cases():
        pair = find_blocking_pair(inst, alloc, eps)
        assert pair == _reference_blocking_pair(inst, alloc, eps)
        if inst.model == "additive_separable":
            coalition = _coalition_as_unpruned_scan(inst, alloc, eps)
            seen.add(("coalition", coalition is None))
        verdict = verify_renegotiation_proof(inst, alloc, eps)
        assert verdict == _reference_renegotiation_check(inst, alloc, eps)
        seen |= {(inst.model, pair is None), ("renegotiation", verdict[0])}
    assert seen == {("additive_separable", True), ("additive_separable", False),
                    ("roommates", True), ("roommates", False), ("coalition", True),
                    ("coalition", False), ("renegotiation", True), ("renegotiation", False)}


def test_repeated_coalition_member_keeps_her_hull_distribution(tmp_path):
    """A repeated-class member's witness is a hull distribution; it replays
    to the payoffs the coalition claims, with the one-shot member's profile."""
    from matchgames.cli import main
    from matchgames.core import load_allocation, load_instance

    inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "alloc.json"
    assert main(["gen", "--seed", "4", "--doctors", "6", "--hospitals", "3", "--classes",
                 "zero_sum,strictly_competitive,repeated", "--output", str(inst_path)]) == 0
    assert main(["solve-dac", "--input", str(inst_path), "--epsilon", "1/2",
                 "--output", str(alloc_path)]) == 0
    inst = load_instance(str(inst_path))
    alloc = load_allocation(str(alloc_path))
    eps = F(1, 2)
    witness = find_blocking_coalition(inst, alloc, eps, max_coalition_size=4)
    assert (witness.doctors, witness.hospital) == (("d4", "d5"), "h2")
    assert inst.game_for("d4", "h2").class_tag == "repeated"
    assert witness.profiles["d4"] == (None, None)
    assert set(witness.cycle_distributions) == {"d4"}
    payoffs = evaluate_payoffs(inst, alloc)
    total = F(0)
    for d in witness.doctors:
        game = inst.game_for(d, witness.hospital)
        a, m = game.doctor_matrix, game.hospital_matrix
        lam = witness.cycle_distributions.get(d)
        if lam is not None:
            assert sum(lam.values()) == 1
            f = sum(a[s][t] * w for (s, t), w in lam.items())
            g = sum(m[s][t] * w for (s, t), w in lam.items())
        else:
            x, y = witness.profiles[d]
            f, g = bilinear(x, a, y), bilinear(x, m, y)
        assert f > payoffs.doctor_payoffs[d] + eps
        total += g
    assert total - payoffs.hospital_payoffs[witness.hospital] == witness.hospital_gain


def _coalition_scan_cases():
    """(instance, allocation, epsilon): DAC outputs of markets, some with
    repeated pairs, and scrambled allocations with over-quota hospitals."""
    cases = []
    for seed in range(8):
        classes = ["zero_sum", "strictly_competitive"] + (["repeated"] if seed % 2 else [])
        inst = generate_instance(seed=seed, n_doctors=6 + seed, n_hospitals=3, max_quota=2 + seed % 3,
                                 classes=classes)
        for eps in (F(1, 2), F(1, 10)):
            cases.append((inst, run_dac(inst, eps)[0], eps))
        if "repeated" not in classes:  # pure profiles only
            rng = random.Random(f"coalition-scan-{seed}")
            for _ in range(3):
                cases.append((inst, _scrambled_allocation(inst, rng), F(1, rng.choice((1, 2, 10)))))
    # A repeated member, whose sup is a hull vertex, in a team of two.
    inst = generate_instance(seed=4, n_doctors=6, n_hospitals=3,
                             classes=["zero_sum", "strictly_competitive", "repeated"])
    cases.append((inst, run_dac(inst, F(1, 2))[0], F(1, 2)))
    return cases


def test_coalition_scan_on_integer_ratios_equals_the_sorted_fraction_scan():
    from matchgames.stability import _realise_coalition
    from oracles import sorted_sups_coalition

    seen = set()
    for inst, alloc, eps in _coalition_scan_cases():
        payoffs = evaluate_payoffs(inst, alloc)
        witness = find_blocking_coalition(inst, alloc, eps, max_coalition_size=4, payoffs=payoffs)
        found = sorted_sups_coalition(inst, payoffs, eps, 4)
        if found is None:
            assert witness is None
            seen.add("none")
            continue
        team, h = found
        current = payoffs.hospital_payoffs[h]
        floors = {d: f + eps for d, f in payoffs.doctor_payoffs.items()}
        assert witness == _realise_coalition(inst, floors, team, h, current, eps)
        # A tie among the team's sups, or between its least sup and an outsider's.
        ranked = sorted((sup for d in inst.doctor_ids
                         if (sup := _seat_sup(inst.game_for(d, h), floors[d])) is not None),
                        reverse=True)[:len(team) + 1]
        seen |= {current is NEG_INF and "over quota", len(ranked) > len(set(ranked)) and "tied sups",
                 len(team) == 2 and "size 2", bool(witness.cycle_distributions) and "hull sup"}
    assert seen >= {"none", "over quota", "tied sups", "size 2", "hull sup"}, seen
