import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from matchgames.core import (
    Allocation,
    BimatrixGame,
    Doctor,
    Hospital,
    MatchingGameInstance,
    bilinear,
    evaluate_payoffs,
    serialize_allocation,
)
from matchgames import dac
from matchgames.dac import (
    DacState,
    FREE_SEAT,
    Proposal,
    competition_bid,
    hospital_options,
    optimal_proposal,
    reservation_value,
    run_dac,
    settle_competition,
)
from matchgames.errors import EpsilonNotPositiveError, MatchGamesError
from matchgames.gen import generate_instance
from matchgames.qcqp import (
    PairOutcome,
    max_f_given_g_floor,
    max_f_point,
    max_f_value,
    max_g_point,
)
from matchgames.stability import check_individual_rationality, find_blocking_pair

from fixtures import matrix_bounds, multi_auction_instance, negate


def one_hospital_instance(a_rows, doctor_irp=F(-1), hospital_irp=F(0), quota=1):
    a = tuple(tuple(F(v) for v in row) for row in a_rows)
    return MatchingGameInstance(
        model="additive_separable",
        doctors={"d1": Doctor("d1", doctor_irp, tuple(f"s{i}" for i in range(len(a))))},
        hospitals={"h1": Hospital("h1", hospital_irp, quota, tuple(f"t{j}" for j in range(len(a[0]))))},
        games={("d1", "h1"): BimatrixGame(a, negate(a), "zero_sum")},
    )


def fresh_state(instance, epsilon):
    return DacState(
        instance=instance,
        epsilon=epsilon,
        matching={d: None for d in instance.doctors},
        unmatched=list(instance.doctor_ids),
    )


class TestOptimalProposal:
    def test_unreachable_baseline_means_unmatched(self):
        # The hospital demands baseline + eps = 1/2 per seat, but this game
        # never pays the hospital more than 0: the doctor stays unmatched.
        inst = one_hospital_instance([[0, 4], [2, 2]], doctor_irp=F(-1))
        state = fresh_state(inst, F(1, 2))
        proposal = optimal_proposal(state, "d1")
        assert proposal.hospital is None
        assert proposal.doctor_value == F(-1)

    def test_free_seat_threshold_binds(self):
        # Attainable interval [-4, 4]: the free-seat constraint caps the
        # doctor at -(0 + 1/2).
        inst = one_hospital_instance([[-4, 4]], doctor_irp=F(-1))
        state = fresh_state(inst, F(1, 2))
        proposal = optimal_proposal(state, "d1")
        assert proposal.hospital == "h1"
        assert proposal.displaced == FREE_SEAT
        assert proposal.doctor_value == F(-1, 2)

    def test_displacement_threshold_is_min_seat_plus_eps(self):
        inst = MatchingGameInstance(
            model="additive_separable",
            doctors={
                "d1": Doctor("d1", F(-10), ("s",)),
                "d2": Doctor("d2", F(-10), ("s",)),
                "d3": Doctor("d3", F(-10), ("s",)),
            },
            hospitals={"h1": Hospital("h1", F(0), 2, ("t1", "t2"))},
            games={
                (d, "h1"): BimatrixGame(((F(-9), F(9)),), ((F(9), F(-9)),), "zero_sum")
                for d in ("d1", "d2", "d3")
            },
        )
        state = fresh_state(inst, F(1))
        # Incumbent contributions 5 and 3: the proposal must beat 3 + 1 = 4.
        state.matching["d1"] = "h1"
        state.matching["d2"] = "h1"
        state.unmatched = ["d3"]
        state.seats[("h1", "d1")] = PairOutcome(f=F(-5), g=F(5), x=(F(1),), y=None)
        state.seats[("h1", "d2")] = PairOutcome(f=F(-3), g=F(3), x=(F(1),), y=None)
        assert state.bar("h1") == (F(4), "d2")
        proposal = optimal_proposal(state, "d3")
        assert proposal.displaced == "d2"
        assert proposal.point.g >= F(4)


class TestCompetitionBid:
    def test_no_outside_option_bids_everything(self):
        inst = one_hospital_instance([[1, -1], [-1, 1]], doctor_irp=F(-2))
        state = fresh_state(inst, F(1, 10))
        beta, bid, _ = competition_bid(state, "d1", "h1")
        assert beta == F(-2)
        assert bid == F(1)  # -min A: the doctor concedes down to her floor

    def test_reservation_at_max_bids_negated_max(self):
        inst = one_hospital_instance([[1, -1], [-1, 1]], doctor_irp=F(1))
        state = fresh_state(inst, F(1, 10))
        beta, bid, _ = competition_bid(state, "d1", "h1")
        assert beta == F(1)
        assert bid == F(-1)


class TestSettle:
    def test_winner_matches_losing_bid_exactly(self):
        inst = one_hospital_instance([[1, -1], [-1, 1]])
        state = fresh_state(inst, F(1, 10))
        outcome = settle_competition(state, "d1", F(1, 2), "h1")
        assert outcome.f == F(-1, 2) and outcome.g == F(1, 2)

    def test_slack_bid_frees_the_winner(self):
        inst = one_hospital_instance([[1, -1], [-1, 1]])
        state = fresh_state(inst, F(1, 10))
        outcome = settle_competition(state, "d1", F(-5), "h1")
        assert outcome.f == F(1)  # unconstrained maximum


class TestRunDac:
    def test_epsilon_must_be_positive(self):
        inst = one_hospital_instance([[1, -1], [-1, 1]])
        with pytest.raises(EpsilonNotPositiveError):
            run_dac(inst, F(0))

    def test_requires_an_additive_separable_instance(self):
        inst = generate_instance(seed=0, model="roommates", n_doctors=4)
        with pytest.raises(MatchGamesError, match="additive separable"):
            run_dac(inst, F(1, 2))

    def test_empty_doctor_set(self):
        inst = MatchingGameInstance(
            model="additive_separable",
            doctors={},
            hospitals={"h1": Hospital("h1", F(0), 1, ("t",))},
            games={},
        )
        alloc, trace = run_dac(inst, F(1, 2))
        assert alloc.matching == {} and trace.iterations == 0

    def test_multi_auction_matching(self):
        inst = multi_auction_instance()
        alloc, trace = run_dac(inst, F(1, 2))
        assert alloc.matching == {"a": "alpha", "b": "alpha", "c": "beta", "d": "beta"}
        payoffs = evaluate_payoffs(inst, alloc)
        for seller in "abcd":
            assert F(0) <= payoffs.doctor_payoffs[seller] <= F(9)
        assert find_blocking_pair(inst, alloc, F(1, 2)) is None

    def test_ties_go_to_incumbent(self):
        # Two identical doctors compete for a single seat; identical bids
        # mean the first-seated doctor keeps the seat.
        game = BimatrixGame(((F(-2), F(2)),), ((F(2), F(-2)),), "zero_sum")
        inst = MatchingGameInstance(
            model="additive_separable",
            doctors={
                "d1": Doctor("d1", F(-2), ("s",)),
                "d2": Doctor("d2", F(-2), ("s",)),
            },
            hospitals={"h1": Hospital("h1", F(0), 1, ("t1", "t2"))},
            games={("d1", "h1"): game, ("d2", "h1"): game},
        )
        alloc, trace = run_dac(inst, F(1, 10))
        assert alloc.matching["d1"] == "h1"
        assert alloc.matching["d2"] is None
        assert trace.competitions >= 1

    @pytest.mark.parametrize("classes", [
        ["zero_sum"], ["strictly_competitive"], ["repeated"],
        ["zero_sum", "strictly_competitive", "repeated"],
    ])
    def test_random_outputs_stable_and_rational(self, classes):
        eps = F(1, 10)
        for seed in range(6):
            inst = generate_instance(
                seed=seed, n_doctors=4, n_hospitals=2,
                max_strategies=3, max_quota=2, classes=classes,
            )
            alloc, trace = run_dac(inst, eps)
            assert find_blocking_pair(inst, alloc, eps) is None
            ok, witness = check_individual_rationality(inst, alloc, eps)
            assert ok, witness

    def test_unit_quota_matches_one_to_one_reference(self):
        # With q == 1 everywhere the run must agree with a direct
        # one-to-one deferred-acceptance reimplementation step for step.
        eps = F(1, 10)
        for seed in range(4):
            inst = generate_instance(
                seed=seed, n_doctors=3, n_hospitals=3,
                max_strategies=3, max_quota=1, classes=["zero_sum"],
            )
            alloc, _ = run_dac(inst, eps)
            reference = _reference_one_to_one_dac(inst, eps)
            assert alloc.matching == reference

    def test_full_hospital_threshold_never_decreases(self):
        # Replay the trace: once a hospital is full, its weakest-seat value
        # (the displacement threshold) must be nondecreasing.
        eps = F(1, 10)
        for seed in (3, 23, 31):
            inst = generate_instance(seed=seed, n_doctors=5, n_hospitals=3,
                                     max_strategies=4, max_quota=2, classes=["zero_sum"])
            _, trace = run_dac(inst, eps)
            seats = {}
            last_threshold = {}
            for line in trace.events:
                if not line.startswith(("accept", "settle")):
                    continue
                fields = dict(part.split("=") for part in line.split()[1:])
                h = fields["h"]
                g = F(fields["g"])
                if line.startswith("accept"):
                    seats.setdefault(h, {})[fields["d"]] = g
                else:
                    winner = fields["winner"]
                    out = fields["out"]
                    if out != "none":
                        seats[h].pop(out, None)
                    seats.setdefault(h, {})[winner] = g
                if len(seats[h]) >= inst.hospitals[h].quota:
                    threshold = min(seats[h].values())
                    if h in last_threshold:
                        assert threshold >= last_threshold[h]
                    last_threshold[h] = threshold


# ---------------------------------------------------------------------------
# Option memos: repricing only the hospitals whose seats moved must leave
# every run byte-identical and every price equal to a fresh computation.


def _dac_digest(instance, eps):
    allocation, trace = run_dac(instance, eps)
    blob = (json.dumps(serialize_allocation(allocation), sort_keys=True) + "\n"
            + "\n".join(trace.events)
            + f"\n{trace.iterations} {trace.loop_passes} {trace.competitions}")
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Digests of runs made before the option memos existed (full repricing on
# every call, witness built for every proposal).  The mixed runs at seeds 0,
# 1, 2, 6, 8 and 10 were pinned again when repeated pairs moved to the hull
# polygon, which breaks a tie in the doctor's payoff by the partner's; each
# of those runs equals a fresh scan after every event.
PINNED_ZERO_SUM_40X10 = [
    "d3c345f1fa438cf1", "4d730a7252f68c19", "a356d8a77d2957ad", "ec40301068c8d85e",
    "3b3b1e9c5fb9b220", "b86c6603839b5ae9", "9ed65ebec54fdb32", "8de525f3b0b821c3",
    "13673a45ddc6e4c1", "27ee8d94aef51e2a", "ec5cf9313d40d272", "06a38498f3d0c453",
]
PINNED_MIXED_20X6 = [
    "1cf62611699fd17f", "c14866a2d3869b8e", "9693f762a5ada511", "edc4c586a98fdab5",
    "e17dfc055267c829", "3f696779397dd4b6", "7ff5dd434ebcbb1d", "d90f9bf1d5f5e307",
    "83cd585a75e23347", "fe04b601c0c6e3e2", "9a604a1d0e569af6", "4a96c4bf1b405488",
]


@pytest.mark.parametrize("seed", range(12))
def test_memoised_runs_match_pinned_digests(seed):
    eps = F(1, 2)
    zs = generate_instance(seed=seed, n_doctors=40, n_hospitals=10, classes=["zero_sum"])
    assert _dac_digest(zs, eps) == PINNED_ZERO_SUM_40X10[seed]
    mixed = generate_instance(seed=seed, n_doctors=20, n_hospitals=6,
                              classes=["zero_sum", "strictly_competitive", "repeated"])
    assert _dac_digest(mixed, eps) == PINNED_MIXED_20X6[seed]


def _fresh_options(state, d, exclude=(), price=max_f_point):
    """Every option priced anew from the raw seats, with no index or memo."""
    inst, eps = state.instance, state.epsilon
    seats = {}
    for (h, dd), seat in state.seats.items():
        seats.setdefault(h, []).append((seat.g, dd))
    options = []
    for idx, h in enumerate(inst.hospital_ids):
        if h in exclude or not inst.has_game(d, h):
            continue
        held = sorted(seats.get(h, ()))
        if len(held) >= inst.hospitals[h].quota:
            threshold, displaced = held[0][0] + eps, held[0][1]
        else:
            threshold, displaced = inst.hospitals[h].irp + eps, FREE_SEAT
        point = price(inst.game_for(d, h), threshold)
        if point is not None:
            options.append((point.f, idx, h, displaced, point))
    return options


def _fresh_answers(state, price=max_f_point):
    """Each doctor's proposal and reservations (by hospital) from the fresh scan."""
    inst = state.instance
    answers = {}
    for d in inst.doctor_ids:
        fresh = _fresh_options(state, d, price=price)
        irp = inst.doctors[d].irp
        proposal = Proposal(hospital=None, displaced=None, doctor_value=irp)
        if fresh:
            value, _, h, displaced, point = max(fresh, key=lambda opt: opt[0])
            if value > irp:
                proposal = Proposal(hospital=h, displaced=displaced, doctor_value=value,
                                    point=point)
        by_value = sorted(fresh, key=lambda opt: opt[0], reverse=True)
        reservations = {h: max(irp, next((opt[0] for opt in by_value if opt[2] != h), irp))
                        for h in inst.hospital_ids if inst.has_game(d, h)}
        answers[d] = proposal, reservations
    return answers


def _assert_options_fresh(state, price=max_f_point, scans=None):
    """Proposals and reservations equal the fresh scan.

    ``scans`` may keep the fresh answers of each seat content seen, as the
    scan reads nothing else of the state.
    """
    content = tuple((key, seat.f, seat.g) for key, seat in state.seats.items())
    if scans is None:
        answers = _fresh_answers(state, price)
    elif content in scans:
        answers = scans[content]
    else:
        answers = scans[content] = _fresh_answers(state, price)
    for d, (proposal, reservations) in answers.items():
        assert optimal_proposal(state, d) == proposal
        for h, value in reservations.items():
            assert reservation_value(state, d, h) == value


def test_a_plain_seat_dict_becomes_an_indexed_seat_book():
    inst = one_hospital_instance([[-4, 4]])
    state = DacState(instance=inst, epsilon=F(1, 2),
                     seats={("h1", "d1"): PairOutcome(f=F(-1), g=F(1))})
    assert isinstance(state.seats, dac.SeatBook)
    assert state.seats.members("h1") == ["d1"]
    assert state.bar("h1") == (F(3, 2), "d1")


def test_direct_seat_writes_reprice_options(monkeypatch):
    eps = F(1, 2)
    inst = generate_instance(seed=4, n_doctors=6, n_hospitals=3, max_quota=1,
                             classes=["zero_sum", "strictly_competitive"])
    state = fresh_state(inst, eps)
    priced = []

    def counting(game, theta):
        priced.append(theta)
        return max_f_value(game, theta)

    monkeypatch.setattr(dac, "max_f_value", counting)

    def agree():
        _assert_options_fresh(state)
        for d in inst.doctor_ids:
            assert hospital_options(state, d) == _fresh_options(state, d)

    agree()
    # A seat some doctor could take at the free-seat baseline.
    h, holder, first = next(
        (h, d, seat) for h in inst.hospital_ids for d in inst.doctor_ids
        if (seat := max_f_given_g_floor(inst.game_for(d, h), inst.hospitals[h].irp + eps)))
    # Direct writes that raise h's bar, then lower it below the first seat's.
    for seat in (first, PairOutcome(f=first.f - 1, g=first.g + 1),
                 PairOutcome(f=first.f + 1, g=first.g - 1)):
        priced.clear()
        state.seats[(h, holder)] = seat  # a direct write: h is now full
        agree()
        # Only the options at the written hospital were priced again.
        assert len(priced) == sum(inst.has_game(d, h) for d in inst.doctor_ids)
    del state.seats[(h, holder)]
    agree()


@pytest.mark.parametrize("size, classes", [
    ((40, 10), ["zero_sum"]),
    ((20, 6), ["zero_sum", "strictly_competitive", "repeated"]),
])
def test_ranked_options_equal_a_fresh_scan_after_every_event(monkeypatch, size, classes):
    eps = F(1, 2)
    inst = generate_instance(seed=3, n_doctors=size[0], n_hospitals=size[1], classes=classes)
    expected = serialize_allocation(run_dac(inst, eps)[0])
    # A hull query answers the same (game, floor) the same way, so the
    # fresh scan may reuse its answers; its seats and bars are read afresh.
    answers = {}

    def price(game, theta):
        key = (id(game), theta)
        if key not in answers:
            answers[key] = max_f_point(game, theta)
        return answers[key]

    states, scans = [], {}
    post_init, log = DacState.__post_init__, dac.DacTrace.log

    def capture(self):
        post_init(self)
        states.append(self)

    def checking(self, kind, *fields):
        log(self, kind, *fields)
        _assert_options_fresh(states[-1], price, scans)

    monkeypatch.setattr(DacState, "__post_init__", capture)
    monkeypatch.setattr(dac.DacTrace, "log", checking)
    allocation, trace = run_dac(inst, eps)
    assert trace.competitions > 0
    assert serialize_allocation(allocation) == expected


def _reference_one_to_one_dac(instance, eps):
    """Independent tiny one-to-one DAC used as a step-for-step oracle."""
    from matchgames.qcqp import max_f_given_g_floor, max_g_given_f_floor

    matching = {d: None for d in instance.doctor_ids}
    seats = {}
    unmatched = list(instance.doctor_ids)
    while unmatched:
        d = unmatched[0]
        best = (instance.doctors[d].irp, None, None)
        for idx, h in enumerate(instance.hospital_ids):
            holder = next((x for x, hh in matching.items() if hh == h), None)
            threshold = (seats[h] if holder else instance.hospitals[h].irp) + eps
            out = max_f_given_g_floor(instance.game_for(d, h), threshold)
            if out is not None and out.f > best[0]:
                best = (out.f, h, out)
        if best[1] is None:
            unmatched.pop(0)
            matching[d] = None
            continue
        h, out = best[1], best[2]
        holder = next((x for x, hh in matching.items() if hh == h), None)
        if holder is None:
            matching[d] = h
            seats[h] = out.g
            unmatched.pop(0)
            continue
        def bid(doc):
            beta = instance.doctors[doc].irp
            for idx2, h2 in enumerate(instance.hospital_ids):
                if h2 == h:
                    continue
                holder2 = next((x for x, hh in matching.items() if hh == h2), None)
                thr = (seats[h2] if holder2 else instance.hospitals[h2].irp) + eps
                o = max_f_given_g_floor(instance.game_for(doc, h2), thr)
                if o is not None and o.f > beta:
                    beta = o.f
            o = max_g_given_f_floor(instance.game_for(doc, h), beta)
            return o.g if o is not None else None
        bid_d, bid_holder = bid(d), bid(holder)
        proposer_wins = bid_d is not None and (bid_holder is None or bid_d > bid_holder)
        if proposer_wins:
            winner, loser_bid = d, bid_holder
            matching[holder] = None
            unmatched.pop(0)
            unmatched.append(holder)
            matching[d] = h
        else:
            winner, loser_bid = holder, bid_d
        if loser_bid is None:
            if winner == holder:
                continue
            settle = out
        else:
            settle = max_f_given_g_floor(instance.game_for(winner, h), loser_bid)
        seats[h] = settle.g
    return matching


# ---------------------------------------------------------------------------
# Built on demand: seats hold frontier points, witnesses are built once per
# final seat, and the trace renders its text from typed records when read.


def _count_witnesses(monkeypatch):
    """Count ``frontier_witness`` calls under every module name bound to it."""
    import sys
    from matchgames import qcqp

    calls = []
    original = qcqp.frontier_witness

    def counting(game, point):
        calls.append(point)
        return original(game, point)

    for name, module in list(sys.modules.items()):
        if name.startswith("matchgames") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("seed, size, classes", [
    (0, (40, 10), ["zero_sum"]),
    (1, (20, 6), ["zero_sum", "strictly_competitive", "repeated"]),
    (2, (20, 6), ["strictly_competitive"]),
])
def test_run_dac_builds_one_witness_per_final_seat(monkeypatch, seed, size, classes):
    inst = generate_instance(seed=seed, n_doctors=size[0], n_hospitals=size[1], classes=classes)
    calls = _count_witnesses(monkeypatch)
    allocation, trace = run_dac(inst, F(1, 2))
    seats = len(allocation.matched_pairs())
    assert seats > 0 and trace.iterations > seats
    assert len(calls) == seats


def test_direct_pair_outcome_seat_prices_and_serializes_as_its_point(monkeypatch):
    eps = F(1, 2)
    inst = generate_instance(seed=4, n_doctors=6, n_hospitals=3, max_quota=1,
                             classes=["zero_sum", "strictly_competitive"])
    h, holder, point = next(
        (h, d, point) for h in inst.hospital_ids for d in inst.doctor_ids
        if inst.has_game(d, h)
        and (point := max_f_point(inst.game_for(d, h), inst.hospitals[h].irp + eps)))
    outcome = dac.frontier_witness(inst.game_for(holder, h), point)
    by_point, by_outcome = fresh_state(inst, eps), fresh_state(inst, eps)
    for state, seat in ((by_point, point), (by_outcome, outcome)):
        state.seats[(h, holder)] = seat
        state.matching[holder] = h
        state.unmatched.remove(holder)
    for d in inst.doctor_ids:
        assert hospital_options(by_point, d) == hospital_options(by_outcome, d)
    calls = _count_witnesses(monkeypatch)
    assert (serialize_allocation(by_outcome.to_allocation())
            == serialize_allocation(by_point.to_allocation()))
    assert calls == [point]  # the PairOutcome seat is its own witness


# sha256 of the ``solve-dac --trace`` files written by the code that built a
# witness and formatted a trace line for every event.
PINNED_TRACE_FILES = {
    ("40", "10", "zero_sum", "3"):
        "67d22443aeb36e18006baa1edeb5c6a7c1b136928f5895da49d13a0c015a8899",
    ("20", "6", "zero_sum,strictly_competitive,repeated", "5"):
        "662b6b8cdb4af1d10b35b84fcb97c0b08f586de7f98285618b0fb21890efdf0d",
}


@pytest.mark.parametrize("doctors, hospitals, classes, seed", sorted(PINNED_TRACE_FILES))
def test_trace_files_match_pinned_digests(tmp_path, doctors, hospitals, classes, seed):
    from matchgames.cli import main

    inst, alloc, log = tmp_path / "inst.json", tmp_path / "alloc.json", tmp_path / "trace.log"
    assert main(["gen", "--doctors", doctors, "--hospitals", hospitals, "--classes", classes,
                 "--seed", seed, "--output", str(inst)]) == 0
    assert main(["solve-dac", "--input", str(inst), "--epsilon", "1/2",
                 "--output", str(alloc), "--trace", str(log)]) == 0
    digest = hashlib.sha256(log.read_bytes()).hexdigest()
    assert digest == PINNED_TRACE_FILES[(doctors, hospitals, classes, seed)]


def test_trace_records_are_typed_events():
    inst = generate_instance(seed=1, n_doctors=8, n_hospitals=3,
                             classes=["zero_sum", "strictly_competitive"])
    _, trace = run_dac(inst, F(1, 2))
    kinds = {event.kind for event in trace.records}
    assert {"baseline", "propose", "accept", "compete", "settle"} <= kinds
    for event in trace.records:
        if event.kind in ("accept", "settle"):
            assert all(isinstance(v, F) for v in event.fields[2:4])
    h = inst.hospital_ids[0]
    irp = inst.hospitals[h].irp
    assert trace.records[0] == ("baseline", (h, irp))
    lines = trace.events
    assert len(lines) == len(trace.records)
    assert lines[0] == f"baseline h={h} g={dac.format_rational(irp)}"


def test_iteration_cap_reads_the_frontier_bound():
    eps = F(1, 2)
    for seed in range(4):
        inst = generate_instance(seed=seed, n_doctors=10, n_hospitals=4,
                                 classes=["zero_sum", "strictly_competitive", "repeated"])
        room = F(0)
        for h, hosp in inst.hospitals.items():
            spread = max([F(0)] + [matrix_bounds(g.hospital_matrix)[1] - hosp.irp
                                   for (_, hh), g in inst.games.items() if hh == h])
            room += hosp.quota * spread
        seats = sum(hosp.quota for hosp in inst.hospitals.values())
        expected = len(inst.doctors) + seats + int(2 * room / eps)
        assert dac._iteration_bound(inst, eps) == expected


# ---------------------------------------------------------------------------
# The invariants behind the bound: every bid exists, and the potential P (the
# sum over seats of g - irp_h plus the holder's bid - irp_h) never falls and
# rises by eps or more at each competition.


def _potential(state):
    """P from the raw seats, each holder's reservation by the fresh scan."""
    inst = state.instance
    total = F(0)
    for (h, d), seat in state.seats.items():
        irp = inst.hospitals[h].irp
        reservation = max([inst.doctors[d].irp]
                          + [opt[0] for opt in _fresh_options(state, d, exclude=(h,))])
        strength = max_g_point(inst.game_for(d, h), reservation).g
        total += (seat.g - irp) + (strength - irp)
    return total


@pytest.mark.parametrize("eps", [F(1, 2), F(1, 10)])
@pytest.mark.parametrize("classes", [
    ["zero_sum"], ["zero_sum", "strictly_competitive"],
    ["zero_sum", "strictly_competitive", "repeated"],
])
def test_bids_exist_and_each_competition_raises_the_potential(monkeypatch, classes, eps):
    states, passes = [], []  # per pass: [P at its start, whether it competed]
    post_init, log = DacState.__post_init__, dac.DacTrace.log

    def capture(self):
        post_init(self)
        states.append(self)

    def checking(self, kind, *fields):
        log(self, kind, *fields)
        if kind == "propose":
            passes.append([_potential(states[-1]), False])
        elif kind == "compete":
            assert isinstance(fields[2], F) and isinstance(fields[4], F)
            passes[-1][1] = True

    monkeypatch.setattr(DacState, "__post_init__", capture)
    monkeypatch.setattr(dac.DacTrace, "log", checking)
    competitions = 0
    for seed in range(4):
        inst = generate_instance(seed=seed, n_doctors=10, n_hospitals=3, classes=classes)
        states.clear()
        passes.clear()
        _, trace = run_dac(inst, eps)
        passes.append([_potential(states[-1]), False])
        for (before, competed), (after, _) in zip(passes, passes[1:]):
            assert after - before >= (eps if competed else 0)
        assert len(passes) == trace.loop_passes + 1
        competitions += trace.competitions
    assert competitions > 0


@pytest.mark.parametrize("size, seed", [((100, 20), seed) for seed in range(10)]
                         + [((200, 40), 0)])
def test_run_dac_finishes_within_its_bound_at_a_tenth(size, seed):
    eps = F(1, 10)
    inst = generate_instance(seed=seed, n_doctors=size[0], n_hospitals=size[1])
    allocation, trace = run_dac(inst, eps)
    assert trace.loop_passes <= dac._iteration_bound(inst, eps)
    assert find_blocking_pair(inst, allocation, eps) is None
