"""Deferred acceptance with competitions for additive separable instances.

Unmatched doctors propose the profile that maximises their payoff subject to
beating the target hospital's weakest seat by epsilon (or the free-seat
baseline).  A proposal against a full hospital triggers a second-price
auction between proposer and weakest incumbent: each side's bid is the most
it can concede while staying above its reservation (best option elsewhere),
the higher bid wins, ties keep the incumbent, and the winner settles at the
loser's bid.

Options are repriced only when their hospital's seats move.  A doctor's
option at hospital h is a function of the instance, epsilon and h's seats
alone: whether h is full, its weakest seat value and that seat's doctor.
``SeatBook`` counts the writes to each hospital's seats (direct
``seats[(h, d)] = ...`` writes and ``del`` included), and ``DacState`` keeps
each doctor's last option at h with the count it was priced under.
``hospital_options`` (and through it ``reservation_value`` and
``competition_bid``) calls ``qcqp.max_f_point`` again only for hospitals
whose count moved since that doctor last looked.  A reused option is the
value the same call would return on the unchanged seats, so the memo cannot
change an answer.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .core import (
    ADDITIVE_SEPARABLE,
    Allocation,
    BimatrixGame,
    MatchingGameInstance,
    format_rational,
)
from .errors import EpsilonNotPositiveError, MatchGamesError, UnsupportedClassError
from .qcqp import (
    FrontierPoint,
    PairOutcome,
    frontier_witness,
    max_f_given_g_floor,
    max_f_point,
    max_g_point,
)

FREE_SEAT = "__free_seat__"


@dataclass
class Proposal:
    """A doctor's best admissible option; hospital None means stay unmatched.

    ``outcome``, the witness profile of ``point`` in ``game``, is built on
    first read: a proposal that goes to an auction settles at the loser's
    bid and usually never needs it.
    """

    hospital: Optional[str]
    displaced: Optional[str]  # FREE_SEAT or an incumbent doctor id
    doctor_value: Fraction
    point: Optional[FrontierPoint] = None
    game: Optional[BimatrixGame] = None

    @cached_property
    def outcome(self) -> Optional[PairOutcome]:
        return None if self.point is None else frontier_witness(self.game, self.point)


@dataclass
class DacTrace:
    """Event log and counters.

    ``iterations`` counts seat-binding events (acceptances and competition
    settlements), the quantity whose epsilon-sized payoff increases drive the
    termination bound; ``loop_passes`` counts raw proposer turns.
    """

    events: List[str] = field(default_factory=list)
    iterations: int = 0
    loop_passes: int = 0
    competitions: int = 0

    def log(self, line: str):
        self.events.append(line)


class SeatBook(MutableMapping):
    """Seat outcomes keyed by (hospital, doctor), indexed per hospital.

    Every write, including a direct ``seats[(h, d)] = outcome`` or a
    ``del``, updates the hospital's member index, drops its cached weakest
    seat and counts one more write to the hospital, so queries never rescan
    the other hospitals' seats and option memos see which hospitals moved.
    """

    def __init__(self, seats=()):
        self._seats: Dict[Tuple[str, str], PairOutcome] = {}
        self._by_hospital: Dict[str, Dict[str, PairOutcome]] = {}
        self._weakest: Dict[str, Tuple[Fraction, str]] = {}
        self._writes: Dict[str, int] = {}
        self.update(seats)

    def __getitem__(self, key):
        return self._seats[key]

    def __setitem__(self, key, outcome):
        h, d = key
        self._seats[key] = outcome
        self._by_hospital.setdefault(h, {})[d] = outcome
        self._touch(h)

    def __delitem__(self, key):
        h, d = key
        del self._seats[key]
        del self._by_hospital[h][d]
        self._touch(h)

    def _touch(self, h: str):
        self._weakest.pop(h, None)
        self._writes[h] = self._writes.get(h, 0) + 1

    def writes(self, h: str) -> int:
        """How many writes h's seats have had."""
        return self._writes.get(h, 0)

    def __iter__(self):
        return iter(self._seats)

    def __len__(self):
        return len(self._seats)

    def members(self, h: str) -> List[str]:
        return sorted(self._by_hospital.get(h, ()))

    def occupied(self, h: str) -> int:
        return len(self._by_hospital.get(h, ()))

    def weakest(self, h: str) -> Tuple[Fraction, str]:
        """(lowest seat value, its doctor); ties go to the lowest doctor id."""
        if h not in self._weakest:
            self._weakest[h] = min((o.g, d) for d, o in self._by_hospital[h].items())
        return self._weakest[h]


Option = Tuple[Fraction, int, str, Optional[str], FrontierPoint]


@dataclass
class DacState:
    """One DAC run's seats and matching.

    Instance, epsilon and the seat book stay the same objects for the
    state's life.  ``priced[d][h]`` is (index of h, write count of h's seats
    when last priced, doctor d's option at h or None when h is out of
    reach), for every h that d has a game with; the count is -1 until d
    first prices h.
    """

    instance: MatchingGameInstance
    epsilon: Fraction
    matching: Dict[str, Optional[str]] = field(default_factory=dict)
    seats: SeatBook = field(default_factory=SeatBook)
    unmatched: List[str] = field(default_factory=list)
    trace: DacTrace = field(default_factory=DacTrace)
    priced: Dict[str, Dict[str, Tuple[int, int, Optional[Option]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.seats, SeatBook):
            self.seats = SeatBook(self.seats)

    def members(self, h: str) -> List[str]:
        return self.seats.members(h)

    def is_full(self, h: str) -> bool:
        return self.seats.occupied(h) >= self.instance.hospitals[h].quota

    def seat_threshold(self, h: str) -> Fraction:
        """Baseline while seats are free, else the weakest seat contribution."""
        if not self.is_full(h):
            return self.instance.hospitals[h].irp
        return self.seats.weakest(h)[0]

    def weakest_incumbent(self, h: str) -> str:
        return self.seats.weakest(h)[1]

    def to_allocation(self) -> Allocation:
        allocation = Allocation(matching=dict(self.matching))
        for (h, d), outcome in self.seats.items():
            if outcome.cycle is not None:
                allocation.cycles[(h, d)] = outcome.cycle
            else:
                allocation.doctor_strategies[d] = outcome.x
                allocation.hospital_strategies[(h, d)] = outcome.y
        return allocation


def hospital_options(state: DacState, d: str, exclude: Tuple[str, ...] = ()) -> List[Option]:
    """Feasible (value, hospital_index, hospital, displaced, point) options.

    Options are priced by value only; the proposal builds the witness
    profile of the one it takes.  Each option is repriced only when its
    hospital's seats have been written since d last looked.
    """
    priced = state.priced.get(d)
    if priced is None:
        instance = state.instance
        priced = state.priced[d] = {h: (idx, -1, None)
                                    for idx, h in enumerate(instance.hospital_ids)
                                    if instance.has_game(d, h)}
    writes = state.seats.writes
    options = []
    for h, (idx, priced_at, option) in priced.items():
        if h in exclude:
            continue
        now = writes(h)
        if priced_at != now:
            option = _price_option(state, d, idx, h)
            priced[h] = (idx, now, option)
        if option is not None:
            options.append(option)
    return options


def _price_option(state: DacState, d: str, idx: int, h: str) -> Optional[Option]:
    if state.is_full(h):
        weakest_g, displaced = state.seats.weakest(h)
        threshold = weakest_g + state.epsilon
    else:
        threshold = state.instance.hospitals[h].irp + state.epsilon
        displaced = FREE_SEAT
    point = max_f_point(state.instance.game_for(d, h), threshold)
    return None if point is None else (point.f, idx, h, displaced, point)


def optimal_proposal(state: DacState, d: str, epsilon: Fraction) -> Proposal:
    """Doctor d's best proposal given the current seats.

    The unmatched option always competes; a hospital is chosen only when it
    beats the doctor's IRP strictly.  Value ties across hospitals go to the
    lowest hospital index.
    """
    if epsilon != state.epsilon:
        raise MatchGamesError("proposal epsilon must match the run epsilon")
    irp = state.instance.doctors[d].irp
    options = hospital_options(state, d)
    if options:
        # max keeps the first of equal values: the lowest hospital index.
        value, _, h, displaced, point = max(options, key=lambda opt: opt[0])
        if value > irp:
            return Proposal(hospital=h, displaced=displaced, doctor_value=value,
                            point=point, game=state.instance.game_for(d, h))
    return Proposal(hospital=None, displaced=None, doctor_value=irp)


def reservation_value(state: DacState, d: str, h: str) -> Fraction:
    """Best value d can secure outside hospital h (including staying single)."""
    irp = state.instance.doctors[d].irp
    return max([irp] + [opt[0] for opt in hospital_options(state, d, exclude=(h,))])


def competition_bid(state: DacState, d: str, h: str, epsilon: Fraction):
    """Reservation payoff and bid of doctor d when competing for h.

    The bid is the most per-seat value d can hand to h while keeping her own
    payoff at or above the reservation.  Returns (reservation, bid, point);
    the bid is priced by value alone, so the point carries no witness.
    """
    if epsilon != state.epsilon:
        raise MatchGamesError("bid epsilon must match the run epsilon")
    beta = reservation_value(state, d, h)
    point = max_g_point(state.instance.game_for(d, h), beta)
    if point is None:
        # The doctor cannot reach her reservation inside this game at all;
        # she concedes nothing and effectively bids below any incumbent.
        return beta, None, None
    return beta, point.g, point


def settle_competition(state: DacState, winner: str, loser_bid: Fraction, h: str,
                       epsilon: Fraction) -> PairOutcome:
    """Winner's final profile: best own payoff with per-seat value >= loser's bid."""
    if epsilon != state.epsilon:
        raise MatchGamesError("settle epsilon must match the run epsilon")
    game = state.instance.game_for(winner, h)
    outcome = max_f_given_g_floor(game, loser_bid)
    if outcome is None:
        raise MatchGamesError("winner cannot match the losing bid; auction invariant broken")
    return outcome


def run_dac(instance: MatchingGameInstance, epsilon: Fraction,
            max_iterations: Optional[int] = None) -> Tuple[Allocation, DacTrace]:
    """Run deferred acceptance with competitions to an eps-pairwise stable allocation."""
    if epsilon <= 0:
        raise EpsilonNotPositiveError("epsilon must be strictly positive")
    if instance.model != ADDITIVE_SEPARABLE:
        raise MatchGamesError("run_dac requires an additive separable instance")
    for key, game in instance.games.items():
        if game.class_tag not in ("zero_sum", "strictly_competitive", "repeated"):
            raise UnsupportedClassError(f"pair {key} has unsupported class {game.class_tag}")

    state = DacState(
        instance=instance,
        epsilon=epsilon,
        matching={d: None for d in instance.doctors},
        unmatched=list(instance.doctor_ids),
    )
    for h, hosp in instance.hospitals.items():
        state.trace.log(f"baseline h={h} g={format_rational(hosp.irp)}")

    if max_iterations is None:
        max_iterations = _default_iteration_cap(instance, epsilon)

    doctor_order = {d: i for i, d in enumerate(instance.doctor_ids)}
    settled_out: set = set()
    while state.unmatched:
        if state.trace.loop_passes > max_iterations:
            raise MatchGamesError("iteration cap exceeded; monotonicity invariant broken")
        state.trace.loop_passes += 1
        d = min(state.unmatched, key=doctor_order.__getitem__)
        proposal = optimal_proposal(state, d, epsilon)
        target = proposal.hospital or "unmatched"
        displaced = "free" if proposal.displaced == FREE_SEAT else (proposal.displaced or "-")
        state.trace.log(
            f"propose d={d} h={target} displace={displaced} "
            f"value={format_rational(proposal.doctor_value)}"
        )
        if proposal.hospital is None:
            state.trace.log(f"exit d={d} value={format_rational(proposal.doctor_value)}")
            state.unmatched.remove(d)
            settled_out.add(d)
            continue
        h = proposal.hospital
        if proposal.displaced == FREE_SEAT:
            out = proposal.outcome
            state.trace.log(
                f"accept d={d} h={h} f={format_rational(out.f)} g={format_rational(out.g)}"
            )
            state.trace.iterations += 1
            state.seats[(h, d)] = out
            state.matching[d] = h
            state.unmatched.remove(d)
            continue

        incumbent = proposal.displaced
        state.trace.competitions += 1
        beta_p, bid_p, _ = competition_bid(state, d, h, epsilon)
        beta_i, bid_i, _ = competition_bid(state, incumbent, h, epsilon)
        state.trace.log(
            f"compete h={h} proposer={d} bid={_fmt_bid(bid_p)} "
            f"incumbent={incumbent} bid={_fmt_bid(bid_i)}"
        )
        proposer_wins = _bid_beats(bid_p, bid_i)
        if proposer_wins:
            winner, loser, loser_bid = d, incumbent, bid_i
        else:
            winner, loser, loser_bid = incumbent, d, bid_p
        if loser_bid is None:
            # The loser could not bid at all; the winner keeps the pressure of
            # the proposal threshold instead of an unbounded concession.
            settled = proposal.outcome if winner == d else state.seats[(h, incumbent)]
        else:
            settled = settle_competition(state, winner, loser_bid, h, epsilon)
        state.trace.log(
            f"settle winner={winner} h={h} f={format_rational(settled.f)} "
            f"g={format_rational(settled.g)} out={loser if winner == d else 'none'}"
        )
        state.trace.iterations += 1
        if winner == d:
            del state.seats[(h, incumbent)]
            state.matching[incumbent] = None
            state.seats[(h, d)] = settled
            state.matching[d] = h
            state.unmatched.remove(d)
            state.unmatched.append(incumbent)
        else:
            state.seats[(h, incumbent)] = settled
            # proposer stays unmatched; her next proposal faces a higher bar

    allocation = state.to_allocation()
    return allocation, state.trace


def _bid_beats(bid_proposer, bid_incumbent) -> bool:
    """Highest bid wins; the incumbent keeps her seat on ties or both-None."""
    if bid_proposer is None:
        return False
    if bid_incumbent is None:
        return True
    return bid_proposer > bid_incumbent


def _fmt_bid(bid) -> str:
    return format_rational(bid) if bid is not None else "none"


def _default_iteration_cap(instance: MatchingGameInstance, epsilon: Fraction) -> int:
    from .core import matrix_max

    g_max = Fraction(0)
    for (d, h), game in instance.games.items():
        spread = matrix_max(game.hospital_matrix) - instance.hospitals[h].irp
        if spread > g_max:
            g_max = spread
    bound = g_max / epsilon
    return int(bound) + 10 * (len(instance.doctors) + 1) + 100
