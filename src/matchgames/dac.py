"""Deferred acceptance with competitions for additive separable instances.

Unmatched doctors propose the profile that maximises their payoff subject to
beating the target hospital's weakest seat by epsilon (or the free-seat
baseline).  A proposal against a full hospital triggers a second-price
auction between proposer and weakest incumbent: each side's bid is the most
it can concede while staying above its reservation (best option elsewhere),
the higher bid wins, ties keep the incumbent, and the winner settles at the
loser's bid.

Options are repriced only when their hospital's seats move, and ranked
once per state.  A doctor's option at hospital h is a function of the
instance, epsilon and h's seats alone: whether h is full, its weakest seat
value and that seat's doctor.  ``SeatBook`` counts the writes to each
hospital's seats and to the whole book (direct ``seats[(h, d)] = ...``
writes and ``del`` included).  ``DacState`` keeps each doctor's last option
value at h, an integer ratio from ``qcqp.max_f_value``, with the count it
was priced under, and her ranking with the book's total count: her best
option and her best option at another hospital.  ``optimal_proposal`` reads
the best, ``reservation_value`` (and through it ``competition_bid``) the
best outside the contested hospital, so the proposer's bid reuses the
ranking that chose her proposal.  A new ranking prices again only the
hospitals whose count moved since that doctor last looked and compares
values by integer cross products.  A reused option is the value the same
call would return on the unchanged seats, so the memo cannot change an
answer.

Only what an answer reads is built.  A proposal builds the one
``FrontierPoint`` it seats, and a reservation the one Fraction it bids
from.  A seat holds its ``FrontierPoint``, the exact payoffs of the seat,
and ``DacState.to_allocation`` builds the witness profile of each final
seat once; accepts and settlements price by value.
The trace keeps one typed record per event and renders its text lines only
when ``DacTrace.events`` is read.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .core import (
    ADDITIVE_SEPARABLE,
    FRONTIER_CLASSES,
    Allocation,
    BimatrixGame,
    MatchingGameInstance,
    format_rational,
    store_witness,
)
from .errors import EpsilonNotPositiveError, MatchGamesError, UnsupportedClassError
from .qcqp import (
    FrontierPoint,
    PairOutcome,
    frontier_witness,
    max_f_point,
    max_f_value,
    max_g_point,
)

FREE_SEAT = "__free_seat__"


@dataclass
class Proposal:
    """A doctor's best admissible option; hospital None means stay unmatched.

    ``point`` holds the option's exact payoffs; DAC seats it as it is.
    """

    hospital: Optional[str]
    displaced: Optional[str]  # FREE_SEAT or an incumbent doctor id
    doctor_value: Fraction
    point: Optional[FrontierPoint] = None


# Event kind -> its line in the text trace; the fields fill the slots in order.
_EVENT_TEXT = {
    "baseline": "baseline h={} g={}",
    "propose": "propose d={} h={} displace={} value={}",
    "exit": "exit d={} value={}",
    "accept": "accept d={} h={} f={} g={}",
    "compete": "compete h={} proposer={} bid={} incumbent={} bid={}",
    "settle": "settle winner={} h={} f={} g={} out={}",
}


class DacEvent(NamedTuple):
    """One DAC event: its kind and its fields (ids and exact values)."""

    kind: str
    fields: tuple

    def text(self) -> str:
        return _EVENT_TEXT[self.kind].format(
            *(v if isinstance(v, str) else format_rational(v) for v in self.fields))


@dataclass
class DacTrace:
    """Event records and counters.

    ``records`` holds one :class:`DacEvent` per event, in order; ``events``
    renders them as the text trace, one line per event, on each read.
    ``iterations`` counts seat-binding events (acceptances and competition
    settlements); ``loop_passes`` counts proposer turns, the quantity
    :func:`run_dac` bounds.
    """

    records: List[DacEvent] = field(default_factory=list)
    iterations: int = 0
    loop_passes: int = 0
    competitions: int = 0

    def log(self, kind: str, *fields):
        self.records.append(DacEvent(kind, fields))

    @property
    def events(self) -> List[str]:
        return [event.text() for event in self.records]


# A seat's exact payoffs: DAC writes frontier points; a direct write may hold
# a full profile.  Either way the seat's value is its ``g``.
Seat = Union[FrontierPoint, PairOutcome]


class SeatBook(MutableMapping):
    """Seats keyed by (hospital, doctor), indexed per hospital.

    Every write, including a direct ``seats[(h, d)] = seat`` or a
    ``del``, updates the hospital's member index and counts one more write
    to the hospital (``write_counts[h]``, absent until the first) and to the
    book (``total_writes``), so queries never rescan the other hospitals'
    seats and memos, such as :meth:`DacState.bar`'s, see whether and which
    hospitals moved.
    """

    def __init__(self, seats=()):
        self._seats: Dict[Tuple[str, str], Seat] = {}
        self._by_hospital: Dict[str, Dict[str, Seat]] = {}
        self.write_counts: Dict[str, int] = {}
        self.total_writes = 0
        self.update(seats)

    def __getitem__(self, key):
        return self._seats[key]

    def __setitem__(self, key, seat):
        h, d = key
        self._seats[key] = seat
        self._by_hospital.setdefault(h, {})[d] = seat
        self._touch(h)

    def __delitem__(self, key):
        h, d = key
        del self._seats[key]
        del self._by_hospital[h][d]
        self._touch(h)

    def _touch(self, h: str):
        self.write_counts[h] = self.write_counts.get(h, 0) + 1
        self.total_writes += 1

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
        return min((o.g, d) for d, o in self._by_hospital[h].items())


Option = Tuple[Fraction, int, str, Optional[str], FrontierPoint]
# An option's value as an integer ratio (numerator, positive denominator),
# with its hospital; ``qcqp.max_f_value`` answers in this form.
Ranked = Tuple[int, int, str]


@dataclass
class DacState:
    """One DAC run's seats and matching.

    Instance, epsilon and the seat book stay the same objects for the
    state's life.  ``priced[d][h]`` is (index of h, the game of d and h,
    write count of h's seats when last priced, the value of doctor d's
    option at h as an integer ratio, or None when h is out of reach), for
    every h that d has a game with, in hospital index order; the count is
    -1 until d first prices h.
    ``ranked[d]`` is (the seat book's total write count when ranked, d's
    best option, her best option at another hospital), each a
    :data:`Ranked` or None.  ``bars[h]`` is (write count, threshold,
    displaced) of :meth:`bar`; ``index[h]`` is h's hospital index.
    """

    instance: MatchingGameInstance
    epsilon: Fraction
    matching: Dict[str, Optional[str]] = field(default_factory=dict)
    seats: SeatBook = field(default_factory=SeatBook)
    unmatched: List[str] = field(default_factory=list)
    trace: DacTrace = field(default_factory=DacTrace)
    priced: Dict[str, Dict[str, Tuple[int, BimatrixGame, int, Optional[Tuple[int, int]]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    ranked: Dict[str, Tuple[int, Optional[Ranked], Optional[Ranked]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    bars: Dict[str, Tuple[int, Fraction, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    index: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.seats, SeatBook):
            self.seats = SeatBook(self.seats)
        self.index = {h: i for i, h in enumerate(self.instance.hospitals)}

    def is_full(self, h: str) -> bool:
        return self.seats.occupied(h) >= self.instance.hospitals[h].quota

    def bar(self, h: str) -> Tuple[Fraction, str]:
        """(threshold, displaced) that a proposal to h must meet.

        A full hospital asks for its weakest seat value plus epsilon and
        displaces that seat's doctor; otherwise the baseline plus epsilon
        takes a free seat.  Computed once per write to h's seats.
        """
        now = self.seats.write_counts.get(h, 0)
        held = self.bars.get(h)
        if held is None or held[0] != now:
            if self.is_full(h):
                weakest_g, displaced = self.seats.weakest(h)
                held = (now, weakest_g + self.epsilon, displaced)
            else:
                held = (now, self.instance.hospitals[h].irp + self.epsilon, FREE_SEAT)
            self.bars[h] = held
        return held[1], held[2]

    def to_allocation(self) -> Allocation:
        """The matching and one witness profile per final seat, built here."""
        allocation = Allocation(matching=dict(self.matching))
        for (h, d), seat in self.seats.items():
            if not isinstance(seat, PairOutcome):
                seat = frontier_witness(self.instance.game_for(d, h), seat)
            store_witness(self.instance, allocation, d, h, seat)
        return allocation


def _ranked(state: DacState, d: str) -> Tuple[Optional[Ranked], Optional[Ranked]]:
    """Doctor d's best option and her best option at another hospital.

    Ranked once per seat-book state: the pair is reused until some seat is
    written.  A new ranking reprices only the hospitals whose seats were
    written since d last looked, and compares values as integer ratios.
    Equal values go to the lowest hospital index.
    """
    seats = state.seats
    total = seats.total_writes
    held = state.ranked.get(d)
    if held is not None and held[0] == total:
        return held[1], held[2]
    priced = state.priced.get(d)
    if priced is None:
        index = state.index
        priced = state.priced[d] = {h: (index[h], game, -1, None)
                                    for h, game in state.instance.pairs_of(d)}
    writes = seats.write_counts.get
    best = second = None
    for h, (idx, game, priced_at, value) in priced.items():
        now = writes(h, 0)
        if priced_at != now:
            value = max_f_value(game, state.bar(h)[0])
            priced[h] = (idx, game, now, value)
        if value is None:
            continue
        n, q = value
        if best is None or n * best[1] > best[0] * q:
            best, second = (n, q, h), best
        elif second is None or n * second[1] > second[0] * q:
            second = (n, q, h)
    state.ranked[d] = (total, best, second)
    return best, second


def _beats(option: Optional[Ranked], value: Fraction) -> bool:
    """Whether a ranked option is worth strictly more than ``value``."""
    if option is None:
        return False
    vn, vd = value.as_integer_ratio()
    return option[0] * vd > vn * option[1]


def hospital_options(state: DacState, d: str, exclude: Tuple[str, ...] = ()) -> List[Option]:
    """Feasible (value, hospital_index, hospital, displaced, point) options,
    in hospital index order.

    A view over the ranking's memo: it reprices what moved, then builds
    each option's point at its hospital's bar.
    """
    _ranked(state, d)
    options = []
    for h, (idx, game, _, value) in state.priced[d].items():
        if value is None or h in exclude:
            continue
        threshold, displaced = state.bar(h)
        point = max_f_point(game, threshold)
        options.append((point.f, idx, h, displaced, point))
    return options


def optimal_proposal(state: DacState, d: str) -> Proposal:
    """Doctor d's best proposal given the current seats.

    The unmatched option always competes; a hospital is chosen only when it
    beats the doctor's IRP strictly.  Value ties across hospitals go to the
    lowest hospital index.  Only the chosen option's point is built.
    """
    irp = state.instance.doctors[d].irp
    best, _ = _ranked(state, d)
    if _beats(best, irp):
        h = best[2]
        threshold, displaced = state.bar(h)
        point = max_f_point(state.instance.game_for(d, h), threshold)
        return Proposal(hospital=h, displaced=displaced, doctor_value=point.f, point=point)
    return Proposal(hospital=None, displaced=None, doctor_value=irp)


def reservation_value(state: DacState, d: str, h: str) -> Fraction:
    """Best value d can secure outside hospital h (including staying single)."""
    irp = state.instance.doctors[d].irp
    best, second = _ranked(state, d)
    outside = second if best is not None and best[2] == h else best
    return Fraction(outside[0], outside[1]) if _beats(outside, irp) else irp


def competition_bid(state: DacState, d: str, h: str):
    """Reservation payoff and bid of doctor d when competing for h.

    The bid is the most per-seat value d can hand to h while keeping her own
    payoff at or above the reservation.  Returns (reservation, bid, point);
    the bid is priced by value alone, so the point carries no witness.  In
    a competition both sides have a point (see :func:`run_dac`).
    """
    beta = reservation_value(state, d, h)
    point = max_g_point(state.instance.game_for(d, h), beta)
    if point is None:
        raise MatchGamesError("competitor cannot reach her reservation; auction invariant broken")
    return beta, point.g, point


def settle_competition(state: DacState, winner: str, loser_bid: Fraction,
                       h: str) -> FrontierPoint:
    """Winner's seat: best own payoff with per-seat value >= loser's bid.

    Priced by value alone; the witness is built only if the seat is final.
    """
    point = max_f_point(state.instance.game_for(winner, h), loser_bid)
    if point is None:
        raise MatchGamesError("winner cannot match the losing bid; auction invariant broken")
    return point


def run_dac(instance: MatchingGameInstance, epsilon: Fraction) -> Tuple[Allocation, DacTrace]:
    """Run deferred acceptance with competitions to an eps-pairwise stable allocation.

    Let w be the weakest seat value of the contested hospital h.  Bars never
    fall: a hospital fills at seats g >= irp_h + eps and never frees one, a
    winning proposer settles at g >= bid_i >= w, a winning incumbent at
    g >= bid_p >= w + eps.  Every seat pays its holder at least her
    ``reservation_value``: she takes it at her best option, or wins it at
    the most she can get above the losing bid, which her own bid's point
    meets; and her reservation reads only other hospitals' bars, so it never
    rises.  Hence both bids exist: the proposer's point at h's bar pays her
    reservation with g >= w + eps, the incumbent's seat pays hers at g = w.

    Let a seat's strength be its holder's bid, and P the sum over occupied
    seats of (g - irp_h) + (strength - irp_h).  P starts at 0 and never
    falls: strengths never fall as reservations never rise, an accept adds
    two positive terms, and a competition adds eps or more.  A winning
    incumbent's g rises from w by eps or more; a winning proposer turns
    (w, bid_i) into (g, bid_p), a rise of at least (bid_i - w) +
    (bid_p - bid_i) = bid_p - w >= eps.  Each term is at most spread_h =
    max(0, max_d m_max(d, h) - irp_h), so P <= 2 sum_h q_h spread_h.  A
    pass is an exit (once per doctor: an exited doctor never holds a seat),
    an accept (once per seat) or a competition, so :func:`_iteration_bound`
    counts every pass, and its raise is an invariant's.
    """
    if epsilon <= 0:
        raise EpsilonNotPositiveError("epsilon must be strictly positive")
    if instance.model != ADDITIVE_SEPARABLE:
        raise MatchGamesError("run_dac requires an additive separable instance")
    for key, game in instance.games.items():
        if game.class_tag not in FRONTIER_CLASSES:
            raise UnsupportedClassError(f"pair {key} has unsupported class {game.class_tag}")

    state = DacState(
        instance=instance,
        epsilon=epsilon,
        matching={d: None for d in instance.doctors},
        unmatched=list(instance.doctor_ids),
    )
    log = state.trace.log
    for h, hosp in instance.hospitals.items():
        log("baseline", h, hosp.irp)

    max_passes = _iteration_bound(instance, epsilon)

    doctor_order = {d: i for i, d in enumerate(instance.doctor_ids)}
    while state.unmatched:
        if state.trace.loop_passes >= max_passes:
            raise MatchGamesError("iteration bound exceeded; monotonicity invariant broken")
        state.trace.loop_passes += 1
        d = min(state.unmatched, key=doctor_order.__getitem__)
        proposal = optimal_proposal(state, d)
        displaced = "free" if proposal.displaced == FREE_SEAT else (proposal.displaced or "-")
        log("propose", d, proposal.hospital or "unmatched", displaced, proposal.doctor_value)
        if proposal.hospital is None:
            log("exit", d, proposal.doctor_value)
            state.unmatched.remove(d)
            continue
        h = proposal.hospital
        if proposal.displaced == FREE_SEAT:
            point = proposal.point
            log("accept", d, h, point.f, point.g)
            state.trace.iterations += 1
            state.seats[(h, d)] = point
            state.matching[d] = h
            state.unmatched.remove(d)
            continue

        incumbent = proposal.displaced
        state.trace.competitions += 1
        _, bid_p, _ = competition_bid(state, d, h)
        _, bid_i, _ = competition_bid(state, incumbent, h)
        log("compete", h, d, bid_p, incumbent, bid_i)
        if bid_p > bid_i:
            winner, loser, loser_bid = d, incumbent, bid_i
        else:
            winner, loser, loser_bid = incumbent, d, bid_p
        settled = settle_competition(state, winner, loser_bid, h)
        log("settle", winner, h, settled.f, settled.g, loser if winner == d else "none")
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


def _iteration_bound(instance: MatchingGameInstance, epsilon: Fraction) -> int:
    """n + sum_h q_h + floor(2 sum_h q_h spread_h / eps): see :func:`run_dac`."""
    top: Dict[str, List[Fraction]] = {h: [] for h in instance.hospitals}
    for (_, h), game in instance.games.items():
        top[h].append(game.frontier.m_max)
    room = sum(hosp.quota * max(0, max(top[h], default=hosp.irp) - hosp.irp)
               for h, hosp in instance.hospitals.items())
    seats = sum(hosp.quota for hosp in instance.hospitals.values())
    return len(instance.doctors) + seats + int(2 * room / epsilon)
