"""Reservation payoffs, constrained Nash equilibria, and the renegotiation sweep.

A couple's reservations are the best each side can secure outside the couple
given the rest of the allocation.  Replacing every couple's profile with a
constrained Nash equilibrium (CNE) for its reservations, sweep after sweep,
drives the allocation to renegotiation proofness.

Unit conventions, fixed once:

* ``reservation_payoffs`` returns the doctor value in doctor units and the
  hospital value in the hospital's own payoff units;
* every CNE solver takes the hospital reservation in hospital units; the
  doctor-unit cap g_cap of the value rule below is a zero-sum pair's
  reservation negated, so ``compute_cne_for_pair`` gets -g_cap.

The zero-sum CNE value is median{f_res - 2e, w, g_cap + 2e}; the returned
profile survives both constrained best-response checks with slack e.  The
2e-wide feasibility band is what makes the construction always exist.  Both
one-shot classes run it on the pair's zero-sum image (A itself for a
zero-sum pair), through a bridge derived from the pair's segment for each
CNE (``core.frontier_bridge``), and audit the result in the original game.

The deviation audit (the construction's self-check, and ``cne_verdict`` in
the sweep and in both certificates) runs on integers: the game's matrices
and the profile's fixed mix are integer numerators over their
denominators, each pure strategy's payoffs integer dot products, and the
best constrained deviation is compared with the current payoff plus
epsilon by cross products.  Only a failing audit builds a Fraction, for
its message.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .core import (
    REPEATED,
    ROOMMATES,
    Allocation,
    BimatrixGame,
    Couple,
    CyclePunishment,
    CycleStrategy,
    MatchingGameInstance,
    Matrix,
    PayoffReport,
    Scaled,
    _bilinears,
    _integer_weights,
    _negated,
    evaluate_payoffs,
    frontier_bridge,
    pure,
    read_couple,
    row_payoffs,
    seat_floor,
    store_witness,
)
from .errors import (
    EpsilonNotPositiveError,
    InfeasibleReservationsError,
    InputNotPairwiseStableError,
    MatchGamesError,
)
from .lp import game_value
from .qcqp import (
    achieve_value_zero_sum,
    by_f,
    by_g,
    by_sum,
    distribution_to_cycle,
    exact_point,
    hull_point,
    max_f_point,
    max_f_value,
    max_g_point,
    max_g_value,
)

SADDLE_VALUE = "saddle_value"
DOCTOR_BINDING = "doctor_binding"
HOSPITAL_BINDING = "hospital_binding"
UNIFORM_EQUILIBRIUM = "uniform_equilibrium"
PUNISHMENT_SUPPORTED = "punishment_supported"

# Sides of the payoff ledger's per-agent write counters.
DOCTOR = "doctor"
HOSPITAL = "hospital"


@dataclass
class ReservationPair:
    doctor_reservation: Fraction      # doctor units
    hospital_reservation: Fraction    # hospital's own payoff units (per seat)


@dataclass
class CneResult:
    x: Optional[Tuple[Fraction, ...]]
    y: Optional[Tuple[Fraction, ...]]
    cycle: Optional[CycleStrategy]
    doctor_payoff: Fraction
    hospital_payoff: Fraction
    case_tag: str


# ---------------------------------------------------------------------------
# Reservation payoffs


def reservation_payoffs(instance: MatchingGameInstance, allocation: Allocation,
                        d: str, partner: str, epsilon: Fraction) -> ReservationPair:
    """Best outside values of a matched couple, computed from everyone else.

    Doctor side: best value over other hospitals (beating their weakest seat
    or free-seat baseline by epsilon) and the unmatched option.  Hospital
    side: best per-seat value over outside doctors, each granted strictly
    more than her current payoff plus epsilon, and the hospital's baseline.

    Outside options use strict inequalities (supremum semantics): an option
    whose constraint can only bind exactly at the game's boundary is no
    outside option at all, exactly as it is no blocking opportunity.
    """
    return _PayoffLedger(instance, allocation, epsilon).reservations(d, partner)


class _PayoffLedger:
    """Doctor payoffs and seat values of an allocation, kept per couple.

    Renegotiation changes profiles but never the matching, so an update to
    one couple moves only that couple's two entries; ``record`` re-reads them
    from the installed profile.  In the roommates model the partner's value
    is her own doctor payoff.

    Each agent's floor is kept with its payoff: a doctor's payoff plus
    epsilon, which an outside partner must grant her, and a hospital's bar,
    its weakest seat (its baseline while a seat is free) plus epsilon, which
    an outside doctor must beat.  ``record`` refreshes the floors of the two
    agents it moves.  A doctor's options are at hospitals she does not sit
    at, so a bar reads all of a hospital's seats.

    Outside options are ranked once and compared as integer ratios
    (``qcqp.max_f_value`` and ``max_g_value``); only the best value becomes
    a Fraction.  Each agent's candidate list, with the game and the last
    value of every option, is built on first use.  An option of d at
    partner k depends only on k's bar (in the roommates model, on k's
    floor), and an option of hospital h with outside doctor k only on k's
    floor.  ``record`` bumps a write counter per agent it touches, keyed by
    side so that a doctor and a hospital sharing an id string stay apart,
    and an option is repriced only when the counter of the agent it depends
    on has moved.  A hospital's whole reservation is kept too: it reads
    only the floors of doctors outside h, and as the matching is fixed,
    every record at another hospital moves one of them while a record at h
    moves only h's members, so the answer is reused until a record happens
    elsewhere.  A shared ``payoffs`` report is copied, never written.
    """

    def __init__(self, instance: MatchingGameInstance, allocation: Allocation,
                 epsilon: Fraction, payoffs: Optional[PayoffReport] = None):
        self.instance = instance
        self.epsilon = epsilon
        self.roommates = instance.model == ROOMMATES
        report = payoffs or evaluate_payoffs(instance, allocation)
        self.doctor_payoffs = dict(report.doctor_payoffs)
        self.seat_values = dict(report.seat_values)
        self.pairs = {key: (c.f, c.g) for key, c in report.couples.items()}  # couple -> (f, g)
        self.members = report.members
        self.doctor_floors = {d: f + epsilon for d, f in self.doctor_payoffs.items()}
        self.hospital_bars = {h: self._bar(h) for h in instance.hospitals}
        self._writes: Dict[Tuple[str, str], int] = {}
        self._records = 0
        # Agent -> [partner, agent the option depends on, game, write count
        # when priced, value as an integer ratio or None], one per option.
        self._doctor_options: Dict[str, List[list]] = {}
        self._hospital_options: Dict[str, List[list]] = {}
        # Hospital -> (records at other hospitals when ranked, reservation).
        self._hospital_reservations: Dict[str, Tuple[int, Fraction]] = {}

    def _bar(self, h: str) -> Fraction:
        return seat_floor(self.instance.hospitals[h], self.members.get(h, ()),
                          self.seat_values) + self.epsilon

    def record(self, allocation: Allocation, d: str, partner: str):
        couple = read_couple(self.instance, allocation, d, partner)
        f, value = self.pairs[(d, partner)] = couple.f, couple.g
        self.doctor_payoffs[d] = f
        self.doctor_floors[d] = f + self.epsilon
        if self.roommates:
            self.doctor_payoffs[partner] = value
            self.doctor_floors[partner] = value + self.epsilon
            moved = ((DOCTOR, d), (DOCTOR, partner))
        else:
            self.seat_values[(partner, d)] = value
            self.hospital_bars[partner] = self._bar(partner)
            moved = ((DOCTOR, d), (HOSPITAL, partner))
        for agent in moved:
            self._writes[agent] = self._writes.get(agent, 0) + 1
        self._records += 1

    def reservations(self, d: str, partner: str) -> ReservationPair:
        doctor_res = self._doctor_outside_value(d, partner)
        if self.roommates:
            return ReservationPair(doctor_res, self._doctor_outside_value(partner, d))
        return ReservationPair(doctor_res, self._hospital_reservation(partner))

    def _doctor_outside_value(self, d, exclude):
        """d's best payoff at a partner other than ``exclude``, strictly
        beating the partner's bar (in the roommates model, her floor), or
        d's IRP when no option pays more."""
        options = self._doctor_options.get(d)
        if options is None:
            side = DOCTOR if self.roommates else HOSPITAL
            options = self._doctor_options[d] = [
                [k, (side, k), game, -1, None] for k, game in self.instance.pairs_of(d)]
        bars = self.doctor_floors if self.roommates else self.hospital_bars
        return self._best(self.instance.doctors[d].irp, options, exclude, bars, max_f_value)

    def _hospital_reservation(self, h):
        """h's best seat value with an outside doctor, granting her strictly
        more than her floor, or h's baseline when no option pays more."""
        stamp = self._records - self._writes.get((HOSPITAL, h), 0)
        held = self._hospital_reservations.get(h)
        if held is not None and held[0] == stamp:
            return held[1]
        options = self._hospital_options.get(h)
        if options is None:
            members = self.members.get(h, ())
            options = self._hospital_options[h] = [
                [k, (DOCTOR, k), game, -1, None]
                for k, game in self.instance.pairs_at(h) if k not in members]
        best = self._best(self.instance.hospitals[h].irp, options, None,
                          self.doctor_floors, max_g_value)
        self._hospital_reservations[h] = (stamp, best)
        return best

    def _best(self, base, options, exclude, floors, query):
        """The largest of ``base`` and the options' values other than
        ``exclude``'s, each ``query(game, floors[partner], strict=True)`` and
        reused while the agent it depends on is unwritten."""
        writes = self._writes
        bn, bd = base.as_integer_ratio()
        best = None
        for option in options:
            k, agent, game, priced_at, value = option
            if k == exclude:
                continue
            now = writes.get(agent, 0)
            if priced_at != now:
                value = option[4] = query(game, floors[k], True)
                option[3] = now
            if value is not None and value[0] * bd > bn * value[1]:
                bn, bd = value
                best = value
        return base if best is None else Fraction(bn, bd)


# ---------------------------------------------------------------------------
# Constrained best responses (deviation audits)


def _deviation_fault(game: BimatrixGame, scaled_x, scaled_y, f_now: Fraction, g_now: Fraction,
                     f_res: Fraction, g_res: Fraction, epsilon: Fraction) -> Optional[str]:
    """Why one side of the profile (x, y), which pays (f_now, g_now), has a
    profitable constrained deviation, or None when neither side has one.
    x and y come scaled to integers, as ``core._integer_weights`` scales them.

    The doctor's deviations are the row mixes keeping the hospital's payoff
    against y at g_res - epsilon or more, profitable when they pay more than
    f_now + epsilon; the hospital's mirror them against x.  Both matrices
    and the fixed mix are integers over their denominators
    (``BimatrixGame.scaled``, ``scaled_x`` and ``scaled_y``), so each pure
    strategy's payoffs are integer dot products, and
    :func:`_best_guarded_mix` compares them with the floor and the bar by
    cross products.
    """
    (ka, la), (km, lm) = game.scaled
    en, ed = epsilon.as_integer_ratio()
    ys, yd = scaled_y
    support = [(j, w) for j, w in enumerate(ys) if w]
    best = _best_guarded_mix([sum(row[j] * w for j, w in support) for row in ka], la * yd,
                             [sum(row[j] * w for j, w in support) for row in km], lm * yd,
                             _shifted(g_res, -en, ed), _shifted(f_now, en, ed))
    if best is not None:
        return f"doctor deviation worth {best} > {f_now} + eps"
    xs, xd = scaled_x
    rows = [(w, ka[i], km[i]) for i, w in enumerate(xs) if w]
    columns = range(len(ka[0]))
    best = _best_guarded_mix([sum(w * row_m[t] for w, _, row_m in rows) for t in columns], lm * xd,
                             [sum(w * row_a[t] for w, row_a, _ in rows) for t in columns], la * xd,
                             _shifted(f_res, -en, ed), _shifted(g_now, en, ed))
    if best is not None:
        return f"hospital deviation worth {best} > {g_now} + eps"
    return None


def _shifted(value: Fraction, num: int, den: int) -> Tuple[int, int]:
    """value + num / den as an integer ratio with a positive denominator,
    not reduced."""
    vn, vd = value.as_integer_ratio()
    return vn * den + num * vd, vd * den


def _best_guarded_mix(gain: List[int], gain_den: int, guard: List[int], guard_den: int,
                      floor: Tuple[int, int], bar: Tuple[int, int]) -> Optional[Fraction]:
    """max p.gain over distributions p with p.guard >= floor when it exceeds
    ``bar``, else None.  gain and guard are integer numerators over the
    positive gain_den and guard_den, floor and bar integer ratios with
    positive denominators.

    A linear program over the simplex with one side constraint has an
    optimal vertex of support at most 2: a feasible pure strategy i, or a
    feasible i and an infeasible j mixed so that the side constraint holds
    with equality.  With h the guard's excess over the floor and e the
    gain's over the bar, each scaled to an integer, that mix pays e_i +
    h_i (e_j - e_i) / (h_i - h_j) over the bar, and it beats the bar exactly
    when h_i e_j > h_j e_i.  The optimum becomes a Fraction only when it
    beats the bar.
    """
    (fn, fd), (bn, bd) = floor, bar
    fn *= guard_den
    bn *= gain_den
    h = [g * fd - fn for g in guard]
    e = [g * bd - bn for g in gain]
    feasible = [i for i, hi in enumerate(h) if hi >= 0]
    if not any(e[i] > 0 for i in feasible):
        lifts = [j for j, hj in enumerate(h) if hj < 0 and e[j] > 0]
        if not any(h[i] * e[j] > h[j] * e[i] for j in lifts for i in feasible):
            return None
    num, den = max(e[i] for i in feasible), 1
    for i in feasible:
        for j, hj in enumerate(h):
            if hj < 0 and e[j] > e[i]:
                n, d = h[i] * e[j] - hj * e[i], h[i] - hj
                if n * den > num * d:
                    num, den = n, d
    # bar + num / (den * gain_den * bd); bn is bar's numerator times gain_den.
    return Fraction(bn * den + num, den * gain_den * bd)


# ---------------------------------------------------------------------------
# One-shot CNE: median construction on the zero-sum image


def _one_shot_cne(game: BimatrixGame, f_res: Fraction, g_res: Fraction,
                  epsilon: Fraction, tight: bool = False) -> Optional[CneResult]:
    """The median construction on the game's zero-sum image, audited in the
    game; None when the reservation band misses the attainable values.

    On the image the value is median{f_res - 2e, w, g_cap + 2e}, with w the
    image's saddle value and g_cap the hospital reservation in image units,
    negated: the saddle when it fits between the (2e-slackened)
    reservations, else the binding side's bound, reached by sliding a
    payoff-preserving profile toward the saddle until every pure row
    (column) sits on the safe side.  The epsilon correction of the rescaled
    side makes the image's constrained-deviation sets coincide with the
    original ones, so an image CNE maps back unchanged (the deviation audit
    runs in the original game).  A zero-sum pair's bridge is the identity
    (ratio 1: no correction), so both one-shot classes take this one path.

    ``tight`` raises both image reservations by epsilon *in image units*
    (the rescaled side's epsilon is worth only ratio * epsilon in original
    units, so shifting before the transform under-protects when the ratio is
    small); the binding-side value then sits exactly on the one-epsilon
    original-unit boundary, which is what the renegotiation sweep needs.
    """
    fr = game.frontier
    ratio, shift, direction, scaled_z = frontier_bridge(fr, *game.scaled)
    correction = epsilon * (1 - ratio) / ratio
    if direction == "doctor":
        # z is -M; the doctor's payoffs f read (f - shift) / ratio on it.
        f_img, g_img = (f_res - shift) / ratio - correction, g_res
        z_min, z_max = -fr.m_max, -fr.m_min
    else:
        # z is A; the hospital's payoffs g read (g + shift) / ratio on -z.
        f_img, g_img = f_res, (g_res + shift) / ratio - correction
        z_min, z_max = fr.a_min, fr.a_max
    if tight:
        f_img += epsilon
        g_img += epsilon
    lo = f_img - 2 * epsilon
    hi = -g_img + 2 * epsilon
    if lo > hi or hi < z_min or lo > z_max:
        return None
    w, x_star, y_star = game_value(*scaled_z)
    if lo <= w <= hi:
        x, y, tag, value = x_star, y_star, SADDLE_VALUE, w
    else:
        value = lo if w < lo else hi
        x0, y0, _ = achieve_value_zero_sum(scaled_z, value)
        if w < lo:
            s, y = _slide(scaled_z, value, y0, y_star)
            x, tag = pure(s, game.n_rows), DOCTOR_BINDING
        else:
            # The hospital's columns are the rows of -z^T, to be held at -value.
            rows, den = scaled_z
            t, x = _slide(_negated((tuple(zip(*rows)), den)), -value, x0, x_star)
            y, tag = pure(t, game.n_cols), HOSPITAL_BINDING
    xs, ys = _integer_weights(x), _integer_weights(y)
    reached, f_now, g_now = _bilinears(xs, (scaled_z, *game.scaled), ys)
    if reached != value:
        raise MatchGamesError("CNE construction missed its target value")
    fault = _deviation_fault(game, xs, ys, f_now, g_now, f_res, g_res, epsilon)
    if fault is not None:
        raise MatchGamesError(f"{game.class_tag} CNE: {fault}")
    return CneResult(x=x, y=y, cycle=None, doctor_payoff=f_now, hospital_payoff=g_now,
                     case_tag=tag)


def _slide(a: Scaled, v: Fraction, y0, y_star):
    """A pure row s and a column mix y with every pure row of the matrix
    whose integer form is ``a`` paying at most v against y, and row s
    exactly v.

    y0 is a column mix some row plays to value v; y_star a minimax mix, held
    below v by every row.  Along y_tau = (1-tau).y0 + tau.y*, each pure row's
    payoff is affine; the largest tau at which some row still attains v
    leaves every row at or below v, killing all deviations of the row side.
    Ties go to the smallest row index.

    Every row pays at most the game value, below v, against y_star: z's
    minimax columns when the doctor binds, z's maximin rows x* (the rows of
    -z^T) when the hospital does.  So b_s < v <= a_s for each row kept, and
    tau = (a_s - v) / (a_s - b_s) lies in [0, 1).
    """
    best = None
    for s, (a_s, b_s) in enumerate(zip(row_payoffs(a, y0), row_payoffs(a, y_star))):
        if a_s < v:
            continue  # starts below and ends below: never attains v
        tau = (a_s - v) / (a_s - b_s)
        if best is None or tau > best[0]:
            best = (tau, s)
    if best is None:
        raise MatchGamesError("no pure strategy attains the target value on the segment")
    tau, s = best
    return s, tuple((1 - tau) * w0 + tau * w1 for w0, w1 in zip(y0, y_star))


# ---------------------------------------------------------------------------
# Repeated games: punishment levels and folk-theorem CNEs


def punishment_levels(a: Matrix, m: Matrix):
    """Minimax levels (alpha, beta) and the minimaxing strategies of the
    stage matrices a and m (:attr:`BimatrixGame.punishment`).

    alpha = min_y max_x x.A.y with the hospital's punishing y; beta the
    mirror image on the doctor's side against M.
    """
    return BimatrixGame(a, m, REPEATED).punishment


def compute_cne_repeated(a: Matrix, m: Matrix, f_res: Fraction, g_res: Fraction,
                         epsilon: Fraction) -> CneResult:
    """CNE of the uniform (infinitely repeated) game with stage matrices a, m.

    Inside the acceptable payoff set (hull points within epsilon of both
    reservations), prefer a uniform-equilibrium point (above both punishment
    levels) maximizing f+g with grim punishments on both sides.  When the
    intersection is empty, the safe side concedes: play the acceptable point
    maximizing the exposed side's payoff, bumped by epsilon when the hull
    allows, with the safe side punished by grim minimaxing and the exposed
    side's deviations ignored.
    """
    return compute_cne_for_pair(BimatrixGame(a, m, REPEATED), ReservationPair(f_res, g_res), epsilon)


def _repeated_cne(game: BimatrixGame, f_res: Fraction, g_res: Fraction,
                  epsilon: Fraction) -> Optional[CneResult]:
    """:func:`compute_cne_repeated` on a game object, whose punishment levels
    are kept (``BimatrixGame.punishment``); None when no point is acceptable."""
    a, m, fr = game.doctor_matrix, game.hospital_matrix, game.frontier
    floors = {"f_floor": f_res - epsilon, "g_floor": g_res - epsilon}
    best_f = hull_point(fr, by_f, **floors)
    if best_f is None:
        return None
    alpha, beta, y_alpha, x_beta = game.punishment

    uniform = hull_point(fr, by_sum, f_floor=max(alpha, f_res - epsilon),
                         g_floor=max(beta, g_res - epsilon))
    if uniform is not None:
        cycle = distribution_to_cycle(uniform.lam, a, m)
        cycle.punishment = CyclePunishment(
            punisher="both", doctor_strategy=x_beta, hospital_strategy=y_alpha
        )
        return CneResult(x=None, y=None, cycle=cycle, doctor_payoff=uniform.f,
                         hospital_payoff=uniform.g, case_tag=UNIFORM_EQUILIBRIUM)

    if f_res - epsilon >= alpha:
        # Doctor safe above her punishment level; hospital is the exposed side.
        bar = hull_point(fr, by_g, **floors)
        point = exact_point(game, bar.f, bar.g + epsilon)
        punishment = CyclePunishment(punisher="hospital", hospital_strategy=y_alpha)
    elif g_res - epsilon >= beta:
        bar = best_f
        point = exact_point(game, bar.f + epsilon, bar.g)
        punishment = CyclePunishment(punisher="doctor", doctor_strategy=x_beta)
    else:
        raise MatchGamesError("unreachable: both sides below punishment levels implies a uniform point")
    if point is None:  # the hull allows no epsilon bump
        point = bar
    cycle = distribution_to_cycle(point.lam, a, m)
    cycle.punishment = punishment
    return CneResult(x=None, y=None, cycle=cycle, doctor_payoff=point.f,
                     hospital_payoff=point.g, case_tag=PUNISHMENT_SUPPORTED)


# ---------------------------------------------------------------------------
# CNE verification (used by the stability oracles)


def check_couple_is_cne(instance, allocation, d, partner, reservations: ReservationPair,
                        epsilon: Fraction):
    """Does the couple's current profile survive the CNE characterisation?"""
    return cne_verdict(read_couple(instance, allocation, d, partner), reservations, epsilon)


def cne_verdict(couple: Couple, reservations: ReservationPair, epsilon: Fraction):
    """(passes, why not) of the CNE characterisation for a ``core.Couple``."""
    f_res, g_res = reservations.doctor_reservation, reservations.hospital_reservation
    if couple.cycle is not None:
        return _check_repeated_cne(couple, f_res, g_res, epsilon)
    game, f_now, g_now = couple.game, couple.f, couple.g
    if f_now + epsilon < f_res:
        return False, f"doctor payoff {f_now} not feasible against reservation {f_res}"
    if g_now + epsilon < g_res:
        return False, f"hospital payoff {g_now} not feasible against reservation {g_res}"
    fault = _deviation_fault(game, couple.scaled_x, couple.scaled_y, f_now, g_now, f_res, g_res, epsilon)
    return fault is None, fault


def _check_repeated_cne(couple, f_res, g_res, epsilon):
    game, f_bar, g_bar = couple.game, couple.f, couple.g
    if f_bar + epsilon < f_res:
        return False, "cycle average below the doctor's acceptable set"
    if g_bar + epsilon < g_res:
        return False, "cycle average below the hospital's acceptable set"
    alpha, beta, _, _ = game.punishment
    pun = couple.cycle.punishment
    if pun is None:
        return False, "repeated-pair profile lacks a punishment directive"
    if pun.punisher in ("hospital", "both"):  # the doctor's deviations are punished
        if f_bar < alpha:
            return False, "cycle pays the doctor below her punishment level"
    elif max_f_point(game, g_res - epsilon).f > f_bar + epsilon:
        # Unpunished, any f-gain > eps must break feasibility; the cycle's
        # own average meets the floor, so the cap exists.
        return False, "doctor could gain within the hospital's acceptable set"
    if pun.punisher in ("doctor", "both"):
        if g_bar < beta:
            return False, "cycle pays the hospital below its punishment level"
    elif max_g_point(game, f_res - epsilon).g > g_bar + epsilon:
        return False, "hospital could gain within the doctor's acceptable set"
    return True, None


# ---------------------------------------------------------------------------
# The renegotiation process


@dataclass
class RenegotiationResult:
    allocation: Allocation
    sweeps: int  # sweeps that changed at least one payoff pair


def compute_cne_for_pair(game: BimatrixGame, reservations: ReservationPair,
                         epsilon: Fraction) -> CneResult:
    f_res, g_res = reservations.doctor_reservation, reservations.hospital_reservation
    solve = _repeated_cne if game.class_tag == REPEATED else _one_shot_cne
    cne = solve(game, f_res, g_res, epsilon)
    if cne is None:
        raise InfeasibleReservationsError(
            f"no acceptable payoff pair at reservations {f_res} (doctor) and {g_res} (hospital)")
    return cne


def select_process_cne(game: BimatrixGame, reservations: ReservationPair,
                       epsilon: Fraction) -> Optional[CneResult]:
    """The CNE the renegotiation sweep installs for a couple: one paying the
    doctor f_res - e or more and the hospital g_res - e or more, or None when
    no attainable payoff pair does.  A one-shot couple runs the median
    construction with both reservations raised by e in image units; such a
    profile is an e-CNE outright and, unlike the 2e-wide median point, it
    cannot reopen an outside blocking pair.  A repeated couple selects
    inside the same acceptable set."""
    f_res, g_res = reservations.doctor_reservation, reservations.hospital_reservation
    if game.class_tag == REPEATED:
        return _repeated_cne(game, f_res, g_res, epsilon)
    return _one_shot_cne(game, f_res, g_res, epsilon, tight=True)


def run_renegotiation(instance: MatchingGameInstance, allocation: Allocation,
                      epsilon: Fraction, on_sweep=None) -> RenegotiationResult:
    """Replace every couple's profile with a CNE until payoffs fix.

    Sweeps are Gauss-Seidel style: each couple's reservations see the updates
    already applied earlier in the same sweep.  (Batch updates admit two-state
    limit cycles: couples coupled through their reservations bounce between
    the even and odd states forever; in-place sweeps break the symmetry.)
    The returned sweep count excludes the final no-change detection sweep.

    A failing couple with no acceptable payoff pair raises
    ``InfeasibleReservationsError``; no couple is skipped.  So in a sweep that
    changes no payoff pair, every couple passed its check against the final
    reservations or installed a CNE built for them, and the allocation is
    returned.  The sweep cap is a guess, not a proved bound.
    """
    from .stability import find_blocking_pair

    if epsilon <= 0:
        raise EpsilonNotPositiveError("epsilon must be strictly positive")
    payoffs = evaluate_payoffs(instance, allocation)
    witness = find_blocking_pair(instance, allocation, epsilon, payoffs=payoffs)
    if witness is not None:
        raise InputNotPairwiseStableError(
            f"input allocation is blocked by ({witness.doctor},{witness.partner})"
        )

    current = _copy_allocation(allocation)
    couples = list(payoffs.couples)  # by doctor id; a two-sided market sweeps by hospital
    if instance.model != ROOMMATES:
        couples.sort(key=lambda dp: (dp[1], dp[0]))
    spread = Fraction(0)
    for couple in payoffs.couples.values():
        fr = couple.game.frontier
        spread = max(spread, fr.a_max - fr.a_min, fr.m_max - fr.m_min)
    max_sweeps = 4 * int(spread / epsilon) + 100
    ledger = _PayoffLedger(instance, current, epsilon, payoffs)
    previous = dict(ledger.pairs)
    # Couple -> the reservations of its last passing check.  The check reads
    # only the couple's profile, its reservations and epsilon, and only the
    # couple's own record changes its profile, so while the couple has no
    # record and its reservations are equal, the check would pass again.
    passed: Dict[Tuple[str, str], ReservationPair] = {}
    sweeps = 0
    for _ in range(max_sweeps):
        for couple in couples:
            d, partner = couple
            reservations = ledger.reservations(d, partner)
            if passed.get(couple) == reservations:
                continue
            still_fine, _ = check_couple_is_cne(instance, current, d, partner, reservations, epsilon)
            if still_fine:
                # Keeping the incumbent profile is itself a choice from the
                # CNE set; moving only under a real objection stops couples
                # from chasing each other's sub-epsilon reservation wiggles.
                passed[couple] = reservations
                continue
            cne = select_process_cne(instance.game_for(d, partner), reservations, epsilon)
            if cne is None:
                raise InfeasibleReservationsError(
                    f"couple ({d},{partner}) in sweep {sweeps + 1}: no payoff pair within epsilon of"
                    f" reservations {reservations.doctor_reservation} (doctor) and"
                    f" {reservations.hospital_reservation} (hospital)")
            store_witness(instance, current, d, partner, cne)
            ledger.record(current, d, partner)
            passed.pop(couple, None)
        now = dict(ledger.pairs)
        if on_sweep is not None:
            on_sweep(_copy_allocation(current))
        if now == previous:
            return RenegotiationResult(allocation=current, sweeps=sweeps)
        previous = now
        sweeps += 1
    raise MatchGamesError("renegotiation did not converge within the sweep cap")


def _copy_allocation(allocation: Allocation) -> Allocation:
    return Allocation(
        matching=dict(allocation.matching),
        doctor_strategies=dict(allocation.doctor_strategies),
        hospital_strategies=dict(allocation.hospital_strategies),
        cycles=dict(allocation.cycles),
    )
