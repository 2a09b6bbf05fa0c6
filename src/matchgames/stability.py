"""Stability oracles: blocking pairs, blocking coalitions, renegotiation proofness.

Zero-sum and strictly competitive pairs are audited through exact tests on
the pair's payoff segment, in integers, repeated pairs through exact clips
of the payoff polygon, and the enumerated model through direct table
scans.  Grid methods are tagged approximate and any witness they produce is
replayed exactly before being reported.

The oracles share two pieces with the solvers: the frontier queries of
``qcqp`` (``max_f_point``, ``max_g_point`` and ``pays_above``, over the
segment or the polygon that ``BimatrixGame.frontier`` holds) and the profile
builder ``qcqp.achieve_value_zero_sum``, which hits a doctor payoff on A.
Sharing them is sound because the frontier's construction checks, entry by
entry, that every (A[i][j], M[i][j]) lies on the segment's line: so every
profile pays a point of the segment, the segment's points are payoffs the
matrices attain, and a profile hitting a doctor payoff on A pays the
partner the line's value there.  A blocking coalition at an additive
hospital is decided by sorting its doctors' frontier suprema, with no
enumeration of coalitions and no cap, and each member of a witness is
realised by the pair oracle's block profile.  Every blocking-pair and
coalition witness is replayed in the original matrices before it is
reported, and the renegotiation check delegates to the CNE
characterisation in ``renegotiation``.  The enumerated model's core
enumeration, a reference oracle built on this module's coalition scan,
lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .core import (
    ADDITIVE_SEPARABLE,
    FRONTIER_CLASSES,
    GENERAL,
    GENERAL_ENUMERATED,
    NEG_INF,
    REPEATED,
    ROOMMATES,
    STRICTLY_COMPETITIVE,
    ZERO_SUM,
    BimatrixGame,
    PayoffReport,
    bilinear,
    evaluate_payoffs,
    seat_floor,
    witness_payoffs,
)
from .errors import MatchGamesError, UnsupportedClassError
from .qcqp import achieve_value_zero_sum, max_f_point, max_g_point, max_g_value, pays_above, simplex_grid

EXACT_INTERVAL = "exact_interval"
EXACT_HULL = "exact_hull"
EXACT_TABLE = "exact_table"

# The exact method deciding a pair of each class in ``core.FRONTIER_CLASSES``.
CLASS_METHODS = {ZERO_SUM: EXACT_INTERVAL, STRICTLY_COMPETITIVE: EXACT_INTERVAL, REPEATED: EXACT_HULL}


def grid_method(mesh: int) -> str:
    return f"grid(1/{mesh})"


@dataclass
class BlockingPairWitness:
    doctor: str
    partner: str
    doctor_gain: Fraction
    partner_gain: Fraction
    method: str
    x: Optional[Tuple[Fraction, ...]] = None
    y: Optional[Tuple[Fraction, ...]] = None
    cycle_distribution: Optional[dict] = None


@dataclass
class BlockingCoalitionWitness:
    doctors: Tuple[str, ...]
    hospital: str
    method: str
    profiles: Dict[str, Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]] = field(default_factory=dict)
    hospital_gain: Optional[Fraction] = None
    # Per repeated-class member: the hull distribution her cycle realises
    # (her ``profiles`` entry is then (None, None)).
    cycle_distributions: Dict[str, dict] = field(default_factory=dict)


@dataclass
class StabilityReport:
    individually_rational: bool
    ir_witness: Optional[str]
    blocking_pair: Optional[BlockingPairWitness]
    blocking_coalition: Optional[BlockingCoalitionWitness]
    renegotiation_proof: Optional[bool] = None
    renegotiation_witness: Optional[str] = None
    methods: Dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Individual rationality


def check_individual_rationality(instance, allocation, epsilon: Fraction,
                                 payoffs: Optional[PayoffReport] = None):
    """No agent may sit more than epsilon below its IRP.

    Hospital rationality is per seat: every seat contribution must reach the
    hospital's baseline minus epsilon (the baseline is the hospital's outside
    option for one position, which is also the free-seat blocking threshold).
    """
    report = payoffs or evaluate_payoffs(instance, allocation)
    for d, doc in instance.doctors.items():
        if report.doctor_payoffs[d] < doc.irp - epsilon:
            return False, f"doctor {d} below IRP"
    for h, hosp in instance.hospitals.items():
        value = report.hospital_payoffs[h]
        if value is NEG_INF:
            return False, f"hospital {h} over quota"
        if instance.model == GENERAL_ENUMERATED:
            if allocation.hospital_members(h) and value < hosp.irp - epsilon:
                return False, f"hospital {h} below IRP"
            continue
        for d in report.members.get(h, ()):
            if report.seat_values[(h, d)] < hosp.irp - epsilon:
                return False, f"hospital {h} seat {d} below the per-seat baseline"
    return True, None


# ---------------------------------------------------------------------------
# Pair blocking


def _open_interval_point(lo: Fraction, hi: Fraction, lo_cap: Fraction, hi_cap: Fraction):
    """A point of (lo, hi) within [lo_cap, hi_cap], or None.

    The open bounds are the strict blocking thresholds; the caps are the
    attainable payoff interval.
    """
    if lo >= hi:
        return None
    left = max(lo, lo_cap)
    right = min(hi, hi_cap)
    if left > right:
        return None
    if left < right:
        return (left + right) / 2
    # Single candidate point: admissible only if strictly inside (lo, hi).
    if lo < left < hi:
        return left
    return None


def _pair_block_profile(game: BimatrixGame, f_floor: Fraction, g_floor: Fraction,
                        grid_mesh: int = 8):
    """A profile with doctor payoff > f_floor and partner payoff > g_floor.

    Returns (x, y, cycle_lambda, method) or None when no such profile exists.
    Exact for the three structured classes, grid-based otherwise.
    """
    a, m = game.doctor_matrix, game.hospital_matrix
    if game.class_tag == GENERAL:
        # Strategic pair: grid scan, exact arithmetic at every grid point.
        for x in simplex_grid(game.n_rows, grid_mesh):
            for y in simplex_grid(game.n_cols, grid_mesh):
                if bilinear(x, a, y) > f_floor and bilinear(x, m, y) > g_floor:
                    return x, y, None, grid_method(grid_mesh)
        return None
    fr = game.frontier
    if fr.segment is not None:
        if not pays_above(game, f_floor, g_floor):
            return None
        # A block exists: its profile pays the doctor a point of the open
        # interval (f_floor, f_cap), where the line pays exactly g_floor at
        # f_cap.
        gn, gd = g_floor.as_integer_ratio()
        p, q, r = fr.segment[4:]
        f_cap = Fraction(p * gd - r * gn, q * gd)
        point = _open_interval_point(f_floor, f_cap, fr.a_min, fr.a_max)
        x, y, _ = achieve_value_zero_sum(a, point)
        return x, y, None, EXACT_INTERVAL
    best_f = max_f_point(game, g_floor)
    if best_f is None or best_f.f <= f_floor:
        return None
    best_g = max_g_point(game, f_floor)
    if best_g is None or best_g.g <= g_floor:
        return None
    mix = {}
    for cell, w in (*best_f.lam.items(), *best_g.lam.items()):
        mix[cell] = mix.get(cell, Fraction(0)) + w / 2
    f_mid, g_mid = witness_payoffs(a, m, cells=mix)
    if f_mid > f_floor and g_mid > g_floor:
        return None, None, mix, EXACT_HULL
    return None


def find_blocking_pair(instance, allocation, epsilon: Fraction, grid_mesh: int = 8,
                       payoffs: Optional[PayoffReport] = None) -> Optional[BlockingPairWitness]:
    """First pair able to rematch with both sides gaining strictly more than epsilon."""
    payoffs = payoffs or evaluate_payoffs(instance, allocation)
    if instance.model == GENERAL_ENUMERATED:
        witness = _enumerated_blocking_coalition(instance, allocation, payoffs, epsilon, max_size=1)
        if witness is None:
            return None
        d = witness.doctors[0]
        members = frozenset(witness.doctors)
        new_f = instance.coalition_doctor_payoffs[(d, members, witness.hospital)]
        current_g = payoffs.hospital_payoffs[witness.hospital]
        new_g = instance.coalition_hospital_payoffs[(members, witness.hospital)]
        return BlockingPairWitness(
            doctor=d,
            partner=witness.hospital,
            doctor_gain=new_f - payoffs.doctor_payoffs[d],
            partner_gain=(new_g - current_g) if current_g is not NEG_INF else new_g,
            method=EXACT_TABLE,
        )
    # What a blocking profile must strictly beat, taken once per agent: each
    # doctor's floor, her payoff plus epsilon, and each partner's bar, a
    # roommate's floor or a hospital's weakest seat (its baseline while a
    # seat is free) plus epsilon.
    floors = {d: f + epsilon for d, f in payoffs.doctor_payoffs.items()}
    two_sided = instance.model != ROOMMATES
    bars = {h: seat_floor(hosp, payoffs.members.get(h, ()), payoffs.seat_values) + epsilon
            for h, hosp in instance.hospitals.items()} if two_sided else floors
    for d in instance.doctor_ids:
        f_bar = floors[d]
        mine = allocation.matching.get(d)
        for partner, game in instance.pairs_of(d):
            # A matched pair is checked against itself too: a joint move that
            # strictly improves both sides is a blocking deviation, and the
            # hospital's side of it is the pair's own seat.
            if two_sided and partner == mine:
                g_bar = payoffs.seat_values[(partner, d)] + epsilon
            else:
                g_bar = bars[partner]
            found = _pair_block_profile(game, f_bar, g_bar, grid_mesh=grid_mesh)
            if found is None:
                continue
            x, y, lam, method = found
            f_new, g_new = witness_payoffs(game.doctor_matrix, game.hospital_matrix, x, y, lam)
            # Witness replay: the claimed strict gains must re-evaluate exactly.
            if not (f_new > f_bar and g_new > g_bar):
                raise MatchGamesError("blocking witness failed exact replay")
            return BlockingPairWitness(
                doctor=d,
                partner=partner,
                doctor_gain=f_new - payoffs.doctor_payoffs[d],
                partner_gain=g_new - (g_bar - epsilon),
                method=method,
                x=x,
                y=y,
                cycle_distribution=lam,
            )
    return None


# ---------------------------------------------------------------------------
# Coalition blocking


def find_blocking_coalition(instance, allocation, epsilon: Fraction,
                            max_coalition_size: int = 5,
                            payoffs: Optional[PayoffReport] = None,
                            ) -> Optional[BlockingCoalitionWitness]:
    """The first coalition (I, h) of at most ``max_coalition_size`` doctors
    all of whose members gain > epsilon, or None.

    Additive separability reduces the question to per-doctor frontier
    suprema: a size holds a blocker at h iff its largest suprema sum above
    h's payoff plus epsilon, and the witness is the first team of the first
    such size in ``itertools.combinations`` order (:func:`_first_team`); an
    over-quota hospital's first eligible doctor blocks it alone.  Suprema
    stay integer ratios (``qcqp.max_g_value``) until a team exists.  The
    enumerated model scans its explicit tables.  A pair of a class without an
    exact frontier (``general``) is refused with ``UnsupportedClassError``
    before any pair is priced.
    """
    payoffs = payoffs or evaluate_payoffs(instance, allocation)
    if instance.model == GENERAL_ENUMERATED:
        return _enumerated_blocking_coalition(
            instance, allocation, payoffs, epsilon, max_size=max_coalition_size
        )
    if instance.model != ADDITIVE_SEPARABLE:
        raise UnsupportedClassError("coalition scan applies to additive separable or enumerated models")
    for (d, h), game in sorted(instance.games.items()):
        if game.class_tag not in FRONTIER_CLASSES:
            raise UnsupportedClassError(
                f"coalition check: pair ({d}, {h}) has class {game.class_tag}, which has no"
                f" exact frontier to price; coalitions need {', '.join(sorted(FRONTIER_CLASSES))} pairs")

    floors = {d: f + epsilon for d, f in payoffs.doctor_payoffs.items()}
    for h in instance.hospital_ids:
        current = payoffs.hospital_payoffs[h]
        # sup of h's seat value over profiles paying d strictly above her
        # floor; unattained sups still decide strict sums.
        eligible = [(d, sup) for d, game in instance.pairs_at(h)
                    if (sup := max_g_value(game, floors[d], True)) is not None]
        max_size = min(max_coalition_size, instance.hospitals[h].quota, len(eligible))
        if current is NEG_INF:
            team = [0] if max_size > 0 else []
        else:
            size = _team_size([sup for _, sup in eligible], max_size, current + epsilon)
            sups = [Fraction(*sup) for _, sup in eligible] if size else []
            team = _first_team(sups, size, current + epsilon)
        if team:
            members = [(eligible[i][0], Fraction(*eligible[i][1])) for i in team]
            return _realise_coalition(instance, floors, members, h, current, epsilon)
    return None


def _team_size(sups, max_size, bar):
    """The least size, up to ``max_size``, whose largest ``sups`` (integer
    ratios, ranked by cross products) sum above ``bar``, or 0."""
    top = []  # the largest sups, descending
    for n, q in sups:
        k = len(top)
        while k and n * top[k - 1][1] > top[k - 1][0] * q:
            k -= 1
        if k < max_size:
            top[k:] = [(n, q), *top[k:max_size - 1]]
    total = Fraction(0)
    for size, sup in enumerate(top, 1):
        total += Fraction(*sup)
        if total > bar:
            return size
    return 0


def _first_team(sups, size, bar):
    """The first index tuple of ``size`` sups, in ``itertools.combinations``
    order, that sums above ``bar``, when some tuple does (none for size 0).

    Each slot takes the smallest index whose sup, plus the sups picked, plus
    the largest sups after it that can fill the remaining slots, clears the
    bar: O(n * size^2) in all.
    """
    team, picked = [], 0
    for rest in range(size - 1, -1, -1):
        start = team[-1] + 1 if team else 0
        # after[k]: the sum of the ``rest`` largest sups past index start + k,
        # or None when fewer follow it.
        after, top = [], []
        for value in reversed(sups[start:]):
            after.append(sum(top) if len(top) == rest else None)
            insort(top, value)
            if len(top) > rest:
                del top[0]
        after.reverse()
        i = next(start + k for k, tail in enumerate(after)
                 if tail is not None and picked + sups[start + k] + tail > bar)
        team.append(i)
        picked += sups[i]
    return team


def _realise_coalition(instance, floors, team, h, current, epsilon):
    """The witness of ``team``, its (doctor, sup) pairs at h, replayed exactly.

    Each member's profile, from the pair oracle, pays her above her floor and
    h above her sup less an equal share of the team's margin over h's bar
    (its payoff plus epsilon; 1 when h is over quota), so the seat values
    sum above the bar.
    """
    bar = None if current is NEG_INF else current + epsilon
    margin = 1 if bar is None else sum(sup for _, sup in team) - bar
    profiles, lams, methods, total, below = {}, {}, set(), Fraction(0), False
    for d, sup in team:
        game = instance.game_for(d, h)
        found = _pair_block_profile(game, floors[d], sup - margin / len(team))
        if found is None:
            raise MatchGamesError(f"no profile realises coalition member {d} at {h}")
        x, y, lam, method = found
        f, g = witness_payoffs(game.doctor_matrix, game.hospital_matrix, x, y, lam)
        below |= not f > floors[d]
        profiles[d] = (x, y)
        if lam is not None:
            lams[d] = lam
        methods.add(method)
        total += g
    if below or (bar is not None and not total > bar):
        raise MatchGamesError("coalition witness failed exact replay")
    return BlockingCoalitionWitness(
        doctors=tuple(d for d, _ in team),
        hospital=h,
        method=_label(methods, EXACT_INTERVAL),
        profiles=profiles,
        hospital_gain=None if bar is None else total - current,
        cycle_distributions=lams,
    )


def _enumerated_blocking_coalition(instance, allocation, payoffs, epsilon, max_size):
    # Enumerated-model convention: every doctor in the coalition gains
    # strictly (by more than epsilon) while the hospital gains weakly.  With
    # the hospital also required to gain strictly, null-payoff hospitals
    # (hedonic and roommates encodings) could never block anything.
    for (members, h), g_value in sorted(
        instance.coalition_hospital_payoffs.items(), key=lambda kv: (len(kv[0][0]), sorted(kv[0][0]), kv[0][1])
    ):
        if len(members) > max_size or len(members) > instance.hospitals[h].quota:
            continue
        current_g = payoffs.hospital_payoffs[h]
        if current_g is not NEG_INF and not g_value >= current_g:
            continue
        if all(
            instance.coalition_doctor_payoffs[(d, members, h)] > payoffs.doctor_payoffs[d] + epsilon
            for d in members
        ):
            return BlockingCoalitionWitness(
                doctors=tuple(sorted(members)), hospital=h, method=EXACT_TABLE
            )
    return None


# ---------------------------------------------------------------------------
# Renegotiation proofness (delegates the CNE characterisation checks)


def verify_renegotiation_proof(instance, allocation, epsilon: Fraction,
                               payoffs: Optional[PayoffReport] = None):
    """Every couple must play a CNE for its freshly recomputed reservations.

    Each couple is read once, by ``evaluate_payoffs`` (or taken from
    ``payoffs``, its report of this allocation), for the ledger and its own
    check; its reservations are what ``reservation_payoffs`` would return.
    """
    from .renegotiation import _PayoffLedger, cne_verdict

    payoffs = payoffs or evaluate_payoffs(instance, allocation)
    ledger = _PayoffLedger(instance, allocation, epsilon, payoffs)
    for (d, partner), couple in payoffs.couples.items():
        ok, witness = cne_verdict(couple, ledger.reservations(d, partner), epsilon)
        if not ok:
            return False, f"couple ({d},{partner}): {witness}"
    return True, None


def full_report(instance, allocation, epsilon: Fraction,
                coalition_size: Optional[int] = None,
                grid_mesh: int = 8,
                check_renegotiation: bool = True) -> StabilityReport:
    """Every requested check, all reading one evaluation of the payoffs."""
    payoffs = evaluate_payoffs(instance, allocation)
    ir_ok, ir_witness = check_individual_rationality(instance, allocation, epsilon, payoffs)
    pair = find_blocking_pair(instance, allocation, epsilon, grid_mesh=grid_mesh, payoffs=payoffs)
    coalition = None
    if coalition_size and instance.model in (ADDITIVE_SEPARABLE, GENERAL_ENUMERATED):
        coalition = find_blocking_coalition(instance, allocation, epsilon, coalition_size,
                                            payoffs=payoffs)
    reneg_ok = reneg_witness = None
    if check_renegotiation and instance.model != GENERAL_ENUMERATED:
        try:
            reneg_ok, reneg_witness = verify_renegotiation_proof(instance, allocation, epsilon,
                                                                 payoffs)
        except UnsupportedClassError as exc:
            reneg_ok, reneg_witness = None, f"unsupported: {exc}"
    grid = grid_method(grid_mesh)
    methods = {"pair": pair.method if pair else _label(
        (CLASS_METHODS.get(g.class_tag, grid) for g in instance.games.values()), EXACT_TABLE)}
    if coalition is not None:
        methods["coalition"] = coalition.method
    elif coalition_size:
        # No witness: the scan priced every game of the instance.
        methods["coalition"] = _label(
            (CLASS_METHODS.get(g.class_tag, EXACT_INTERVAL) for g in instance.games.values()),
            EXACT_TABLE if instance.model == GENERAL_ENUMERATED else EXACT_INTERVAL)
    if reneg_ok is not None:
        # A one-shot couple's CNE check is closed form; a repeated one's reads
        # its hull polygon.
        methods["renegotiation"] = _label(
            (CLASS_METHODS.get(c.game.class_tag, EXACT_INTERVAL) for c in payoffs.couples.values()),
            EXACT_INTERVAL)
    return StabilityReport(
        individually_rational=ir_ok,
        ir_witness=ir_witness,
        blocking_pair=pair,
        blocking_coalition=coalition,
        renegotiation_proof=reneg_ok,
        renegotiation_witness=reneg_witness,
        methods=methods,
    )


def _label(methods, default: str) -> str:
    """The distinct methods, sorted and joined by "/", or ``default`` if none."""
    return "/".join(sorted(set(methods))) or default


# ---------------------------------------------------------------------------
# Grid brute force over roommates allocations


def all_matchings(items: List[str]):
    """All partitions of ``items`` into pairs and singletons."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in all_matchings(rest):
        yield [(head, None)] + sub
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for sub in all_matchings(remaining):
            yield [(head, partner)] + sub


def grid_stable_roommates_search(instance, mesh: int = 16,
                                 tolerance: Fraction = Fraction(0)):
    """Search all matchings x per-pair value grids for a tolerance-stable allocation.

    Zero-sum and strictly competitive pairs only: the Pareto frontier is one
    dimensional, so profiles reduce to a grid of its points
    (:func:`_value_grid`).  Returns (matching, payoffs) of the first allocation without a
    blocking pair gaining more than ``tolerance`` on both sides, else None.
    """
    if instance.model != ROOMMATES:
        raise UnsupportedClassError("grid search is a roommates oracle")
    doctors = instance.doctor_ids
    intervals = {}
    for key, game in instance.games.items():
        if game.class_tag not in (ZERO_SUM, STRICTLY_COMPETITIVE):
            raise UnsupportedClassError("grid oracle handles zero-sum and strictly competitive pairs")
        intervals[key] = _value_grid(game, mesh)

    for matching in all_matchings(list(doctors)):
        pairs = [(a, b) for a, b in matching if b is not None]
        if any(not instance.has_game(a, b) for a, b in pairs):
            continue
        singles = [a for a, b in matching if b is None]
        choice_sets = [intervals[instance.pair_key(a, b)] for a, b in pairs]

        def rec(idx, payoffs):
            if idx == len(pairs):
                for d in singles:
                    payoffs[d] = instance.doctors[d].irp
                if _grid_alloc_is_stable(instance, payoffs, tolerance):
                    return dict(payoffs)
                return None
            a, b = pairs[idx]
            for f_val, g_val in choice_sets[idx]:
                payoffs[a], payoffs[b] = f_val, g_val
                hit = rec(idx + 1, payoffs)
                if hit is not None:
                    return hit
            return None

        hit = rec(0, {})
        if hit is not None:
            return matching, hit
    return None


def _value_grid(game, mesh):
    """mesh + 1 evenly spaced payoff pairs (f, g) of a one-shot game's
    segment, from (a_min, m_max) to (a_max, m_min), or its one point."""
    fr = game.frontier
    if fr.a_min == fr.a_max:
        return [(fr.a_min, fr.m_max)]
    p, q, r = fr.segment[4:]
    points = [fr.a_min + (fr.a_max - fr.a_min) * Fraction(k, mesh) for k in range(mesh + 1)]
    return [(f, (p - q * f) / r) for f in points]


def _grid_alloc_is_stable(instance, payoffs, tolerance):
    for d, e in combinations(instance.doctor_ids, 2):
        if not instance.has_game(d, e):
            continue
        if payoffs[d] < instance.doctors[d].irp - tolerance:
            return False
        game = instance.game_for(d, e)
        if _pair_block_profile(game, payoffs[d] + tolerance, payoffs[e] + tolerance) is not None:
            return False
    for d in instance.doctor_ids:
        if payoffs[d] < instance.doctors[d].irp - tolerance:
            return False
    return True
