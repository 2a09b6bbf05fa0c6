"""Roommates matching games: demand sets, aspirations, and their realization.

A payoff profile assigns one value per doctor.  A doctor demands a partner
when the pair can realise exactly her value (for her); an aspiration makes
every doctor's value the best she can extract from her cheapest partner or
her IRP.  Realizing an aspiration means matching mutual demanders so nobody
above her IRP is left out, then constructing strategy profiles hitting the
values exactly.

Partnership values here are partial: bimatrix frontiers are bounded, so a
partner demanding more than her best attainable value supports nothing, and
one demanding less than her worst attainable value is lifted to it (the
demander keeps the surplus).  This clip is what bounded payoff matrices force
on the classical unbounded-transfer theory.  Every frontier question goes to
the queries of ``qcqp``, which answer it for each game class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from .core import (
    ROOMMATES,
    STRICTLY_COMPETITIVE,
    ZERO_SUM,
    Allocation,
    MatchingGameInstance,
    store_witness,
)
from .errors import (
    MatchGamesError,
    NotAnAspirationError,
    UnsupportedClassError,
)
from .qcqp import FrontierPoint, exact_point, frontier_witness, max_f_point

PayoffProfile = Dict[str, Fraction]


def partnership_value(instance: MatchingGameInstance, d: str, other: str,
                      partner_value: Fraction) -> Optional[Fraction]:
    """Best payoff d can reach while the partner gets at least her value.

    The partner's value is a floor for every game class.  None when it
    exceeds her best attainable payoff in this pair; a value below her
    worst attainable payoff binds nothing, so d keeps the surplus.
    """
    point = max_f_point(instance.game_for(d, other), partner_value)
    return None if point is None else point.f


def demand_set(instance: MatchingGameInstance, profile: PayoffProfile, d: str) -> Set[str]:
    """Partners with whom d can realise exactly her profile value.

    A partner qualifies when some profile of the pair pays d exactly her
    value and the partner exactly hers (:func:`qcqp.exact_point`): an
    interval test on the zero-sum image for the one-shot classes, an exact
    hull LP for the repeated class.  Partner values are floors in
    :func:`partnership_value` but exact here, since a realized pair pays
    both members their profile values.
    """
    return {other for other in instance.partner_options(d)
            if exact_point(instance.game_for(d, other), profile[d], profile[other]) is not None}


@dataclass
class DemandGraph:
    """Mutual demand between doctors: an edge per pair, keyed by its stored
    (sorted) ids, holding the frontier point that pays both members exactly
    their profile values."""

    vertices: List[str]
    points: Dict[Tuple[str, str], FrontierPoint]
    singleton_ok: Dict[str, bool]

    @property
    def edges(self):
        return self.points.keys()

    def neighbours(self, d: str) -> List[str]:
        out = [b for (a, b) in self.edges if a == d] + [a for (a, b) in self.edges if b == d]
        return sorted(out)


def build_demand_graph(instance: MatchingGameInstance, profile: PayoffProfile) -> DemandGraph:
    """The demand graph of a roommates profile.

    Demand is mutual: a pair's exact point pays both members their values
    whichever member asks, so each pair is asked once, in its stored
    orientation, and the point is kept to build the pair's witness.
    """
    points = {}
    for (a, b), game in instance.games.items():
        point = exact_point(game, profile[a], profile[b])
        if point is not None:
            points[(a, b)] = point
    singleton_ok = {d: profile[d] == instance.doctors[d].irp for d in instance.doctor_ids}
    return DemandGraph(vertices=list(instance.doctor_ids), points=points, singleton_ok=singleton_ok)


def is_aspiration(instance: MatchingGameInstance, profile: PayoffProfile):
    """Check the per-doctor max equation; returns (verdict, witness doctor)."""
    for d in instance.doctor_ids:
        if profile[d] != _aspiration_rhs(instance, profile, d):
            return False, d
    return True, None


# ---------------------------------------------------------------------------
# Aspiration solving (zero-sum / strictly competitive instances)


def _aspiration_rhs(instance, profile, d):
    best = instance.doctors[d].irp
    for other in instance.partner_options(d):
        u = partnership_value(instance, d, other, profile[other])
        if u is not None and u > best:
            best = u
    return best


def solve_aspiration_zero_sum(instance: MatchingGameInstance,
                              max_sweeps: int = 500) -> PayoffProfile:
    """An aspiration realizable by a matching whenever the stable set is non-empty.

    Two stages.  A Gauss-Seidel sweep of the max equation from the IRPs finds
    some aspiration fast, but it can land on an over-demanded one (a star of
    demands on a single cheap doctor) even when balanced aspirations exist.
    If the sweep's fixed point does not realize, an exact search over all
    matchings and critical payoff levels looks for a stable profile; by the
    equivalence of stable payoff profiles and realizable aspirations, finding
    none certifies the sweep result was as good as any.  The search covers
    zero-sum pairs only; with a strictly competitive pair the sweep's result
    is returned unsearched, and when the sweep finds none either, the answer
    is ``UnsupportedClassError`` rather than a claim that none exists.
    """
    if instance.model != ROOMMATES:
        raise UnsupportedClassError("aspiration solving applies to roommates instances")
    classes = {g.class_tag for g in instance.games.values()}
    if not classes <= {ZERO_SUM, STRICTLY_COMPETITIVE}:
        raise UnsupportedClassError(
            "closed-form aspiration solving needs zero-sum or strictly competitive pairs only"
        )
    profile = _sweep_aspiration(instance, max_sweeps)
    if profile is not None:
        candidate = realize_aspiration(instance, profile)
        if not isinstance(candidate, UnrealizableReport):
            return profile
    zero_sum_only = classes <= {ZERO_SUM}
    if zero_sum_only:
        stable = _stable_profile_search(instance)
        if stable is not None:
            return stable
    if profile is not None:
        return profile
    if not zero_sum_only:
        raise UnsupportedClassError(
            "the aspiration sweep found no fixed point, and the exact "
            "stable-profile search covers zero-sum pairs only"
        )
    # Degenerate constant-frontier pairs can empty the aspiration set
    # outright: values bounce between two anchor patterns forever.  The
    # classical equivalence of stable profiles and aspirations needs
    # strictly decreasing partnership functions, which flat frontiers break.
    raise MatchGamesError(
        "no aspiration fixed point exists: the max equation cycles between "
        "anchor patterns (degenerate constant-frontier pairs)"
    )


def _sweep_aspiration(instance, max_sweeps):
    profile = {d: instance.doctors[d].irp for d in instance.doctor_ids}
    seen = {}
    states = []
    for sweep in range(max_sweeps):
        changed = False
        for d in instance.doctor_ids:
            target = _aspiration_rhs(instance, profile, d)
            if target != profile[d]:
                profile[d] = target
                changed = True
        if not changed:
            ok, _ = is_aspiration(instance, profile)
            if ok:
                return dict(profile)
            break
        key = tuple(profile[d] for d in instance.doctor_ids)
        if key in seen:
            break
        seen[key] = sweep
        states.append(dict(profile))

    for candidate in _cycle_restart_candidates(instance, states):
        ok, _ = is_aspiration(instance, candidate)
        if ok:
            return candidate
    return None


def _stable_profile_search(instance) -> Optional[PayoffProfile]:
    """Exact search for a stable payoff profile of a zero-sum roommates instance.

    Each matched pair contributes one share variable (its earlier member's
    payoff; the partner takes its negation).  Feasible regions are cut out by
    interval bounds and open blocking constraints whose boundaries all sit on
    a finite, negation-closed critical set, so a solvable matching has a
    solution with every share on that set.

    The search runs on ranks: level ``i`` is the i-th smallest critical
    value, and the rank of its negation is ``top - i``.  The set holds every
    IRP and every stored game's bounds with their negations, hence also the
    bounds of flipped views, and ranking preserves order, so each blocking
    test gives the verdict it gives on the values.  A share domain is a bit
    mask over ranks.  The mask of a pair (a, b) against a single s holds the
    shares v at which neither a at v nor b at -v blocks with s; a pair's
    domain is its interval mask ANDed with its masks against every single.

    Doctors are decided in ``doctor_ids`` order, the head first single, then
    paired with each later doctor in turn, which visits matchings in the
    order of :func:`~matchgames.stability.all_matchings`.  A new single must
    not block with an earlier one and narrows every placed pair's domain; a
    new pair starts from its interval and is narrowed by the singles so far.
    A branch is cut as soon as a domain is empty, which drops only matchings
    with no stable share assignment.  The matchings that survive are visited
    in enumeration order, each with the domains an enumeration would compute,
    and shares are assigned in the same order, so the first profile found is
    the one the full enumeration finds first.  (A blocking pair already fails
    the aspiration equation tested at each leaf, so blocking tests only
    prune; but domain sizes set the assignment order, so the masks must be
    exactly the enumeration's.)
    """
    return _LevelSearch(instance).place(instance.doctor_ids, [], [])


class _LevelSearch:
    """Rank tables and masks of one stable-profile search.

    ``free(u, s)`` is memoised per (doctor, single); the mask of a pair
    (a, b) against s is a's mask at v ANDed with b's at -v.
    """

    def __init__(self, instance):
        self.instance = instance
        critical = {Fraction(0)}
        for d in instance.doctor_ids:
            critical.update((instance.doctors[d].irp, -instance.doctors[d].irp))
        for game in instance.games.values():
            lo, hi = game.frontier.a_min, game.frontier.a_max
            critical.update((lo, -lo, hi, -hi))
        self.levels = sorted(critical)
        rank = {v: i for i, v in enumerate(self.levels)}
        self.top = len(self.levels) - 1
        self.irp = {d: rank[instance.doctors[d].irp] for d in instance.doctor_ids}
        # (u, v) -> rank bounds of u's payoff in the game oriented to u; absent
        # when u and v have no game.
        self.bounds = {}
        for d in instance.doctor_ids:
            for other in instance.partner_options(d):
                fr = instance.game_for(d, other).frontier
                self.bounds[d, other] = (rank[fr.a_min], rank[fr.a_max])
        self._free = {}

    def blocks(self, u, f_u, v, f_v):
        """Do u at rank ``f_u`` and v at rank ``f_v`` block together?"""
        bounds = self.bounds.get((u, v))
        if bounds is None:
            return False
        lo, hi = bounds
        # They block when the open interval (f_u, -f_v) meets u's [lo, hi].
        left = max(f_u, lo)
        right = min(self.top - f_v, hi)
        return left < right or (left == right and f_u < left < self.top - f_v)

    def free(self, u, s):
        """Masks of the ranks v at which u at v, and u at -v, does not block
        with the single s."""
        masks = self._free.get((u, s))
        if masks is None:
            at, at_neg = 0, 0
            for v in range(self.top + 1):
                if not self.blocks(u, v, s, self.irp[s]):
                    at |= 1 << v
                    at_neg |= 1 << (self.top - v)
            masks = self._free[u, s] = (at, at_neg)
        return masks

    def pair_mask(self, a, b, s):
        """Shares of a (b takes the negation) at which neither blocks with s."""
        return self.free(a, s)[0] & self.free(b, s)[1]

    def interval(self, a, b):
        """Shares of a inside the pair's attainable interval and both IRPs;
        0 when a and b have no game."""
        bounds = self.bounds.get((a, b))
        if bounds is None:
            return 0
        lo = max(bounds[0], self.irp[a])
        hi = min(bounds[1], self.top - self.irp[b])
        return (1 << (hi + 1)) - (1 << lo) if lo <= hi else 0

    def place(self, undecided, singles, pairs):
        """Decide ``undecided`` in order; ``pairs`` holds (a, b, domain)."""
        if not undecided:
            # Smallest domains first; the sort is stable, so ties keep the
            # order in which the pairs were placed.
            domains = sorted(pairs, key=lambda item: item[2].bit_count())
            return self.assign(domains, {d: self.irp[d] for d in singles}, [])
        head, rest = undecided[0], undecided[1:]
        if not any(self.blocks(head, self.irp[head], s, self.irp[s]) for s in singles):
            narrowed = []
            for a, b, domain in pairs:
                domain &= self.pair_mask(a, b, head)
                if not domain:
                    break
                narrowed.append((a, b, domain))
            else:
                hit = self.place(rest, singles + [head], narrowed)
                if hit is not None:
                    return hit
        for i, partner in enumerate(rest):
            domain = self.interval(head, partner)
            for s in singles:
                if not domain:
                    break
                domain &= self.pair_mask(head, partner, s)
            if domain:
                hit = self.place(rest[:i] + rest[i + 1:], singles, pairs + [(head, partner, domain)])
                if hit is not None:
                    return hit
        return None

    def assign(self, domains, values, placed):
        """Give each pair in ``domains`` a share, smallest rank first, such
        that no two placed pairs block; ``values`` holds ranks."""
        if not domains:
            # Stability alone can leave boundary slack (a doctor could match a
            # zero-gain partner for strictly more); insist on the tight equation.
            profile = {d: self.levels[r] for d, r in values.items()}
            ok, _ = is_aspiration(self.instance, profile)
            return profile if ok else None
        a, b, domain = domains[0]
        while domain:
            low = domain & -domain
            domain ^= low
            values[a] = v = low.bit_length() - 1
            values[b] = self.top - v
            if not any(self.blocks(u, values[u], w, values[w])
                       for u in (a, b) for w in placed):
                hit = self.assign(domains[1:], values, placed + [a, b])
                if hit is not None:
                    return hit
        del values[a], values[b]
        return None


def _cycle_restart_candidates(instance, states):
    """Fixed-point candidates harvested from a non-converging sweep."""
    if not states:
        return
    tail = states[-min(len(states), 8):]
    doctors = instance.doctor_ids
    mids = {d: sum((s[d] for s in tail), Fraction(0)) / len(tail) for d in doctors}
    lows = {d: min(s[d] for s in tail) for d in doctors}
    highs = {d: max(s[d] for s in tail) for d in doctors}
    for base in (mids, lows, highs):
        profile = dict(base)
        # Re-sweep from the harvested point; a few passes settle or fail fast.
        for _ in range(50):
            changed = False
            for d in doctors:
                target = _aspiration_rhs(instance, profile, d)
                if target != profile[d]:
                    profile[d] = target
                    changed = True
            if not changed:
                break
        yield profile


# ---------------------------------------------------------------------------
# Realization


@dataclass
class UnrealizableReport:
    """Witness that no matching implements the profile: a doctor above her IRP
    left exposed, together with the demand-graph component she sits in."""

    exposed_doctor: str
    component: Tuple[str, ...]
    message: str = ""


def realize_aspiration(instance: MatchingGameInstance, profile: PayoffProfile):
    """Match mutual demanders and build exact strategy profiles for the values.

    Every doctor strictly above her IRP must be matched inside the demand
    graph; doctors at their IRP may stay single.  Returns an Allocation or an
    UnrealizableReport naming an exposed doctor (odd components are the
    classical obstruction).
    """
    ok, witness = is_aspiration(instance, profile)
    if not ok:
        raise NotAnAspirationError(f"profile fails the max equation at doctor {witness}")
    graph = build_demand_graph(instance, profile)
    must_match = [d for d in graph.vertices if not graph.singleton_ok[d]]
    matching = _cover_matching(graph, must_match)
    if matching is None:
        exposed, component = _exposed_witness(graph, must_match)
        return UnrealizableReport(
            exposed_doctor=exposed,
            component=component,
            message="demand graph admits no matching covering all doctors above their IRP",
        )
    allocation = Allocation(matching={d: None for d in graph.vertices})
    for a, b in matching:
        allocation.matching[a] = b
        allocation.matching[b] = a
        # (a, b) is a demand-graph edge, in stored order, whose exact point
        # pays both their values.
        witness = frontier_witness(instance.games[(a, b)], graph.points[(a, b)])
        store_witness(instance, allocation, a, b, witness)
    return allocation


def _cover_matching(graph: DemandGraph, must_match: List[str]):
    """Deterministic search for a matching covering ``must_match``; None if impossible."""
    order = sorted(must_match)

    def rec(pending, used, acc):
        if not pending:
            return list(acc)
        d = pending[0]
        if d in used:
            return rec(pending[1:], used, acc)
        for partner in graph.neighbours(d):
            if partner in used:
                continue
            acc.append(tuple(sorted((d, partner))))
            hit = rec(pending[1:], used | {d, partner}, acc)
            if hit is not None:
                return hit
            acc.pop()
        return None

    return rec(order, set(), [])


def _exposed_witness(graph: DemandGraph, must_match: List[str]):
    # Components of the demand graph restricted to the must-match set explain
    # the failure: some component cannot internally pair all its members.
    for d in sorted(must_match):
        component = _component_of(graph, d)
        hard = [v for v in component if not graph.singleton_ok[v]]
        if _cover_matching(graph, hard) is None:
            return d, tuple(sorted(component))
    # Fall back to the first must-match doctor (isolated vertex case).
    d = sorted(must_match)[0]
    return d, tuple(sorted(_component_of(graph, d)))


def _component_of(graph: DemandGraph, start: str):
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for u in graph.neighbours(v):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen
