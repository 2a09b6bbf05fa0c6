"""Roommates matching games: demand sets, aspirations, and their realization.

A payoff profile assigns one value per doctor.  A doctor demands a partner
when the pair can realise exactly her value (for her); an aspiration makes
every doctor's value the best she can extract from her cheapest partner or
her IRP.  Realizing an aspiration means matching mutual demanders so nobody
above her IRP is left out, then constructing strategy profiles hitting the
values exactly.  A zero-sum instance is decided by an exact search for a
stable profile; the Gauss-Seidel sweep of the max equation serves strictly
competitive pairs, and the case the search certifies empty.

Partnership values here are partial: bimatrix frontiers are bounded, so a
partner demanding more than her best attainable value supports nothing, and
one demanding less than her worst attainable value is lifted to it (the
demander keeps the surplus).  This clip is what bounded payoff matrices force
on the classical unbounded-transfer theory.  Every frontier question goes to
the queries of ``qcqp``, which answer it for each game class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from .core import (
    ROOMMATES,
    STRICTLY_COMPETITIVE,
    ZERO_SUM,
    Allocation,
    BimatrixGame,
    MatchingGameInstance,
    store_witness,
)
from .errors import (
    MatchGamesError,
    NotAnAspirationError,
    UnsupportedClassError,
)
from .qcqp import FrontierPoint, exact_point, frontier_witness, max_f_point, max_f_value

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
    clip of the hull polygon for the repeated class.  Partner values are
    floors in :func:`partnership_value` but exact here, since a realized
    pair pays both members their profile values.
    """
    return {other for other, game in instance.pairs_of(d)
            if exact_point(game, profile[d], profile[other]) is not None}


@dataclass
class DemandGraph:
    """Mutual demand between doctors: an edge per pair, keyed by its stored
    (sorted) ids, holding the frontier point that pays both members exactly
    their profile values.  Each doctor's sorted neighbours are listed once,
    on construction."""

    vertices: List[str]
    points: Dict[Tuple[str, str], FrontierPoint]
    singleton_ok: Dict[str, bool]
    adjacency: Dict[str, List[str]] = field(init=False, repr=False)

    def __post_init__(self):
        self.adjacency = {d: [] for d in self.vertices}
        for a, b in self.points:
            self.adjacency[a].append(b)
            self.adjacency[b].append(a)
        for out in self.adjacency.values():
            out.sort()

    def neighbours(self, d: str) -> List[str]:
        return self.adjacency[d]

    def must_match(self) -> List[str]:
        """Doctors above their IRP, who cannot stay single."""
        return [d for d in self.vertices if not self.singleton_ok[d]]


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
    witness = _untight_doctor(_partner_table(instance), profile)
    return witness is None, witness


# ---------------------------------------------------------------------------
# Aspiration solving (zero-sum / strictly competitive instances)


PartnerTable = List[Tuple[str, Fraction, List[Tuple[str, BimatrixGame]]]]


def _partner_table(instance: MatchingGameInstance) -> PartnerTable:
    """One row per doctor, in ``doctor_ids`` order: the doctor, her IRP, and
    her partners, each with the pair's game oriented to her.

    Built once per public call and passed down, never kept on the instance,
    whose games a caller may change between calls.
    """
    partners = {d: [] for d in instance.doctor_ids}
    for (a, b), game in instance.games.items():
        partners[a].append((b, game))
        partners[b].append((a, game.flipped))
    return [(d, instance.doctors[d].irp, partners[d]) for d in instance.doctor_ids]


def _aspiration_rhs(partners, profile, irp):
    """The right side of a doctor's max equation: her best partnership value
    over ``partners``, or her IRP when none beats it.

    Values are compared as the integer (numerator, denominator) pairs of
    :func:`qcqp.max_f_value`, by cross products; a Fraction is built only
    for a value that beats the IRP, and the IRP object is returned as is.
    """
    bn, bd = irp.as_integer_ratio()
    best = None
    for other, game in partners:
        value = max_f_value(game, profile[other])
        if value is not None and value[0] * bd > bn * value[1]:
            bn, bd = best = value
    return irp if best is None else Fraction(bn, bd)


def _untight_doctor(table, profile) -> Optional[str]:
    """The first doctor whose value differs from her max equation's right
    side, or None when the profile is an aspiration."""
    for d, irp, partners in table:
        if profile[d] != _aspiration_rhs(partners, profile, irp):
            return d
    return None


def solve_aspiration_zero_sum(instance: MatchingGameInstance) -> PayoffProfile:
    """An aspiration realizable by a matching whenever a stable profile exists.

    On a zero-sum instance the exact search over matchings and critical
    payoff levels (:func:`_stable_profile_search`) decides: its first stable
    profile is the answer.  By the equivalence of stable payoff profiles and
    realizable aspirations, finding none certifies that no aspiration
    realizes; the Gauss-Seidel sweep of the max equation then supplies one,
    which ``realize_aspiration`` reports as unrealizable.  The search covers
    zero-sum pairs only, so with a strictly competitive pair the sweep's
    fixed point is returned unsearched, and when the sweep finds none the
    answer is ``UnsupportedClassError`` rather than a claim that none exists.
    Either path's profile is keyed in ``doctor_ids`` order.
    """
    if instance.model != ROOMMATES:
        raise UnsupportedClassError("aspiration solving applies to roommates instances")
    classes = {g.class_tag for g in instance.games.values()}
    if not classes <= {ZERO_SUM, STRICTLY_COMPETITIVE}:
        raise UnsupportedClassError(
            "closed-form aspiration solving needs zero-sum or strictly competitive pairs only"
        )
    table = _partner_table(instance)
    zero_sum_only = classes <= {ZERO_SUM}
    if zero_sum_only:
        stable = _stable_profile_search(instance, table)
        if stable is not None:
            return {d: stable[d] for d in instance.doctor_ids}
    profile = _sweep_aspiration(table)
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


def _sweep_aspiration(table) -> Optional[PayoffProfile]:
    """The max equation's fixed point reached by Gauss-Seidel passes from the
    IRPs, or None when a state repeats or 500 passes find none.  A pass that
    changes nothing read the final profile throughout, so it certifies the
    max equation at every doctor."""
    profile = {d: irp for d, irp, _ in table}
    seen = set()
    for _ in range(500):
        changed = False
        for d, irp, partners in table:
            target = _aspiration_rhs(partners, profile, irp)
            if target != profile[d]:
                profile[d] = target
                changed = True
        if not changed:
            return profile
        state = tuple(profile.values())
        if state in seen:
            return None
        seen.add(state)
    return None


def _stable_profile_search(instance, table) -> Optional[PayoffProfile]:
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
    test gives the verdict it gives on the values.  A doctor's blocking set
    against a fixed partner value is downward closed in her own share: she
    blocks exactly below a threshold rank (:func:`_thresholds`).  So the
    shares of a pair (a, b) at which neither a at v nor b at -v blocks with
    a single s form an interval, and a pair's domain, its attainable
    interval cut by one such interval per single, is an interval of ranks
    (lo, hi), each cut one max and one min.

    Doctors are decided in ``doctor_ids`` order, the head first single, then
    paired with each later doctor in turn, which visits matchings in the
    order of :func:`~matchgames.stability.all_matchings`.  A new single must
    not block with an earlier one and narrows every placed pair's domain; a
    new pair starts from its interval and is narrowed by the singles so far.
    A branch is cut as soon as a domain is empty, or a new pair has no
    shares compatible with some placed pair's
    (:meth:`_LevelSearch.compatible`), which drops only matchings with no
    stable share assignment.  The matchings that survive are visited in
    enumeration order, each with the domains an enumeration would compute,
    and shares are assigned in the same order, so the first profile found is
    the one the full enumeration finds first.  (A blocking pair already fails
    the aspiration equation tested at each leaf, so blocking tests only
    prune; but domain sizes set the assignment order, so the domains must be
    exactly the enumeration's.)
    """
    return _LevelSearch(instance, table).place(instance.doctor_ids, [], [])


def _thresholds(lo, hi, top):
    """The thresholds of a doctor whose payoff in a pair spans ranks
    [lo, hi], indexed by the partner's rank r: she, at rank x, blocks with
    the partner exactly when x < the r-th entry.

    With cap = top - r, the most the partner's share leaves her, they block
    when the open interval (x, cap) meets [lo, hi]: with c = min(cap, hi),
    when max(x, lo) < c, or max(x, lo) == c and x < c < cap.  Both need
    x < c; the first then holds iff lo < c, the second iff lo == c < cap.
    So the threshold is c when lo < c or lo == c < cap, and 0 otherwise:
    hi while cap > hi; at cap == hi, hi if lo < hi; then cap itself down to
    lo + 1, and 0 below.
    """
    return ((hi,) * (top - hi) + (hi if lo < hi else 0,)
            + tuple(range(hi - 1, lo, -1)) + (0,) * min(lo + 1, hi))


class _LevelSearch:
    """Rank tables of one stable-profile search.

    ``below[u][w][r]`` is the threshold (:func:`_thresholds`) of u against
    w at rank r, 0 for every r when u and w have no game; ``bounds`` holds
    the rank bounds of u's payoff in the game oriented to u.
    """

    def __init__(self, instance, table):
        self.table = table
        # Critical values are collected as integer ratios, which hash in C;
        # Fractions are built once per distinct value.
        critical = {(0, 1)}
        values = [irp for _, irp, _ in table]
        for game in instance.games.values():
            values += (game.frontier.a_min, game.frontier.a_max)
        for value in values:
            n, d = value.as_integer_ratio()
            critical.update(((n, d), (-n, d)))
        self.levels = sorted(Fraction(n, d) for n, d in critical)
        rank = {v.as_integer_ratio(): i for i, v in enumerate(self.levels)}
        self.top = top = len(self.levels) - 1
        self.irp = {d: rank[irp.as_integer_ratio()] for d, irp, _ in table}
        no_game = (0,) * (top + 1)
        self.below = {u: dict.fromkeys(self.irp, no_game) for u in self.irp}
        self.bounds = {}
        for u, _, partners in table:
            for w, game in partners:
                lo, hi = self.bounds[u, w] = (rank[game.frontier.a_min.as_integer_ratio()],
                                              rank[game.frontier.a_max.as_integer_ratio()])
                self.below[u][w] = _thresholds(lo, hi, top)

    def place(self, undecided, singles, pairs):
        """Decide ``undecided`` in order; ``pairs`` holds (a, b, lo, hi), the
        rank interval of a's share."""
        if not undecided:
            # Smallest domains first; the sort is stable, so ties keep the
            # order in which the pairs were placed.
            domains = sorted(pairs, key=lambda item: item[3] - item[2])
            return self.assign(domains, {d: self.irp[d] for d in singles}, [])
        head, rest = undecided[0], undecided[1:]
        top, irp, below = self.top, self.irp, self.below
        r = irp[head]
        if all(r >= below[head][s][irp[s]] for s in singles):
            narrowed = []
            for a, b, lo, hi in pairs:
                lo = max(lo, below[a][head][r])
                hi = min(hi, top - below[b][head][r])
                if lo > hi:
                    break
                narrowed.append((a, b, lo, hi))
            else:
                hit = self.place(rest, singles + [head], narrowed)
                if hit is not None:
                    return hit
        for i, partner in enumerate(rest):
            bounds = self.bounds.get((head, partner))
            if bounds is None:
                continue
            lo = max(bounds[0], r)
            hi = min(bounds[1], top - irp[partner])
            for s in singles:
                if lo > hi:
                    break
                rs = irp[s]
                lo = max(lo, below[head][s][rs])
                hi = min(hi, top - below[partner][s][rs])
            pair = (head, partner, lo, hi)
            if lo <= hi and all(self.compatible(pair, other) for other in pairs):
                hit = self.place(rest[:i] + rest[i + 1:], singles, pairs + [pair])
                if hit is not None:
                    return hit
        return None

    def compatible(self, new, old):
        """Whether the pairs ``new`` and ``old``, each (a, b, lo, hi), have
        shares inside their intervals at which no member of one blocks with
        a member of the other.

        Blocking is symmetric between zero-sum partners, so testing the old
        pair's members against the new pair's covers both sides.  Domains
        only narrow as the search goes on, so a matching holding two
        incompatible pairs has no stable share assignment, and cutting it
        leaves the first profile found unchanged.
        """
        a, b, lo, hi = new
        c, d, lo2, hi2 = old
        top = self.top
        c_a, c_b = self.below[c][a], self.below[c][b]
        d_a, d_b = self.below[d][a], self.below[d][b]
        for v in range(lo, hi + 1):
            w = top - v
            if max(lo2, c_a[v], c_b[w]) <= min(hi2, top - d_a[v], top - d_b[w]):
                return True
        return False

    def assign(self, domains, values, placed):
        """Give each pair in ``domains`` a share, smallest rank first, such
        that no two placed pairs block; ``values`` holds ranks.  The shares
        at which neither member blocks with a placed doctor are the domain
        cut by one threshold per placed doctor and member, so they are tried
        with no blocking test."""
        if not domains:
            # Stability alone can leave boundary slack (a doctor could match a
            # zero-gain partner for strictly more); insist on the tight equation.
            profile = {d: self.levels[r] for d, r in values.items()}
            return profile if _untight_doctor(self.table, profile) is None else None
        a, b, lo, hi = domains[0]
        top, below_a, below_b = self.top, self.below[a], self.below[b]
        for w in placed:
            r = values[w]
            t = below_a[w][r]
            if t > lo:
                lo = t
            t = top - below_b[w][r]
            if t < hi:
                hi = t
        if lo > hi:
            return None
        for v in range(lo, hi + 1):
            values[a] = v
            values[b] = top - v
            hit = self.assign(domains[1:], values, placed + [a, b])
            if hit is not None:
                return hit
        del values[a], values[b]
        return None


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
    witness = _untight_doctor(_partner_table(instance), profile)
    if witness is not None:
        raise NotAnAspirationError(f"profile fails the max equation at doctor {witness}")
    graph = build_demand_graph(instance, profile)
    must_match = graph.must_match()
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
    return _cover(graph, sorted(must_match), 0, set(), [])


def _cover(graph: DemandGraph, order: List[str], k: int, used, acc):
    """The first cover of ``order[k:]`` that extends ``acc``, partners tried
    in neighbour order; a module-level recursion, so no closure cycle."""
    if k == len(order):
        return list(acc)
    d = order[k]
    if d in used:
        return _cover(graph, order, k + 1, used, acc)
    for partner in graph.neighbours(d):
        if partner in used:
            continue
        acc.append(tuple(sorted((d, partner))))
        hit = _cover(graph, order, k + 1, used | {d, partner}, acc)
        if hit is not None:
            return hit
        acc.pop()
    return None


def _exposed_witness(graph: DemandGraph, must_match: List[str]):
    # Components of the demand graph restricted to the must-match set explain
    # the failure: some component cannot internally pair all its members.
    # One always does: the search is exhaustive and a cover is the union of
    # per-component covers, so the loop returns.
    for d in sorted(must_match):
        component = _component_of(graph, d)
        hard = [v for v in component if not graph.singleton_ok[v]]
        if _cover_matching(graph, hard) is None:
            return d, tuple(sorted(component))


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
