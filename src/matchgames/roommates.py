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
on the classical unbounded-transfer theory.
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
)
from .errors import (
    InfeasibleError,
    MatchGamesError,
    NotAnAspirationError,
    UnsupportedClassError,
)
from .qcqp import achieve_value_zero_sum, distribution_to_cycle, _hull_lp
from .stability import all_matchings

PayoffProfile = Dict[str, Fraction]


def partnership_value(instance: MatchingGameInstance, d: str, other: str,
                      partner_value: Fraction) -> Optional[Fraction]:
    """Best payoff d can reach while the partner gets (at least) her value.

    None when the partner's demand exceeds her best attainable payoff in this
    pair.  Demands below her worst attainable payoff are lifted to it.
    """
    game = instance.game_for(d, other)
    fr = game.frontier
    tr = fr.transform
    if tr is None:
        try:
            _, (f, _) = _hull_lp(game.doctor_matrix, game.hospital_matrix,
                                 objective=("max_f",), g_exact=partner_value)
        except InfeasibleError:
            return None
        return f
    # Partner payoff decreases along the image value z; she demands at most
    # her payoff at z_min.
    z_demand = -tr.image_hospital_value(partner_value)
    if z_demand < fr.z_min:
        return None
    return tr.original_doctor_value(min(z_demand, fr.z_max))


def demand_set(instance: MatchingGameInstance, profile: PayoffProfile, d: str) -> Set[str]:
    """Partners with whom d can realise exactly her profile value.

    Zero-sum: values must sum to zero and lie in the attainable interval;
    strictly competitive pairs test the same through the affine image;
    repeated pairs test hull membership by an exact LP.
    """
    out = set()
    for other in instance.partner_options(d):
        game = instance.game_for(d, other)
        fr = game.frontier
        tr = fr.transform
        if tr is None:
            try:
                _hull_lp(game.doctor_matrix, game.hospital_matrix, objective=("max_f",),
                         f_exact=profile[d], g_exact=profile[other])
                out.add(other)
            except InfeasibleError:
                pass
            continue
        z_val = tr.image_doctor_value(profile[d])
        if fr.z_min <= z_val <= fr.z_max and tr.original_hospital_value(-z_val) == profile[other]:
            out.add(other)
    return out


@dataclass
class DemandGraph:
    vertices: List[str]
    edges: Set[Tuple[str, str]]
    singleton_ok: Dict[str, bool]

    def neighbours(self, d: str) -> List[str]:
        out = [b for (a, b) in self.edges if a == d] + [a for (a, b) in self.edges if b == d]
        return sorted(out)


def build_demand_graph(instance: MatchingGameInstance, profile: PayoffProfile) -> DemandGraph:
    edges = set()
    for d in instance.doctor_ids:
        for other in demand_set(instance, profile, d):
            edges.add(tuple(sorted((d, other))))
    # Demand symmetry: membership is mutual by construction of the frontier.
    singleton_ok = {d: profile[d] == instance.doctors[d].irp for d in instance.doctor_ids}
    return DemandGraph(vertices=list(instance.doctor_ids), edges=edges, singleton_ok=singleton_ok)


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

    Enumerates matchings; each matched pair contributes one share variable
    (the first member's payoff, the partner takes its negation).  Feasible
    regions are cut out by interval bounds and open blocking constraints
    whose boundaries all sit on a finite, negation-closed critical set, so a
    solvable matching has a solution with every share on that set.
    """
    doctors = instance.doctor_ids
    critical = {Fraction(0)}
    for d in doctors:
        critical.add(instance.doctors[d].irp)
        critical.add(-instance.doctors[d].irp)
    for game in instance.games.values():
        lo, hi = game.frontier.a_min, game.frontier.a_max
        critical.update((lo, -lo, hi, -hi))
    levels = sorted(critical)

    for matching in all_matchings(list(doctors)):
        pairs = [(a, b) for a, b in matching if b is not None]
        if any(not instance.has_game(a, b) for a, b in pairs):
            continue
        singles = [a for a, b in matching if b is None]
        fixed = {d: instance.doctors[d].irp for d in singles}
        domains = []
        feasible = True
        for a, b in pairs:
            fr = instance.game_for(a, b).frontier
            lo = max(fr.a_min, instance.doctors[a].irp)
            hi = min(fr.a_max, -instance.doctors[b].irp)
            cands = [v for v in levels if lo <= v <= hi]
            cands = [
                v for v in cands
                if not _any_block_against(instance, {a: v, b: -v, **fixed}, (a, b), singles)
            ]
            if not cands:
                feasible = False
                break
            domains.append(((a, b), cands))
        if not feasible:
            continue
        if not _singles_mutually_stable(instance, fixed):
            continue
        domains.sort(key=lambda item: len(item[1]))
        hit = _assign_shares(instance, domains, dict(fixed), [])
        if hit is not None:
            return hit
    return None


def _assign_shares(instance, domains, values, placed):
    if not domains:
        # Stability alone can leave boundary slack (a doctor could match a
        # zero-gain partner for strictly more); insist on the tight equation.
        ok, _ = is_aspiration(instance, values)
        return dict(values) if ok else None
    (a, b), cands = domains[0]
    for v in cands:
        values[a], values[b] = v, -v
        if _pair_consistent(instance, values, (a, b), placed):
            hit = _assign_shares(instance, domains[1:], values, placed + [(a, b)])
            if hit is not None:
                return hit
    del values[a], values[b]
    return None


def _pair_consistent(instance, values, new_pair, placed):
    a, b = new_pair
    others = [d for p in placed for d in p]
    for u in (a, b):
        for v in others:
            if instance.has_game(u, v) and _blocks(instance, values, u, v):
                return False
    return True


def _any_block_against(instance, values, pair, singles):
    """Does any member of ``pair`` form a blocking pair with a single?"""
    for u in pair:
        for s in singles:
            if instance.has_game(u, s) and _blocks(instance, values, u, s):
                return True
    # The matched pair itself sits on the frontier: no internal block.
    return False


def _blocks(instance, values, u, v):
    fr = instance.game_for(u, v).frontier
    lo, hi = fr.a_min, fr.a_max
    f_u, f_v = values[u], values[v]
    # Open interval (f_u, -f_v) must miss the attainable interval [lo, hi].
    left = max(f_u, lo)
    right = min(-f_v, hi)
    if left < right:
        return True
    if left == right and f_u < left < -f_v:
        return True
    return False


def _singles_mutually_stable(instance, fixed):
    singles = sorted(fixed)
    for i, u in enumerate(singles):
        for v in singles[i + 1:]:
            if instance.has_game(u, v) and _blocks(instance, fixed, u, v):
                return False
    return True


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
        _realize_pair(instance, allocation, a, b, profile)
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


def _realize_pair(instance, allocation, a, b, profile):
    game = instance.game_for(a, b)
    tr = game.frontier.transform
    if tr is None:
        lam, _ = _hull_lp(
            game.doctor_matrix, game.hospital_matrix,
            objective=("max_f",), f_exact=profile[a], g_exact=profile[b],
        )
        key = instance.pair_key(a, b)
        cycle = distribution_to_cycle(lam, game.doctor_matrix, game.hospital_matrix)
        if key[0] != a:
            cycle.cycle = tuple((t, s) for s, t in cycle.cycle)
        allocation.cycles[key] = cycle
        return
    x, y, _ = achieve_value_zero_sum(tr.image, tr.image_doctor_value(profile[a]))
    allocation.doctor_strategies[a] = x
    allocation.doctor_strategies[b] = y
