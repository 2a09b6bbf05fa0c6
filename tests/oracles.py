"""Reference oracles that check the package from outside.

Each oracle is written on the package's public names only, so the tests
compare the solvers with code that does not share their private paths:

* ``enumerate_core`` lists the core stable full partitions of an
  enumerated model by trying every assignment of doctors to hospitals;
* ``solve_qcqp_grid_oracle`` scans a rational grid of both sides' mixed
  strategies for max{xAy | xMy >= c}, approximate by construction;
* ``hull_lp`` answers a repeated game's hull questions by exact simplex LPs
  over the joint distributions on S x T, one lexicographic pass each; the
  package answers them on its hull polygon instead;
* ``couple_payoffs`` pays a matched couple straight off an allocation's
  entries: each side's ``bilinear`` form of the stored profile, or a
  step-by-step Fraction sum over the stored cycle;
* ``hospital_value`` is a contract model's hospital utility of a contract
  set, read straight off its weights or table, which a choice by brute
  force maximises;
* ``substitutability_by_masks`` and ``irc_by_masks`` audit one choice
  table (the choice out of every subset, as bit masks indexed by the
  subset's mask) by one Python scan of its subsets.  They are the
  package's audits from before those moved to bit planes, kept as the
  reference for the plane arithmetic; the tests check the table they read
  against ``hospital_value`` separately.
"""

from fractions import Fraction
from itertools import combinations

from matchgames.core import (
    GENERAL_ENUMERATED,
    REPEATED,
    ROOMMATES,
    Allocation,
    bilinear,
    evaluate_payoffs,
)
from matchgames.errors import (
    CapExceededError,
    InfeasibleError,
    MatchGamesError,
    UnsupportedClassError,
)
from matchgames.lp import EQ, GE, OPTIMAL, LinearProgram, solve_lp
from matchgames.qcqp import simplex_grid
from matchgames.stability import check_individual_rationality, find_blocking_coalition


def enumerate_core(instance, cap=10_000_000):
    """All core stable full partitions of the enumerated model.

    Every doctor is assigned to some hospital (the model's outcomes are
    partitions of the doctor set among hospitals); quotas bound group sizes.
    An assignment is in the core when it is individually rational and no
    coalition of any size blocks it.
    """
    if instance.model != GENERAL_ENUMERATED:
        raise UnsupportedClassError("core enumeration applies to the enumerated model")
    doctors = instance.doctor_ids
    hospitals = instance.hospital_ids
    if len(doctors) > 10:
        raise CapExceededError("core enumeration caps at 10 doctors")
    if len(hospitals) ** len(doctors) > cap:
        raise CapExceededError("assignment space exceeds the cap")

    stable = []

    def assign(idx, matching):
        if idx == len(doctors):
            allocation = Allocation(matching=dict(matching))
            counts = {}
            for h in matching.values():
                counts[h] = counts.get(h, 0) + 1
            if any(counts.get(h, 0) > instance.hospitals[h].quota for h in hospitals):
                return
            try:
                payoffs = evaluate_payoffs(instance, allocation)
            except MatchGamesError:
                return  # missing table entry: assignment outside the model
            ok, _ = check_individual_rationality(instance, allocation, Fraction(0), payoffs)
            if ok and find_blocking_coalition(instance, allocation, Fraction(0),
                                              max_coalition_size=len(doctors),
                                              payoffs=payoffs) is None:
                stable.append(allocation)
            return
        d = doctors[idx]
        for h in hospitals:
            matching[d] = h
            assign(idx + 1, matching)
        del matching[d]

    assign(0, {})
    return stable


def solve_qcqp_grid_oracle(a, m, c, grid_resolution):
    """(value, x, y) of the best grid profile for max{xAy | xMy >= c}.

    Scans every pair of grid points in exact arithmetic; the first best
    feasible pair in row-major grid order wins.
    """
    if grid_resolution < 1:
        raise MatchGamesError("grid_resolution must be >= 1")
    ys = list(simplex_grid(len(a[0]), grid_resolution))
    best = None
    for x in simplex_grid(len(a), grid_resolution):
        for y in ys:
            if bilinear(x, m, y) >= c:
                value = bilinear(x, a, y)
                if best is None or value > best[0]:
                    best = (value, x, y)
    if best is None:
        raise InfeasibleError("grid scan found no feasible profile")
    return best


def hull_lp(a, m, objective, f_floor=None, g_floor=None, f_exact=None, g_exact=None):
    """(lambda, (f, g)) of an LP over joint distributions on S x T with the
    given side constraints on the A-average f and the M-average g.

    ``objective`` is a tuple of passes, each "max_f", "max_g" or "max_sum"
    (f + g), applied lexicographically: each pass fixes its optimum as an
    equality for the next.  Raises InfeasibleError on an empty region.
    """
    cells = [(s, t) for s in range(len(a)) for t in range(len(a[0]))]
    a_coeffs = [a[s][t] for s, t in cells]
    m_coeffs = [m[s][t] for s, t in cells]
    rows = [([Fraction(1)] * len(cells), EQ, Fraction(1))]
    for coeffs, sense, bound in ((a_coeffs, GE, f_floor), (m_coeffs, GE, g_floor),
                                 (a_coeffs, EQ, f_exact), (m_coeffs, EQ, g_exact)):
        if bound is not None:
            rows.append((coeffs, sense, bound))
    passes = {"max_f": a_coeffs, "max_g": m_coeffs,
              "max_sum": [fa + fm for fa, fm in zip(a_coeffs, m_coeffs)]}
    for name in objective:
        program = LinearProgram(objective=passes[name], sense="max")
        for row in rows:
            program.add(*row)
        result = solve_lp(program)
        if result.status != OPTIMAL:
            raise InfeasibleError("empty feasible payoff region")
        rows.append((passes[name], EQ, result.value))
    lam = {cell: w for cell, w in zip(cells, result.solution) if w != 0}
    return lam, (sum(a[s][t] * w for (s, t), w in lam.items()),
                 sum(m[s][t] * w for (s, t), w in lam.items()))


def couple_payoffs(instance, allocation, d, partner):
    """(d's payoff, the partner's) of a matched couple, read off the
    allocation's entries as documents store them: strategies under
    ``doctor_strategies[d]`` and ``hospital_strategies[(h, d)]`` (a
    roommate's under her own id), a cycle under ``cycles[(h, d)]`` or under
    the sorted roommates pair, over the smaller id's rows."""
    roommates = instance.model == ROOMMATES
    stored = instance.games[(d, partner) if not roommates else tuple(sorted((d, partner)))]
    a, m = stored.doctor_matrix, stored.hospital_matrix
    if stored.class_tag != REPEATED:
        x = allocation.doctor_strategies[d]
        y = allocation.doctor_strategies[partner] if roommates else allocation.hospital_strategies[(partner, d)]
        if roommates and d > partner:  # rows belong to the partner
            return bilinear(y, m, x), bilinear(y, a, x)
        return bilinear(x, a, y), bilinear(x, m, y)
    steps = allocation.cycles[tuple(sorted((d, partner))) if roommates else (partner, d)].cycle
    f = g = Fraction(0)
    for s, t in steps:
        f += a[s][t]
        g += m[s][t]
    f, g = f / len(steps), g / len(steps)
    return (g, f) if roommates and d > partner else (f, g)


def hospital_value(model, h, subset):
    """A contract model's utility for hospital ``h`` of a contract set;
    None marks an inadmissible set."""
    doctors = [model.contracts[cid].doctor for cid in subset]
    if len(doctors) != len(set(doctors)):
        return None  # at most one contract per doctor
    if h in model.hospital_tables:
        if len(subset) > model.hospital_quotas.get(h, len(model.contracts)):
            return None
        return model.hospital_tables[h].get(frozenset(subset), None if subset else Fraction(0))
    weights = model.hospital_additive.get(h, {})
    if len(subset) > model.hospital_quotas.get(h, 1):
        return None
    total = Fraction(0)
    for cid in subset:
        if cid not in weights:
            return None
        total += weights[cid]
    return total


def _visit_order(n):
    """Every subset mask of n contracts: by size, then lexicographically by
    position."""
    return [sum(1 << i for i in combo) for size in range(n + 1)
            for combo in combinations(range(n), size)]


def _ids(own, mask):
    return tuple(cid for i, cid in enumerate(own) if mask >> i & 1)


def substitutability_by_masks(own, table):
    """(True, None), or (False, (subset, x, x_new)) at the first subset in
    visit order whose rejected contract x is chosen once x_new joins."""
    bits = [1 << i for i in range(len(own))]
    for mask in _visit_order(len(own)):
        rejected = mask & ~table[mask]
        if not rejected:
            continue
        regained = 0
        for b in bits:  # a bit already in mask adds table[mask], which holds no rejected bit
            regained |= table[mask | b]
        regained &= rejected
        if regained:
            x = regained & -regained
            x_new = next(b for b in bits if not mask & b and table[mask | b] & x)
            return False, (_ids(own, mask), own[x.bit_length() - 1], own[x_new.bit_length() - 1])
    return True, None


def irc_by_masks(own, table):
    """(True, None), or (False, (subset, z)) at the first subset in visit
    order whose choice changes when z joins though z is not chosen."""
    bits = [1 << i for i in range(len(own))]
    for mask in _visit_order(len(own)):
        chosen = table[mask]
        for b in bits:
            if mask & b:
                continue
            with_z = table[mask | b]
            if with_z != chosen and not with_z & b:
                return False, (_ids(own, mask), own[b.bit_length() - 1])
    return True, None
