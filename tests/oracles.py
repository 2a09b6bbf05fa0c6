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
* ``fraction_simplex_lp`` solves a general ``LinearProgram`` (max or min,
  ``<=``/``==``/``>=`` rows, free variables) by a two-phase Fraction
  tableau simplex (Bland's entering rule, ratio-test ties to the lower
  basis index), the package's LP before game values moved to one tableau;
  its two LPs per game (``two_lp_game_value``) are the reference for game
  values;
* ``fraction_game_tableau`` is ``lp.solve_lp``'s one-tableau game LP on
  Fractions, the reference for the fraction-free integer tableau, whose
  pivots must be the same;
* ``constrained_best_response_doctor`` and ``_hospital`` are the closed-form
  constrained best responses in Fractions (``best_guarded_mix``), and
  ``deviation_fault`` the CNE deviation audit built on them, the reference
  for the integer audit of ``renegotiation``;
* ``couple_payoffs`` pays a matched couple straight off an allocation's
  entries: each side's ``bilinear`` form of the stored profile, or a
  step-by-step Fraction sum over the stored cycle;
* ``partner_options`` lists an agent's partners by one ``has_game`` lookup
  per agent, the reference for the pair lists ``pairs_of`` and
  ``pairs_at``;
* ``sorted_sups_coalition`` is the coalition scan on Fraction suprema,
  sorted and summed, with the team found by enumeration: the reference
  for the scan on integer ratios;
* ``hospital_value`` is a contract model's hospital utility of a contract
  set, read straight off its weights or table, which a choice by brute
  force maximises;
* ``substitutability_by_masks`` and ``irc_by_masks`` audit one choice
  table (the choice out of every subset, as bit masks indexed by the
  subset's mask) by one Python scan of its subsets.  They are the
  package's audits from before those moved to bit planes, kept as the
  reference for the plane arithmetic; the tests check the table they read
  against ``hospital_value`` separately;
* ``zero_sum_frontier`` builds a zero-sum game's frontier afresh from its
  bounds, the reference for the loader's table of shared frontiers;
* ``first_cover`` is the roommates cover search as a self-recursive
  closure, the reference for the first matching ``_cover_matching``
  returns.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations
from math import lcm

from matchgames.core import (
    GENERAL_ENUMERATED,
    NEG_INF,
    REPEATED,
    ROOMMATES,
    Allocation,
    Frontier,
    Segment,
    bilinear,
    evaluate_payoffs,
    matrix_bounds,
    row_payoffs,
    transpose,
)
from matchgames.errors import (
    CapExceededError,
    InfeasibleError,
    MatchGamesError,
    UnsupportedClassError,
)
from matchgames.qcqp import max_g_point, simplex_grid
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


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "==", ">="


@dataclass
class LinearProgram:
    """max/min c.x subject to rows (coeffs, relation, rhs) and x >= 0,
    except for the variables indexed in ``free``, which are unbounded
    (internally split into a difference of two nonnegatives).
    """

    objective: list
    sense: str = "max"
    constraints: list = field(default_factory=list)
    free: frozenset = frozenset()

    def add(self, coeffs, relation, rhs):
        if len(coeffs) != len(self.objective):
            raise MatchGamesError("constraint row length does not match variable count")
        if relation not in (LE, EQ, GE):
            raise MatchGamesError(f"unknown relation {relation!r}")
        self.constraints.append((tuple(coeffs), relation, Fraction(rhs)))


@dataclass
class LpResult:
    status: str
    value: Fraction = None
    solution: tuple = None


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
        result = fraction_simplex_lp(program)
        if result.status != OPTIMAL:
            raise InfeasibleError("empty feasible payoff region")
        rows.append((passes[name], EQ, result.value))
    lam = {cell: w for cell, w in zip(cells, result.solution) if w != 0}
    return lam, (sum(a[s][t] * w for (s, t), w in lam.items()),
                 sum(m[s][t] * w for (s, t), w in lam.items()))


def fraction_simplex_lp(program):
    """The program's status, and its optimal value and solution, by a
    two-phase simplex on Fraction tableaus."""
    n, free = len(program.objective), program.free
    if not all(0 <= i < n for i in free):
        raise MatchGamesError("free variable index outside the variable count")

    # Original variable i is internal column base[i], less base[i] + 1 if free.
    base = []
    n_internal = 0
    for i in range(n):
        base.append(n_internal)
        n_internal += 2 if i in free else 1

    def expand(coeffs):
        """Rewrite a row over internal variables."""
        row = [Fraction(0)] * n_internal
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            row[base[i]] += c
            if i in free:
                row[base[i] + 1] -= c
        return row

    sign = {"max": Fraction(1), "min": Fraction(-1)}.get(program.sense)
    if sign is None:
        raise MatchGamesError(f"unknown sense {program.sense!r}: expected 'max' or 'min'")
    objective_row = expand([sign * c for c in program.objective])
    rows = [(expand(coeffs), relation, Fraction(rhs))
            for coeffs, relation, rhs in program.constraints]

    status, internal_solution, value = _simplex_standard(objective_row, rows)
    if status != OPTIMAL:
        return LpResult(status=status)

    solution = tuple(
        internal_solution[b] - internal_solution[b + 1] if i in free else internal_solution[b]
        for i, b in enumerate(base))
    return LpResult(status=OPTIMAL, value=sign * value, solution=solution)


def two_lp_game_value(a):
    """(value, x*, y*) of the zero-sum game ``a`` from the row player's LP
    (max v s.t. x.A >= v, x in the simplex) and the column player's (min u
    s.t. A.y <= u, y in the simplex); their values must agree."""
    n_rows, n_cols = len(a), len(a[0])
    row_lp = LinearProgram(objective=[Fraction(0)] * n_rows + [Fraction(1)], sense="max",
                           free=frozenset([n_rows]))
    for j in range(n_cols):
        row_lp.add([a[i][j] for i in range(n_rows)] + [Fraction(-1)], GE, Fraction(0))
    row_lp.add([Fraction(1)] * n_rows + [Fraction(0)], EQ, Fraction(1))
    col_lp = LinearProgram(objective=[Fraction(0)] * n_cols + [Fraction(1)], sense="min",
                           free=frozenset([n_cols]))
    for i in range(n_rows):
        col_lp.add([a[i][j] for j in range(n_cols)] + [Fraction(-1)], LE, Fraction(0))
    col_lp.add([Fraction(1)] * n_cols + [Fraction(0)], EQ, Fraction(1))
    row, col = fraction_simplex_lp(row_lp), fraction_simplex_lp(col_lp)
    assert row.status == col.status == OPTIMAL and row.value == col.value
    return row.value, tuple(row.solution[:n_rows]), tuple(col.solution[:n_cols])


def fraction_game_tableau(a):
    """(value, x*, y*) of the zero-sum game ``a`` from one Fraction tableau:
    max sum(q) s.t. A'q <= 1, q >= 0, pivoted by Bland's rule from the slack
    basis, for A' = A + 1/L - min A (L the lcm of the denominators), whose
    least entry is 1/L.  A' is ``lp.solve_lp``'s integer K' over L, so the
    pivots are the same.  y* is q / sum(q), x* the slacks' duals over
    their sum, and the value 1 / sum(q) less the shift."""
    n_rows, n_cols = len(a), len(a[0])
    shift = Fraction(1, lcm(*(v.denominator for row in a for v in row))) - min(map(min, a))
    table = [[v + shift for v in row] + [Fraction(int(t == i)) for t in range(n_rows)] + [Fraction(1)]
             for i, row in enumerate(a)]
    basis = list(range(n_cols, n_cols + n_rows))
    cost = [Fraction(1)] * n_cols + [Fraction(0)] * (n_rows + 1)
    assert _pivot_until_optimal(table, cost, basis, n_cols + n_rows) == OPTIMAL
    total = -cost[-1]
    y = [Fraction(0)] * n_cols
    for i, b in enumerate(basis):
        if b < n_cols:
            y[b] = table[i][-1] / total
    x = tuple(-c / total for c in cost[n_cols:n_cols + n_rows])
    return 1 / total - shift, x, tuple(y)


def _simplex_standard(objective, rows):
    """max objective.z s.t. rows, z >= 0, via two-phase tableau simplex."""
    n = len(objective)
    # Normalise to equalities with slack/surplus columns and nonnegative rhs.
    slack_count = sum(1 for _, rel, _ in rows if rel != EQ)
    m = len(rows)
    total = n + slack_count
    table = []
    slack_idx = 0
    for row, rel, rhs in rows:
        line = list(row) + [Fraction(0)] * slack_count + [Fraction(rhs)]
        if rel == LE:
            line[n + slack_idx] = Fraction(1)
            slack_idx += 1
        elif rel == GE:
            line[n + slack_idx] = Fraction(-1)
            slack_idx += 1
        if line[-1] < 0:
            line = [-v for v in line]
        table.append(line)

    # Phase 1: artificial basis.
    basis = []
    art_base = total
    for i in range(m):
        table[i] = table[i][:-1] + [Fraction(0)] * m + [table[i][-1]]
        table[i][art_base + i] = Fraction(1)
        basis.append(art_base + i)
    width = total + m

    # Phase-1 objective: max -(sum of artificials); reduced costs after
    # pricing out the artificial basis are the column sums.
    cost = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            cost[j] += table[i][j]
    for j in range(m):
        cost[art_base + j] = Fraction(0)

    _pivot_until_optimal(table, cost, basis, width)
    if -cost[-1] != 0:
        return INFEASIBLE, None, None

    # Drive any artificial variables out of the basis.
    for i in range(m):
        if basis[i] >= art_base:
            pivot_col = next((j for j in range(total) if table[i][j] != 0), None)
            if pivot_col is None:
                continue  # redundant row
            _pivot(table, basis, i, pivot_col, width)

    # Phase 2 on the original columns.
    cost = [Fraction(0)] * (width + 1)
    for j in range(n):
        cost[j] = objective[j]
    # Price out basic columns.
    for i, b in enumerate(basis):
        if b < len(cost) - 1 and cost[b] != 0:
            coef = cost[b]
            for j in range(width + 1):
                cost[j] -= coef * table[i][j]
    blocked = set(range(art_base, width))
    status = _pivot_until_optimal(table, cost, basis, width, blocked=blocked)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None

    solution = [Fraction(0)] * total
    for i, b in enumerate(basis):
        if b < total:
            solution[b] = table[i][-1]
    return OPTIMAL, solution, -cost[-1]


def _pivot_until_optimal(table, cost, basis, width, blocked=frozenset()):
    while True:
        pivot_col = None
        for j in range(width):  # Bland: lowest eligible index enters
            if j in blocked:
                continue
            if cost[j] > 0:
                pivot_col = j
                break
        if pivot_col is None:
            return OPTIMAL
        pivot_row = None
        best = None
        for i, line in enumerate(table):
            if line[pivot_col] > 0:
                ratio = line[-1] / line[pivot_col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_row]):
                    best = ratio
                    pivot_row = i
        if pivot_row is None:
            return UNBOUNDED
        _pivot(table, basis, pivot_row, pivot_col, width)
        coef = cost[pivot_col]
        if coef != 0:
            line = table[pivot_row]
            for j in range(width + 1):
                cost[j] -= coef * line[j]


def _pivot(table, basis, row, col, width):
    line = table[row]
    inv = Fraction(1) / line[col]
    if inv != 1:
        table[row] = line = [v * inv for v in line]
    for i, other in enumerate(table):
        if i == row:
            continue
        factor = other[col]
        if factor != 0:
            table[i] = [a - factor * b for a, b in zip(other, line)]
    basis[row] = col


def constrained_best_response_doctor(a, m, y0, g_res, epsilon):
    """max x.A.y0 over x in the simplex with x.M.y0 + epsilon >= g_res, or None."""
    return best_guarded_mix(row_payoffs(a, y0), row_payoffs(m, y0), g_res - epsilon)


def constrained_best_response_hospital(a, m, x0, f_res, epsilon):
    """max x0.M.y over y in the simplex with x0.A.y + epsilon >= f_res, or None."""
    return best_guarded_mix(row_payoffs(transpose(m), x0),
                             row_payoffs(transpose(a), x0), f_res - epsilon)


def best_guarded_mix(gain, guard, floor):
    """max p.gain over distributions p with p.guard >= floor, or None if none.

    A linear program over the simplex with one side constraint has an optimal
    vertex of support at most 2: a feasible pure strategy, or a feasible and
    an infeasible one mixed so that the side constraint holds with equality.
    """
    feasible = [i for i, g in enumerate(guard) if g >= floor]
    if not feasible:
        return None
    best = max(gain[i] for i in feasible)
    for i in feasible:
        for j, g in enumerate(guard):
            if g < floor and gain[j] > gain[i]:
                t = (guard[i] - floor) / (guard[i] - g)
                best = max(best, gain[i] + t * (gain[j] - gain[i]))
    return best


def deviation_fault(a, m, x, y, f_now, g_now, f_res, g_res, epsilon):
    """Why one side of the profile (x, y), which pays (f_now, g_now), has a
    profitable constrained deviation, or None when neither side has one."""
    best_d = constrained_best_response_doctor(a, m, y, g_res, epsilon)
    if best_d is not None and best_d > f_now + epsilon:
        return f"doctor deviation worth {best_d} > {f_now} + eps"
    best_h = constrained_best_response_hospital(a, m, x, f_res, epsilon)
    if best_h is not None and best_h > g_now + epsilon:
        return f"hospital deviation worth {best_h} > {g_now} + eps"
    return None


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


def partner_options(instance, d):
    """The agents on the other side that d has a game with, in the order of
    the instance's id table, each found by a ``has_game`` lookup."""
    if instance.model == ROOMMATES:
        return [k for k in instance.doctors if k != d and instance.has_game(d, k)]
    return [h for h in instance.hospitals if instance.has_game(d, h)]


def zero_sum_frontier(a):
    """A zero-sum game's frontier for doctor matrix ``a``, built from its
    bounds: A runs from a_min to a_max, M = -A the other way, on the line
    g == -f."""
    lo, hi = matrix_bounds(a)
    (lo_n, lo_d), (hi_n, hi_d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    return Frontier(lo, hi, -hi, -lo,
                    Segment((lo_n, lo_d), (hi_n, hi_d), (-hi_n, hi_d), (-lo_n, lo_d), 0, 1, 1))


def first_cover(graph, must_match):
    """The first matching covering ``must_match`` by a depth-first search:
    doctors in sorted order, partners in ``graph.neighbours`` order; None
    when there is none."""
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


def sorted_sups_coalition(instance, payoffs, epsilon, max_size):
    """(team, hospital) of the coalition scan, with team a list of (doctor,
    sup) pairs, or None.  At each hospital in id order: every eligible
    doctor's sup, a Fraction from ``max_g_point``; the first size whose
    largest sups, sorted and summed, clear the hospital's payoff plus
    epsilon; and that size's first clearing team in
    ``itertools.combinations`` order.  An over-quota hospital's first
    eligible doctor blocks it alone."""
    floors = {d: f + epsilon for d, f in payoffs.doctor_payoffs.items()}
    for h in instance.hospital_ids:
        current = payoffs.hospital_payoffs[h]
        eligible = []
        for d in instance.doctor_ids:
            if instance.has_game(d, h):
                best = max_g_point(instance.game_for(d, h), floors[d], strict=True)
                if best is not None:
                    eligible.append((d, best.g))
        top = min(max_size, instance.hospitals[h].quota, len(eligible))
        if current is NEG_INF:
            if top > 0:
                return eligible[:1], h
            continue
        bests = list(accumulate(sorted((g for _, g in eligible), reverse=True), initial=Fraction(0)))
        size = next((s for s in range(1, top + 1) if bests[s] > current + epsilon), 0)
        if size:
            return next(list(team) for team in combinations(eligible, size)
                        if sum(g for _, g in team) > current + epsilon), h
    return None


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
