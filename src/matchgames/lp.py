"""Exact rational linear programming via a two-phase simplex.

Desk-scale problems only (tens of variables); everything runs on
:class:`fractions.Fraction` and the optimum satisfies every constraint with
exact equality checks.  Bland's rule makes the pivot sequence deterministic
and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .core import Matrix, pure
from .errors import MatchGamesError

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

    objective: Sequence[Fraction]
    sense: str = "max"
    constraints: List[Tuple[Sequence[Fraction], str, Fraction]] = field(default_factory=list)
    free: FrozenSet[int] = frozenset()

    def add(self, coeffs: Sequence[Fraction], relation: str, rhs: Fraction):
        if len(coeffs) != len(self.objective):
            raise MatchGamesError("constraint row length does not match variable count")
        if relation not in (LE, EQ, GE):
            raise MatchGamesError(f"unknown relation {relation!r}")
        self.constraints.append((tuple(coeffs), relation, Fraction(rhs)))


@dataclass
class LpResult:
    status: str
    value: Optional[Fraction] = None
    solution: Optional[Tuple[Fraction, ...]] = None


def solve_lp(program: LinearProgram) -> LpResult:
    """Solve exactly; deterministic for a fixed instance."""
    n, free = len(program.objective), program.free
    if not all(0 <= i < n for i in free):
        raise MatchGamesError("free variable index outside the variable count")

    # Original variable i is internal column base[i], less base[i] + 1 if free.
    base: List[int] = []
    n_internal = 0
    for i in range(n):
        base.append(n_internal)
        n_internal += 2 if i in free else 1

    def expand(coeffs: Sequence[Fraction]) -> List[Fraction]:
        """Rewrite a row over internal variables."""
        row = [Fraction(0)] * n_internal
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            row[base[i]] += c
            if i in free:
                row[base[i] + 1] -= c
        return row

    sign = Fraction(1) if program.sense == "max" else Fraction(-1)
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


def _simplex_standard(objective: List[Fraction], rows):
    """max objective.z s.t. rows, z >= 0, via two-phase tableau simplex."""
    n = len(objective)
    # Normalise to equalities with slack/surplus columns and nonnegative rhs.
    slack_count = sum(1 for _, rel, _ in rows if rel != EQ)
    m = len(rows)
    total = n + slack_count
    table: List[List[Fraction]] = []
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


# ---------------------------------------------------------------------------
# Zero-sum game values


def game_value(a: Matrix) -> Tuple[Fraction, Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Value and optimal strategies of the zero-sum game on matrix ``a``.

    The row player maximises x.A.y, the column player minimises.  Returns
    (w, x*, y*) satisfying the saddle property min_t x*.A.t = w = max_s s.A.y*.
    A game whose unique optimum a 1 x 1 or 2 x 2 kernel certifies
    (:func:`_kernel_solution`) is answered in closed form; every other game
    solves two LPs.
    """
    n_rows, n_cols = len(a), len(a[0])
    solved = _kernel_solution(a)
    if solved is not None:
        return solved

    # Row side: max v s.t. sum_i x_i a[i][j] >= v for all j, x in simplex.
    lp = LinearProgram(
        objective=[Fraction(0)] * n_rows + [Fraction(1)],
        sense="max",
        free=frozenset([n_rows]),
    )
    for j in range(n_cols):
        lp.add([a[i][j] for i in range(n_rows)] + [Fraction(-1)], GE, Fraction(0))
    lp.add([Fraction(1)] * n_rows + [Fraction(0)], EQ, Fraction(1))
    row_result = solve_lp(lp)
    if row_result.status != OPTIMAL:
        raise MatchGamesError("game value LP must be solvable")
    x_star = tuple(row_result.solution[:n_rows])
    value = row_result.value

    # Column side: min u s.t. sum_j y_j a[i][j] <= u for all i.
    lp2 = LinearProgram(
        objective=[Fraction(0)] * n_cols + [Fraction(1)],
        sense="min",
        free=frozenset([n_cols]),
    )
    for i in range(n_rows):
        lp2.add([a[i][j] for j in range(n_cols)] + [Fraction(-1)], LE, Fraction(0))
    lp2.add([Fraction(1)] * n_cols + [Fraction(0)], EQ, Fraction(1))
    col_result = solve_lp(lp2)
    if col_result.status != OPTIMAL or col_result.value != value:
        raise MatchGamesError("primal and dual game values disagree")
    y_star = tuple(col_result.solution[:n_cols])
    return value, x_star, y_star


def _kernel_solution(a: Matrix) -> Optional[tuple]:
    """(value, x*, y*) when a square kernel of size 1 or 2 certifies the
    game's unique optimum, else None (Shapley and Snow, 1950).

    The matrix is scaled to integers over the lcm L of its denominators.
    Kernels are tried by size, then rows i1 < i2 and columns j1 < j2 in
    lexicographic order.  A kernel (rows I, columns J) certifies when its
    equalising strategies x on I and y on J are strictly positive and every
    row outside I pays strictly less than the kernel value v against y, and
    every column outside J strictly more against x:

    * size 1, entry p: p is strictly below the rest of its row and strictly
      above the rest of its column (a strict saddle point);
    * size 2, entries p q / r s with d = p + s - q - r != 0:
      x = (s - r, p - q) / d, y = (s - q, p - r) / d and v = (ps - qr) / d.

    Then (x, y) is a saddle point, and it is the only one: by complementary
    slackness any optimal y' lives on J and equalises the rows of I (and
    likewise any x'), and that bordered system is nonsingular (for size 2 its
    determinant is d).  So the answer is exactly the simplex's, and the test
    is its own certificate.  The search costs O(m^2 n^2 (m + n)).
    """
    n_rows, n_cols = len(a), len(a[0])
    scale = lcm(*(v.denominator for row in a for v in row))
    k = [[v.numerator * (scale // v.denominator) for v in row] for row in a]

    for i, row in enumerate(k):
        lo = min(row)
        if row.count(lo) != 1:
            continue
        j = row.index(lo)
        if all(other[j] < lo for s, other in enumerate(k) if s != i):
            return a[i][j], pure(i, n_rows), pure(j, n_cols)

    for i1, i2 in combinations(range(n_rows), 2):
        row1, row2 = k[i1], k[i2]
        for j1, j2 in combinations(range(n_cols), 2):
            p, q, r, s = row1[j1], row1[j2], row2[j1], row2[j2]
            d = p + s - q - r
            if d == 0:
                continue
            sign = 1 if d > 0 else -1
            # x, y and v over the common positive denominator |d|.
            x1, x2, y1, y2 = sign * (s - r), sign * (p - q), sign * (s - q), sign * (p - r)
            if x1 <= 0 or x2 <= 0 or y1 <= 0 or y2 <= 0:
                continue
            v = sign * (p * s - q * r)
            if any(other[j1] * y1 + other[j2] * y2 >= v
                   for t, other in enumerate(k) if t != i1 and t != i2):
                continue
            if any(row1[t] * x1 + row2[t] * x2 <= v
                   for t in range(n_cols) if t != j1 and t != j2):
                continue
            den = sign * d
            x = [Fraction(0)] * n_rows
            x[i1], x[i2] = Fraction(x1, den), Fraction(x2, den)
            y = [Fraction(0)] * n_cols
            y[j1], y[j2] = Fraction(y1, den), Fraction(y2, den)
            return Fraction(v, den * scale), tuple(x), tuple(y)
    return None
