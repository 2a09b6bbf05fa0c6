"""Exact rational linear programming via a two-phase simplex.

Desk-scale problems only (tens of variables); everything runs on
:class:`fractions.Fraction` and the optimum satisfies every constraint with
exact equality checks.  Bland's rule makes the pivot sequence deterministic
and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import Matrix, pure
from .errors import MatchGamesError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "==", ">="


@dataclass
class LinearProgram:
    """max/min c.x subject to rows (coeffs, relation, rhs); x >= 0 by default.

    Per-variable bounds: ``lower=None`` frees the variable (internally split
    into a difference of two nonnegatives), a rational lower bound shifts it.
    Upper bounds become extra constraint rows.
    """

    objective: Sequence[Fraction]
    sense: str = "max"
    constraints: List[Tuple[Sequence[Fraction], str, Fraction]] = field(default_factory=list)
    lower_bounds: Optional[List[Optional[Fraction]]] = None
    upper_bounds: Optional[List[Optional[Fraction]]] = None

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
    n = len(program.objective)
    lowers = list(program.lower_bounds) if program.lower_bounds is not None else [Fraction(0)] * n
    uppers = list(program.upper_bounds) if program.upper_bounds is not None else [None] * n
    if len(lowers) != n or len(uppers) != n:
        raise MatchGamesError("bounds length does not match variable count")

    # Map original variables onto nonnegative internal ones.
    # var i -> (kind, data): shifted x = z + lo, or free x = z+ - z-.
    column_of: List[Tuple[str, int]] = []
    n_internal = 0
    for lo in lowers:
        if lo is None:
            column_of.append(("free", n_internal))
            n_internal += 2
        else:
            column_of.append(("shift", n_internal))
            n_internal += 1

    def expand(coeffs: Sequence[Fraction]) -> Tuple[List[Fraction], Fraction]:
        """Rewrite a row over internal variables; returns (row, rhs_offset)."""
        row = [Fraction(0)] * n_internal
        offset = Fraction(0)
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            kind, base = column_of[i]
            if kind == "shift":
                row[base] += c
                offset += c * lowers[i]
            else:
                row[base] += c
                row[base + 1] -= c
        return row, offset

    sign = Fraction(1) if program.sense == "max" else Fraction(-1)
    objective_row, objective_offset = expand([sign * c for c in program.objective])

    rows: List[Tuple[List[Fraction], str, Fraction]] = []
    for coeffs, relation, rhs in program.constraints:
        row, offset = expand(coeffs)
        rows.append((row, relation, Fraction(rhs) - offset))
    for i, up in enumerate(uppers):
        if up is None:
            continue
        coeffs = [Fraction(0)] * n
        coeffs[i] = Fraction(1)
        row, offset = expand(coeffs)
        rows.append((row, LE, Fraction(up) - offset))

    status, internal_solution, value = _simplex_standard(objective_row, rows)
    if status != OPTIMAL:
        return LpResult(status=status)

    solution = []
    for i in range(n):
        kind, base = column_of[i]
        if kind == "shift":
            solution.append(internal_solution[base] + lowers[i])
        else:
            solution.append(internal_solution[base] - internal_solution[base + 1])
    objective_value = sign * (value + objective_offset)
    return LpResult(status=OPTIMAL, value=objective_value, solution=tuple(solution))


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
    A strict pure saddle point is answered in closed form; every other game
    solves two LPs.
    """
    n_rows, n_cols = len(a), len(a[0])
    saddle = _strict_saddle(a)
    if saddle is not None:
        i, j = saddle
        return a[i][j], pure(i, n_rows), pure(j, n_cols)

    # Row side: max v s.t. sum_i x_i a[i][j] >= v for all j, x in simplex.
    lp = LinearProgram(
        objective=[Fraction(0)] * n_rows + [Fraction(1)],
        sense="max",
        lower_bounds=[Fraction(0)] * n_rows + [None],
        upper_bounds=[None] * (n_rows + 1),
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
        lower_bounds=[Fraction(0)] * n_cols + [None],
        upper_bounds=[None] * (n_cols + 1),
    )
    for i in range(n_rows):
        lp2.add([a[i][j] for j in range(n_cols)] + [Fraction(-1)], LE, Fraction(0))
    lp2.add([Fraction(1)] * n_cols + [Fraction(0)], EQ, Fraction(1))
    col_result = solve_lp(lp2)
    if col_result.status != OPTIMAL or col_result.value != value:
        raise MatchGamesError("primal and dual game values disagree")
    y_star = tuple(col_result.solution[:n_cols])
    return value, x_star, y_star


def _strict_saddle(a: Matrix) -> Optional[Tuple[int, int]]:
    """The entry (i, j) strictly below the rest of its row and strictly above
    the rest of its column, or None.

    Such an entry is the value, and e_i, e_j are the only optimal strategies:
    against any column mix with weight off j, row i pays more than a[i][j],
    and any row mix with weight off i pays less against column j.  So the
    check itself certifies the answer, and the LPs would return the same one.
    A game has at most one strict saddle.  Entries are compared by integer
    cross-multiplication, exact on normalised Fractions.
    """
    for i, row in enumerate(a):
        # The unique minimum of row i, if it has one.
        j, lo_n, lo_d, unique = 0, row[0].numerator, row[0].denominator, True
        for t in range(1, len(row)):
            n, d = row[t].numerator, row[t].denominator
            if n * lo_d < lo_n * d:
                j, lo_n, lo_d, unique = t, n, d, True
            elif n * lo_d == lo_n * d:
                unique = False
        if not unique:
            continue
        for s, other in enumerate(a):
            if s != i and other[j].numerator * lo_d >= lo_n * other[j].denominator:
                break
        else:
            return i, j
    return None
