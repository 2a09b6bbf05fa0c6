"""Independent checks of the documents the matchgames CLI writes.

Nothing here imports matchgames.  Every check re-reads the JSON documents
and recomputes what it needs with exact Fractions, from definitions rather
than from the package's solvers:

* a pair's achievable payoffs are the convex hull of its matrix entry points
  (A[s][t], M[s][t]); for zero-sum and strictly competitive pairs that hull is
  a segment, for repeated pairs a polygon;
* a pair blocks when the hull meets the open quadrant above both thresholds,
  which happens exactly when some entry point or some segment between two
  entry points does (walk from an inner point of the quadrant in direction
  (1, 1) until the hull boundary, a union of such segments);
* contract choice functions are evaluated by brute force over admissible
  subsets, with the package's documented tie-break.

Each check raises CheckError with the first violation it finds.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from itertools import combinations, product


class CheckError(Exception):
    """An output failed an independent check."""


def q(value) -> Fraction:
    """Exact rational from an int or a canonical "p/q" string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise CheckError(f"not a rational literal: {value!r}")
    return Fraction(value)


# ---------------------------------------------------------------------------
# Planar hull geometry


def _points(a, m, flip=False):
    pts = {(a[s][t], m[s][t]) for s in range(len(a)) for t in range(len(a[0]))}
    return sorted((g, f) for f, g in pts) if flip else sorted(pts)


def _segment_meets_quadrant(p, r, f0, g0):
    """Does some point of segment [p, r] have f > f0 and g > g0?"""
    lo, lo_open, hi, hi_open = Fraction(0), False, Fraction(1), False
    for start, stop, floor in ((p[0], r[0], f0), (p[1], r[1], g0)):
        step, need = stop - start, floor - start  # start + t*step > floor
        if step == 0:
            if not need < 0:
                return False
        elif step > 0:
            t = need / step
            if t >= lo:
                lo, lo_open = t, True
        else:
            t = need / step
            if t <= hi:
                hi, hi_open = t, True
    return lo < hi or (lo == hi and not lo_open and not hi_open)


def hull_blocks(points, f0, g0) -> bool:
    """Does conv(points) meet {f > f0, g > g0}?"""
    if any(f > f0 and g > g0 for f, g in points):
        return True
    return any(_segment_meets_quadrant(p, r, f0, g0) for p, r in combinations(points, 2))


def hull_max_f(points, g_floor):
    """max{f : (f, g) in conv(points), g >= g_floor}, or None when empty."""
    best = None
    for f, g in points:
        if g >= g_floor and (best is None or f > best):
            best = f
    for (f1, g1), (f2, g2) in combinations(points, 2):
        if (g1 - g_floor) * (g2 - g_floor) < 0:
            f = f1 + (g_floor - g1) / (g2 - g1) * (f2 - f1)
            if best is None or f > best:
                best = f
    return best


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p, a, b):
    return (_cross(a, b, p) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def hull_contains(points, p) -> bool:
    """Is p in conv(points)?  Carathéodory: some point, segment or triangle holds it."""
    if p in points:
        return True
    if any(_on_segment(p, a, b) for a, b in combinations(points, 2)):
        return True
    for a, b, c in combinations(points, 3):
        if _cross(a, b, c) == 0:
            continue
        s1, s2, s3 = _cross(a, b, p), _cross(b, c, p), _cross(c, a, p)
        if (s1 >= 0 and s2 >= 0 and s3 >= 0) or (s1 <= 0 and s2 <= 0 and s3 <= 0):
            return True
    return False


# ---------------------------------------------------------------------------
# Strategies and payoffs


def _mixed(weights, size, label):
    if not isinstance(weights, list) or len(weights) != size:
        raise CheckError(f"{label}: expected {size} weights, got {weights!r}")
    ws = [q(w) for w in weights]
    if any(w < 0 for w in ws) or sum(ws) != 1:
        raise CheckError(f"{label}: not a probability vector {weights!r}")
    return ws


def _bilinear(x, mat, y):
    return sum((xi * mat[i][j] * yj for i, xi in enumerate(x) if xi
                for j, yj in enumerate(y) if yj), Fraction(0))


def _cycle_average(entry, a, m, label):
    steps = entry.get("cycle") if isinstance(entry, dict) else None
    if not steps:
        raise CheckError(f"{label}: missing or empty cycle")
    fa = fm = Fraction(0)
    for s, t in steps:
        if not (0 <= s < len(a) and 0 <= t < len(a[0])):
            raise CheckError(f"{label}: cycle step ({s},{t}) outside the game")
        fa += a[s][t]
        fm += m[s][t]
    return fa / len(steps), fm / len(steps)


def _matrix(rows):
    return tuple(tuple(q(v) for v in row) for row in rows)


# ---------------------------------------------------------------------------
# Two-sided markets


class Market:
    """An additive separable instance read from its JSON document."""

    def __init__(self, doc):
        if doc.get("model") != "additive_separable":
            raise CheckError("not an additive separable instance")
        self.doctors = {e["id"]: (q(e["irp"]), len(e["strategies"])) for e in doc["doctors"]}
        self.hospitals = {e["id"]: (q(e["irp"]), e["quota"], len(e["strategies"]))
                          for e in doc["hospitals"]}
        self.games = {(g["doctor"], g["hospital"]): (_matrix(g["A"]), _matrix(g["M"]), g["class"])
                      for g in doc["games"]}
        self.points = {key: _points(a, m) for key, (a, m, _) in self.games.items()}


def market_payoffs(market: Market, alloc: dict):
    """(doctor payoffs, seat values {(h, d): g}, members {h: [d]}) recomputed exactly."""
    matching = alloc["matching"]
    if set(matching) != set(market.doctors):
        raise CheckError("matching does not list every doctor exactly once")
    pay, seats, members = {}, {}, {h: [] for h in market.hospitals}
    for d, h in sorted(matching.items()):
        if h is None:
            pay[d] = market.doctors[d][0]
            continue
        if (d, h) not in market.games:
            raise CheckError(f"{d} matched to {h!r}, which is no hospital of hers")
        a, m, cls = market.games[(d, h)]
        key = f"{h}|{d}"
        if cls == "repeated":
            f, g = _cycle_average(alloc.get("cycles", {}).get(key), a, m, f"cycle {key}")
        else:
            x = _mixed(alloc["doctor_strategies"].get(d), len(a), f"doctor {d}")
            y = _mixed(alloc["hospital_strategies"].get(key), len(a[0]), f"hospital {key}")
            f, g = _bilinear(x, a, y), _bilinear(x, m, y)
        pay[d], seats[(h, d)] = f, g
        members[h].append(d)
    return pay, seats, members


def check_market_allocation(market: Market, alloc: dict, epsilon: Fraction):
    """Payoffs from the matrices, individual rationality and exact eps-pairwise stability.

    Conventions checked are the package's documented ones: hospital
    rationality is per seat, and a hospital's blocking threshold is the
    partner's own seat, its weakest seat when full, or its baseline when a
    seat is free.  Returns the recomputed doctor payoffs.
    """
    pay, seats, members = market_payoffs(market, alloc)
    for d, (irp, _) in market.doctors.items():
        if pay[d] < irp - epsilon:
            raise CheckError(f"doctor {d} paid {pay[d]} below her IRP {irp} - eps")
    for h, (irp, quota, _) in market.hospitals.items():
        if len(members[h]) > quota:
            raise CheckError(f"hospital {h} over quota")
        for d in members[h]:
            if seats[(h, d)] < irp - epsilon:
                raise CheckError(f"hospital {h} seat {d} below its baseline - eps")
    for (d, h), points in market.points.items():
        irp, quota, _ = market.hospitals[h]
        if alloc["matching"][d] == h:
            g_floor = seats[(h, d)]
        elif len(members[h]) >= quota:
            g_floor = min(seats[(h, dd)] for dd in members[h])
        else:
            g_floor = irp
        if hull_blocks(points, pay[d] + epsilon, g_floor + epsilon):
            raise CheckError(f"pair ({d},{h}) blocks: doctor at {pay[d]}, hospital floor {g_floor}")
    return pay


def check_blocking_coalition(market: Market, alloc: dict, epsilon: Fraction, witness: dict):
    """Replay a reported coalition (I, h) under the package's team-replacement rule.

    Every doctor of I must be able to earn more than her payoff plus eps at
    h, and the supremum of the seat values h then gets from I must exceed
    h's current payoff (its seat sum, or its baseline when empty) plus eps.
    """
    pay, seats, members = market_payoffs(market, alloc)
    h, team = witness["hospital"], witness["doctors"]
    irp, quota, _ = market.hospitals[h]
    if not team or len(set(team)) != len(team) or len(team) > quota:
        raise CheckError(f"coalition {team} at {h} has the wrong size")
    current = sum((seats[(h, d)] for d in members[h]), Fraction(0)) if members[h] else irp
    total = Fraction(0)
    for d in team:
        if max(f for f, _ in market.points[(d, h)]) <= pay[d] + epsilon:
            raise CheckError(f"{d} cannot gain more than eps at {h}")
        flipped = sorted((g, f) for f, g in market.points[(d, h)])
        total += hull_max_f(flipped, pay[d] + epsilon)
    if not total > current + epsilon:
        raise CheckError(f"coalition {team} at {h} offers {total}, not above {current} + eps")


def check_verify_report(report: dict, renegotiation: bool):
    """The verify command's own report: IR, no blocking pair, and with
    ``renegotiation`` a renegotiation-proof verdict and no blocking
    coalition.  A coalition found by ``verify --coalitions`` is left to
    check_blocking_coalition."""
    if report.get("individually_rational") is not True:
        raise CheckError(f"verify reports an IR violation: {report.get('ir_witness')}")
    if report.get("blocking_pair") is not None:
        raise CheckError(f"verify reports a blocking pair: {report['blocking_pair']}")
    if renegotiation and report.get("blocking_coalition") is not None:
        raise CheckError(f"verify reports a blocking coalition: {report['blocking_coalition']}")
    if renegotiation and report.get("renegotiation_proof") is not True:
        raise CheckError(f"verify --renegotiation fails: {report.get('renegotiation_witness')}")


def check_same_matching(before: dict, after: dict):
    if before["matching"] != after["matching"]:
        raise CheckError("renegotiate changed the matching")


# ---------------------------------------------------------------------------
# Roommates


class Roommates:
    """A roommates instance read from its JSON document; rows belong to ``doctor``."""

    def __init__(self, doc):
        if doc.get("model") != "roommates":
            raise CheckError("not a roommates instance")
        self.irp = {e["id"]: q(e["irp"]) for e in doc["doctors"]}
        self.games = {}
        for g in doc["games"]:
            a, b = g["doctor"], g["doctor2"]
            if not a < b:
                raise CheckError(f"game ({a},{b}) is not keyed by the sorted pair")
            self.games[(a, b)] = (_matrix(g["A"]), _matrix(g["M"]), g["class"])
        self._points = {}

    def points(self, d, e):
        """Entry points of pair {d, e} as (payoff of d, payoff of e)."""
        if (d, e) not in self._points:
            a, m, _ = self.games[(d, e)] if d < e else self.games[(e, d)]
            self._points[(d, e)] = _points(a, m, flip=not d < e)
        return self._points[(d, e)]

    def partners(self, d):
        return sorted({b for a, b in self.games if a == d} | {a for a, b in self.games if b == d})


def check_roommates_instance(doc: dict, n_doctors: int):
    """A generated roommates instance: sorted pair keys, every pair present, shapes right."""
    instance = Roommates(doc)
    sizes = {e["id"]: len(e["strategies"]) for e in doc["doctors"]}
    if len(sizes) != n_doctors:
        raise CheckError(f"expected {n_doctors} doctors, found {len(sizes)}")
    ids = sorted(sizes)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if (a, b) not in instance.games:
                raise CheckError(f"pair ({a},{b}) has no game")
            mat = instance.games[(a, b)][0]
            if (len(mat), len(mat[0])) != (sizes[a], sizes[b]):
                raise CheckError(f"game ({a},{b}) has the wrong shape")


def read_profile(instance: Roommates, doc: dict):
    if set(doc) != set(instance.irp):
        raise CheckError("profile does not list every doctor exactly once")
    return {d: q(v) for d, v in doc.items()}


def check_aspiration(instance: Roommates, profile: dict):
    """v_d = max(irp_d, max over partners e of max{f : (f, g) in hull, g >= v_e})."""
    for d, irp in instance.irp.items():
        best = irp
        for e in instance.partners(d):
            u = hull_max_f(instance.points(d, e), profile[e])
            if u is not None and u > best:
                best = u
        if profile[d] != best:
            raise CheckError(f"aspiration fails at {d}: value {profile[d]}, max equation gives {best}")


def check_realized(instance: Roommates, profile: dict, alloc: dict):
    """Every doctor is paid exactly her value, and no pair blocks (eps = 0)."""
    matching = alloc.get("matching", {})
    if alloc.get("realizable") is not True or set(matching) != set(instance.irp):
        raise CheckError("realized allocation is malformed")
    pay = {}
    for d, e in matching.items():
        if e is None:
            pay[d] = instance.irp[d]
            continue
        if matching.get(e) != d:
            raise CheckError(f"matching is not symmetric at {d}")
        a, b = min(d, e), max(d, e)
        if (a, b) not in instance.games:
            raise CheckError(f"pair ({a},{b}) has no game")
        mat_a, mat_m, cls = instance.games[(a, b)]
        if cls == "repeated":
            fa, fb = _cycle_average(alloc.get("cycles", {}).get(f"{a}|{b}"), mat_a, mat_m, f"cycle {a}|{b}")
        else:
            x = _mixed(alloc["doctor_strategies"].get(a), len(mat_a), f"doctor {a}")
            y = _mixed(alloc["doctor_strategies"].get(b), len(mat_a[0]), f"doctor {b}")
            fa, fb = _bilinear(x, mat_a, y), _bilinear(x, mat_m, y)
        pay[d] = fa if d == a else fb
    for d, v in profile.items():
        if pay[d] != v:
            raise CheckError(f"doctor {d} is paid {pay[d]}, her value is {v}")
    for a, b in instance.games:
        if hull_blocks(instance.points(a, b), pay[a], pay[b]):
            raise CheckError(f"pair ({a},{b}) blocks the realized allocation")


def check_unrealizable(instance: Roommates, profile: dict, report: dict):
    """No matching of the demand graph covers every doctor above her IRP.

    Checked with networkx's maximum weight matching, each edge weighted by
    the number of its ends that must be matched.
    """
    import networkx as nx

    if report.get("realizable") is not False:
        raise CheckError("unrealizable report is malformed")
    must = {d for d, v in profile.items() if v != instance.irp[d]}
    if report.get("exposed_doctor") not in must:
        raise CheckError(f"exposed doctor {report.get('exposed_doctor')!r} need not be matched")
    graph = nx.Graph()
    for a, b in instance.games:
        weight = (a in must) + (b in must)
        if weight and hull_contains(instance.points(a, b), (profile[a], profile[b])):
            graph.add_edge(a, b, weight=weight)
    mate = nx.max_weight_matching(graph)
    covered = sum(graph[a][b]["weight"] for a, b in mate)
    if covered == len(must):
        raise CheckError(f"demand graph has a matching covering all {len(must)} doctors above IRP")


# ---------------------------------------------------------------------------
# Contracts


class ContractModel:
    """A contract model read from its JSON document, with brute-force choices."""

    def __init__(self, doc):
        self.doctor = {c["id"]: c["doctor"] for c in doc["contracts"]}
        self.hospital = {c["id"]: c["hospital"] for c in doc["contracts"]}
        self.utility = {cid: q(v) for table in doc["doctor_utilities"].values()
                        for cid, v in table.items()}
        self.tables, self.weights, self.quota = {}, {}, {}
        for h, entry in doc["hospitals"].items():
            if "table" in entry:
                self.tables[h] = {frozenset(k.split("+")) if k else frozenset(): q(v)
                                  for k, v in entry["table"].items()}
            else:
                self.weights[h] = {cid: q(v) for cid, v in entry["weights"].items()}
                self.quota[h] = entry.get("quota", 1)

    def value(self, h, subset):
        """Utility of an admissible subset (one contract per doctor), else None."""
        if h in self.tables:
            return self.tables[h].get(frozenset(subset))
        weights = self.weights[h]
        if len(subset) > self.quota[h] or any(c not in weights for c in subset):
            return None
        return sum((weights[c] for c in subset), Fraction(0))

    def choose_hospital(self, h, pool):
        """Best admissible subset of h's contracts in pool; empty set at 0;
        ties go to the lexicographically smallest sorted id tuple."""
        by_doctor = {}
        for c in sorted(set(pool)):
            if self.hospital[c] == h:
                by_doctor.setdefault(self.doctor[c], []).append(c)
        best_value, best = Fraction(0), ()
        for pick in product(*[[None] + cs for cs in by_doctor.values()]):
            subset = tuple(sorted(c for c in pick if c is not None))
            if not subset:
                continue
            v = self.value(h, subset)
            if v is not None and (v > best_value or (v == best_value and subset < best)):
                best_value, best = v, subset
        return frozenset(best)

    def choose_doctor(self, d, pool):
        """Her best own contract of utility >= 0, smallest id on ties, else None."""
        best = None
        for c in sorted(set(pool)):
            if self.doctor[c] == d and self.utility[c] >= 0:
                if best is None or self.utility[c] > self.utility[best]:
                    best = c
        return best

    def _own(self, h, contracts):
        return frozenset(c for c in contracts if self.hospital[c] == h)

    def individually_rational(self, alloc):
        doctors = [self.doctor[c] for c in alloc]
        if len(doctors) != len(set(doctors)):
            return False
        if any(self.choose_doctor(self.doctor[c], [c]) != c for c in alloc):
            return False
        return all(self.choose_hospital(h, self._own(h, alloc)) == self._own(h, alloc)
                   for h in set(self.hospital.values()))

    def pairwise_stable(self, alloc):
        if not self.individually_rational(alloc):
            return False
        for c in sorted(self.hospital):
            if c in alloc:
                continue
            d, h = self.doctor[c], self.hospital[c]
            mine = [x for x in alloc if self.doctor[x] == d] + [c]
            if self.choose_doctor(d, mine) == c and c in self.choose_hospital(h, self._own(h, alloc) | {c}):
                return False
        return True


def check_contracts_output(model: ContractModel, out: dict, exit_code: int):
    """Replay every audit witness and recompute pairwise stability of the DA output."""
    alloc = frozenset(out["contracts"])
    if any(c not in model.hospital for c in alloc):
        raise CheckError("DA output names an unknown contract")
    if out["matches"] != {model.doctor[c]: model.hospital[c] for c in sorted(alloc)}:
        raise CheckError("DA matches disagree with its contracts")
    audit = out["audit"]
    hospitals = sorted(set(model.hospital.values()))
    for h in hospitals:
        entry = audit[h]
        if entry["substitutable"] is False:
            subset, x, x_new = entry["substitutability_witness"]
            if (len(model._own(h, subset + [x_new])) != len(subset) + 1
                    or x not in subset or x_new in subset
                    or x in model.choose_hospital(h, subset)
                    or x not in model.choose_hospital(h, subset + [x_new])):
                raise CheckError(f"substitutability witness at {h} does not replay: {entry}")
        if entry["irc"] is False:
            subset, z = entry["irc_witness"]
            with_z = model.choose_hospital(h, subset + [z])
            if (len(model._own(h, subset + [z])) != len(subset) + 1 or z in subset or z in with_z
                    or with_z == model.choose_hospital(h, subset)):
                raise CheckError(f"IRC witness at {h} does not replay: {entry}")
    pairwise = model.pairwise_stable(alloc)
    if audit["pairwise_stable"] != pairwise:
        raise CheckError(f"audit says pairwise_stable={audit['pairwise_stable']}, recomputed {pairwise}")
    if audit["stable"] is False:
        _replay_stability_witness(model, alloc, audit.get("stability_witness"))
    if all(audit[h]["substitutable"] and audit[h]["irc"] for h in hospitals):
        # Hatfield-Milgrom: substitutable, IRC choices make DA stable.
        if not (audit["stable"] and pairwise):
            raise CheckError("every hospital passes both audits, yet DA output is not stable")
    if exit_code != (0 if audit["stable"] else 2):
        raise CheckError(f"exit code {exit_code} disagrees with stable={audit['stable']}")


def _replay_stability_witness(model, alloc, text):
    if text == "individual rationality fails":
        if model.individually_rational(alloc):
            raise CheckError("audit claims an IR failure the brute force does not see")
        return
    try:
        h, block = ast.literal_eval(text)
    except (ValueError, SyntaxError, TypeError) as exc:
        raise CheckError(f"unreadable stability witness {text!r}") from exc
    block = frozenset(block)
    pool = alloc | block
    if (block == model.choose_hospital(h, model._own(h, alloc))
            or model.choose_hospital(h, pool) != block
            or any(model.choose_doctor(model.doctor[c], [x for x in pool if model.doctor[x] == model.doctor[c]]) != c
                   for c in block)):
        raise CheckError(f"stability witness {text} does not replay")
