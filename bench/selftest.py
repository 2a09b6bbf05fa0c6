"""Self-tests of the independent checks: each must reject a planted defect.

Every case pairs a correct document, which the check must accept, with the
same document carrying one planted defect, which it must reject.  The
benchmark runs these before every run; run them alone with

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction

import checks

EPS = Fraction(1, 2)

# d1 is matched to h1 and could also work at h2, which has a free seat.
MARKET = {
    "model": "additive_separable",
    "doctors": [{"id": "d1", "irp": "-5", "strategies": ["s1", "s2"]}],
    "hospitals": [{"id": "h1", "irp": "-5", "quota": 1, "strategies": ["t1"]},
                  {"id": "h2", "irp": "-5", "quota": 1, "strategies": ["t1"]}],
    "games": [{"doctor": "d1", "hospital": "h1", "class": "zero_sum",
               "A": [["2"], ["0"]], "M": [["-2"], ["0"]]},
              {"doctor": "d1", "hospital": "h2", "class": "zero_sum",
               "A": [["1"], ["1"]], "M": [["-1"], ["-1"]]}],
}
ALLOCATION = {"matching": {"d1": "h1"}, "doctor_strategies": {"d1": ["1", "0"]},
              "hospital_strategies": {"h1|d1": ["1"]}}

# One zero-sum pair on the segment from (1, -1) to (3, -3).
PAIR = {
    "model": "roommates",
    "doctors": [{"id": "d1", "irp": "-10", "strategies": ["s1", "s2"]},
                {"id": "d2", "irp": "-10", "strategies": ["s1"]}],
    "games": [{"doctor": "d1", "doctor2": "d2", "class": "zero_sum",
               "A": [["3"], ["1"]], "M": [["-3"], ["-1"]]}],
}

# Three doctors, every pair zero-sum on the segment from (1, -1) to (-1, 1):
# at the all-zero aspiration the demand graph is a triangle.
TRIANGLE = {
    "model": "roommates",
    "doctors": [{"id": d, "irp": "-10", "strategies": ["s1", "s2"]} for d in ("d1", "d2", "d3")],
    "games": [{"doctor": a, "doctor2": b, "class": "zero_sum",
               "A": [["1", "1"], ["-1", "-1"]], "M": [["-1", "-1"], ["1", "1"]]}
              for a, b in (("d1", "d2"), ("d1", "d3"), ("d2", "d3"))],
}
UNREALIZABLE = {"realizable": False, "exposed_doctor": "d1", "component": ["d1", "d2", "d3"],
                "message": "no covering matching"}

# Hospital h wants a and b only together: a is rejected alone, chosen with b.
COMPLEMENTS = {
    "contracts": [{"id": "a", "doctor": "da", "hospital": "h"},
                  {"id": "b", "doctor": "db", "hospital": "h"},
                  {"id": "c", "doctor": "dc", "hospital": "h"}],
    "doctor_utilities": {"da": {"a": "1"}, "db": {"b": "1"}, "dc": {"c": "1"}},
    "hospitals": {"h": {"table": {"a": "-1", "b": "-1", "c": "1", "a+b": "5", "a+c": "0",
                                  "b+c": "0", "a+b+c": "4"}}},
}
COMPLEMENTS_OUT = {
    "contracts": ["a", "b"], "matches": {"da": "h", "db": "h"},
    "audit": {"h": {"substitutable": False, "substitutability_witness": [["a"], "a", "b"],
                    "irc": True},
              "stable": True, "pairwise_stable": True},
}


def _market_pair_blocks():
    market = checks.Market(MARKET)
    checks.check_market_allocation(market, ALLOCATION, EPS)
    moved = copy.deepcopy(ALLOCATION)
    moved["doctor_strategies"]["d1"] = ["0", "1"]  # d1 now earns 0; (d1, h2) offers 1
    return lambda: checks.check_market_allocation(market, moved, EPS)


def _market_payoff_from_matrices():
    market = checks.Market(MARKET)
    bad = copy.deepcopy(ALLOCATION)
    bad["doctor_strategies"]["d1"] = ["1", "1"]  # not a probability vector
    return lambda: checks.check_market_allocation(market, bad, EPS)


def _coalition_that_does_not_block():
    # With d1 earning 0 at h1, d1 alone blocks at the empty h2 (seat -1 > -5
    # + eps); at h1 her best seat value above 1/2 is -1/2, not above 0 + eps.
    market = checks.Market(MARKET)
    moved = copy.deepcopy(ALLOCATION)
    moved["doctor_strategies"]["d1"] = ["0", "1"]
    checks.check_blocking_coalition(market, moved, EPS, {"doctors": ["d1"], "hospital": "h2"})
    return lambda: checks.check_blocking_coalition(market, moved, EPS,
                                                   {"doctors": ["d1"], "hospital": "h1"})


def _renegotiation_keeps_matching():
    checks.check_same_matching(ALLOCATION, ALLOCATION)
    moved = copy.deepcopy(ALLOCATION)
    moved["matching"]["d1"] = "h2"
    return lambda: checks.check_same_matching(ALLOCATION, moved)


def _aspiration_off_by_half():
    instance = checks.Roommates(PAIR)
    checks.check_aspiration(instance, {"d1": Fraction(2), "d2": Fraction(-2)})
    return lambda: checks.check_aspiration(instance, {"d1": Fraction(5, 2), "d2": Fraction(-2)})


def _realized_pays_values():
    instance = checks.Roommates(PAIR)
    profile = {"d1": Fraction(2), "d2": Fraction(-2)}
    alloc = {"realizable": True, "matching": {"d1": "d2", "d2": "d1"},
             "doctor_strategies": {"d1": ["1/2", "1/2"], "d2": ["1"]}}
    checks.check_realized(instance, profile, alloc)
    off = copy.deepcopy(alloc)
    off["doctor_strategies"]["d1"] = ["1", "0"]  # pays d1 3, not 2
    return lambda: checks.check_realized(instance, profile, off)


def _unrealizable_has_perfect_matching():
    triangle = checks.Roommates(TRIANGLE)
    checks.check_unrealizable(triangle, {d: Fraction(0) for d in ("d1", "d2", "d3")}, UNREALIZABLE)
    pair = checks.Roommates(PAIR)
    report = dict(UNREALIZABLE, component=["d1", "d2"])
    return lambda: checks.check_unrealizable(pair, {"d1": Fraction(2), "d2": Fraction(-2)}, report)


def _tampered_substitutability_witness():
    model = checks.ContractModel(COMPLEMENTS)
    checks.check_contracts_output(model, COMPLEMENTS_OUT, 0)
    tampered = copy.deepcopy(COMPLEMENTS_OUT)
    tampered["audit"]["h"]["substitutability_witness"] = [["a"], "a", "c"]  # c does not pull a in
    return lambda: checks.check_contracts_output(model, tampered, 0)


def _pairwise_stability_claim():
    # {c} is pairwise stable (no single contract is wanted by both sides),
    # but not stable: h and doctors da, db block with {a, b}.
    model = checks.ContractModel(COMPLEMENTS)
    right = copy.deepcopy(COMPLEMENTS_OUT)
    right["contracts"], right["matches"] = ["c"], {"dc": "h"}
    right["audit"].update(stable=False, stability_witness="('h', ('a', 'b'))", pairwise_stable=True)
    checks.check_contracts_output(model, right, 2)
    wrong = copy.deepcopy(right)
    wrong["audit"]["pairwise_stable"] = False
    return lambda: checks.check_contracts_output(model, wrong, 2)


CASES = {
    "market: a moved profile lets a known pair block": _market_pair_blocks,
    "market: strategies that are no probability vector": _market_payoff_from_matrices,
    "market: a reported coalition that does not block": _coalition_that_does_not_block,
    "renegotiation: a changed matching": _renegotiation_keeps_matching,
    "roommates: an aspiration value off by 1/2": _aspiration_off_by_half,
    "roommates: a realized allocation paying the wrong value": _realized_pays_values,
    "roommates: 'unrealizable' on a graph with a perfect matching": _unrealizable_has_perfect_matching,
    "contracts: a tampered substitutability witness": _tampered_substitutability_witness,
    "contracts: a wrong pairwise-stability claim": _pairwise_stability_claim,
}


def run_all():
    """Names of the cases whose control is rejected or whose defect is accepted."""
    failures = []
    for name, case in CASES.items():
        try:
            planted = case()
        except checks.CheckError as exc:
            failures.append(f"{name}: the correct control was rejected ({exc})")
            continue
        try:
            planted()
        except checks.CheckError:
            continue
        failures.append(f"{name}: the planted defect was accepted")
    return failures


if __name__ == "__main__":
    problems = run_all()
    for line in problems:
        print(f"FAIL {line}")
    print(f"{len(CASES) - len(problems)}/{len(CASES)} checker self-tests reject their planted defect")
    sys.exit(1 if problems else 0)
