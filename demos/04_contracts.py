"""Matching with contracts: deferred acceptance and the substitutes audits.

Hospitals with positive additive per-contract values choose substitutably
and the deferred-acceptance output is fully stable (a zero-weight contract
can break substitutability).  A hospital that values a PAIR
of contracts but neither alone violates substitutability: the algorithm's
output is still pairwise stable, yet a blocking set exists, and the audit
pins the violating triple.

Run:  python3 demos/04_contracts.py
"""

from fractions import Fraction as F

from matchgames.contracts import (
    Contract,
    ContractModel,
    check_hm_stability,
    check_irc,
    check_substitutability,
    is_pairwise_stable,
    run_da_contracts,
)

print("=== additive hospital: one seat, two applicants ===")
model = ContractModel(
    contracts={"c1": Contract("c1", "d1", "h1"), "c2": Contract("c2", "d2", "h1")},
    doctor_utilities={("d1", "c1"): F(3), ("d2", "c2"): F(2)},
    hospital_additive={"h1": {"c1": F(5), "c2": F(7)}},
    hospital_quotas={"h1": 1},
)
out = run_da_contracts(model)
print("  accepted contracts:", sorted(out))
print("  substitutable:", check_substitutability(model, "h1"))
print("  irrelevance of rejected contracts:", check_irc(model, "h1"))
print("  fully stable:", check_hm_stability(model, out))

print("\n=== complementary hospital: wants both or none ===")
comp = ContractModel(
    contracts={"x": Contract("x", "d1", "h1"), "y": Contract("y", "d2", "h1")},
    doctor_utilities={("d1", "x"): F(1), ("d2", "y"): F(1)},
    hospital_additive={"h1": {}},
    hospital_quotas={"h1": 2},
    hospital_tables={"h1": {
        frozenset(): F(0),
        frozenset({"x"}): F(0),
        frozenset({"y"}): F(0),
        frozenset({"x", "y"}): F(10),
    }},
)
out = run_da_contracts(comp)
print("  accepted contracts:", sorted(out) or "none")
print("  pairwise stable:", is_pairwise_stable(comp, out))
ok, witness = check_hm_stability(comp, out)
print("  fully stable:", ok, "| blocking set:", witness)
ok, triple = check_substitutability(comp, "h1")
print("  substitutability audit:", ok, "| witness (pool, dropped, added):", triple)
