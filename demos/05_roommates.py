"""Roommates markets: aspirations, demand graphs, and certified emptiness.

In a roommates market every pair splits the outcome of its own zero-sum
game.  An aspiration gives each doctor exactly the best value some partner
can concede; it is implementable when mutual demanders can be matched up
with nobody above her outside option left over.  When implementation fails,
a grid search over every matching and payoff split certifies that no stable
allocation exists at all (odd demand cycles are the classical obstruction).

Run:  python3 demos/05_roommates.py
"""

from fractions import Fraction as F

from matchgames import (
    evaluate_payoffs,
    is_aspiration,
    realize_aspiration,
    solve_aspiration_zero_sum,
)
from matchgames.gen import generate_instance
from matchgames.roommates import UnrealizableReport, build_demand_graph
from matchgames.stability import find_blocking_pair, grid_stable_roommates_search

for seed, label in ((13, "a solvable market"), (1, "a market with an empty stable set")):
    print(f"=== seed {seed}: {label} ===")
    instance = generate_instance(
        seed=seed, model="roommates", n_doctors=5, max_strategies=4,
        classes=["zero_sum"],
    )
    profile = solve_aspiration_zero_sum(instance)
    print("  aspiration:", {d: str(v) for d, v in sorted(profile.items())})
    print("  passes the aspiration equation:", is_aspiration(instance, profile)[0])
    graph = build_demand_graph(instance, profile)
    print("  demand edges:", sorted(graph.points))

    result = realize_aspiration(instance, profile)
    if isinstance(result, UnrealizableReport):
        print("  not realizable:", result.message)
        print("  exposed doctor:", result.exposed_doctor, "in component", result.component)
        hit = grid_stable_roommates_search(instance, mesh=16, tolerance=F(1, 16))
        print("  grid search over all matchings and splits:",
              "found nothing -- stable set certified empty" if hit is None else hit)
    else:
        print("  matching:", {d: p for d, p in sorted(result.matching.items())})
        payoffs = evaluate_payoffs(instance, result)
        print("  payoffs reproduce the aspiration:",
              payoffs.doctor_payoffs == profile)
        print("  blocking pair:", find_blocking_pair(instance, result, F(0)) or "none")
    print()
