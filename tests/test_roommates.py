import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from matchgames.cli import main
from matchgames.core import (
    Allocation,
    BimatrixGame,
    Doctor,
    MatchingGameInstance,
    dump_json,
    evaluate_payoffs,
    format_rational,
    serialize_instance,
)
from matchgames.errors import MatchGamesError, NotAnAspirationError, UnsupportedClassError
from matchgames.gen import generate_instance
from matchgames.roommates import (
    DemandGraph,
    UnrealizableReport,
    _component_of,
    _cover_matching,
    _exposed_witness,
    _LevelSearch,
    _aspiration_rhs,
    _partner_table,
    _stable_profile_search,
    _sweep_aspiration,
    _thresholds,
    build_demand_graph,
    demand_set,
    is_aspiration,
    partnership_value,
    realize_aspiration,
    solve_aspiration_zero_sum,
)
from matchgames.stability import all_matchings, find_blocking_pair, grid_stable_roommates_search

from fixtures import PD_A, PD_M, negate
from oracles import first_cover


def zero_sum_roommates(ranges, irps):
    """Instance with one zero-sum game per pair spanning the given value range."""
    doctors = {
        d: Doctor(id=d, irp=F(v), strategies=("s1", "s2")) for d, v in irps.items()
    }
    games = {}
    for (a, b), (lo, hi) in ranges.items():
        matrix = ((F(lo), F(hi)), (F(lo), F(hi)))
        games[(a, b)] = BimatrixGame(matrix, negate(matrix), "zero_sum")
    return MatchingGameInstance(model="roommates", doctors=doctors, hospitals={}, games=games)


def full_ranges(ids, lo, hi):
    out = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            out[(a, b)] = (lo, hi)
    return out


class TestDemandSets:
    def test_sum_to_zero_with_range(self):
        inst = zero_sum_roommates(full_ranges(["a", "b", "c"], -2, 2),
                                  {"a": -5, "b": -5, "c": -5})
        profile = {"a": F(1), "b": F(-1), "c": F(0)}
        assert demand_set(inst, profile, "a") == {"b"}
        assert demand_set(inst, profile, "b") == {"a"}
        assert demand_set(inst, profile, "c") == set()

    def test_range_clip_excludes(self):
        inst = zero_sum_roommates({("a", "b"): (-2, 2)}, {"a": -5, "b": -5})
        profile = {"a": F(3), "b": F(-3)}
        assert demand_set(inst, profile, "a") == set()

    def test_repeated_hull_membership(self):
        doctors = {d: Doctor(d, F(0), ("c", "b")) for d in ("a", "b")}
        inst = MatchingGameInstance(
            model="roommates", doctors=doctors, hospitals={},
            games={("a", "b"): BimatrixGame(PD_A, PD_M, "repeated")},
        )
        profile = {"a": F(1), "b": F(1)}
        assert demand_set(inst, profile, "a") == {"b"}
        assert demand_set(inst, profile, "b") == {"a"}

    def test_symmetry_on_random_instances(self):
        rng = random.Random(3)
        for seed in range(8):
            inst = generate_instance(seed=seed, model="roommates", n_doctors=5,
                                     max_strategies=3, classes=["zero_sum"])
            profile = {d: F(rng.randint(-5, 5)) for d in inst.doctor_ids}
            graph = build_demand_graph(inst, profile)
            for d in inst.doctor_ids:
                for e in demand_set(inst, profile, d):
                    assert d in demand_set(inst, profile, e)


class TestIsAspiration:
    def test_all_zero_profile(self):
        inst = zero_sum_roommates(full_ranges(["a", "b"], -2, 2), {"a": 0, "b": 0})
        ok, _ = is_aspiration(inst, {"a": F(0), "b": F(0)})
        assert ok

    def test_untight_doctor_is_witnessed(self):
        inst = zero_sum_roommates(full_ranges(["a", "b"], -2, 2), {"a": 0, "b": 0})
        ok, witness = is_aspiration(inst, {"a": F(1), "b": F(0)})
        assert not ok and witness == "a"

    def test_repeated_pd_one_one_is_not_tight(self):
        doctors = {d: Doctor(d, F(0), ("c", "b")) for d in ("a", "b")}
        inst = MatchingGameInstance(
            model="roommates", doctors=doctors, hospitals={},
            games={("a", "b"): BimatrixGame(PD_A, PD_M, "repeated")},
        )
        # granting the partner exactly 1 admits up to 7/3 for the demander
        assert partnership_value(inst, "a", "b", F(1)) == F(7, 3)
        ok, _ = is_aspiration(inst, {"a": F(1), "b": F(1)})
        assert not ok

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_max_equation_equals_the_fraction_maximum(self, seed):
        # Both orientations: every doctor reads her stored games and the
        # flipped views of the others, against random profiles.
        rng = random.Random(seed)
        inst = generate_instance(seed=seed, model="roommates", n_doctors=6, max_denominator=3,
                                 classes=["zero_sum", "strictly_competitive"])
        assert {g.class_tag for g in inst.games.values()} == {"zero_sum", "strictly_competitive"}
        table = _partner_table(inst)
        for _ in range(20):
            profile = {d: F(rng.randint(-36, 36), rng.randint(1, 3)) for d in inst.doctor_ids}
            for d, irp, partners in table:
                values = [partnership_value(inst, d, other, profile[other])
                          for other in inst.doctor_ids if other != d]
                expected = max([irp] + [v for v in values if v is not None])
                assert _aspiration_rhs(partners, profile, irp) == expected


class TestPartnershipFloor:
    """A partner's value is a floor in every class: the repeated pair below
    can reach (3, 3), so granting b at least 1 leaves a up to 3."""

    def instance(self):
        row = ((F(0), F(3)),)  # a 1 x 2 repeated game, A = M
        doctors = {"a": Doctor("a", F(1), ("s",)), "b": Doctor("b", F(1), ("t1", "t2"))}
        return MatchingGameInstance(model="roommates", doctors=doctors, hospitals={},
                                    games={("a", "b"): BimatrixGame(row, row, "repeated")})

    def test_repeated_partner_value_is_a_floor(self):
        inst = self.instance()
        assert partnership_value(inst, "a", "b", F(1)) == F(3)
        assert partnership_value(inst, "b", "a", F(1)) == F(3)
        # Below her worst payoff the floor binds nothing; above her best, no value.
        assert partnership_value(inst, "a", "b", F(-5)) == F(3)
        assert partnership_value(inst, "a", "b", F(4)) is None
        assert is_aspiration(inst, {"a": F(1), "b": F(1)}) == (False, "a")
        assert is_aspiration(inst, {"a": F(3), "b": F(3)}) == (True, None)

    def test_realize_refuses_the_profile_that_leaves_both_single(self, tmp_path, capsys):
        inst_path, profile_path = tmp_path / "inst.json", tmp_path / "profile.json"
        dump_json(serialize_instance(self.instance()), str(inst_path))
        profile_path.write_text(json.dumps({"a": "1", "b": "1"}))
        assert main(["roommates-realize", "--input", str(inst_path), "--profile",
                     str(profile_path), "--output", str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr().err == "error: profile fails the max equation at doctor a\n"


class TestSolveAspiration:
    def test_symmetric_zeros(self):
        inst = zero_sum_roommates(full_ranges(["a", "b", "c"], -2, 2),
                                  {"a": 0, "b": 0, "c": 0})
        assert solve_aspiration_zero_sum(inst) == {"a": F(0), "b": F(0), "c": F(0)}

    def test_asymmetric_irps(self):
        inst = zero_sum_roommates({("a", "b"): (-2, 2)}, {"a": 1, "b": -1})
        assert solve_aspiration_zero_sum(inst) == {"a": F(1), "b": F(-1)}

    def test_single_doctor(self):
        inst = zero_sum_roommates({}, {"a": F(3, 2)})
        assert solve_aspiration_zero_sum(inst) == {"a": F(3, 2)}

    def test_refuses_repeated_instances(self):
        doctors = {d: Doctor(d, F(0), ("c", "b")) for d in ("a", "b")}
        inst = MatchingGameInstance(
            model="roommates", doctors=doctors, hospitals={},
            games={("a", "b"): BimatrixGame(PD_A, PD_M, "repeated")},
        )
        with pytest.raises(UnsupportedClassError):
            solve_aspiration_zero_sum(inst)

    def test_unsearched_failure_is_unsupported_not_nonexistence(self):
        # The sweep finds no aspiration here and the exact search covers
        # zero-sum pairs only, so nothing backs a claim that none exists.
        inst = generate_instance(seed=428710840, n_doctors=9, model="roommates",
                                 classes=["zero_sum", "strictly_competitive"])
        with pytest.raises(UnsupportedClassError, match="zero-sum pairs only"):
            solve_aspiration_zero_sum(inst)

    def test_searched_failure_reports_no_fixed_point(self):
        inst = generate_instance(seed=182423442, n_doctors=8, model="roommates")
        with pytest.raises(MatchGamesError, match="no aspiration fixed point exists") as info:
            solve_aspiration_zero_sum(inst)
        assert not isinstance(info.value, UnsupportedClassError)

    MIXED = ["zero_sum", "strictly_competitive"]

    @pytest.mark.parametrize("n, seed, classes, outcome", [
        (9, 123, None, MatchGamesError),
        (9, 142, None, "search"),
        (9, 189, MIXED, UnsupportedClassError),
        (12, 93, MIXED, UnsupportedClassError),
    ])
    def test_sweep_cycles(self, n, seed, classes, outcome):
        # Generated instances whose sweep repeats a state: the search's
        # profile decides a zero-sum one when it finds one; otherwise the
        # error names the class of failure.
        inst = generate_instance(seed=seed, n_doctors=n, model="roommates",
                                 **({} if classes is None else {"classes": classes}))
        table = _partner_table(inst)
        assert _sweep_aspiration(table) is None
        if outcome == "search":
            stable = _stable_profile_search(inst, table)
            assert stable is not None
            got = solve_aspiration_zero_sum(inst)
            assert got == stable and list(got) == inst.doctor_ids
            return
        with pytest.raises(MatchGamesError) as info:
            solve_aspiration_zero_sum(inst)
        assert type(info.value) is outcome

    def test_profiles_are_keyed_in_doctor_ids_order(self):
        # Seeds 0, 2, 3 and 4 are answered by the search, whose own order puts
        # singles first; the sweep answers the strictly competitive ones.
        for seed in range(5):
            for classes in (["zero_sum"], ["zero_sum", "strictly_competitive"]):
                inst = generate_instance(seed=seed, model="roommates", n_doctors=6, classes=classes)
                try:
                    profile = solve_aspiration_zero_sum(inst)
                except MatchGamesError:
                    continue
                assert list(profile) == inst.doctor_ids

    def test_output_is_always_an_aspiration(self):
        for seed in range(20):
            inst = generate_instance(seed=seed, model="roommates",
                                     n_doctors=4 + seed % 3, max_strategies=4,
                                     classes=["zero_sum"])
            profile = solve_aspiration_zero_sum(inst)
            ok, witness = is_aspiration(inst, profile)
            assert ok, (seed, witness)


class TestRealize:
    def test_pair_plus_irp_singleton(self):
        # c has no partnership opportunities and rests at her IRP.
        inst = zero_sum_roommates({("a", "b"): (-2, 2)},
                                  {"a": -5, "b": -5, "c": 0})
        profile = {"a": F(1), "b": F(-1), "c": F(0)}
        ok, _ = is_aspiration(inst, profile)
        assert ok
        alloc = realize_aspiration(inst, profile)
        assert alloc.matching == {"a": "b", "b": "a", "c": None}
        payoffs = evaluate_payoffs(inst, alloc)
        assert payoffs.doctor_payoffs == profile

    def test_three_zeros_odd_component(self):
        # All three demand value 0 strictly above their IRPs: one of them is
        # always exposed, whatever pair forms.
        inst = zero_sum_roommates(full_ranges(["a", "b", "c"], -2, 2),
                                  {"a": -1, "b": -1, "c": -1})
        profile = {"a": F(0), "b": F(0), "c": F(0)}
        report = realize_aspiration(inst, profile)
        assert isinstance(report, UnrealizableReport)
        assert set(report.component) == {"a", "b", "c"}

    def test_cover_search_finds_the_first_cover_and_names_a_failing_component(self):
        rng = random.Random(30)
        for _ in range(400):
            ids = [f"v{k}" for k in range(rng.randint(1, 9))]
            edges = {pair: None for pair in itertools.combinations(ids, 2) if rng.random() < 0.35}
            singleton_ok = {v: rng.random() < 0.3 for v in ids}
            graph = DemandGraph(ids, edges, singleton_ok)
            must_match = graph.must_match()
            cover = _cover_matching(graph, must_match)
            assert cover == first_cover(graph, must_match)
            if cover is None:
                d, component = _exposed_witness(graph, must_match)
                assert d in must_match and component == tuple(sorted(_component_of(graph, d)))
                assert first_cover(graph, [v for v in component if not singleton_ok[v]]) is None

    def test_requires_an_aspiration(self):
        inst = zero_sum_roommates(full_ranges(["a", "b"], -2, 2), {"a": 0, "b": 0})
        with pytest.raises(NotAnAspirationError):
            realize_aspiration(inst, {"a": F(1), "b": F(0)})

    def test_realized_values_follow_the_profile_exactly(self):
        inst = zero_sum_roommates(full_ranges(["a", "b"], -3, 5), {"a": -9, "b": -9})
        profile = solve_aspiration_zero_sum(inst)
        alloc = realize_aspiration(inst, profile)
        assert not isinstance(alloc, UnrealizableReport)
        payoffs = evaluate_payoffs(inst, alloc)
        assert payoffs.doctor_payoffs == profile


class TestRepeatedPairs:
    def test_frontier_aspiration_realizes_as_cycle(self):
        doctors = {d: Doctor(d, F(0), ("c", "b")) for d in ("a", "b")}
        inst = MatchingGameInstance(
            model="roommates", doctors=doctors, hospitals={},
            games={("a", "b"): BimatrixGame(PD_A, PD_M, "repeated")},
        )
        profile = {"a": F(2), "b": F(2)}  # mutual cooperation point
        ok, _ = is_aspiration(inst, profile)
        assert ok
        alloc = realize_aspiration(inst, profile)
        assert not isinstance(alloc, UnrealizableReport)
        assert alloc.matching == {"a": "b", "b": "a"}
        assert alloc.cycles[("a", "b")].cycle == ((0, 0),)
        payoffs = evaluate_payoffs(inst, alloc)
        assert payoffs.doctor_payoffs == profile

    def test_asymmetric_hull_point_cycle(self):
        doctors = {d: Doctor(d, F(0), ("c", "b")) for d in ("a", "b")}
        inst = MatchingGameInstance(
            model="roommates", doctors=doctors, hospitals={},
            games={("a", "b"): BimatrixGame(PD_A, PD_M, "repeated")},
        )
        # the face between (2,2) and (3,-1): (5/2, 1/2) is a frontier point
        profile = {"a": F(5, 2), "b": F(1, 2)}
        ok, _ = is_aspiration(inst, profile)
        assert ok
        alloc = realize_aspiration(inst, profile)
        assert not isinstance(alloc, UnrealizableReport)
        payoffs = evaluate_payoffs(inst, alloc)
        assert payoffs.doctor_payoffs == profile

    def test_realize_solves_each_hull_lp_once(self, monkeypatch):
        # The max equation, the pair's demand edge and its cycle read one
        # polygon per game: the pair's and the flipped view its second
        # member reads it through, however often the profile is realized.
        from matchgames import core

        builds = []
        payoff_hull = core.payoff_hull
        monkeypatch.setattr(core, "payoff_hull",
                            lambda a, m: builds.append((a, m)) or payoff_hull(a, m))
        pd = BimatrixGame(PD_A, PD_M, "repeated")
        doctors = {d: Doctor(d, F(0), ("c", "b")) for d in ("a", "b")}
        inst = MatchingGameInstance(
            model="roommates", doctors=doctors, hospitals={}, games={("a", "b"): pd},
        )
        for _ in range(3):
            alloc = realize_aspiration(inst, {"a": F(2), "b": F(2)})
            assert alloc.cycles[("a", "b")].cycle == ((0, 0),)
        assert len(builds) == 2 and "frontier" in pd.flipped.__dict__

    # Profile -> sha256 of the roommates-realize document of the repeated
    # prisoners' dilemma pair above.
    PINNED_REALIZE_DIGESTS = {
        ("2", "2"): "a1f8c2b9d62b064835c7888d511e48786267689ef8470227bba65b094b4daa34",
        ("5/2", "1/2"): "e385167a1fa2a861b4ac793c918e7cb6fe94786d4d139c0059eef40ce9e42fd5",
    }

    @pytest.mark.parametrize("values", sorted(PINNED_REALIZE_DIGESTS))
    def test_realize_documents_are_pinned(self, values, tmp_path):
        doctors = {d: Doctor(d, F(0), ("c", "b")) for d in ("a", "b")}
        inst = MatchingGameInstance(
            model="roommates", doctors=doctors, hospitals={},
            games={("a", "b"): BimatrixGame(PD_A, PD_M, "repeated")},
        )
        inst_path, profile_path, out = (tmp_path / name for name in
                                        ("inst.json", "profile.json", "out.json"))
        dump_json(serialize_instance(inst), str(inst_path))
        profile_path.write_text(json.dumps(dict(zip(("a", "b"), values))))
        assert main(["roommates-realize", "--input", str(inst_path), "--profile",
                     str(profile_path), "--output", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.PINNED_REALIZE_DIGESTS[values]


class TestDegenerateFrontiers:
    """Constant (single-point) pair frontiers break the classical theory:
    partnership functions stop being strictly decreasing, so the aspiration
    set can be empty, or stable allocations can exist that no aspiration
    reaches.  The solver handles both honestly."""

    def constant_games(self, values, irps):
        doctors = {d: Doctor(d, F(v), ("s",)) for d, v in irps.items()}
        games = {}
        for (a, b), v in values.items():
            games[(a, b)] = BimatrixGame(((F(v),),), ((F(-v),),), "zero_sum")
        return MatchingGameInstance(model="roommates", doctors=doctors,
                                    hospitals={}, games=games)

    def test_empty_aspiration_set_raises_cleanly(self):
        # the max equation cycles: d1's aspiration flips with d3's value,
        # which flips with d2's, forever
        inst = self.constant_games(
            {("d1", "d2"): -3, ("d1", "d3"): F(17, 2), ("d2", "d3"): F(1, 2)},
            {"d1": -9, "d2": -2, "d3": -9},
        )
        from matchgames.errors import MatchGamesError
        with pytest.raises(MatchGamesError):
            solve_aspiration_zero_sum(inst)
        # the stable set is empty too: every matching is blocked
        assert grid_stable_roommates_search(inst, mesh=4, tolerance=F(0)) is None

    def test_stable_without_realizable_aspiration(self):
        # (d2,d3) plus d1-single is exactly stable, but d1's boundary tie
        # with the indifferent d2 forces every aspiration to promise d1 the
        # unattainable star pattern: no aspiration realizes.
        inst = self.constant_games(
            {("d1", "d2"): 8, ("d1", "d3"): F(5, 2), ("d2", "d3"): -8},
            {"d1": -5, "d2": -9, "d3": -3},
        )
        profile = solve_aspiration_zero_sum(inst)
        ok, _ = is_aspiration(inst, profile)
        assert ok
        assert isinstance(realize_aspiration(inst, profile), UnrealizableReport)
        hit = grid_stable_roommates_search(inst, mesh=4, tolerance=F(0))
        assert hit is not None  # a stable allocation genuinely exists
        _, payoffs = hit
        tight, _ = is_aspiration(inst, payoffs)
        assert not tight  # ... but its profile is not an aspiration


class TestEndToEnd:
    def test_random_instances_realize_or_certify_empty(self):
        eps0 = F(0)
        for seed in range(12):
            inst = generate_instance(seed=seed, model="roommates",
                                     n_doctors=4 + seed % 3, max_strategies=4,
                                     classes=["zero_sum"])
            profile = solve_aspiration_zero_sum(inst)
            result = realize_aspiration(inst, profile)
            if isinstance(result, UnrealizableReport):
                hit = grid_stable_roommates_search(inst, mesh=16, tolerance=F(1, 16))
                assert hit is None, (seed, hit)
            else:
                payoffs = evaluate_payoffs(inst, result)
                assert payoffs.doctor_payoffs == profile
                assert find_blocking_pair(inst, result, eps0) is None


# Reference search: every matching in enumeration order, each pair's share
# domain filtered value by value against every single, in Fractions.

def _enumeration_search(instance):
    critical = {F(0)}
    for d in instance.doctor_ids:
        critical.update((instance.doctors[d].irp, -instance.doctors[d].irp))
    for game in instance.games.values():
        lo, hi = game.frontier.a_min, game.frontier.a_max
        critical.update((lo, -lo, hi, -hi))
    levels = sorted(critical)
    for matching in all_matchings(instance.doctor_ids):
        pairs = [(a, b) for a, b in matching if b is not None]
        if any(not instance.has_game(a, b) for a, b in pairs):
            continue
        singles = [a for a, b in matching if b is None]
        fixed = {d: instance.doctors[d].irp for d in singles}
        if any(_blocks(instance, fixed, u, v) for u in singles for v in singles if u < v):
            continue
        domains = []
        for a, b in pairs:
            fr = instance.game_for(a, b).frontier
            lo = max(fr.a_min, instance.doctors[a].irp)
            hi = min(fr.a_max, -instance.doctors[b].irp)
            cands = [v for v in levels if lo <= v <= hi and not any(
                _blocks(instance, {a: v, b: -v, **fixed}, u, s) for u in (a, b) for s in singles)]
            domains.append(((a, b), cands))
        if not all(cands for _, cands in domains):
            continue
        domains.sort(key=lambda item: len(item[1]))
        hit = _assign_shares(instance, domains, dict(fixed), [])
        if hit is not None:
            return hit
    return None


def _assign_shares(instance, domains, values, placed):
    if not domains:
        ok, _ = is_aspiration(instance, values)
        return dict(values) if ok else None
    (a, b), cands = domains[0]
    for v in cands:
        values[a], values[b] = v, -v
        if not any(_blocks(instance, values, u, w) for u in (a, b) for w in placed):
            hit = _assign_shares(instance, domains[1:], values, placed + [a, b])
            if hit is not None:
                return hit
    del values[a], values[b]
    return None


def _blocks(instance, values, u, v):
    """The open interval (values[u], -values[v]) meets u's attainable range."""
    if not instance.has_game(u, v):
        return False
    fr = instance.game_for(u, v).frontier
    left = max(values[u], fr.a_min)
    right = min(-values[v], fr.a_max)
    return left < right or (left == right and values[u] < left < -values[v])


# Generator settings: defaults (mostly all-zero profiles), positive IRPs with
# two strategies, and half-integer payoffs.
SEARCH_VARIANTS = (
    {},
    {"irp_lo": -2, "irp_hi": 3, "max_strategies": 2},
    {"irp_lo": -4, "irp_hi": 2, "max_denominator": 2},
)

# The search's first profile (in insertion order) on generator seeds 1 and 2
# at n = 12, computed with the exhaustive enumeration.
PINNED_N12 = {
    1: ["d6", "d10", "d1", "d3", "d8", "d11", "d4", "d7", "d9", "d12", "d2", "d5"],
    2: ["d5", "d6", "d11", "d12", "d2", "d4", "d7", "d8", "d9", "d10", "d1", "d3"],
}


# sha256 of solve_aspiration_zero_sum's answers, one line per instance
# (n = 4-9, seeds 0-19, every SEARCH_VARIANTS setting): the profile in
# doctor_ids order, or the error's class name.
PINNED_SOLVE_DIGEST = "ef47c8c32031e773f2f7c510524e1364e8ab9f89e461b4080411fd0a2887f067"

# The solver's profiles (all zeros, in doctor_ids order), which the search
# decides; computed with the search that tested every share rank one by one.
PINNED_LARGE = {
    (14, 2): ["d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10", "d11", "d12",
              "d13", "d14"],
    (20, 1): ["d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10", "d11", "d12",
              "d13", "d14", "d15", "d16", "d17", "d18", "d19", "d20"],
    (20, 2): ["d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10", "d11", "d12",
              "d13", "d14", "d15", "d16", "d17", "d18", "d19", "d20"],
    (20, 3): ["d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10", "d11", "d12",
              "d13", "d14", "d15", "d16", "d17", "d18", "d19", "d20"],
}


class TestStableProfileSearch:
    def test_equals_the_enumeration_search(self):
        cases = [(n, k) for n in range(4, 9) for k in range(4)] + [(9, 0), (10, 0)]
        found = missing = nonzero = 0
        for n, k in cases:
            for variant, kwargs in enumerate(SEARCH_VARIANTS):
                inst = generate_instance(seed=1000 * n + k, model="roommates",
                                         n_doctors=n, **kwargs)
                expected = _enumeration_search(inst)
                got = _stable_profile_search(inst, _partner_table(inst))
                assert got == expected, (n, k, variant)
                if expected is None:
                    missing += 1
                    continue
                found += 1
                nonzero += any(expected.values())
                assert list(got) == list(expected)
        assert found + missing >= 60
        assert missing >= 10 and nonzero >= 20

    def test_rank_verdicts_equal_value_verdicts(self):
        # u at level i blocks with s at level j exactly below u's threshold
        # against s at j, so every blocking set is downward closed.
        for variant, kwargs in enumerate(SEARCH_VARIANTS):
            inst = generate_instance(seed=77, model="roommates", n_doctors=5, **kwargs)
            search = _LevelSearch(inst, _partner_table(inst))
            levels = search.levels
            assert [-v for v in reversed(levels)] == levels
            for u in inst.doctor_ids:
                for s in inst.doctor_ids:
                    if s == u:
                        continue
                    for j, y in enumerate(levels):
                        threshold = search.below[u][s][j]
                        for i, x in enumerate(levels):
                            assert (i < threshold) == _blocks(inst, {u: x, s: y}, u, s)
                            # Zero-sum blocking is symmetric, as the search's
                            # pair-against-pair cut assumes.
                            assert (i < threshold) == (j < search.below[s][u][i])

    def test_compatible_pairs_equal_a_share_by_share_scan(self):
        # Two pairs are compatible when some shares, each in its interval,
        # leave no member of one blocking with a member of the other.
        rng = random.Random(5)
        for variant, kwargs in enumerate(SEARCH_VARIANTS):
            inst = generate_instance(seed=78, model="roommates", n_doctors=4, **kwargs)
            search = _LevelSearch(inst, _partner_table(inst))
            levels, top = search.levels, search.top
            seen = set()
            for a, b, c, d in itertools.permutations(inst.doctor_ids):
                for _ in range(6):
                    lo, hi = sorted(rng.choices(range(top + 1), k=2))
                    lo2, hi2 = sorted(rng.choices(range(top + 1), k=2))
                    expected = any(
                        not any(_blocks(inst, {a: levels[v], b: levels[top - v],
                                               c: levels[v2], d: levels[top - v2]}, u, w)
                                for u in (a, b) for w in (c, d))
                        for v in range(lo, hi + 1) for v2 in range(lo2, hi2 + 1))
                    got = search.compatible((a, b, lo, hi), (c, d, lo2, hi2))
                    assert got == expected, (variant, a, b, c, d, lo, hi, lo2, hi2)
                    seen.add(got)
            assert seen == {True, False}

    def test_thresholds_equal_the_blocking_rule(self):
        # A doctor at rank x, spanning ranks [lo, hi], blocks with a partner
        # at rank r when some payoff in [lo, hi] lies strictly between x and
        # top - r; with integer ends, some half-integer point then does.
        for top in range(8):
            for lo in range(top + 1):
                for hi in range(lo, top + 1):
                    row = _thresholds(lo, hi, top)
                    assert len(row) == top + 1
                    for r in range(top + 1):
                        for x in range(top + 1):
                            blocks = any(2 * x < y < 2 * (top - r) for y in range(2 * lo, 2 * hi + 1))
                            assert (x < row[r]) == blocks, (lo, hi, top, r, x)

    def test_a_pair_without_a_game_is_skipped(self):
        # With d1-d2's game removed the search never places that pair, and
        # its answer is still the reference enumeration's first profile.
        for seed in range(6):
            inst = generate_instance(seed=seed, model="roommates", n_doctors=6)
            del inst.games[("d1", "d2")]
            expected = _enumeration_search(inst)
            assert _stable_profile_search(inst, _partner_table(inst)) == expected
            profile = solve_aspiration_zero_sum(inst)
            assert is_aspiration(inst, profile) == (True, None)
            if expected is not None:
                assert profile == expected
                assert isinstance(realize_aspiration(inst, profile), Allocation)

    @pytest.mark.parametrize("seed", sorted(PINNED_N12))
    def test_pinned_profiles_at_twelve(self, seed):
        inst = generate_instance(seed=seed, model="roommates", n_doctors=12)
        got = _stable_profile_search(inst, _partner_table(inst))
        assert list(got.items()) == [(d, F(0)) for d in PINNED_N12[seed]]

    def test_solver_answers_are_pinned(self):
        digest = hashlib.sha256()
        for n in range(4, 10):
            for seed in range(20):
                for variant, kwargs in enumerate(SEARCH_VARIANTS):
                    inst = generate_instance(seed=seed, model="roommates", n_doctors=n, **kwargs)
                    try:
                        profile = solve_aspiration_zero_sum(inst)
                        line = " ".join(f"{d}={format_rational(v)}" for d, v in profile.items())
                    except MatchGamesError as exc:
                        line = type(exc).__name__
                    digest.update(f"{n} {seed} {variant} {line}\n".encode())
        assert digest.hexdigest() == PINNED_SOLVE_DIGEST

    def test_solver_answers_equal_the_enumeration_search(self):
        # The pinned grid: up to n = 8 the solver's answer is the reference
        # enumeration's first profile, and where the reference finds none the
        # answer does not realize; at n = 9 every realized answer is stable.
        found = 0
        for n in range(4, 10):
            for seed in range(20):
                for variant, kwargs in enumerate(SEARCH_VARIANTS):
                    inst = generate_instance(seed=seed, model="roommates", n_doctors=n, **kwargs)
                    try:
                        profile = solve_aspiration_zero_sum(inst)
                    except MatchGamesError:
                        profile = None
                    expected = _enumeration_search(inst) if n <= 8 else None
                    if expected is not None:
                        found += 1
                        assert profile == expected, (n, seed, variant)
                    if profile is None:
                        assert expected is None, (n, seed, variant)
                        continue
                    alloc = realize_aspiration(inst, profile)
                    if isinstance(alloc, UnrealizableReport):
                        assert expected is None, (n, seed, variant)
                        continue
                    assert n == 9 or expected is not None, (n, seed, variant)
                    assert evaluate_payoffs(inst, alloc).doctor_payoffs == profile
                    assert find_blocking_pair(inst, alloc, F(0)) is None, (n, seed, variant)
        assert found == 248

    @pytest.mark.parametrize("n,seed", sorted(PINNED_LARGE))
    def test_pinned_large_profiles(self, n, seed):
        inst = generate_instance(seed=seed, model="roommates", n_doctors=n)
        got = solve_aspiration_zero_sum(inst)
        assert list(got.items()) == [(d, F(0)) for d in PINNED_LARGE[n, seed]]

    @pytest.mark.parametrize("n,seed", [(14, 1), (14, 2), (16, 1), (16, 2), (20, 1), (20, 2), (20, 3)])
    def test_solves_and_realizes_large_instances(self, n, seed):
        inst = generate_instance(seed=seed, model="roommates", n_doctors=n)
        profile = solve_aspiration_zero_sum(inst)
        assert is_aspiration(inst, profile) == (True, None)
        alloc = realize_aspiration(inst, profile)
        assert not isinstance(alloc, UnrealizableReport)
        assert evaluate_payoffs(inst, alloc).doctor_payoffs == profile
        assert find_blocking_pair(inst, alloc, F(0)) is None
