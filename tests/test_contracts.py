import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F
from itertools import chain, combinations

import pytest

from matchgames import contracts
from matchgames.cli import main
from matchgames.contracts import (
    _holders,
    _ids,
    _irc_on_planes,
    _planes,
    _substitutability_on_planes,
    ChoiceRules,
    Contract,
    ContractModel,
    check_hm_stability,
    check_irc,
    check_substitutability,
    choice_doctor,
    choice_hospital,
    game_to_contracts,
    is_individually_rational,
    is_pairwise_stable,
    load_contract_model,
    run_da_contracts,
)
from matchgames.errors import (
    EmptySetValueError,
    ForeignContractError,
    MalformedContractModelError,
    QuotaOutOfRangeError,
    ScanCapExceededError,
    UndeclaredHospitalError,
    UnknownContractError,
)
from matchgames.gen import generate_instance

from oracles import hospital_value, irc_by_masks, substitutability_by_masks


def additive_model(weights, utilities, quotas):
    contracts = {}
    doctor_utilities = {}
    hospital_weights = {h: {} for h in quotas}
    for cid, (d, h, u, w) in utilities.items():
        contracts[cid] = Contract(cid, d, h)
        doctor_utilities[(d, cid)] = F(u)
        hospital_weights[h][cid] = F(w)
    return ContractModel(
        contracts=contracts,
        doctor_utilities=doctor_utilities,
        hospital_additive=hospital_weights,
        hospital_quotas=quotas,
    )


def complementarity_model():
    contracts = {"x": Contract("x", "d1", "h1"), "y": Contract("y", "d2", "h1")}
    return ContractModel(
        contracts=contracts,
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


class TestChoices:
    def test_doctor_prefers_contract_over_empty(self):
        m = additive_model(None, {"x": ("d1", "h1", 2, 1)}, {"h1": 1})
        assert choice_doctor(m, "d1", ["x"]) == "x"

    def test_doctor_rejects_negative_contract(self):
        m = additive_model(None, {"x": ("d1", "h1", -1, 1)}, {"h1": 1})
        assert choice_doctor(m, "d1", ["x"]) is None

    def test_hospital_argmax_with_quota(self):
        m = additive_model(None, {
            "x": ("d1", "h1", 1, 5),
            "y": ("d2", "h1", 1, 7),
        }, {"h1": 1})
        assert choice_hospital(m, "h1", ["x", "y"]) == frozenset({"y"})

    def test_choice_reflects_a_changed_weight(self):
        m = additive_model(None, {
            "x": ("d1", "h1", 1, 5),
            "y": ("d2", "h1", 1, 7),
        }, {"h1": 1})
        assert choice_hospital(m, "h1", ["x", "y"]) == frozenset({"y"})
        m.hospital_additive["h1"]["x"] = F(9)
        assert choice_hospital(m, "h1", ["x", "y"]) == frozenset({"x"})

    def test_additive_tie_break_matches_the_scan_rule(self):
        # Equal weights go to the smallest ids; with places to spare a
        # zero-weight contract joins only if it sorts below the largest id
        # kept (it then makes the id tuple smaller), and never at value 0.
        m = additive_model(None, {
            "a": ("d1", "h1", 1, 0),
            "b": ("d2", "h1", 1, 2),
            "c": ("d3", "h1", 1, 2),
            "d": ("d4", "h1", 1, 0),
            "e": ("d5", "h1", 1, 2),
        }, {"h1": 2})
        assert choice_hospital(m, "h1", ["a", "b", "c", "d", "e"]) == frozenset({"b", "c"})
        m.hospital_quotas["h1"] = 4
        assert choice_hospital(m, "h1", ["a", "c", "d"]) == frozenset({"a", "c"})
        assert choice_hospital(m, "h1", ["a", "d"]) == frozenset()

    def test_complementary_table_choice(self):
        m = complementarity_model()
        assert choice_hospital(m, "h1", ["x"]) == frozenset()
        assert choice_hospital(m, "h1", ["x", "y"]) == frozenset({"x", "y"})


class TestDeferredAcceptance:
    def test_single_mutual_contract(self):
        m = additive_model(None, {"x": ("d1", "h1", 1, 1)}, {"h1": 1})
        assert run_da_contracts(m) == frozenset({"x"})

    def test_hospital_keeps_preferred_doctor(self):
        m = additive_model(None, {
            "x": ("d1", "h1", 1, 5),
            "y": ("d2", "h1", 1, 7),
        }, {"h1": 1})
        out = run_da_contracts(m)
        assert out == frozenset({"y"})
        # brute-force cross-check: the output is pairwise stable, and it is
        # the unique stable set among all subsets
        stable_sets = [
            frozenset(sub) for sub in _powerset(m.contracts)
            if check_hm_stability(m, frozenset(sub))[0]
        ]
        assert out in stable_sets

    def test_complementarity_pairwise_but_not_stable(self):
        m = complementarity_model()
        out = run_da_contracts(m)
        assert is_pairwise_stable(m, out)
        stable, witness = check_hm_stability(m, out)
        assert not stable
        assert witness == ("h1", ("x", "y"))
        ok, sub_witness = check_substitutability(m, "h1")
        assert not ok and sub_witness is not None

    def test_output_pairwise_stable_under_substitutes(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(40):
            m = _random_table_model(rng)
            out = run_da_contracts(m)
            if all(check_substitutability(m, h)[0] and check_irc(m, h)[0]
                   for h in m.hospitals):
                checked += 1
                assert is_pairwise_stable(m, out)
                assert check_hm_stability(m, out)[0]
        assert checked > 0

    def test_reattracted_rejection_can_break_pairwise_stability(self):
        # A hospital valuing {b, c} above everything rejects b early (against
        # a alone) and would take it back once c arrives: the deferred
        # acceptance output is then not even pairwise stable, and the audit
        # pins the substitutability violation responsible.
        m = ContractModel(
            contracts={"a": Contract("a", "d1", "h1"),
                       "b": Contract("b", "d2", "h1"),
                       "c": Contract("c", "d3", "h1")},
            doctor_utilities={("d1", "a"): F(1), ("d2", "b"): F(1), ("d3", "c"): F(1)},
            hospital_additive={"h1": {}},
            hospital_quotas={"h1": 3},
            hospital_tables={"h1": {
                frozenset(): F(0),
                frozenset("a"): F(5), frozenset("b"): F(4), frozenset("c"): F(1),
                frozenset(("a", "b")): F(3), frozenset(("a", "c")): F(6),
                frozenset(("b", "c")): F(10), frozenset(("a", "b", "c")): F(2),
            }},
        )
        out = run_da_contracts(m)
        assert out == frozenset({"a", "c"})
        assert not is_pairwise_stable(m, out)
        ok, witness = check_substitutability(m, "h1")
        assert not ok and witness is not None


class TestAudits:
    def test_additive_choice_is_substitutable_and_irc(self):
        m = additive_model(None, {
            "x": ("d1", "h1", 1, 5),
            "y": ("d2", "h1", 1, 7),
            "z": ("d3", "h1", 1, 6),
        }, {"h1": 2})
        assert check_substitutability(m, "h1") == (True, None)
        assert check_irc(m, "h1") == (True, None)

    def test_a_zero_weight_contract_breaks_substitutability(self):
        # Alone, d1's zero-weight contract a is rejected: a zero weight joins
        # only below a kept doctor's id.  Next to d2's positive b it is
        # chosen, so a larger pool regains what a smaller one rejected.
        m = additive_model(None, {"a": ("d1", "h1", 1, 0), "b": ("d2", "h1", 1, 3)}, {"h1": 2})
        assert choice_hospital(m, "h1", ["a"]) == frozenset()
        assert choice_hospital(m, "h1", ["a", "b"]) == {"a", "b"}
        assert check_substitutability(m, "h1") == (False, (("a",), "a", "b"))

    def test_single_contract_trivially_passes(self):
        m = additive_model(None, {"x": ("d1", "h1", 1, 1)}, {"h1": 1})
        assert check_substitutability(m, "h1") == (True, None)
        assert check_irc(m, "h1") == (True, None)

    def test_substitutability_witness_shape(self):
        m = complementarity_model()
        ok, (subset, x, x_new) = check_substitutability(m, "h1")
        assert not ok
        assert x in ("x", "y") and x_new in ("x", "y")

    def test_substitutability_witness_is_the_first_regained_contract(self):
        # {a, b, c} chooses {a}; adding d makes {b, c, d} the choice, which
        # takes back both b and c.  Smaller pools reject nothing that returns.
        ids = "abcd"
        m = ContractModel(
            contracts={c: Contract(c, f"d{i}", "h1") for i, c in enumerate(ids)},
            doctor_utilities={(f"d{i}", c): F(1) for i, c in enumerate(ids)},
            hospital_additive={"h1": {}},
            hospital_quotas={"h1": 4},
            hospital_tables={"h1": {
                frozenset("a"): F(5), frozenset("b"): F(1), frozenset("c"): F(1), frozenset("d"): F(1),
                frozenset("bc"): F(2), frozenset("bd"): F(3), frozenset("cd"): F(3),
                frozenset("bcd"): F(20),
            }},
        )
        witness = (False, (("a", "b", "c"), "b", "d"))
        assert check_substitutability(m, "h1") == witness == _scan_substitutability(m, "h1")

    def test_scan_cap(self):
        utilities = {f"c{i}": ("d%d" % i, "h1", 1, i) for i in range(14)}
        m = additive_model(None, utilities, {"h1": 3})
        with pytest.raises(ScanCapExceededError):
            check_substitutability(m, "h1", cap=12)
        with pytest.raises(ScanCapExceededError):
            check_irc(m, "h1", cap=12)
        with pytest.raises(ScanCapExceededError):
            check_hm_stability(m, frozenset(), cap=12)


def _powerset(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def _random_additive_model(rng, n_doctors=4, n_hospitals=2, max_quota=2):
    utilities = {}
    quotas = {}
    for j in range(n_hospitals):
        quotas[f"h{j}"] = rng.randint(1, max_quota)
    cid = 0
    for i in range(n_doctors):
        for j in range(n_hospitals):
            if rng.random() < 0.8:
                utilities[f"c{cid}"] = (f"d{i}", f"h{j}", rng.randint(-1, 6), rng.randint(0, 6))
                cid += 1
    if not utilities:
        utilities["c0"] = ("d0", "h0", 1, 1)
        quotas.setdefault("h0", 1)
    return additive_model(None, utilities, quotas)


def _random_table_model(rng):
    contracts = {}
    doctor_utilities = {}
    tables = {"h1": {}}
    ids = []
    for i in range(rng.randint(2, 4)):
        cid = f"c{i}"
        ids.append(cid)
        contracts[cid] = Contract(cid, f"d{i}", "h1")
        doctor_utilities[(f"d{i}", cid)] = F(rng.randint(0, 5))
    for sub in _powerset(ids):
        tables["h1"][frozenset(sub)] = F(rng.randint(0, 9))
    tables["h1"][frozenset()] = F(0)
    return ContractModel(
        contracts=contracts,
        doctor_utilities=doctor_utilities,
        hospital_additive={"h1": {}},
        hospital_quotas={"h1": len(ids)},
        hospital_tables=tables,
    )


def _rich_additive_model(rng):
    """Zero, negative, missing and fractional weights, ties, several
    contracts per doctor, and quotas 0-4 at two hospitals."""
    contracts, utilities, weights = {}, {}, {"h0": {}, "h1": {}}
    n_doctors = rng.randint(1, 4)
    for cid in rng.sample([f"{c}{i}" for c in "abxy" for i in range(3)], rng.randint(1, 7)):
        d, h = f"d{rng.randrange(n_doctors)}", rng.choice(("h0", "h1"))
        contracts[cid] = Contract(cid, d, h)
        utilities[(d, cid)] = F(rng.randint(-1, 3))
        if rng.random() < 0.85:
            weights[h][cid] = F(rng.randint(-1, 3), rng.choice((1, 2)))
    return ContractModel(
        contracts=contracts,
        doctor_utilities=utilities,
        hospital_additive=weights,
        hospital_quotas={"h0": rng.randint(0, 4), "h1": rng.randint(0, 4)},
    )


def _varied_table_model(rng):
    """A table hospital h1 beside an additive h2.  h1's table has equal
    values, nonempty subsets worth 0 or less, keys holding two contracts of
    one doctor, missing keys, and sometimes the empty key, at 0: a model
    rejects any other value for it."""
    contracts, utilities = {}, {}
    n_doctors = rng.randint(1, 4)
    for i in range(rng.randint(1, 6)):
        cid, d = f"c{i}", f"d{rng.randrange(n_doctors)}"
        contracts[cid] = Contract(cid, d, rng.choice(("h1", "h1", "h2")))
        utilities[(d, cid)] = F(rng.randint(-1, 3))
    h1 = [c for c in sorted(contracts) if contracts[c].hospital == "h1"]
    table = {frozenset(sub): F(rng.choice((-1, 0, 0, 1, 2, 2, 3)), rng.choice((1, 1, 2)))
             for sub in _powerset(h1) if rng.random() < 0.8}
    if frozenset() in table:
        table[frozenset()] = F(0)
    weights = {c: F(rng.randint(-1, 3)) for c in contracts if contracts[c].hospital == "h2"}
    return ContractModel(
        contracts=contracts,
        doctor_utilities=utilities,
        hospital_additive={"h1": {}, "h2": weights},
        hospital_quotas={"h1": len(h1), "h2": rng.randint(0, 3)},
        hospital_tables={"h1": table},
    )


def _choice_table(model, h, own):
    """The compiled rule's choice out of every subset of ``own`` (h's
    contracts, sorted), decoded from its bit planes: masks indexed by the
    subset's mask."""
    planes = contracts._HospitalRule(model, h).planes()
    return [sum(1 << i for i, p in enumerate(planes) if p >> mask & 1) for mask in range(1 << len(own))]


def _choice_by_scan(model, h, own):
    """The reference choice: brute force over every subset of ``own``, the
    first of a value kept unless a later one has a smaller sorted id tuple;
    the empty set is admissible at 0 and wins every tie."""
    best = (F(0), frozenset())
    ordered = sorted(own)
    for size in range(1, len(ordered) + 1):
        for combo in combinations(ordered, size):
            value = hospital_value(model, h, frozenset(combo))
            if value is None:
                continue
            if value > best[0] or (value == best[0] and best[1] and tuple(sorted(combo)) < tuple(sorted(best[1]))):
                best = (value, frozenset(combo))
    return best[1]


# Reference audits: the same exhaustive visits, each choice by the scan.

def _scan_substitutability(m, h):
    own = m.contracts_of_hospital(h)
    for subset in _powerset(own):
        chosen = _choice_by_scan(m, h, frozenset(subset))
        for x in subset:
            if x in chosen:
                continue
            for x_new in own:
                if x_new not in subset and x in _choice_by_scan(m, h, frozenset(subset) | {x_new}):
                    return False, (subset, x, x_new)
    return True, None


def _scan_irc(m, h):
    own = m.contracts_of_hospital(h)
    for subset in _powerset(own):
        for z in own:
            if z in subset:
                continue
            with_z = _choice_by_scan(m, h, frozenset(subset) | {z})
            if z not in with_z and with_z != _choice_by_scan(m, h, frozenset(subset)):
                return False, (subset, z)
    return True, None


def _scan_hm_stability(m, allocation):
    if not is_individually_rational(m, allocation):
        return False, "individual rationality fails"
    for h in m.hospitals:
        current = frozenset(c for c in allocation if m.contracts[c].hospital == h)
        for candidate in _powerset(m.contracts_of_hospital(h)):
            block = frozenset(candidate)
            if block == _choice_by_scan(m, h, current) or _choice_by_scan(m, h, current | block) != block:
                continue
            pool = set(allocation) | block
            if all(choice_doctor(m, m.contracts[c].doctor,
                                 [x for x in pool if m.contracts[x].doctor == m.contracts[c].doctor]) == c
                   for c in block):
                return False, (h, tuple(sorted(block)))
    return True, None


class TestChoiceAgainstScan:
    def test_additive_greedy_equals_scan_on_every_pool(self):
        rng = random.Random(5)
        cases = 0
        for _ in range(300):
            m = _rich_additive_model(rng)
            for pool in _powerset(m.contracts):
                for h in ("h0", "h1"):
                    own = frozenset(c for c in pool if m.contracts[c].hospital == h)
                    assert choice_hospital(m, h, pool) == _choice_by_scan(m, h, own), (pool, h)
                    cases += 1
        assert cases > 10000

    def test_audit_choice_tables_equal_scan(self):
        rng = random.Random(6)
        models = [_rich_additive_model(rng) for _ in range(150)]
        models += [_random_table_model(rng) for _ in range(10)]
        models += [_varied_table_model(rng) for _ in range(300)]
        table_hospitals = 0
        for m in models:
            for h in m.hospitals:
                own = m.contracts_of_hospital(h)
                table = _choice_table(m, h, own)
                assert len(table) == 2 ** len(own)
                table_hospitals += h in m.hospital_tables
                for subset in _powerset(own):
                    mask = sum(1 << own.index(c) for c in subset)
                    expected = _choice_by_scan(m, h, frozenset(subset))
                    assert frozenset(c for i, c in enumerate(own) if table[mask] >> i & 1) == expected
                    assert choice_hospital(m, h, subset) == expected
        assert table_hospitals > 250

    def test_audits_equal_scan_audits(self):
        rng = random.Random(7)
        models = [_rich_additive_model(rng) for _ in range(40)]
        models += [_random_table_model(rng) for _ in range(20)]
        for m in models:
            for h in m.hospitals:
                assert check_substitutability(m, h) == _scan_substitutability(m, h)
                assert check_irc(m, h) == _scan_irc(m, h)
            for sub in _powerset(m.contracts):
                allocation = frozenset(sub)
                assert check_hm_stability(m, allocation) == _scan_hm_stability(m, allocation)


    def test_audits_equal_scan_audits_on_varied_tables(self):
        rng = random.Random(9)
        for _ in range(80):
            m = _varied_table_model(rng)
            for h in m.hospitals:
                assert check_substitutability(m, h) == _scan_substitutability(m, h)
                assert check_irc(m, h) == _scan_irc(m, h)
            for sub in _powerset(m.contracts):
                allocation = frozenset(sub)
                assert check_hm_stability(m, allocation) == _scan_hm_stability(m, allocation)

    def test_audits_make_no_choice_calls(self, monkeypatch):
        calls = []
        real = contracts.choice_hospital
        monkeypatch.setattr(contracts, "choice_hospital", lambda *args: calls.append(args) or real(*args))
        rng = random.Random(10)
        for m in [_rich_additive_model(rng) for _ in range(10)] + [_varied_table_model(rng) for _ in range(10)]:
            for h in m.hospitals:
                check_substitutability(m, h)
                check_irc(m, h)
        assert calls == []


class TestSharedChoiceRules:
    def test_shared_rules_give_the_same_answers(self):
        rng = random.Random(11)
        models = [_rich_additive_model(rng) for _ in range(30)]
        models += [_random_additive_model(rng) for _ in range(10)]
        models += [_random_table_model(rng) for _ in range(15)]
        for m in models:
            tables = ChoiceRules(m)
            assert run_da_contracts(m, tables=tables) == run_da_contracts(m)
            for h in m.hospitals:
                assert check_substitutability(m, h, tables=tables) == check_substitutability(m, h)
                assert check_irc(m, h, tables=tables) == check_irc(m, h)
            for sub in _powerset(m.contracts):
                allocation = frozenset(sub)
                assert (check_hm_stability(m, allocation, tables=tables)
                        == check_hm_stability(m, allocation))
                assert (is_pairwise_stable(m, allocation, tables=tables)
                        == is_pairwise_stable(m, allocation))
            # one compiled structure per hospital, whose planes a fresh rule repeats
            assert set(tables._hospitals) == set(m.hospitals)
            for h, rule in tables._hospitals.items():
                own = m.contracts_of_hospital(h)
                assert rule.own == own
                assert rule.planes() == _planes(_choice_table(m, h, own), len(own))

    def test_cap_trips_before_any_planes_are_built(self, monkeypatch):
        built = []
        for name in ("_walk_planes", "_table_choices", "_planes"):
            monkeypatch.setattr(contracts, name, lambda *args: built.append(args) or [])
        utilities = {f"c{i}": ("d%d" % i, "h1", 1, i) for i in range(5)}
        for m in (additive_model(None, utilities, {"h1": 3}), complementarity_model()):
            tables = ChoiceRules(m)
            for audit in (lambda: check_substitutability(m, "h1", cap=1, tables=tables),
                          lambda: check_irc(m, "h1", cap=1, tables=tables),
                          lambda: check_hm_stability(m, frozenset(), cap=1, tables=tables)):
                with pytest.raises(ScanCapExceededError):
                    audit()
            assert all(rule._planes is None for rule in tables._hospitals.values())
        assert built == []

    def test_audit_command_compiles_one_rule_per_hospital(self, tmp_path, monkeypatch):
        model_path = tmp_path / "contracts.json"
        model_path.write_text(json.dumps({
            "contracts": [
                {"id": "c1", "doctor": "d1", "hospital": "h1"},
                {"id": "c2", "doctor": "d2", "hospital": "h1"},
                {"id": "c3", "doctor": "d1", "hospital": "h2"},
                {"id": "c4", "doctor": "d3", "hospital": "h2"},
            ],
            "doctor_utilities": {"d1": {"c1": "3", "c3": "4"}, "d2": {"c2": "2"}, "d3": {"c4": "1"}},
            "hospitals": {
                "h1": {"weights": {"c1": "5", "c2": "7"}, "quota": 1},
                "h2": {"table": {"": "0", "c3": "0", "c4": "0", "c3+c4": "3"}},
            },
        }))
        compiled, built = [], []
        real_rule = contracts._HospitalRule

        class CountedRule(real_rule):
            def __init__(self, model, h):
                compiled.append(h)
                super().__init__(model, h)

        monkeypatch.setattr(contracts, "_HospitalRule", CountedRule)
        for name in ("_walk_planes", "_table_choices", "_planes"):
            real = getattr(contracts, name)
            monkeypatch.setattr(contracts, name,
                                lambda *args, name=name, real=real: built.append(name) or real(*args))
        out_path = tmp_path / "out.json"
        assert main(["contracts-da", "--input", str(model_path), "--audit",
                     "--output", str(out_path)]) == 2
        assert sorted(compiled) == ["h1", "h2"]
        # the additive h1 gets its planes from its walk; only the table h2 builds a choice list
        assert sorted(built) == ["_planes", "_table_choices", "_walk_planes"]
        audit = json.loads(out_path.read_text())["audit"]
        assert audit["h1"] == {"substitutable": True, "irc": True}
        assert audit["h2"]["substitutability_witness"] == [["c3"], "c3", "c4"]
        assert audit["stability_witness"] == "('h2', ('c3', 'c4'))"

    def test_audit_command_writes_the_irc_witness(self, tmp_path, monkeypatch):
        # A model's choice maximises one total order, so no model violates
        # IRC.  The table hospital h1 is given a planted rule that keeps a
        # pool of one contract and rejects every larger pool: adding the
        # rejected b to {a} changes the choice.  The scan reference, asked
        # under the same rule, names the same first violation.
        model_path, out_path = tmp_path / "model.json", tmp_path / "out.json"
        model_path.write_text(json.dumps({
            "contracts": [{"id": c, "doctor": f"d{c}", "hospital": "h1"} for c in "abc"],
            "doctor_utilities": {f"d{c}": {c: "1"} for c in "abc"},
            "hospitals": {"h1": {"table": {"a": "1", "b": "1", "c": "1", "a+b": "3"}}},
        }))

        class KeepsOne(contracts._HospitalRule):
            def __getitem__(self, mask):
                return mask if mask.bit_count() <= 1 else 0

            def planes(self):
                n = len(self.own)
                return _planes([self[m] for m in range(1 << n)], n)

        monkeypatch.setattr(contracts, "_HospitalRule", KeepsOne)
        assert main(["contracts-da", "--input", str(model_path), "--audit",
                     "--output", str(out_path)]) == 0
        audit = json.loads(out_path.read_text())["audit"]

        monkeypatch.setitem(globals(), "_choice_by_scan",
                            lambda model, h, pool: frozenset(pool) if len(pool) <= 1 else frozenset())
        ok, (subset, z) = _scan_irc(load_contract_model(json.loads(model_path.read_text())), "h1")
        assert not ok
        assert audit["h1"] == {"substitutable": True, "irc": False, "irc_witness": [list(subset), z]}
        assert audit["h1"]["irc_witness"] == [["a"], "b"]
        assert audit["stable"] and audit["pairwise_stable"]


def _one_hospital_additive_model(rng, n):
    """n contracts at h1 from up to n doctors: zero, negative, missing and
    fractional weights with ties, and a quota of 0-5."""
    n_doctors = rng.randint(1, n)
    contracts, utilities, weights = {}, {}, {}
    for i in range(n):
        cid, d = f"c{i:02d}", f"d{rng.randrange(n_doctors)}"
        contracts[cid] = Contract(cid, d, "h1")
        utilities[(d, cid)] = F(rng.randint(-1, 3))
        if rng.random() < 0.85:
            weights[cid] = F(rng.choice((-1, 0, 0, 1, 2, 2, 3)), rng.choice((1, 1, 2, 3)))
    return ContractModel(contracts=contracts, doctor_utilities=utilities,
                         hospital_additive={"h1": weights},
                         hospital_quotas={"h1": rng.randint(0, 5)})


def _one_hospital_table_model(rng, n):
    """n contracts at h1, valued by a table with equal values, subsets worth
    0 or less, missing keys and keys holding two contracts of one doctor;
    the quota binds in about a third of the models."""
    n_doctors = rng.randint(1, n)
    contracts, utilities = {}, {}
    for i in range(n):
        cid, d = f"c{i}", f"d{rng.randrange(n_doctors)}"
        contracts[cid] = Contract(cid, d, "h1")
        utilities[(d, cid)] = F(rng.randint(-1, 3))
    table = {frozenset(sub): F(rng.choice((-1, 0, 1, 2, 2, 3, 5)), rng.choice((1, 1, 2)))
             for sub in _powerset(contracts) if sub and rng.random() < 0.8}
    return ContractModel(contracts=contracts, doctor_utilities=utilities,
                         hospital_additive={"h1": {}},
                         hospital_quotas={"h1": rng.choice((n, n, rng.randint(0, n)))},
                         hospital_tables={"h1": table})


def _perturbed_choice_table(rng, n):
    """A choice table over n contracts that no model need produce: the q
    best of each subset by a random priority (substitutable and IRC), with
    0-3 entries replaced by a random subset of their subset."""
    priority = rng.sample(range(n), n)
    q = rng.randint(0, n)
    table = [sum(1 << i for i in [i for i in priority if m >> i & 1][:q]) for m in range(1 << n)]
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        m = rng.randrange(1 << n)
        table[m] = rng.getrandbits(n) & m
    return table


class TestPlaneAudits:
    def test_planes_and_holders(self):
        rng = random.Random(31)
        for n in list(range(13)) + [17]:
            table = [rng.getrandbits(n) & m for m in range(1 << n)]
            assert _planes(table, n) == [
                int("".join("1" if c >> i & 1 else "0" for c in reversed(table)), 2)
                for i in range(n)]
        for n in range(9):
            has, lacks = _holders(n)
            assert has == tuple(sum(1 << m for m in range(1 << n) if m >> i & 1) for i in range(n))
            assert lacks == tuple(sum(1 << m for m in range(1 << n) if not m >> i & 1)
                                  for i in range(n))

    def test_plane_audits_equal_the_mask_loops_on_models(self):
        # A model's choice maximises a total order, which no rejected
        # contract can change: IRC holds on every model, and only
        # substitutability fails.
        rng = random.Random(32)
        verdicts, sizes = Counter(), Counter()
        for trial in range(520):
            if trial % 2:
                m = _one_hospital_table_model(rng, rng.randint(1, 9))
            else:
                m = _one_hospital_additive_model(rng, rng.randint(1, 12))
            own = m.contracts_of_hospital("h1")
            table = _choice_table(m, "h1", own)
            subs, irc = check_substitutability(m, "h1"), check_irc(m, "h1")
            assert subs == substitutability_by_masks(own, table), own
            assert irc == irc_by_masks(own, table) == (True, None), own
            verdicts[trial % 2, subs[0]] += 1
            sizes[len(own)] += 1
        assert min(verdicts[kind, ok] for kind in (0, 1) for ok in (False, True)) >= 50, verdicts
        assert sizes[12] >= 10

    def test_plane_audits_equal_the_mask_loops_on_choice_tables(self):
        rng = random.Random(33)
        verdicts = Counter()
        for trial in range(360):
            n = 1 + trial % 12
            own = [f"c{i:02d}" for i in range(n)]
            table = _perturbed_choice_table(rng, n)
            planes = _planes(table, n)
            subs = _substitutability_on_planes(own, table, planes)
            irc = _irc_on_planes(own, table, planes)
            assert subs == substitutability_by_masks(own, table), (n, table)
            assert irc == irc_by_masks(own, table), (n, table)
            verdicts["subs", subs[0]] += 1
            verdicts["irc", irc[0]] += 1
        assert min(verdicts.values()) >= 50 and len(verdicts) == 4, verdicts


def _tied_additive_model(rng, n):
    """n contracts at h1 from up to n doctors, weighted from a palette heavy
    in zeros and ties, some negative or missing."""
    n_doctors = rng.randint(1, n)
    contracts, utilities, weights = {}, {}, {}
    for i in range(n):
        cid, d = f"c{i}", f"d{rng.randrange(n_doctors)}"
        contracts[cid] = Contract(cid, d, "h1")
        utilities[(d, cid)] = F(rng.randint(-1, 3))
        if rng.random() < 0.9:
            weights[cid] = F(rng.choice((-1, 0, 0, 0, 1, 1, 2)), rng.choice((1, 1, 2)))
    return ContractModel(contracts=contracts, doctor_utilities=utilities,
                         hospital_additive={"h1": weights}, hospital_quotas={"h1": 1})


class TestWalkPlanes:
    def test_walk_planes_equal_the_scan_on_every_pool(self):
        # Quota 0, 1, 2 and at or above n; zero-weight contracts that tie
        # with each other, which join only below the largest id kept.
        rng = random.Random(41)
        quotas, zero_kept = Counter(), 0
        for trial in range(120):
            m = _tied_additive_model(rng, 1 + trial % 8)
            own = m.contracts_of_hospital("h1")
            n = len(own)
            for q in (0, 1, 2, n, n + 3):
                m.hospital_quotas["h1"] = q
                rule = contracts._HospitalRule(m, "h1")
                assert rule.walk is not None
                table = _choice_table(m, "h1", own)
                for mask in range(1 << n):
                    pool = frozenset(c for i, c in enumerate(own) if mask >> i & 1)
                    expected = _choice_by_scan(m, "h1", pool)
                    assert frozenset(_ids(own, table[mask])) == expected, (own, q, pool)
                    assert rule[mask] == table[mask]
                    zero_kept += any(m.hospital_additive["h1"].get(c) == 0 for c in expected)
                quotas["0" if q == 0 else ">=n" if q >= n else str(q)] += 1
        assert min(quotas.values()) >= 80 and len(quotas) == 4, quotas
        assert zero_kept >= 1000, zero_kept

    def test_hm_on_planes_equals_the_scan_at_extreme_quotas(self):
        rng = random.Random(42)
        checks = Counter()
        for trial in range(60):
            m = _rich_additive_model(rng) if trial % 2 else _varied_table_model(rng)
            for q in (0, len(m.contracts) + 1):
                for h in m.hospital_quotas:
                    m.hospital_quotas[h] = q
                for sub in _powerset(m.contracts):
                    allocation = frozenset(sub)
                    verdict = check_hm_stability(m, allocation)
                    assert verdict == _scan_hm_stability(m, allocation), (q, sorted(allocation))
                    checks[q == 0, verdict[0]] += 1
        assert min(checks.values()) >= 20 and len(checks) == 4, checks

    def test_additive_audits_build_no_choice_list(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a 2^n choice list was built for an additive hospital")

        rng = random.Random(43)
        models = [_rich_additive_model(rng) for _ in range(40)]
        expected = [(run_da_contracts(m),
                     [(check_substitutability(m, h), check_irc(m, h)) for h in m.hospitals],
                     [check_hm_stability(m, frozenset(sub)) for sub in _powerset(m.contracts)])
                    for m in models]
        monkeypatch.setattr(contracts, "_table_choices", refuse)
        monkeypatch.setattr(contracts, "_planes", refuse)
        for m, (da, audits, stability) in zip(models, expected):
            tables = ChoiceRules(m)
            assert run_da_contracts(m, tables=tables) == da
            assert [(check_substitutability(m, h, tables=tables), check_irc(m, h, tables=tables))
                    for h in m.hospitals] == audits
            assert [check_hm_stability(m, frozenset(sub), tables=tables)
                    for sub in _powerset(m.contracts)] == stability
        assert any(not verdict[0] for _, _, stability in expected for verdict in stability)


class TestTableQuota:
    def test_table_quota_bounds_the_choice_like_the_scan(self):
        rng = random.Random(34)
        bound = 0
        for _ in range(120):
            m = _one_hospital_table_model(rng, rng.randint(1, 6))
            own = m.contracts_of_hospital("h1")
            table = _choice_table(m, "h1", own)
            bound += m.hospital_quotas["h1"] < len(own)
            for subset in _powerset(own):
                mask = sum(1 << own.index(c) for c in subset)
                expected = _choice_by_scan(m, "h1", frozenset(subset))
                assert len(expected) <= m.hospital_quotas["h1"]
                assert frozenset(c for i, c in enumerate(own) if table[mask] >> i & 1) == expected
        assert bound >= 20

    def test_table_quota_is_kept_by_the_command(self, tmp_path):
        model_path, out_path = tmp_path / "model.json", tmp_path / "out.json"
        model_path.write_text(json.dumps({
            "contracts": [{"id": "c1", "doctor": "d1", "hospital": "h1"},
                          {"id": "c2", "doctor": "d2", "hospital": "h1"}],
            "doctor_utilities": {"d1": {"c1": "1"}, "d2": {"c2": "1"}},
            "hospitals": {"h1": {"table": {"c1": "1", "c2": "1", "c1+c2": "5"}, "quota": 1}},
        }))
        assert main(["contracts-da", "--input", str(model_path), "--audit",
                     "--output", str(out_path)]) == 0
        out = json.loads(out_path.read_text())
        assert out["contracts"] == ["c1"] and out["audit"]["stable"]


class TestPropOneEquivalence:
    def test_equivalence_on_substitutable_models(self):
        rng = random.Random(23)
        models_checked = 0
        while models_checked < 6:
            m = _random_additive_model(rng)
            if len(m.contracts) > 8:
                continue
            if not all(
                check_substitutability(m, h)[0] and check_irc(m, h)[0]
                for h in m.hospitals
            ):
                continue
            models_checked += 1
            out = run_da_contracts(m)
            assert check_hm_stability(m, out)[0]
            for sub in _powerset(m.contracts):
                allocation = frozenset(sub)
                full = check_hm_stability(m, allocation)[0]
                pairwise = (
                    is_individually_rational(m, allocation)
                    and is_pairwise_stable(m, allocation)
                )
                assert full == pairwise, (sorted(allocation), full, pairwise)


class TestGameMapping:
    def test_discretised_model_da_is_mesh_stable(self):
        from matchgames.core import Allocation
        from matchgames.stability import find_blocking_pair

        eps = F(1, 2)
        inst = generate_instance(seed=2, n_doctors=2, n_hospitals=2,
                                 max_strategies=2, max_quota=1, classes=["zero_sum"])
        model = game_to_contracts(inst, mesh=2)
        out = run_da_contracts(model)
        assert is_pairwise_stable(model, out)
        # map the chosen contracts back to strategy profiles
        matching = {d: None for d in inst.doctor_ids}
        doctor_strategies = {}
        hospital_strategies = {}
        from matchgames.qcqp import simplex_grid
        for cid in out:
            d, h, ij = cid.split("~")
            i, j = (int(k) for k in ij.split("."))
            game = inst.game_for(d, h)
            xs = list(simplex_grid(game.n_rows, 2))
            ys = list(simplex_grid(game.n_cols, 2))
            matching[d] = h
            doctor_strategies[d] = xs[i]
            hospital_strategies[(h, d)] = ys[j]
        alloc = Allocation(matching=matching, doctor_strategies=doctor_strategies,
                           hospital_strategies=hospital_strategies)
        # grid mesh 2 on matrices with spread <= 20: the blocking tolerance
        # absorbing the discretisation is generous here
        witness = find_blocking_pair(inst, alloc, F(21, 2))
        assert witness is None


# ---------------------------------------------------------------------------
# Model validation and pinned audit documents


def _small_model_doc():
    return {
        "contracts": [
            {"id": "c1", "doctor": "d1", "hospital": "h1"},
            {"id": "c2", "doctor": "d2", "hospital": "h1"},
            {"id": "c3", "doctor": "d1", "hospital": "h2"},
        ],
        "doctor_utilities": {"d1": {"c1": "3", "c3": "4"}, "d2": {"c2": "2"}},
        "hospitals": {
            "h1": {"weights": {"c1": "5", "c2": "7"}, "quota": 1},
            "h2": {"table": {"": "0", "c3": "2"}},
        },
    }


def _unknown_in_table_key(doc):
    doc["hospitals"]["h2"]["table"]["c3+zz"] = "5"


def _unknown_in_weights(doc):
    doc["hospitals"]["h1"]["weights"]["c9"] = "1"


def _undeclared_hospital(doc):
    doc["contracts"].append({"id": "c4", "doctor": "d2", "hospital": "h3"})
    doc["doctor_utilities"]["d2"]["c4"] = "9"


def _foreign_table_key(doc):
    doc["hospitals"]["h2"]["table"]["c2+c3"] = "5"


def _foreign_weight(doc):
    doc["hospitals"]["h1"]["weights"]["c3"] = "1"


# A quota is a JSON integer of at least 0: none of these is coerced into one.
def _fractional_quota(doc):
    doc["hospitals"]["h1"]["quota"] = 2.7


def _string_quota(doc):
    doc["hospitals"]["h1"]["quota"] = "2"


def _bool_table_quota(doc):
    doc["hospitals"]["h2"]["quota"] = True


def _negative_quota(doc):
    doc["hospitals"]["h1"]["quota"] = -1


class TestMalformedModels:
    def test_the_base_document_loads(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_small_model_doc()))
        assert main(["contracts-da", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0

    @pytest.mark.parametrize("corrupt, error", [
        (_unknown_in_table_key, UnknownContractError),
        (_unknown_in_weights, UnknownContractError),
        (_undeclared_hospital, UndeclaredHospitalError),
        (_foreign_table_key, ForeignContractError),
        (_foreign_weight, ForeignContractError),
        (_fractional_quota, QuotaOutOfRangeError),
        (_string_quota, QuotaOutOfRangeError),
        (_bool_table_quota, QuotaOutOfRangeError),
        (_negative_quota, QuotaOutOfRangeError),
    ])
    def test_named_error_and_cli_exit_1(self, corrupt, error, tmp_path, capsys):
        doc = _small_model_doc()
        corrupt(doc)
        with pytest.raises(error):
            load_contract_model(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["contracts-da", "--input", str(path), "--audit"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def _empty_set_doc(value):
    """h1 values the empty set at ``value``, though taking c1 alone is worth 3."""
    return {
        "contracts": [{"id": "c1", "doctor": "d1", "hospital": "h1"}],
        "doctor_utilities": {"d1": {"c1": "1"}},
        "hospitals": {"h1": {"table": {"": value, "c1": "3"}}},
    }


class TestEmptySetValue:
    def test_nonzero_empty_set_value_is_rejected(self):
        with pytest.raises(EmptySetValueError) as err:
            load_contract_model(_empty_set_doc("5"))
        assert isinstance(err.value, MalformedContractModelError)
        assert "empty set at 5" in str(err.value)

    def test_zero_empty_set_value_is_accepted(self):
        model = load_contract_model(_empty_set_doc("0"))
        assert hospital_value(model, "h1", frozenset()) == 0
        assert hospital_value(model, "h1", frozenset({"c1"})) == 3

    @pytest.mark.parametrize("value, code", [("5", 1), ("-1/2", 1), ("0", 0)])
    def test_contracts_da_exit_code(self, value, code, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_empty_set_doc(value)))
        assert main(["contracts-da", "--input", str(path), "--audit",
                     "--output", str(tmp_path / "out.json")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and "empty set" in err


def _rational_text(value):
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _game_audit_doc(rng, n_doctors):
    """A model discretised from a random 3-4 x 2 market at mesh 1, redrawn
    until its largest hospital holds exactly 10 contracts."""
    while True:
        instance = generate_instance(seed=rng.randrange(1 << 31), n_doctors=n_doctors,
                                     n_hospitals=2, max_strategies=2,
                                     classes=["zero_sum", "strictly_competitive", "repeated"])
        model = game_to_contracts(instance, 1)
        if max(len(model.contracts_of_hospital(h)) for h in model.hospitals) == 10:
            break
    return {
        "contracts": [{"id": c.id, "doctor": c.doctor, "hospital": c.hospital}
                      for c in model.contracts.values()],
        "doctor_utilities": {d: {cid: _rational_text(model.doctor_utilities[(d, cid)])
                                 for cid in model.contracts_of_doctor(d)}
                             for d in model.doctors},
        "hospitals": {h: {"weights": {cid: _rational_text(w)
                                      for cid, w in sorted(model.hospital_additive[h].items())},
                          "quota": model.hospital_quotas[h]}
                      for h in model.hospitals},
    }


def _table_audit_doc(rng, n_doctors):
    """h1 values subsets through a table: per-contract weights plus pairwise
    bonuses, with some keys left out (inadmissible) and some forced equal;
    h2 is additive with quota 2.  Each hospital gets 1-2 contracts per doctor."""
    doctors = [f"d{i + 1}" for i in range(n_doctors)]
    contracts, utilities = [], {d: {} for d in doctors}
    for d in doctors:
        for h in ("h1", "h2"):
            for k in range(rng.randint(1, 2)):
                cid = f"{d}~{h}~{k}"
                contracts.append({"id": cid, "doctor": d, "hospital": h})
                utilities[d][cid] = str(rng.randint(-2, 8))
    own = {h: [c["id"] for c in contracts if c["hospital"] == h] for h in ("h1", "h2")}
    weight = {cid: rng.randint(-3, 4) for cid in own["h1"]}
    bonus = {(a, b): rng.choice((0, 0, rng.randint(2, 6)))
             for i, a in enumerate(doctors) for b in doctors[i + 1:]}
    table = {}
    for size in range(1, len(own["h1"]) + 1):
        for subset in combinations(own["h1"], size):
            ds = [cid.split("~")[0] for cid in subset]
            if len(set(ds)) < len(ds) or rng.random() < 0.15:
                continue
            value = sum(weight[cid] for cid in subset)
            value += sum(bonus[(a, b)] for i, a in enumerate(ds) for b in ds[i + 1:])
            table["+".join(subset)] = str(rng.choice((value, value, 3)))
    return {
        "contracts": contracts,
        "doctor_utilities": utilities,
        "hospitals": {"h1": {"table": table},
                      "h2": {"weights": {cid: str(rng.randint(-3, 7)) for cid in own["h2"]},
                             "quota": 2}},
    }


def _audit_digests(tmp_path):
    rng = random.Random(2005)
    docs = [_game_audit_doc(rng, 3 + i % 2) for i in range(10)]
    docs += [_table_audit_doc(rng, 3 + i % 2) for i in range(10)]
    digests = []
    for i, doc in enumerate(docs):
        model_path, out_path = tmp_path / f"model{i}.json", tmp_path / f"audit{i}.json"
        model_path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        code = main(["contracts-da", "--input", str(model_path), "--audit",
                     "--scan-cap", str(len(doc["contracts"])), "--output", str(out_path)])
        digests.append((code, hashlib.sha256(out_path.read_bytes()).hexdigest()))
    return digests


# (exit code, sha256 of the audit document) for each model of
# ``_audit_digests``, computed by the audits that chose out of every subset
# with one ``choice_hospital`` call each
PINNED_AUDIT_DIGESTS = [
    (0, "47ea1b9a46bb8adad570bdc9a4307175579111d39f98ac134351e27ed58ddc26"),
    (0, "d871b739384ec8663c3c85645050f9f1b2f4d0a1af32bc1ef2f40173fe1c1929"),
    (0, "7007912f3adaaba704c93e1dd24a250a7360df811b38f8039bdf095401eafa14"),
    (0, "2b0babd583621ce370a4f2342aedbfb2aab5196579f492912e32e21dafe1d5b5"),
    (0, "7c0090dace6e97b547c30312e48cb085c80cbc7e0b2517226348567cb00a0eb2"),
    (0, "6e244db97499aeea9471802da5640e88d9fc41f197e5a1401d4ff59991bc3265"),
    (0, "2fb5e71103be2013649276fe0d51ad681d288da58bebf2d547792c8edaaa3250"),
    (0, "d5ccb6c0c0c6f0259b0173d0e66a0f30a3a4dbe0a6d05262ae9ba089da77e9e5"),
    (0, "f74995c5bf62d2ed389f5a892998547cec72f72daa5d91a0223bc0f1259c8caa"),
    (0, "49bd2f5fca938ed1aeda6d0e70bc4a42607f4b83f6307ba74949f1cc5f08df77"),
    (0, "f6fc62ab5d68c2b275d57c6c1b36734dd79697e1499c75fff3e7c44f3e0e43c1"),
    (0, "721655002ee3b37412186ead817447b1532834411a89ca41d8802220097c6fa1"),
    (2, "687226bae552b64ab81eda5124e4207e146f13d53753fb6de1c36baf37061df9"),
    (0, "1387ce9c944e6b4a67e5a00b76fdc5178de5d84056968459ca233902c0eb9bd0"),
    (0, "b981bb24914033773867664510b397a0c60ee4e1d2ba0812d38a3ca44b4b87d3"),
    (2, "8c3fcae54f8773ced0cea14e826236ad655836d07eea1759566538ddbfd3171f"),
    (2, "c52bf71dac8b7dc0d1c2f2cde6f33e9d7d1070d1ea706064a8b88bdb90dc4cd9"),
    (0, "8ceb5ea7e8f638ac7dcae6d4aab058411686226acced10e484deca6ba0ebb2ea"),
    (0, "a928357786f1603e1eeb8d77593ba68aed534aae6dfe8387501bfd4b90431d60"),
    (2, "4be1344ef3bc818ba4b91fff8b52506e5e5eed5229c23b353b67694b5111d842"),
]


def test_audit_documents_are_pinned(tmp_path):
    assert _audit_digests(tmp_path) == PINNED_AUDIT_DIGESTS


def _twelve_contract_doc(rng):
    """One table hospital with 12 contracts, two for each of six doctors:
    per-contract weights plus pairwise bonuses, some keys left out and some
    values forced equal."""
    doctors = [f"d{i + 1}" for i in range(6)]
    contracts = [{"id": f"{d}~{k}", "doctor": d, "hospital": "h1"} for d in doctors for k in range(2)]
    utilities = {d: {f"{d}~{k}": str(rng.randint(-2, 8)) for k in range(2)} for d in doctors}
    weight = {c["id"]: rng.randint(-3, 4) for c in contracts}
    bonus = {(a, b): rng.choice((0, 0, rng.randint(2, 6)))
             for i, a in enumerate(doctors) for b in doctors[i + 1:]}
    table = {}
    for subset in _powerset(c["id"] for c in contracts):
        ds = [cid.split("~")[0] for cid in subset]
        if not subset or len(set(ds)) < len(ds) or rng.random() < 0.15:
            continue
        value = sum(weight[cid] for cid in subset)
        value += sum(bonus[(a, b)] for i, a in enumerate(ds) for b in ds[i + 1:])
        table["+".join(subset)] = str(rng.choice((value, value, 3)))
    return {"contracts": contracts, "doctor_utilities": utilities, "hospitals": {"h1": {"table": table}}}


def test_twelve_contract_audit_document_is_pinned(tmp_path):
    # At the default scan cap of 12; the digest was computed by the audits
    # that scanned the choice table subset by subset.
    model_path, out_path = tmp_path / "model.json", tmp_path / "audit.json"
    model_path.write_text(json.dumps(_twelve_contract_doc(random.Random(2100)), indent=1, sort_keys=True))
    code = main(["contracts-da", "--input", str(model_path), "--audit", "--output", str(out_path)])
    assert (code, hashlib.sha256(out_path.read_bytes()).hexdigest()) == (
        2, "212db81addf73b07a163a62366f91445efc3098c76e496c182f3ce44a4e6e1c7")
    assert json.loads(out_path.read_text())["audit"]["h1"]["substitutability_witness"] == [
        ["d2~1"], "d2~1", "d3~0"]
