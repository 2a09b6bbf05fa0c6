from fractions import Fraction as F

import pytest

from matchgames import core
from matchgames.core import (
    Allocation,
    BimatrixGame,
    MatchingGameInstance,
    Doctor,
    Hospital,
    evaluate_payoffs,
    format_rational,
    load_instance,
    parse_rational,
    serialize_instance,
)
from matchgames.errors import (
    ClassTagViolationError,
    MalformedRationalError,
    MatchGamesError,
    NotStrictlyCompetitiveError,
    QuotaOutOfRangeError,
)

from fixtures import hedonic_instance


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational(5) == F(5)
    assert parse_rational("5") == F(5)


@pytest.mark.parametrize("bad", ["1.5", "3/0", "a/b", "1e3", None, 2.5, True])
def test_parse_rational_rejects(bad):
    with pytest.raises(MalformedRationalError):
        parse_rational(bad)


def test_format_round_trip():
    for v in (F(3, 4), F(-1, 7), F(12), F(0)):
        assert parse_rational(format_rational(v)) == v


def zero_sum_doc():
    return {
        "model": "additive_separable",
        "doctors": [
            {"id": "d1", "irp": "-1", "strategies": ["s1", "s2"]},
            {"id": "d2", "irp": "3/2", "strategies": ["s1"]},
        ],
        "hospitals": [{"id": "h1", "irp": 0, "quota": 1, "strategies": ["t1", "t2"]}],
        "games": [
            {"doctor": "d1", "hospital": "h1", "class": "zero_sum",
             "A": [["1", "-1"], ["-1", "1"]], "M": [["-1", "1"], ["1", "-1"]]},
            {"doctor": "d2", "hospital": "h1", "class": "zero_sum",
             "A": [["2", "0"]], "M": [["-2", "0"]]},
        ],
    }


def test_load_instance_round_trip():
    inst = load_instance(zero_sum_doc())
    assert len(inst.games) == 2
    again = load_instance(serialize_instance(inst))
    assert serialize_instance(again) == serialize_instance(inst)


def test_quota_zero_rejected():
    doc = zero_sum_doc()
    doc["hospitals"][0]["quota"] = 0
    with pytest.raises(QuotaOutOfRangeError):
        load_instance(doc)


def test_zero_sum_tag_violation_names_entry():
    doc = zero_sum_doc()
    doc["games"][0]["M"][0][1] = "5"  # entry (0,1) breaks M == -A
    with pytest.raises(ClassTagViolationError) as err:
        load_instance(doc)
    assert err.value.entry[:2] == (0, 1)


def test_unmatched_doctor_gets_irp():
    inst = load_instance(zero_sum_doc())
    alloc = Allocation(matching={"d1": None, "d2": None})
    report = evaluate_payoffs(inst, alloc)
    assert report.doctor_payoffs["d2"] == F(3, 2)
    assert report.hospital_payoffs["h1"] == F(0)


def test_zero_sum_payoffs_cancel():
    inst = load_instance(zero_sum_doc())
    alloc = Allocation(
        matching={"d1": "h1", "d2": None},
        doctor_strategies={"d1": (F(1, 3), F(2, 3))},
        hospital_strategies={("h1", "d1"): (F(1, 2), F(1, 2))},
    )
    report = evaluate_payoffs(inst, alloc)
    assert report.doctor_payoffs["d1"] + report.hospital_payoffs["h1"] == 0


def test_strategy_weights_must_sum_to_one():
    inst = load_instance(zero_sum_doc())
    alloc = Allocation(
        matching={"d1": "h1", "d2": None},
        doctor_strategies={"d1": (F(1, 3), F(1, 3))},
        hospital_strategies={("h1", "d1"): (F(1, 2), F(1, 2))},
    )
    with pytest.raises(MatchGamesError):
        evaluate_payoffs(inst, alloc)


def test_hedonic_table_payoffs():
    inst = hedonic_instance()
    alloc = Allocation(matching={"1": "a", "2": "a", "3": "b"})
    report = evaluate_payoffs(inst, alloc)
    assert report.doctor_payoffs == {"1": F(1), "2": F(1), "3": F(0)}
    assert report.hospital_payoffs == {"a": F(0), "b": F(0)}


def test_over_quota_sentinel():
    inst = load_instance(zero_sum_doc())
    alloc = Allocation(
        matching={"d1": "h1", "d2": "h1"},
        doctor_strategies={"d1": (F(1), F(0)), "d2": (F(1),)},
        hospital_strategies={("h1", "d1"): (F(1), F(0)), ("h1", "d2"): (F(1), F(0))},
    )
    report = evaluate_payoffs(inst, alloc)
    assert repr(report.hospital_payoffs["h1"]) == "-inf"


def test_payoff_linearity_in_strategies():
    inst = load_instance(zero_sum_doc())
    alpha = F(1, 4)
    x1, x2 = (F(1), F(0)), (F(0), F(1))
    mix = tuple(alpha * a + (1 - alpha) * b for a, b in zip(x1, x2))
    y = (F(1, 2), F(1, 2))

    def payoff(x):
        alloc = Allocation(
            matching={"d1": "h1", "d2": None},
            doctor_strategies={"d1": x},
            hospital_strategies={("h1", "d1"): y},
        )
        return evaluate_payoffs(inst, alloc).doctor_payoffs["d1"]

    assert payoff(mix) == alpha * payoff(x1) + (1 - alpha) * payoff(x2)


def test_strictly_competitive_load_check():
    doc = zero_sum_doc()
    doc["games"] = [{
        "doctor": "d1", "hospital": "h1", "class": "strictly_competitive",
        "A": [["5", "1"], ["1", "3"]], "M": [["-2", "0"], ["0", "-1"]],
    }]
    inst = load_instance(doc)
    assert inst.games[("d1", "h1")].class_tag == "strictly_competitive"
    doc["games"][0]["M"] = [["-2", "0"], ["0", "-2"]]
    with pytest.raises(ClassTagViolationError):
        load_instance(doc)


def test_strictly_competitive_bridge_is_verified_once(monkeypatch):
    calls = []
    verify = core._verify_affine

    def counting(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(core, "_verify_affine", counting)
    a = ((F(5), F(1)), (F(1), F(3)))
    m = ((F(-2), F(0)), (F(0), F(-1)))
    game = BimatrixGame(a, m, "strictly_competitive")
    tr = game.frontier.transform
    assert (tr.ratio, tr.shift, tr.direction) == (F(1, 2), F(-1, 2), "hospital")
    assert game.frontier is game.frontier
    assert len(calls) == 1


@pytest.mark.parametrize("a, m", [
    (((F(1), F(0)), (F(0), F(1))), ((F(-1), F(0)), (F(0), F(-2)))),  # not affine
    (((F(3), F(3)),), ((F(-7), F(-6)),)),  # constant A, varying M
    (((F(3), F(4)),), ((F(-7), F(-7)),)),  # varying A, constant M
])
def test_malformed_strictly_competitive_game_names_entry(a, m):
    with pytest.raises(NotStrictlyCompetitiveError) as err:
        BimatrixGame(a, m, "strictly_competitive")
    assert err.value.entry is not None
