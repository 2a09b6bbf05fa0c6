import random
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
    DimensionMismatchError,
    MalformedRationalError,
    MatchGamesError,
    NotStrictlyCompetitiveError,
    QuotaOutOfRangeError,
)

from bridge_reference import reference_bridge
from fixtures import hedonic_instance, negate, transpose


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


def test_quota_true_rejected():
    # A bool is an int in Python, but true is no quota.
    doc = zero_sum_doc()
    doc["hospitals"][0]["quota"] = True
    with pytest.raises(QuotaOutOfRangeError):
        load_instance(doc)


@pytest.mark.parametrize("quota", [True, 2.0, 0])
def test_constructed_quota_held_to_the_document_rule(quota):
    # The loader refuses these quotas in a document; an instance built in
    # code is refused as well, so no instance serializes to a document the
    # loader rejects.
    hospital = Hospital("h", F(0), quota, ("t",))
    with pytest.raises(QuotaOutOfRangeError):
        MatchingGameInstance(model="additive_separable", doctors={}, hospitals={"h": hospital},
                             games={})


_ONE = BimatrixGame(((F(1),),), ((F(1),),), "repeated")


def _instance_fields(model="additive_separable", hospitals=None, games=None, tables=None):
    """The fields of a valid instance: doctor d and hospital h with one 1x1
    game, or roommates a and b; any field may be replaced."""
    roommates = model == "roommates"
    ids = ("a", "b") if roommates else ("d",)
    return dict(model=model, doctors={d: Doctor(d, F(0), ("s",)) for d in ids},
                hospitals={"h": Hospital("h", F(0), 1, ("t",))} if hospitals is None else hospitals,
                games={("a", "b") if roommates else ("d", "h"): _ONE} if games is None else games,
                coalition_hospital_payoffs=tables or {})


@pytest.mark.parametrize("fields, error, message", [
    (_instance_fields(model="cooperative"), MatchGamesError, "unknown model kind 'cooperative'"),
    (_instance_fields(hospitals={"h": Hospital("h", F(0), 0, ("t",))}), QuotaOutOfRangeError,
     "hospital h has quota 0"),
    (_instance_fields(model="roommates", hospitals={"h": Hospital("h", F(0), 1, ("t",))}),
     MatchGamesError, "roommates instances carry no hospital list"),
    (_instance_fields(games={("x", "h"): _ONE}), MatchGamesError,
     "game references unknown doctor 'x'"),
    (_instance_fields(model="roommates", hospitals={}, games={("a", "z"): _ONE}),
     MatchGamesError, "game references unknown doctor 'z'"),
    (_instance_fields(model="roommates", hospitals={}, games={("b", "a"): _ONE}),
     MatchGamesError, "roommates games must be keyed by sorted doctor pair"),
    (_instance_fields(games={("d", "h9"): _ONE}), MatchGamesError,
     "game references unknown hospital 'h9'"),
    (_instance_fields(games={("d", "h"): BimatrixGame(((F(1), F(2)),), ((F(1), F(2)),), "repeated")}),
     DimensionMismatchError, "game ('d', 'h') is 1x2, expected 1x1"),
    (_instance_fields(model="general", games={},
                      tables={(frozenset(m), "h"): F(1) for m in ([], ["d"], ["e"])}),
     MatchGamesError, "coalition table exceeds the configured cap"),
], ids=["model", "quota", "roommates hospitals", "unknown doctor", "unknown second doctor",
        "unsorted roommates key", "unknown hospital", "shape", "coalition table cap"])
def test_an_instance_built_in_code_is_validated(fields, error, message):
    with pytest.raises(MatchGamesError) as err:
        MatchingGameInstance(**fields)
    assert (type(err.value), str(err.value)) == (error, message)


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
    set_up = core._set_up_game

    def counting(*args):
        calls.append(args)
        return set_up(*args)

    monkeypatch.setattr(core, "_set_up_game", counting)
    a = ((F(5), F(1)), (F(1), F(3)))
    m = ((F(-2), F(0)), (F(0), F(-1)))
    game = BimatrixGame(a, m, "strictly_competitive")
    tr = core.frontier_bridge(game.frontier, *game.scaled)
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


# ---------------------------------------------------------------------------
# Integer class checks and bounds, against Fraction references


def _fresh_matrix(rng, rows, cols):
    """Negative, fractional and equal entries, each a distinct Fraction object."""
    return tuple(tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3, 6))) for _ in range(cols))
                 for _ in range(rows))


def test_matrix_bounds_match_builtin_min_and_max():
    rng = random.Random(5)
    for _ in range(400):
        m = _fresh_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        rows, den = core._scaled_matrix(m)
        lo_n, lo_d, hi_n, hi_d = core._bounds(tuple(v for row in rows for v in row), den)
        entries = [v for row in m for v in row]
        assert (F(lo_n, lo_d), F(hi_n, hi_d)) == (min(entries), max(entries))
        # Each bound is reduced, with a positive denominator.
        assert (lo_n, lo_d) == min(entries).as_integer_ratio()
        assert (hi_n, hi_d) == max(entries).as_integer_ratio()


def _is_zero_sum_reference(a, m):
    return all(m[i][j] == -a[i][j] for i in range(len(a)) for j in range(len(a[0])))


def _is_strictly_competitive_reference(a, m):
    """-M is an increasing affine image of A, or both matrices are constant."""
    b = [[-v for v in row] for row in m]
    cells = [(i, j) for i in range(len(a)) for j in range(len(a[0]))]
    a_constant = all(a[i][j] == a[0][0] for i, j in cells)
    b_constant = all(b[i][j] == b[0][0] for i, j in cells)
    if a_constant or b_constant:
        return a_constant and b_constant
    p, q = next((i, j) for i, j in cells if a[i][j] != a[0][0])
    ratio = (b[p][q] - b[0][0]) / (a[p][q] - a[0][0])
    return ratio > 0 and all(b[i][j] == b[0][0] + ratio * (a[i][j] - a[0][0]) for i, j in cells)


def _accepts(a, m, tag):
    try:
        BimatrixGame(a, m, tag)
    except ClassTagViolationError:
        return False
    return True


def _perturb(rng, m):
    """m with one entry moved: its sign flipped, its denominator changed, or shifted."""
    rows = [list(row) for row in m]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    v = rows[i][j]
    rows[i][j] = rng.choice((-v, F(v.numerator, v.denominator + 1), v + F(1, 3)))
    return tuple(map(tuple, rows))


def test_zero_sum_check_agrees_with_fraction_reference():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(400):
        a = _fresh_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        m = tuple(tuple(-v for v in row) for row in a)
        if rng.random() < 0.5:
            m = _perturb(rng, m)
        expected = _is_zero_sum_reference(a, m)
        assert _accepts(a, m, "zero_sum") == expected, (a, m)
        verdicts.add(expected)
        if expected:
            # The same scan finds A's bounds, and M's are their negations.
            fr = BimatrixGame(a, m, "zero_sum").frontier
            entries = [v for row in a for v in row]
            assert (fr.a_min, fr.a_max) == (min(entries), max(entries))
            assert (fr.m_min, fr.m_max) == (-max(entries), -min(entries))
            # The line g == -f, and the identity bridge onto A itself.
            assert fr.segment[4:] == (0, 1, 1)
            forms = core._scaled_matrix(a), core._scaled_matrix(m)
            assert core.frontier_bridge(fr, *forms) == (1, 0, "doctor", forms[0])
            assert core.frontier_bridge(fr, *forms).image is forms[0]
    assert verdicts == {True, False}


def test_strictly_competitive_check_agrees_with_fraction_reference():
    rng = random.Random(12)
    verdicts = set()
    for _ in range(400):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        a = _fresh_matrix(rng, rows, cols)
        kind = rng.random()
        if kind < 0.15:
            a = tuple(tuple(a[0][0] for _ in range(cols)) for _ in range(rows))
        if kind < 0.3 and rng.random() < 0.5:
            m = tuple(tuple(F(rng.randint(-2, 2)) for _ in range(cols)) for _ in range(rows))
        else:
            ratio = rng.choice((F(1, 3), F(1, 2), F(1), F(2), F(3), F(-1)))
            shift = F(rng.randint(-6, 6), rng.choice((1, 2)))
            m = tuple(tuple(-(ratio * v + shift) for v in row) for row in a)
            if rng.random() < 0.4:
                m = _perturb(rng, m)
        expected = _is_strictly_competitive_reference(a, m)
        assert _accepts(a, m, "strictly_competitive") == expected, (a, m)
        verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("m, message, entry", [
    (((F(-1), F(-1, 2)), (F(-2, 3), F(5, 4))),
     "zero_sum game has M != -A at entry (1,1)", (1, 1, F(5, 4), F(5, 3))),
    (((F(-1), F(-1, 3)), (F(-2, 3), F(5, 3))),  # same numerator, other denominator
     "zero_sum game has M != -A at entry (0,1)", (0, 1, F(-1, 3), F(-1, 2))),
    (((F(-1), F(1, 2)), (F(-2, 3), F(5, 3))),  # same denominator, wrong sign
     "zero_sum game has M != -A at entry (0,1)", (0, 1, F(1, 2), F(-1, 2))),
    (((F(-1), F(-1, 2)), (F(-2, 3), F(-5, 3))),  # a sign fault at the last entry
     "zero_sum game has M != -A at entry (1,1)", (1, 1, F(-5, 3), F(5, 3))),
    (((F(-1), F(-1, 2)), (F(2, 3), F(5, 3))),  # a sign fault at a fractional entry
     "zero_sum game has M != -A at entry (1,0)", (1, 0, F(2, 3), F(-2, 3))),
])
def test_zero_sum_violation_message_is_pinned(m, message, entry):
    a = ((F(1), F(1, 2)), (F(2, 3), F(-5, 3)))
    with pytest.raises(ClassTagViolationError) as err:
        BimatrixGame(a, m, "zero_sum")
    assert str(err.value) == message
    assert err.value.entry == entry


@pytest.mark.parametrize("a, m", [
    # A has the smaller range: A == ratio * (-M) + shift is checked.
    (((F(0), F(1)), (F(1, 2), F(1))), ((F(-1), F(-3)), (F(-5, 2), F(-3)))),
    # -M has the smaller range: -M == ratio * A + shift is checked.
    (((F(1), F(3)), (F(5, 2), F(3))), ((F(0), F(-1)), (F(-1, 2), F(-1)))),
])
def test_non_affine_message_names_the_first_bad_entry(a, m):
    with pytest.raises(NotStrictlyCompetitiveError) as err:
        BimatrixGame(a, m, "strictly_competitive")
    assert str(err.value) == "no affine variant: entry (1,0) is 1/2, expected 3/4"
    assert err.value.entry == (1, 0, F(1, 2), F(3, 4))


# ---------------------------------------------------------------------------
# The strictly competitive bridge on integers, with an image built on read


def _random_sc_pair(rng):
    """A = alpha * C + s1 and M = -(beta * C + s2) for a random base C with
    fractional entries: both directions, equal ranges, constant pairs, and
    one-sided-constant pairs."""
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    base = _fresh_matrix(rng, rows, cols)
    if rng.random() < 0.1:
        base = tuple(tuple(base[0][0] for _ in range(cols)) for _ in range(rows))
    alpha = F(rng.randint(1, 9), rng.choice((1, 2, 5, 7)))
    beta = alpha if rng.random() < 0.15 else F(rng.randint(1, 9), rng.choice((1, 3, 4)))
    s1, s2 = F(rng.randint(-9, 9), rng.choice((1, 2, 3))), F(rng.randint(-9, 9), rng.choice((1, 5)))
    a = tuple(tuple(alpha * v + s1 for v in row) for row in base)
    m = tuple(tuple(-(beta * v + s2) for v in row) for row in base)
    kind = rng.random()
    if kind < 0.08:
        a = tuple(tuple(s1 for _ in range(cols)) for _ in range(rows))
    elif kind < 0.16:
        m = tuple(tuple(-s2 for _ in range(cols)) for _ in range(rows))
    return a, m


def _one_game_document(a, m):
    """A one-game strictly competitive market holding (a, m) as literals."""
    return {
        "model": "additive_separable",
        "doctors": [{"id": "d", "irp": "0", "strategies": [f"s{i}" for i in range(len(a))]}],
        "hospitals": [{"id": "h", "irp": "0", "quota": 1,
                       "strategies": [f"t{j}" for j in range(len(a[0]))]}],
        "games": [{"doctor": "d", "hospital": "h", "class": "strictly_competitive",
                   "A": [[format_rational(v) for v in row] for row in a],
                   "M": [[format_rational(v) for v in row] for row in m]}],
    }


def test_integer_bridge_equals_the_fraction_reference():
    rng = random.Random(33)
    seen = set()
    for _ in range(500):
        a, m = _random_sc_pair(rng)
        if rng.random() < 0.2:
            m = _perturb(rng, m)  # mostly off the line: the class check's error
        expected = reference_bridge(a, m)
        if isinstance(expected[0], str):
            # The constructor, the loader and affine_transform raise alike.
            for build in (lambda: BimatrixGame(a, m, "strictly_competitive"),
                          lambda: load_instance(_one_game_document(a, m)),
                          lambda: core.affine_transform(a, m)):
                with pytest.raises(NotStrictlyCompetitiveError) as err:
                    build()
                assert (str(err.value), err.value.entry) == expected, (a, m)
            seen.add("one-sided constant" if expected[0].startswith("one") else "off the line")
            continue
        tr = core.affine_transform(a, m)
        assert (tr.ratio, tr.shift, tr.direction) == expected, (a, m)
        game = BimatrixGame(a, m, "strictly_competitive")
        game_tr = core.frontier_bridge(game.frontier, *game.scaled)
        assert game_tr == tr._replace(image=core._scaled_matrix(tr.image))
        loaded = load_instance(_one_game_document(a, m)).games[("d", "h")]
        assert core.frontier_bridge(loaded.frontier, *loaded.scaled) == game_tr
        if tr.direction == "doctor":
            assert tr.image == negate(m)
        else:
            assert tr.image == a and game_tr.image is game.scaled[0]
        seen.add(tr.direction)
        if all(v == a[0][0] for row in a for v in row):
            seen.add("constant")
        elif any(v.denominator > 1 for v in (tr.ratio, tr.shift)):
            seen.add("fractional")
    assert seen == {"doctor", "hospital", "constant", "one-sided constant", "fractional",
                    "off the line"}


def test_loading_a_strictly_competitive_market_builds_no_image(monkeypatch):
    from matchgames.gen import generate_instance
    from matchgames.qcqp import max_f_point, max_g_point

    doc = serialize_instance(generate_instance(seed=2, n_doctors=20, n_hospitals=6,
                                               classes=["strictly_competitive"]))
    negations = []
    negated = core._negated
    monkeypatch.setattr(core, "_negated", lambda m: negations.append(m) or negated(m))
    inst = load_instance(doc)
    directions = set()
    for (d, h), game in inst.games.items():
        fr = game.frontier
        for theta in (inst.hospitals[h].irp + F(1, 2), fr.m_min, fr.m_max):
            max_f_point(game, theta)
            max_g_point(game, theta)
        assert fr._fields == ("a_min", "a_max", "m_min", "m_max", "segment", "hull")
        assert fr.hull is None
        _, _, _, _, _, q, r = fr.segment
        directions.add("doctor" if r <= q else "hospital")
    assert negations == [] and directions == {"doctor", "hospital"}
    # The class check builds no Fraction either: no ratio, shift or bridge.
    # (The Fraction views are built before the count starts.)
    views = [(game.doctor_matrix, game.hospital_matrix) for game in inst.games.values()]
    built = []
    monkeypatch.setattr(core, "Fraction", lambda *args: built.append(args) or F(*args))
    for a, m in views:
        BimatrixGame(a, m, "strictly_competitive")
    assert built == []


@pytest.mark.parametrize("a, m", [
    (((1, 2), (3,)), ((-1, -2), (-3,))),
    (((F(1), F(2)), (F(3),)), ((F(-1), F(-2)), (F(-3),))),
    (((F(1), F(2)), (F(3), F(4))), ((F(-1), F(-2)), (F(-3),))),
    (((F(1), F(2)), (F(3),)), ((F(-1), F(-2)), (F(-3), F(-4)))),
])
def test_ragged_game_matrices_are_rejected(a, m):
    with pytest.raises(DimensionMismatchError):
        BimatrixGame(a, m, "zero_sum")


def test_store_witness_writes_what_the_readers_read():
    from matchgames.core import CycleStrategy, read_couple, store_witness
    from matchgames.qcqp import PairOutcome

    # Roommates: a cycle over the sorted pair's game, read back from either side.
    rows = ((F(0), F(3)), (F(1), F(2)), (F(2), F(0)))  # a has 3 strategies, b 2
    inst = MatchingGameInstance(
        model="roommates", hospitals={},
        doctors={"a": Doctor("a", F(0), ("s1", "s2", "s3")), "b": Doctor("b", F(0), ("t1", "t2"))},
        games={("a", "b"): BimatrixGame(rows, rows, "repeated")},
    )
    alloc = Allocation(matching={"a": "b", "b": "a"}, doctor_strategies={"b": (F(1), F(0))})
    steps = ((2, 0), (0, 1))  # (a's row, b's column)
    store_witness(inst, alloc, "a", "b", PairOutcome(F(0), F(0), cycle=CycleStrategy(steps)))
    assert alloc.cycles[("a", "b")].cycle == steps
    assert read_couple(inst, alloc, "b", "a").cycle.cycle == ((0, 2), (1, 0))
    assert alloc.doctor_strategies == {}

    # Two-sided: a profile and a cycle replace each other under (h, d) keys.
    one = ((F(1),),)
    inst = MatchingGameInstance(
        model="additive_separable",
        doctors={"d": Doctor("d", F(0), ("s",))},
        hospitals={"h": Hospital("h", F(0), 1, ("t",))},
        games={("d", "h"): BimatrixGame(one, one, "repeated")},
    )
    alloc = Allocation(matching={"d": "h"})
    store_witness(inst, alloc, "d", "h", PairOutcome(F(1), F(1), x=(F(1),), y=(F(1),)))
    assert (alloc.doctor_strategies, alloc.hospital_strategies) == ({"d": (F(1),)},
                                                                     {("h", "d"): (F(1),)})
    store_witness(inst, alloc, "d", "h", PairOutcome(F(1), F(1), cycle=CycleStrategy(((0, 0),))))
    assert (alloc.doctor_strategies, alloc.hospital_strategies) == ({}, {})
    assert evaluate_payoffs(inst, alloc).seat_values == {("h", "d"): F(1)}
    store_witness(inst, alloc, "d", "h", PairOutcome(F(1), F(1), x=(F(1),), y=(F(1),)))
    assert alloc.cycles == {}


# ---------------------------------------------------------------------------
# The integer payoff kernel, against Fraction-loop references


def _bilinear_reference(x, matrix, y):
    total = F(0)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = matrix[i]
        acc = F(0)
        for j, yj in enumerate(y):
            if yj != 0:
                acc += row[j] * yj
        total += xi * acc
    return total


def _row_payoffs_reference(matrix, y):
    return [sum((v * w for v, w in zip(row, y) if w), F(0)) for row in matrix]


def _validate_mixed_reference(weights, size, label="strategy"):
    if len(weights) != size:
        raise DimensionMismatchError(f"{label} has {len(weights)} weights, expected {size}")
    total = sum(weights, F(0))
    if total != 1:
        raise MatchGamesError(f"{label} weights sum to {format_rational(total)}, not 1")
    for w in weights:
        if w < 0 or w > 1:
            raise MatchGamesError(f"{label} weight {format_rational(w)} outside [0, 1]")


def _outcome(check, *args):
    """(error type, message) of a validation, or None when it passes."""
    try:
        check(*args)
    except MatchGamesError as exc:
        return type(exc), str(exc)
    return None


def _random_mix(rng, size):
    """A mixed strategy with denominators up to 12: pure, with zero weights,
    or spread over its whole support."""
    kind = rng.random()
    if kind < 0.2:
        return core.pure(rng.randrange(size), size)
    raw = [F(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(size)]
    if kind < 0.6:
        raw[rng.randrange(size)] = F(0)
    if sum(raw) == 0:
        raw[rng.randrange(size)] = F(1)
    total = sum(raw)
    return tuple(w / total for w in raw)


def _kernel_matrix(rng, rows, cols):
    """Negative and fractional entries with denominators 1 to 12."""
    return tuple(tuple(F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(cols))
                 for _ in range(rows))


def test_integer_kernel_equals_the_fraction_loops():
    rng = random.Random(2025)
    shapes = set()
    for _ in range(1200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        shapes.add((rows, cols))
        a = _kernel_matrix(rng, rows, cols)
        x, y = _random_mix(rng, rows), _random_mix(rng, cols)
        got = core.bilinear(x, a, y)
        assert type(got) is F and got == _bilinear_reference(x, a, y), (x, a, y)
        assert core.row_payoffs(core._scaled_matrix(a), y) == _row_payoffs_reference(a, y)
        assert (core.row_payoffs(core._scaled_matrix(transpose(a)), x)
                == _row_payoffs_reference(transpose(a), x))
        assert _outcome(core.validate_mixed, x, rows) is None
    assert len(shapes) == 16


def test_validate_mixed_messages_are_unchanged():
    rng = random.Random(2026)
    seen = set()
    for _ in range(1200):
        size = rng.randint(1, 4)
        weights = list(_random_mix(rng, size))
        kind = rng.randrange(5)
        if kind == 1:  # a sum other than 1
            weights[rng.randrange(size)] += F(rng.choice((-1, 1)), rng.randint(1, 12))
        elif kind == 2 and size > 1:  # sums to 1, one weight negative, one above 1
            i, j = rng.sample(range(size), 2)
            shift = F(rng.randint(1, 12), rng.randint(1, 12)) + 1
            weights[i] += shift
            weights[j] -= shift
        elif kind == 3:  # the wrong length
            weights.append(F(0))
        label = rng.choice(("strategy", "doctor d1 strategy"))
        expected = _outcome(_validate_mixed_reference, tuple(weights), size, label)
        assert _outcome(core.validate_mixed, tuple(weights), size, label) == expected
        seen.add(None if expected is None else
                 next(k for k in ("sum to", "outside", "expected") if k in expected[1]))
    assert seen == {None, "sum to", "outside", "expected"}


def test_witness_payoffs_equal_both_bilinear_forms():
    rng = random.Random(2027)
    for _ in range(400):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a, m = _kernel_matrix(rng, rows, cols), _kernel_matrix(rng, rows, cols)
        x, y = _random_mix(rng, rows), _random_mix(rng, cols)
        forms = core._scaled_matrix(a), core._scaled_matrix(m)
        assert core.witness_payoffs(*forms, x, y) == (_bilinear_reference(x, a, y),
                                                      _bilinear_reference(x, m, y))
        cells = {(rng.randrange(rows), rng.randrange(cols)): F(rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(rng.randint(1, 4))}
        expected = tuple(sum((mat[s][t] * w for (s, t), w in cells.items()), F(0)) for mat in (a, m))
        assert core.witness_payoffs(*forms, cells=cells) == expected


# ---------------------------------------------------------------------------
# Cycle averages and the couple reader


def test_cycle_average_equals_the_step_by_step_sum():
    rng = random.Random(2028)
    lengths = set()
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a, m = _kernel_matrix(rng, rows, cols), _kernel_matrix(rng, rows, cols)
        # Few distinct cells over many steps, so cells repeat; or one step.
        cells = [(rng.randrange(rows), rng.randrange(cols)) for _ in range(rng.randint(1, 3))]
        steps = tuple(rng.choice(cells) for _ in range(rng.choice((1, rng.randint(2, 60)))))
        lengths.add(min(len(steps), 2))
        f = g = F(0)
        for s, t in steps:
            f += a[s][t]
            g += m[s][t]
        got = core.CycleStrategy(steps).average_payoffs(a, m)
        assert got == (f / len(steps), g / len(steps))
        assert all(type(v) is F for v in got)
    assert lengths == {1, 2}


def _couple_reading_cases():
    """(instance, allocation) pairs of every kind the pipeline writes: DAC
    and renegotiated two-sided allocations over all three exact classes,
    realized roommates allocations, and roommates couples with cycles
    stored from either member's side."""
    from matchgames.dac import run_dac
    from matchgames.gen import generate_instance
    from matchgames.qcqp import frontier_witness, max_f_point
    from matchgames.renegotiation import run_renegotiation
    from matchgames.roommates import realize_aspiration, solve_aspiration_zero_sum

    eps = F(1, 2)
    for seed in (1, 3):
        inst = generate_instance(seed=seed, n_doctors=8, n_hospitals=3,
                                 classes=["zero_sum", "strictly_competitive", "repeated"])
        allocation = run_dac(inst, eps)[0]
        yield inst, allocation
        yield inst, run_renegotiation(inst, allocation, eps).allocation
    for seed in range(3):
        inst = generate_instance(seed=seed, model="roommates", n_doctors=6,
                                 classes=["zero_sum", "strictly_competitive"])
        realized = realize_aspiration(inst, solve_aspiration_zero_sum(inst))
        if isinstance(realized, Allocation):
            yield inst, realized
    rng = random.Random(5)
    for seed in range(3):
        inst = generate_instance(seed=seed, model="roommates", n_doctors=6,
                                 classes=["repeated", "zero_sum"])
        allocation = Allocation(matching=dict.fromkeys(inst.doctors))
        ids = list(inst.doctors)
        rng.shuffle(ids)
        for d, partner in zip(ids[::2], ids[1::2]):
            allocation.matching[d], allocation.matching[partner] = partner, d
            game = inst.game_for(d, partner)
            point = max_f_point(game, game.frontier.m_min)
            core.store_witness(inst, allocation, d, partner, frontier_witness(game, point))
        yield inst, allocation


def test_read_couple_pays_what_each_side_reads_off_its_entries():
    from oracles import couple_payoffs

    seen = set()
    for inst, allocation in _couple_reading_cases():
        report = evaluate_payoffs(inst, allocation)
        for d, partner in allocation.matched_pairs():
            couple = core.read_couple(inst, allocation, d, partner)
            assert couple.game is inst.game_for(d, partner)
            assert (couple.f, couple.g) == couple_payoffs(inst, allocation, d, partner)
            assert report.doctor_payoffs[d] == couple.f
            if inst.model == "roommates":
                assert report.doctor_payoffs[partner] == couple.g
            else:
                assert report.seat_values[(partner, d)] == couple.g
            seen.add((inst.model, couple.game.class_tag, inst.pair_key(d, partner)[0] == d))
        assert len(report.couples) == len({inst.pair_key(d, p) for d, p in allocation.matched_pairs()})
    classes = ("zero_sum", "strictly_competitive", "repeated")
    assert seen == ({("additive_separable", tag, True) for tag in classes}
                    | {("roommates", tag, side) for tag in classes for side in (True, False)})


def test_reader_validation_messages_are_unchanged():
    from matchgames.errors import MalformedCycleError

    one = ((F(1), F(0)), (F(0), F(1)))
    inst = MatchingGameInstance(
        model="additive_separable", doctors={"d1": Doctor("d1", F(0), ("s", "t"))},
        hospitals={"h1": Hospital("h1", F(0), 1, ("u", "v"))},
        games={("d1", "h1"): BimatrixGame(one, negate(one), "zero_sum")},
    )
    cases = [
        ({"d1": (F(1), F(1))}, {("h1", "d1"): (F(1), F(0))},
         "doctor d1 strategy weights sum to 2, not 1"),
        ({"d1": (F(1), F(0))}, {("h1", "d1"): (F(1),)},
         "partner h1 strategy vs d1 has 1 weights, expected 2"),
    ]
    for xs, ys, message in cases:
        alloc = Allocation(matching={"d1": "h1"}, doctor_strategies=xs, hospital_strategies=ys)
        with pytest.raises(MatchGamesError) as err:
            core.read_couple(inst, alloc, "d1", "h1")
        assert str(err.value) == message
    inst.games[("d1", "h1")] = BimatrixGame(one, one, "repeated")
    alloc = Allocation(matching={"d1": "h1"})
    with pytest.raises(MatchGamesError, match=r"^repeated pair \(d1,h1\) has no cycle strategy$"):
        evaluate_payoffs(inst, alloc)
    alloc.cycles[("h1", "d1")] = core.CycleStrategy(())
    with pytest.raises(MalformedCycleError, match=r"^repeated pair \(d1,h1\) has an empty cycle$"):
        evaluate_payoffs(inst, alloc)
    alloc.cycles[("h1", "d1")] = core.CycleStrategy(((0, 1), (2, 0), (3, 3)))
    with pytest.raises(MalformedCycleError, match=r"cycle step \[2, 0\] is outside its 2x2 game$"):
        evaluate_payoffs(inst, alloc)


def test_a_roommates_cycle_reads_back_from_either_side():
    rows = ((F(0), F(3)), (F(1), F(2)), (F(2), F(0)))  # a has 3 strategies, b 2
    inst = MatchingGameInstance(
        model="roommates", hospitals={},
        doctors={"a": Doctor("a", F(0), ("s1", "s2", "s3")), "b": Doctor("b", F(0), ("t1", "t2"))},
        games={("a", "b"): BimatrixGame(rows, ((F(5), F(1)), (F(2), F(4)), (F(3), F(6))), "repeated")},
    )
    punish = core.CyclePunishment("doctor", doctor_strategy=(F(1), F(0)))
    from matchgames.qcqp import PairOutcome

    alloc = Allocation(matching={"a": "b", "b": "a"})
    # Stored from b's side: b's rows are the stored columns.
    core.store_witness(inst, alloc, "b", "a",
                       PairOutcome(F(0), F(0), cycle=core.CycleStrategy(((1, 2), (1, 0)), punish)))
    stored = alloc.cycles[("a", "b")]
    assert stored.cycle == ((2, 1), (0, 1))
    assert (stored.punishment.punisher, stored.punishment.hospital_strategy) == ("hospital", (F(1), F(0)))
    from_b = core.read_couple(inst, alloc, "b", "a")
    assert from_b.cycle == core.CycleStrategy(((1, 2), (1, 0)), punish)
    from_a = core.read_couple(inst, alloc, "a", "b")
    assert (from_a.f, from_a.g) == (from_b.g, from_b.f) == (F(3, 2), F(7, 2))


def _pair_list_cases():
    """Two-sided markets with 12 hospitals ("h10" sorts before "h2" as a
    string), roommates instances with 11 doctors, and each with games
    removed, so some agents lack some partners."""
    from matchgames.gen import generate_instance

    classes = ["zero_sum", "strictly_competitive", "repeated"]
    for seed in range(3):
        yield generate_instance(seed=seed, n_doctors=4, n_hospitals=12, classes=classes)
        yield generate_instance(seed=seed, model="roommates", n_doctors=11, classes=classes)
    rng = random.Random("pair-lists")
    for model in ("additive_separable", "roommates"):
        inst = generate_instance(seed=7, model=model, n_doctors=11, n_hospitals=12)
        for key in rng.sample(sorted(inst.games), 9):
            del inst.games[key]
        yield inst


def test_pair_lists_equal_the_lookup_loops():
    from oracles import partner_options

    unsorted_orders = flipped_views = 0
    for inst in _pair_list_cases():
        for d in inst.doctor_ids:
            expected = [(k, inst.game_for(d, k)) for k in partner_options(inst, d)]
            got = inst.pairs_of(d)
            assert [k for k, _ in got] == [k for k, _ in expected]
            assert all(game is want for (_, game), (_, want) in zip(got, expected))
            unsorted_orders += [k for k, _ in got] != sorted(k for k, _ in got)
            flipped_views += sum(game is inst.games[(k, d)].flipped for k, game in got if k < d)
        for h in inst.hospital_ids:
            expected = [(d, inst.game_for(d, h)) for d in inst.doctor_ids if inst.has_game(d, h)]
            got = inst.pairs_at(h)
            assert [d for d, _ in got] == [d for d, _ in expected]
            assert all(game is want for (_, game), (_, want) in zip(got, expected))
    assert unsorted_orders and flipped_views


def test_pair_lists_read_the_games_on_each_call():
    from matchgames.gen import generate_instance

    inst = generate_instance(seed=3, n_doctors=3, n_hospitals=3)
    assert [h for h, _ in inst.pairs_of("d2")] == ["h1", "h2", "h3"]
    del inst.games[("d2", "h2")]
    assert [h for h, _ in inst.pairs_of("d2")] == ["h1", "h3"]
    assert [d for d, _ in inst.pairs_at("h2")] == ["d1", "d3"]


def test_enumerated_payoffs_of_unmatched_doctors_and_over_quota_hospitals():
    doctors = {d: Doctor(d, F(-i), ()) for i, d in enumerate(("d1", "d2", "d3"), 1)}
    hospitals = {"h": Hospital("h", F(5), 1, ()), "k": Hospital("k", F(1), 1, ())}
    one, two = frozenset({"d1"}), frozenset({"d1", "d2"})
    inst = MatchingGameInstance(
        model=core.GENERAL_ENUMERATED, doctors=doctors, hospitals=hospitals, games={},
        coalition_doctor_payoffs={("d1", one, "h"): F(4), ("d1", two, "h"): F(7),
                                  ("d2", two, "h"): F(8)},
        coalition_hospital_payoffs={(one, "h"): F(6), (two, "h"): F(9)})
    # An unmatched doctor is paid her IRP, a hospital with no member its own.
    report = evaluate_payoffs(inst, Allocation({"d1": "h", "d2": None, "d3": None}))
    assert report.doctor_payoffs == {"d1": F(4), "d2": F(-2), "d3": F(-3)}
    assert report.hospital_payoffs == {"h": F(6), "k": F(1)}
    # Over its quota, a hospital is paid the -inf sentinel; its members
    # still read their table entries.
    report = evaluate_payoffs(inst, Allocation({"d1": "h", "d2": "h", "d3": None}))
    assert report.doctor_payoffs == {"d1": F(7), "d2": F(8), "d3": F(-3)}
    assert report.hospital_payoffs == {"h": core.NEG_INF, "k": F(1)}
