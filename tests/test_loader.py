"""The instance loader against the validated constructor.

``load_instance`` builds each game in one pass over its document rows, with
rows read through the literal table and the cyclic collector paused.
These tests hold it to ``BimatrixGame(parse_matrix(A), parse_matrix(M),
cls)``: the same matrices, frontier and segment for every class, and the
same error class, message and entry for every malformed document.
"""

import copy
import gc
import json
import random
from fractions import Fraction as F

import pytest

from matchgames import core, qcqp
from matchgames.cli import main
from matchgames.core import BimatrixGame, load_instance, parse_matrix, serialize_instance
from matchgames.errors import MatchGamesError
from matchgames.gen import generate_instance

import oracles
from fixtures import hedonic_instance

ONE_SHOT = ["zero_sum", "strictly_competitive"]


def _noncanonical(rng, text):
    """The same rational written another way: scaled ("2/4"), padded
    (" 3 "), as a JSON int, or "-0" for zero; or left as it is."""
    value = F(text)
    forms = [text, f" {text} ", f"{value.numerator * 2}/{value.denominator * 2}"]
    if value.denominator == 1:
        forms.append(value.numerator)
    if value == 0:
        forms += ["-0", "0/5"]
    return rng.choice(forms)


def _rewrite(doc, rng):
    """``doc`` with every game entry rewritten by ``_noncanonical``."""
    doc = copy.deepcopy(doc)
    for entry in doc["games"]:
        for key in ("A", "M"):
            entry[key] = [[_noncanonical(rng, v) for v in row] for row in entry[key]]
    return doc


def _documents():
    """Documents of every class, fractional entries included, each in its
    canonical form and rewritten."""
    rng = random.Random(15)
    specs = [
        dict(n_doctors=12, n_hospitals=4, classes=["zero_sum"]),
        dict(n_doctors=12, n_hospitals=4, classes=["strictly_competitive"]),
        dict(n_doctors=8, n_hospitals=3, classes=["zero_sum", "strictly_competitive", "repeated"]),
        dict(model="roommates", n_doctors=7, classes=ONE_SHOT),
        dict(model="roommates", n_doctors=6, classes=["repeated"]),
    ]
    for seed, spec in enumerate(specs):
        for denominator in (1, 3):
            doc = serialize_instance(generate_instance(seed=seed, max_denominator=denominator, **spec))
            yield doc
            yield _rewrite(doc, rng)


def _reference(entry):
    return BimatrixGame(parse_matrix(entry["A"]), parse_matrix(entry["M"]), str(entry["class"]))


def _game_key(doc, entry):
    other = entry["doctor2"] if doc["model"] == "roommates" else entry["hospital"]
    return entry["doctor"], other


def test_loaded_games_equal_the_validated_constructor():
    seen_classes, seen_forms = set(), set()
    for doc in _documents():
        inst = load_instance(doc)
        for entry in doc["games"]:
            game, expected = inst.games[_game_key(doc, entry)], _reference(entry)
            assert game.class_tag == expected.class_tag
            assert game.doctor_matrix == expected.doctor_matrix
            assert game.hospital_matrix == expected.hospital_matrix
            assert game.frontier == expected.frontier
            if game.class_tag in ONE_SHOT:
                assert game.frontier.segment == expected.frontier.segment
                a, m = game.doctor_matrix, game.hospital_matrix
                tr = core.frontier_bridge(game.frontier, a, m)
                ref = core.frontier_bridge(expected.frontier, expected.doctor_matrix,
                                           expected.hospital_matrix)
                assert (tr.ratio, tr.shift, tr.direction) == (ref.ratio, ref.shift, ref.direction)
                assert tr.image == ref.image
            seen_classes.add(game.class_tag)
            seen_forms.update(type(v).__name__ if not isinstance(v, str) else
                              ("padded" if v != v.strip() else "-0" if v == "-0" else
                               "scaled" if "/" in v else "text")
                              for row in entry["A"] + entry["M"] for v in row)
    assert seen_classes == {"zero_sum", "strictly_competitive", "repeated"}
    assert seen_forms == {"int", "padded", "-0", "scaled", "text"}


def test_an_enumerated_model_survives_its_document(tmp_path):
    """The hedonic example written and read back keeps every coalition
    table, and ``verify`` on the document decides pairs by the table."""
    inst = hedonic_instance()
    path = tmp_path / "hedonic.json"
    path.write_text(json.dumps(serialize_instance(inst)))
    loaded = load_instance(str(path))
    assert loaded.model == inst.model
    assert loaded.coalition_doctor_payoffs == inst.coalition_doctor_payoffs
    assert loaded.coalition_hospital_payoffs == inst.coalition_hospital_payoffs

    def verify(matching):
        alloc, report = tmp_path / "alloc.json", tmp_path / "report.json"
        alloc.write_text(json.dumps({"matching": matching}))
        code = main(["verify", "--input", str(path), "--allocation", str(alloc), "--epsilon", "1/2",
                     "--coalitions", "3", "--output", str(report)])
        return code, json.loads(report.read_text())

    # All three at a pay doctor 1 -1, and alone she gets 0.
    code, report = verify({"1": "a", "2": "a", "3": "a"})
    assert code == 2
    assert report["blocking_pair"] == {"doctor": "1", "partner": "a", "doctor_gain": "1",
                                       "partner_gain": "0", "method": "exact_table"}
    code, report = verify({"1": "a", "2": "a", "3": "b"})
    assert code == 0 and report["blocking_pair"] is None


def test_literals_share_one_object_per_value():
    doc = {"model": "additive_separable",
           "doctors": [{"id": "d", "irp": "0", "strategies": ["s", "t"]}],
           "hospitals": [{"id": "h", "irp": "0", "strategies": ["u", "v"]}],
           "games": [{"doctor": "d", "hospital": "h", "class": "zero_sum",
                      "A": [["7", "2/4"], ["-0", " 3 "]],
                      "M": [["-7", "-1/2"], ["0", "-3"]]}]}
    core._empty_tables()  # no refill empties the table during the test
    game = load_instance(doc).games[("d", "h")]
    a, m = game.doctor_matrix, game.hospital_matrix
    assert a[0][1] is core.parse_rational("1/2")
    assert m[0][0] is core.parse_rational("-7") and a[1][0] is m[1][0]
    _, negated_a = core._read_matrix(doc["games"][0]["A"], True)
    assert all(x is y for row_m, row in zip(m, negated_a) for x, y in zip(row_m, row))


def _base_game(cls):
    """A valid 2x2 document game of class ``cls``."""
    a = [["1", "1/2"], ["2/3", "-5/3"]]
    if cls == "zero_sum":
        m = [["-1", "-1/2"], ["-2/3", "5/3"]]
    else:  # -M == A / 2 + 1
        m = [["-3/2", "-5/4"], ["-4/3", "-1/6"]]
    return {"doctor": "d", "hospital": "h", "class": cls, "A": a, "M": m}


def _set(entry, key, i, j, value):
    entry = copy.deepcopy(entry)
    entry[key][i][j] = value
    return entry


MALFORMED = {
    "changed M entry": lambda g: _set(g, "M", 1, 0, "2/3"),
    "changed last M entry": lambda g: _set(g, "M", 1, 1, "-7"),
    "ragged row": lambda g: {**g, "M": [["-1", "-1/2"], ["0"]]},
    "ragged A row": lambda g: {**g, "A": [["1"], ["1/2", "2"]]},
    "empty matrix": lambda g: {**g, "A": []},
    "empty row": lambda g: {**g, "M": [["-1", "-1/2"], []]},
    "bool": lambda g: _set(g, "A", 0, 1, True),
    "float": lambda g: _set(g, "M", 1, 1, 1.0),
    "decimal literal": lambda g: _set(g, "A", 1, 0, "1.5"),
    "nested list": lambda g: _set(g, "A", 0, 0, ["1"]),
    "malformed text": lambda g: _set(g, "M", 0, 1, "1/0"),
    "unknown class": lambda g: {**g, "class": "cooperative"},
    "shape": lambda g: {**g, "M": [["-1", "-1/2"]]},
}


@pytest.mark.parametrize("cls", ONE_SHOT)
@pytest.mark.parametrize("fault", sorted(MALFORMED))
def test_malformed_games_raise_as_the_constructor_does(cls, fault):
    entry = MALFORMED[fault](_base_game(cls))
    doc = {"model": "additive_separable",
           "doctors": [{"id": "d", "irp": "0", "strategies": ["s", "t"]}],
           "hospitals": [{"id": "h", "irp": "0", "strategies": ["u", "v"]}],
           "games": [entry]}
    with pytest.raises(MatchGamesError) as expected:
        _reference(entry)
    # Twice: the second load meets every valid row in the literal table.
    for _ in range(2):
        with pytest.raises(MatchGamesError) as err:
            load_instance(doc)
        assert type(err.value) is type(expected.value)
        assert str(err.value) == str(expected.value)
        assert getattr(err.value, "entry", None) == getattr(expected.value, "entry", None)


def test_a_row_repeated_with_a_bool_is_still_rejected():
    # True == 1 and hash(True) == hash(1), so a table that entered the int
    # 1 would answer for True: the literal table holds only str keys.
    doc = {"model": "additive_separable",
           "doctors": [{"id": "d", "irp": "0", "strategies": ["s"]},
                       {"id": "e", "irp": "0", "strategies": ["s"]}],
           "hospitals": [{"id": "h", "irp": "0", "strategies": ["u", "v"]}],
           "games": [{"doctor": "d", "hospital": "h", "class": "repeated",
                      "A": [[1, "2"]], "M": [["1", "2"]]},
                     {"doctor": "e", "hospital": "h", "class": "repeated",
                      "A": [["1", "2"]], "M": [[True, "2"]]}]}
    with pytest.raises(MatchGamesError, match="not a rational literal: True"):
        load_instance(doc)


def test_the_literal_table_stays_bounded(monkeypatch):
    monkeypatch.setattr(core, "_LITERAL_CAP", 8)
    core._empty_tables()
    for k in range(50):
        assert core.parse_rational(f" {k}/7 ") == F(k, 7)
        assert len(core._VALUES) == len(core._NEGATIONS) <= 8
    # A load that fills the table mid-game still compares by value.
    doc = serialize_instance(generate_instance(seed=4, n_doctors=6, n_hospitals=3,
                                               max_denominator=5, classes=ONE_SHOT))
    inst = load_instance(doc)
    for entry in doc["games"]:
        assert inst.games[_game_key(doc, entry)].frontier == _reference(entry).frontier
    core._empty_tables()


# ---------------------------------------------------------------------------
# The zero-sum frontier table


def _zero_sum_games(inst):
    return [g for g in inst.games.values() if g.class_tag == "zero_sum"]


def test_zero_sum_games_with_equal_bounds_share_one_frontier():
    core._empty_tables()  # no refill empties the table during the test
    docs = [serialize_instance(generate_instance(seed=1, n_doctors=40, n_hospitals=10)),
            serialize_instance(generate_instance(seed=2, n_doctors=20, n_hospitals=6,
                                                 classes=ONE_SHOT))]
    for doc in docs:
        by_bounds, games = {}, _zero_sum_games(load_instance(doc))
        for game in games:
            fr = game.frontier
            assert fr == oracles.zero_sum_frontier(game.doctor_matrix)
            assert by_bounds.setdefault((fr.a_min, fr.a_max), fr) is fr
        assert len(by_bounds) < len(games)  # some bounds met again
        assert core._FRONTIERS.keys() >= {(*lo.as_integer_ratio(), *hi.as_integer_ratio())
                                          for lo, hi in by_bounds}


def test_the_frontier_table_stays_bounded(monkeypatch):
    # At this cap the 21 integer literals -10..10 fit, and the bounds do not.
    monkeypatch.setattr(core, "_LITERAL_CAP", 48)
    core._empty_tables()
    sizes = []
    locate = core._locate_bounds

    def recording(a):
        sizes.append(len(core._FRONTIERS))
        return locate(a)

    monkeypatch.setattr(core, "_locate_bounds", recording)
    doc = serialize_instance(generate_instance(seed=5, n_doctors=40, n_hospitals=10))
    for _ in range(2):  # the second load meets a table filled by the first
        inst = load_instance(doc)
        for game in inst.games.values():
            assert game.frontier == oracles.zero_sum_frontier(game.doctor_matrix)
    refills = sum(after < before for before, after in zip(sizes, sizes[1:]))
    assert max(sizes) == 48 and refills > 2
    core._empty_tables()


def test_a_slack_floor_is_answered_by_the_shared_frontiers_objects():
    core._empty_tables()
    doc = serialize_instance(generate_instance(seed=1, n_doctors=40, n_hospitals=10))
    games = _zero_sum_games(load_instance(doc))
    for game in games:
        fr = game.frontier
        low = min(fr.a_min, fr.m_min) - 1  # below either side's least payoff
        f_point, g_point = qcqp.max_f_point(game, low), qcqp.max_g_point(game, low)
        assert f_point.f is fr.a_max and f_point.g is fr.m_min
        assert g_point.f is fr.a_min and g_point.g is fr.m_max
    assert len({id(game.frontier) for game in games}) < len(games)


# ---------------------------------------------------------------------------
# The paused collector


def _collector_documents():
    return [
        serialize_instance(generate_instance(seed=1, n_doctors=40, n_hospitals=10)),
        serialize_instance(generate_instance(seed=2, n_doctors=20, n_hospitals=6,
                                             classes=["zero_sum", "strictly_competitive", "repeated"])),
        serialize_instance(generate_instance(seed=3, model="roommates", n_doctors=9, classes=ONE_SHOT)),
    ]


def test_a_loaded_instance_holds_no_reference_cycles():
    docs = _collector_documents()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for doc in docs:
            gc.collect()
            inst = load_instance(doc)
            assert len(inst.games) == len(doc["games"])
            del inst
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("start_enabled", [True, False])
def test_load_leaves_the_collector_as_it_found_it(start_enabled):
    doc = _collector_documents()[2]
    bad = copy.deepcopy(doc)
    bad["games"][0]["A"][0][0] = "1.5"
    was = gc.isenabled()
    (gc.enable if start_enabled else gc.disable)()
    try:
        load_instance(doc)
        assert gc.isenabled() is start_enabled
        with pytest.raises(MatchGamesError):
            load_instance(bad)
        assert gc.isenabled() is start_enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_the_collector_is_paused_during_the_load(monkeypatch):
    doc, states = _collector_documents()[2], []
    check = core._check_game

    def recording(game, *rows):
        states.append(gc.isenabled())
        return check(game, *rows)

    monkeypatch.setattr(core, "_check_game", recording)
    assert gc.isenabled()
    load_instance(doc)
    assert len(states) == len(doc["games"]) and not any(states)
    assert gc.isenabled()
