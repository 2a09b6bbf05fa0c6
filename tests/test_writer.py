"""The document writer: exactly the bytes of json.dumps(indent=2,
sort_keys=True) plus a newline, on every document the CLI writes, on random
trees, and, through the stdlib itself, on every value it does not know."""

import io
import json
import os
import random
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction as F

import pytest

from matchgames import cli, core
from matchgames.core import serialize_instance, write_json

HERE = os.path.dirname(__file__)
EX4 = os.path.join(HERE, "..", "demos", "data", "example4_auction.json")


def stdlib(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def written(doc):
    buf = io.StringIO()
    write_json(doc, buf)
    return buf.getvalue()


def _write_inputs(tmp):
    """Every input the commands below read, written under ``tmp``."""
    paths = {name: str(tmp / f"{name}.json") for name in (
        "market", "alloc", "corrupt", "rm", "rm_profile", "odd", "odd_profile", "zs_game",
        "pd_game", "contracts")}
    assert cli.main(["gen", "--seed", "5", "--doctors", "5", "--hospitals", "2", "--classes",
                     "zero_sum,strictly_competitive,repeated", "--output", paths["market"]]) == 0
    assert cli.main(["solve-dac", "--input", paths["market"], "--epsilon", "1/2",
                     "--output", paths["alloc"]]) == 0
    assert cli.main(["solve-dac", "--input", EX4, "--epsilon", "1/2",
                     "--output", paths["corrupt"]]) == 0
    with open(paths["corrupt"], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["hospital_strategies"]["alpha|a"] = ["1"] + ["0"] * 10  # pay seller a nothing
    core.dump_json(doc, paths["corrupt"])
    assert cli.main(["gen", "--seed", "13", "--model", "roommates", "--doctors", "5",
                     "--strategies", "4", "--output", paths["rm"]]) == 0
    assert cli.main(["roommates-aspiration", "--input", paths["rm"],
                     "--output", paths["rm_profile"]]) == 0
    # Three doctors who all demand 0: one is always left exposed.
    core.dump_json({
        "model": "roommates",
        "doctors": [{"id": d, "irp": "-1", "strategies": ["s1", "s2"]} for d in "abc"],
        "games": [{"doctor": a, "doctor2": b, "class": "zero_sum", "A": [["-2", "2"], ["-2", "2"]],
                   "M": [["2", "-2"], ["2", "-2"]]} for a, b in ("ab", "ac", "bc")],
    }, paths["odd"])
    core.dump_json({"a": "0", "b": "0", "c": "0"}, paths["odd_profile"])
    core.dump_json({"class": "zero_sum", "A": [["1", "-1"], ["-1", "1"]],
                    "M": [["-1", "1"], ["1", "-1"]]}, paths["zs_game"])
    core.dump_json({"class": "repeated", "A": [["3", "0"], ["5", "1"]],
                    "M": [["3", "5"], ["0", "1"]]}, paths["pd_game"])
    core.dump_json({
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
    }, paths["contracts"])
    return paths


def _commands(p):
    """(what the document holds, argv without --output, expected exit code)."""
    market = ["--input", p["market"], "--epsilon", "1/2"]
    return [
        ("additive instance", ["gen", "--seed", "4", "--doctors", "6", "--hospitals", "3",
                               "--classes", "zero_sum,strictly_competitive,repeated",
                               "--den", "3"], 0),
        ("roommates instance", ["gen", "--model", "roommates", "--seed", "2", "--doctors", "11",
                                "--classes", "zero_sum,strictly_competitive"], 0),
        ("allocation with cycles", ["solve-dac", *market], 0),
        ("pair witness", ["verify", "--input", EX4, "--allocation", p["corrupt"],
                          "--epsilon", "1/2"], 2),
        ("coalition and renegotiation witnesses",
         ["verify", *market, "--allocation", p["alloc"], "--coalitions", "3", "--renegotiation"], 2),
        ("renegotiated allocation with punishments", ["renegotiate", *market,
                                                      "--allocation", p["alloc"]], 0),
        ("cne, mixed", ["cne", "--game", p["zs_game"], "--f-res", "-1", "--g-res", "-1",
                        "--epsilon", "1/10"], 0),
        ("cne, cycle", ["cne", "--game", p["pd_game"], "--f-res", "1", "--g-res", "1",
                        "--epsilon", "1/10"], 0),
        ("contracts audit", ["contracts-da", "--input", p["contracts"], "--audit"], 2),
        ("aspiration", ["roommates-aspiration", "--input", p["rm"]], 0),
        ("realized", ["roommates-realize", "--input", p["rm"], "--profile", p["rm_profile"]], 0),
        ("unrealizable", ["roommates-realize", "--input", p["odd"],
                          "--profile", p["odd_profile"]], 2),
    ]


def test_every_cli_document_is_stdlib_bytes_on_both_paths(tmp_path, capsys, monkeypatch):
    paths = _write_inputs(tmp_path)
    docs = []
    real = core.write_json
    monkeypatch.setattr(core, "write_json", lambda doc, fh: docs.append(doc) or real(doc, fh))
    seen = set()
    for kind, argv, code in _commands(paths):
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert cli.main(argv + ["--output", str(out)]) == code, kind
        assert cli.main(argv) == code, kind
        file_doc, stdout_doc = docs[-2:]
        assert file_doc == stdout_doc, kind
        text = out.read_text(encoding="utf-8")
        assert text == stdlib(file_doc), kind
        assert capsys.readouterr().out == text, kind
        seen.update(k for k in ("cycles", "punishment", "punisher", "blocking_pair",
                                "blocking_coalition", "renegotiation_witness",
                                "substitutability_witness", "exposed_doctor") if f'"{k}"' in text)
    # Each witness kind, and each cycle form, was written at least once.
    assert seen == {"cycles", "punishment", "punisher", "blocking_pair", "blocking_coalition",
                    "renegotiation_witness", "substitutability_witness", "exposed_doctor"}


def test_a_market_document_streams_one_game_at_a_time():
    doc = serialize_instance(core.load_instance(EX4))
    big = dict(doc, games=doc["games"] * 50)
    pieces = []

    class Recorder:
        write = pieces.append

    write_json(big, Recorder())
    assert "".join(pieces) == stdlib(big)
    assert len(pieces) > len(big["games"])
    assert max(map(len, pieces)) <= max(len(stdlib(g)) for g in big["games"]) * 2


ALPHABET = ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f', 'é', 'ß',
            '中', '😀', ' ', '\ud800']


def _random_text(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))


def _random_tree(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return rng.choice([
            lambda: _random_text(rng),
            lambda: rng.randint(-10, 10),
            lambda: rng.randint(-10 ** 40, 10 ** 40),
            lambda: -rng.randint(2 ** 63, 2 ** 200),
            lambda: rng.choice([True, False, None]),
            lambda: [],
            lambda: {},
            lambda: (),
        ])()
    if roll < 0.55:
        return [_random_text(rng) for _ in range(rng.randint(1, 4))]  # a row of strings
    if roll < 0.75:
        items = [_random_tree(rng, depth - 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.2 else items
    return {_random_text(rng): _random_tree(rng, depth - 1) for _ in range(rng.randint(0, 4))}


@pytest.mark.parametrize("seed", range(4))
def test_random_trees_are_stdlib_bytes(seed):
    rng = random.Random(seed)
    for _ in range(300):
        doc = _random_tree(rng, rng.randint(0, 5))
        assert written(doc) == stdlib(doc)


class Level(IntEnum):
    HIGH = 3


class Text(str):
    pass


@pytest.mark.parametrize("doc", [
    1.5,
    {"a": [0.1, -0.0, 1e300]},
    {"x": float("nan"), "y": [float("inf"), float("-inf")]},
    {1: "int key", 2: "b"},
    {"a": {False: "f", 2.5: "x"}, "b": {None: "n"}},
    {"rows": [["a", "b"], ["c", 1.5]]},
    {"games": [{"A": [["1"]]}, {"A": [["2"]]}, {"A": [[2.5]]}]},  # found after two pieces
    [{"k": "v"}, OrderedDict([("b", 1), ("a", 2)])],
    {"level": Level.HIGH, "text": Text("quoted \"x\"")},
    {Text("k"): [Text("v"), "w"]},
])
def test_unknown_values_go_to_the_stdlib(doc):
    assert written(doc) == stdlib(doc)


def _stdlib_failure(doc):
    buf = io.StringIO()
    with pytest.raises(Exception) as err:
        json.dump(doc, buf, indent=2, sort_keys=True)
    return buf.getvalue(), type(err.value), str(err.value)


def _writer_failure(doc):
    buf = io.StringIO()
    with pytest.raises(Exception) as err:
        write_json(doc, buf)
    return buf.getvalue(), type(err.value), str(err.value)


def _circular():
    doc = {"games": [{"A": "1"}]}
    doc["games"].append(doc)
    return doc


@pytest.mark.parametrize("doc", [
    {"games": [{"A": [["1"]]}, {"A": [[F(1, 2)]]}]},
    {"a": "x", "b": {1, 2}},
    {"a": 1, 2: "mixed keys cannot be sorted"},
    _circular(),
])
def test_values_json_cannot_hold_raise_as_the_stdlib_does(doc):
    # The same error, after the same partial output.
    assert _writer_failure(doc) == _stdlib_failure(doc)
