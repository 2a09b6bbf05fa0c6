import gc
import json
import os
from fractions import Fraction as F

import pytest

from matchgames.cli import main

HERE = os.path.dirname(__file__)
EX4 = os.path.join(HERE, "..", "demos", "data", "example4_auction.json")


def run(args):
    return main(args)


def test_gen_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "--seed", "7", "--doctors", "4", "--hospitals", "2",
                "--strategies", "3", "--output", str(out1)]) == 0
    assert run(["gen", "--seed", "7", "--doctors", "4", "--hospitals", "2",
                "--strategies", "3", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_strictly_competitive_loads(tmp_path):
    out = tmp_path / "sc.json"
    assert run(["gen", "--seed", "3", "--classes", "strictly_competitive",
                "--output", str(out)]) == 0
    from matchgames.core import load_instance
    inst = load_instance(str(out))
    assert all(g.class_tag == "strictly_competitive" for g in inst.games.values())


def test_solve_dac_verify_pipeline(tmp_path):
    alloc_path = tmp_path / "alloc.json"
    trace_path = tmp_path / "trace.log"
    code = run(["solve-dac", "--input", EX4, "--epsilon", "1/2",
                "--output", str(alloc_path), "--trace", str(trace_path), "--oracle"])
    assert code == 0
    doc = json.loads(alloc_path.read_text())
    assert doc["matching"] == {"a": "alpha", "b": "alpha", "c": "beta", "d": "beta"}
    assert trace_path.read_text().startswith("baseline")
    report_path = tmp_path / "report.json"
    code = run(["verify", "--input", EX4, "--allocation", str(alloc_path),
                "--epsilon", "1/2", "--coalitions", "4", "--output", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["individually_rational"] is True
    assert report["blocking_pair"] is None


def test_determinism_of_solve_output(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["solve-dac", "--input", EX4, "--epsilon", "1/2", "--output", str(p1)])
    run(["solve-dac", "--input", EX4, "--epsilon", "1/2", "--output", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_epsilon_is_an_input_error(tmp_path):
    assert run(["solve-dac", "--input", EX4, "--epsilon", "0",
                "--output", str(tmp_path / "x.json")]) == 1


def _corrupted_allocation(tmp_path):
    """EX4's DAC output, hand-corrupted to pay seller a the bottom of the
    price grid (price 0), which (a, beta) blocks."""
    alloc_path = tmp_path / "alloc.json"
    assert run(["solve-dac", "--input", EX4, "--epsilon", "1/2", "--output", str(alloc_path)]) == 0
    doc = json.loads(alloc_path.read_text())
    doc["hospital_strategies"]["alpha|a"] = ["1"] + ["0"] * 10
    alloc_path.write_text(json.dumps(doc))
    return alloc_path


def test_corrupted_allocation_fails_verification(tmp_path):
    alloc_path = _corrupted_allocation(tmp_path)
    code = run(["verify", "--input", EX4, "--allocation", str(alloc_path),
                "--epsilon", "1/2", "--output", str(tmp_path / "report.json")])
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["blocking_pair"] is not None


def test_renegotiate_pipeline(tmp_path):
    gen_path = tmp_path / "inst.json"
    run(["gen", "--seed", "5", "--doctors", "3", "--hospitals", "2", "--output", str(gen_path)])
    alloc_path = tmp_path / "alloc.json"
    assert run(["solve-dac", "--input", str(gen_path), "--epsilon", "1/10",
                "--output", str(alloc_path)]) == 0
    out_path = tmp_path / "reneg.json"
    assert run(["renegotiate", "--input", str(gen_path), "--allocation", str(alloc_path),
                "--epsilon", "1/10", "--output", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert "sweeps" in doc
    code = run(["verify", "--input", str(gen_path), "--allocation", str(out_path),
                "--epsilon", "1/10", "--renegotiation",
                "--output", str(tmp_path / "report.json")])
    assert code == 0


def test_cne_command(tmp_path):
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps({
        "class": "zero_sum",
        "A": [["1", "-1"], ["-1", "1"]],
        "M": [["-1", "1"], ["1", "-1"]],
    }))
    out_path = tmp_path / "cne.json"
    assert run(["cne", "--game", str(game_path), "--f-res", "-1", "--g-res", "-1",
                "--epsilon", "1/10", "--output", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["case"] == "saddle_value"
    assert doc["doctor_payoff"] == "0"


def test_contracts_da_command(tmp_path):
    model_path = tmp_path / "contracts.json"
    model_path.write_text(json.dumps({
        "contracts": [
            {"id": "c1", "doctor": "d1", "hospital": "h1"},
            {"id": "c2", "doctor": "d2", "hospital": "h1"},
        ],
        "doctor_utilities": {"d1": {"c1": "3"}, "d2": {"c2": "2"}},
        "hospitals": {"h1": {"weights": {"c1": "5", "c2": "7"}, "quota": 1}},
    }))
    out_path = tmp_path / "out.json"
    assert run(["contracts-da", "--input", str(model_path), "--audit",
                "--output", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["contracts"] == ["c2"]
    assert doc["audit"]["h1"] == {"substitutable": True, "irc": True}
    assert doc["audit"]["stable"] is True


def test_roommates_commands(tmp_path):
    inst_path = tmp_path / "rm.json"
    run(["gen", "--seed", "2", "--model", "roommates", "--doctors", "4",
        "--strategies", "3", "--output", str(inst_path)])
    profile_path = tmp_path / "profile.json"
    assert run(["roommates-aspiration", "--input", str(inst_path),
                "--output", str(profile_path)]) == 0
    code = run(["roommates-realize", "--input", str(inst_path),
                "--profile", str(profile_path), "--output", str(tmp_path / "alloc.json")])
    assert code in (0, 2)
    doc = json.loads((tmp_path / "alloc.json").read_text())
    assert doc["realizable"] is (code == 0)


def test_verify_roommates_allocation(tmp_path):
    inst_path = tmp_path / "rm.json"
    run(["gen", "--seed", "13", "--model", "roommates", "--doctors", "5",
        "--strategies", "4", "--output", str(inst_path)])
    profile_path = tmp_path / "profile.json"
    run(["roommates-aspiration", "--input", str(inst_path), "--output", str(profile_path)])
    alloc_path = tmp_path / "alloc.json"
    code = run(["roommates-realize", "--input", str(inst_path),
                "--profile", str(profile_path), "--output", str(alloc_path)])
    assert code == 0
    assert run(["verify", "--input", str(inst_path), "--allocation", str(alloc_path),
                "--epsilon", "1/100", "--output", str(tmp_path / "r.json")]) == 0


def test_cne_accepts_negative_rationals_with_equals(tmp_path):
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps({
        "class": "zero_sum",
        "A": [["1", "-1"], ["-1", "1"]],
        "M": [["-1", "1"], ["1", "-1"]],
    }))
    out_path = tmp_path / "cne.json"
    assert run(["cne", "--game", str(game_path), "--f-res=-1/2", "--g-res=-1/2",
                "--epsilon", "1/10", "--output", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["case"] == "saddle_value"


def test_gen_repeated_denominator_bound(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["gen", "--seed", "11", "--classes", "repeated", "--den", "3",
                "--output", str(out)]) == 0
    from matchgames.core import load_instance
    inst = load_instance(str(out))
    for game in inst.games.values():
        assert game.class_tag == "repeated"
        for matrix in (game.doctor_matrix, game.hospital_matrix):
            for row in matrix:
                for v in row:
                    assert v.denominator <= 3


def test_missing_file_is_input_error(tmp_path):
    assert run(["solve-dac", "--input", str(tmp_path / "nope.json"),
                "--epsilon", "1/2"]) == 1


def test_shared_parser_gives_each_command_its_own_defaults(tmp_path, monkeypatch):
    from matchgames import cli, stability
    assert cli.build_parser() is cli.build_parser()
    alloc_path = tmp_path / "alloc.json"
    assert run(["solve-dac", "--input", EX4, "--epsilon", "1/2", "--output", str(alloc_path)]) == 0

    coalition_sizes = []
    real_report = stability.full_report
    monkeypatch.setattr(stability, "full_report", lambda *args, **kwargs: (
        coalition_sizes.append(kwargs["coalition_size"]) or real_report(*args, **kwargs)))
    verify = ["verify", "--input", EX4, "--allocation", str(alloc_path), "--epsilon", "1/2",
              "--output", str(tmp_path / "report.json")]
    assert run(verify + ["--coalitions", "4"]) == 0
    assert run(verify) == 0
    assert coalition_sizes == [4, None]

    oracle_calls = []
    real_oracle = stability.find_blocking_pair
    monkeypatch.setattr(stability, "find_blocking_pair", lambda *args, **kwargs: (
        oracle_calls.append(kwargs["grid_mesh"]) or real_oracle(*args, **kwargs)))
    solve = ["solve-dac", "--input", EX4, "--epsilon", "1/2", "--output", str(alloc_path)]
    assert run(solve + ["--oracle", "--grid", "4"]) == 0
    assert run(solve) == 0
    assert run(solve + ["--oracle"]) == 0
    assert oracle_calls == [4, 8]


@pytest.mark.parametrize("cycle, message", [
    ([], "empty cycle"),
    ([[7, 0]], "cycle step [7, 0] is outside its 2x2 game"),
    ([[-1, 0]], "cycle step [-1, 0] is outside its 2x2 game"),
    ([[0.5, 0]], "is not a list of [row, column] integer pairs"),
    ([["0", 0]], "is not a list of [row, column] integer pairs"),
    ([[0, 0, 0]], "is not a list of [row, column] integer pairs"),
])
def test_malformed_cycles_are_input_errors(tmp_path, capsys, cycle, message):
    inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "alloc.json"
    assert run(["gen", "--seed", "1", "--doctors", "3", "--hospitals", "2",
                "--classes", "repeated", "--output", str(inst_path)]) == 0
    common = ["--input", str(inst_path), "--epsilon", "1/2"]
    assert run(["solve-dac", *common, "--output", str(alloc_path)]) == 0
    doc = json.loads(alloc_path.read_text())
    assert doc["cycles"]["h2|d2"]["cycle"] == [[0, 1]]  # a 2 x 2 game
    doc["cycles"]["h2|d2"]["cycle"] = cycle
    alloc_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", *common, "--allocation", str(alloc_path),
                "--output", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "report.json").exists()


def _drop_matching(doc):
    del doc["matching"]


def _list_matching(doc):
    doc["matching"] = [1, 2]


def _unkeyed_strategy(doc):
    doc["hospital_strategies"] = {"h2d2": ["1", "0"]}


def _unkeyed_cycle(doc):
    doc["cycles"]["h2d2"] = doc["cycles"].pop("h2|d2")


def _scalar_punishment(doc):
    doc["cycles"]["h2|d2"]["punishment"] = {"punisher": "doctor", "doctor_strategy": 5}


@pytest.mark.parametrize("edit, message", [
    (_drop_matching, "error: the allocation document has no matching\n"),
    (_list_matching, "error: matching is not a JSON object\n"),
    (_unkeyed_strategy, "error: hospital_strategies h2d2: the key has no '|' between its two ids\n"),
    (_unkeyed_cycle, "error: cycle h2d2: the key has no '|' between its two ids\n"),
    (_scalar_punishment,
     "error: cycle h2|d2 punishment doctor_strategy is not a list of rational literals\n"),
])
def test_malformed_allocation_documents_are_named_input_errors(tmp_path, capsys, edit, message):
    inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "alloc.json"
    assert run(["gen", "--seed", "1", "--doctors", "3", "--hospitals", "2",
                "--classes", "repeated", "--output", str(inst_path)]) == 0
    common = ["--input", str(inst_path), "--epsilon", "1/2"]
    assert run(["solve-dac", *common, "--output", str(alloc_path)]) == 0
    doc = json.loads(alloc_path.read_text())
    edit(doc)
    alloc_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", *common, "--allocation", str(alloc_path),
                "--output", str(tmp_path / "report.json")]) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "report.json").exists()


def test_renegotiation_label_names_the_classes_checked(tmp_path):
    labels = {}
    for classes in ("zero_sum", "repeated", "zero_sum,strictly_competitive,repeated"):
        inst_path, alloc_path, report_path = (tmp_path / f"{name}.json" for name in
                                              ("inst", "alloc", "report"))
        assert run(["gen", "--seed", "3", "--doctors", "8", "--hospitals", "3",
                    "--classes", classes, "--output", str(inst_path)]) == 0
        common = ["--input", str(inst_path), "--epsilon", "1/2"]
        assert run(["solve-dac", *common, "--output", str(alloc_path)]) == 0
        run(["verify", *common, "--allocation", str(alloc_path), "--renegotiation",
             "--output", str(report_path)])
        labels[classes] = json.loads(report_path.read_text())["methods"]["renegotiation"]
    assert labels == {
        "zero_sum": "exact_interval",
        "repeated": "exact_hull",
        "zero_sum,strictly_competitive,repeated": "exact_hull/exact_interval",
    }


def test_coalition_label_names_the_classes_priced(tmp_path):
    """A witness names its members' classes; with no witness, the label
    names the classes of every game the scan priced."""
    labels = {}
    for seed, doctors, classes in ((3, 8, "zero_sum"), (3, 8, "repeated"),
                                   (3, 8, "zero_sum,strictly_competitive,repeated"),
                                   (4, 6, "zero_sum,strictly_competitive,repeated")):
        inst_path, alloc_path, report_path = (tmp_path / f"{name}.json" for name in
                                              ("inst", "alloc", "report"))
        assert run(["gen", "--seed", str(seed), "--doctors", str(doctors), "--hospitals", "3",
                    "--classes", classes, "--output", str(inst_path)]) == 0
        common = ["--input", str(inst_path), "--epsilon", "1/2"]
        assert run(["solve-dac", *common, "--output", str(alloc_path)]) == 0
        run(["verify", *common, "--allocation", str(alloc_path), "--coalitions", "4",
             "--output", str(report_path)])
        report = json.loads(report_path.read_text())
        witness = report.get("blocking_coalition")
        labels[(seed, classes)] = (report["methods"]["coalition"],
                                   witness and (witness["doctors"], witness["method"]))
    mixed = "exact_hull/exact_interval"
    assert labels == {
        (3, "zero_sum"): ("exact_interval", None),
        (3, "repeated"): ("exact_hull", None),
        (3, "zero_sum,strictly_competitive,repeated"): (mixed, None),
        # d4's game with h2 is repeated, d5's strictly competitive.
        (4, "zero_sum,strictly_competitive,repeated"): (mixed, (["d4", "d5"], mixed)),
    }


def test_coalitions_refuse_a_general_pair(tmp_path, capsys):
    """Plain verify answers a general pair by its grid; the coalition check
    has no frontier to price it on and says so by name."""
    from matchgames.core import (Allocation, BimatrixGame, Doctor, Hospital, MatchingGameInstance,
                                 serialize_allocation, serialize_instance)

    a = ((F(2), F(0)), (F(0), F(1)))
    m = ((F(1), F(0)), (F(0), F(2)))
    instance = MatchingGameInstance(
        model="additive_separable",
        doctors={"d1": Doctor("d1", F(0), ("s1", "s2"))},
        hospitals={"h1": Hospital("h1", F(0), 1, ("t1", "t2"))},
        games={("d1", "h1"): BimatrixGame(a, m, "general")},
    )
    allocation = Allocation(matching={"d1": "h1"}, doctor_strategies={"d1": (F(1), F(0))},
                            hospital_strategies={("h1", "d1"): (F(1), F(0))})
    inst_path, alloc_path, report_path = (tmp_path / f"{name}.json" for name in
                                          ("inst", "alloc", "report"))
    inst_path.write_text(json.dumps(serialize_instance(instance)))
    alloc_path.write_text(json.dumps(serialize_allocation(allocation)))
    common = ["verify", "--input", str(inst_path), "--allocation", str(alloc_path),
              "--epsilon", "1/10"]
    assert run([*common, "--output", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["methods"] == {"pair": "grid(1/8)"}
    capsys.readouterr()
    assert run([*common, "--coalitions", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: coalition check: pair (d1, h1) has class general"), err


def _tampered_allocation(tmp_path, gen_args, solve, edit):
    """(instance path, allocation path) of a generated instance whose solved
    allocation document ``edit`` has changed."""
    inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "alloc.json"
    assert run(["gen", *gen_args, "--output", str(inst_path)]) == 0
    assert solve(inst_path, alloc_path) == 0
    doc = json.loads(alloc_path.read_text())
    edit(doc["matching"])
    alloc_path.write_text(json.dumps(doc))
    return inst_path, alloc_path


def _realized_roommates(inst_path, alloc_path):
    profile = alloc_path.with_name("profile.json")
    assert run(["roommates-aspiration", "--input", str(inst_path), "--output", str(profile)]) == 0
    return run(["roommates-realize", "--input", str(inst_path), "--profile", str(profile),
                "--output", str(alloc_path)])


def _dac(inst_path, alloc_path):
    return run(["solve-dac", "--input", str(inst_path), "--epsilon", "1/10",
                "--output", str(alloc_path)])


def _one_sided(matching):
    assert matching["d1"] == "d3" and matching["d3"] == "d1"
    matching["d3"] = None


def _no_game(matching):
    assert "d1" in matching
    matching["d1"] = "h9"


@pytest.mark.parametrize("gen_args, solve, edit, message", [
    (["--model", "roommates", "--doctors", "4", "--seed", "3"], _realized_roommates, _one_sided,
     "error: roommates d1 and d3 are matched one way only: d1 -> d3, d3 -> unmatched\n"),
    (["--seed", "5", "--doctors", "4", "--hospitals", "2"], _dac, _no_game,
     "error: doctor d1 is matched to h9, but the pair has no game\n"),
])
@pytest.mark.parametrize("renegotiation", [False, True])
def test_malformed_matchings_are_named_input_errors(tmp_path, capsys, gen_args, solve, edit,
                                                    message, renegotiation):
    inst_path, alloc_path = _tampered_allocation(tmp_path, gen_args, solve, edit)
    capsys.readouterr()
    verify = ["verify", "--input", str(inst_path), "--allocation", str(alloc_path),
              "--epsilon", "1/10", "--output", str(tmp_path / "report.json")]
    assert run(verify + ["--renegotiation"] * renegotiation) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "report.json").exists()


def test_malformed_matchings_raise_the_named_error():
    from matchgames.core import Allocation, evaluate_payoffs
    from matchgames.errors import MalformedMatchingError
    from matchgames.gen import generate_instance

    inst = generate_instance(seed=3, model="roommates", n_doctors=4)
    allocation = Allocation(matching={"d1": "d3", "d2": None, "d3": None, "d4": None})
    with pytest.raises(MalformedMatchingError, match="d1 -> d3, d3 -> unmatched"):
        evaluate_payoffs(inst, allocation)
    allocation.matching = {"d1": None, "d3": "d1"}  # the one-sided entry is the larger id's
    with pytest.raises(MalformedMatchingError, match="d1 -> unmatched, d3 -> d1"):
        evaluate_payoffs(inst, allocation)


def test_renegotiating_a_blocked_allocation_is_an_input_error(tmp_path, capsys):
    out_path = tmp_path / "reneg.json"
    assert run(["renegotiate", "--input", EX4, "--allocation", str(_corrupted_allocation(tmp_path)),
                "--epsilon", "1/2", "--output", str(out_path)]) == 1
    assert capsys.readouterr().err == "error: input allocation is blocked by (a,beta)\n"
    assert not out_path.exists()


def test_solve_dac_oracle_witness_fails_verification(tmp_path, monkeypatch):
    from matchgames import stability
    monkeypatch.setattr(stability, "find_blocking_pair", lambda *args, **kwargs: "planted witness")
    out_path = tmp_path / "alloc.json"
    assert run(["solve-dac", "--input", EX4, "--epsilon", "1/2", "--output", str(out_path), "--oracle"]) == 2
    assert json.loads(out_path.read_text())["matching"]


def test_renegotiate_certificate_failure_fails_verification(tmp_path, monkeypatch, capsys):
    from matchgames import stability
    alloc_path, out_path = tmp_path / "alloc.json", tmp_path / "reneg.json"
    assert run(["solve-dac", "--input", EX4, "--epsilon", "1/2", "--output", str(alloc_path)]) == 0
    monkeypatch.setattr(stability, "verify_renegotiation_proof", lambda *args: (False, "planted witness"))
    assert run(["renegotiate", "--input", EX4, "--allocation", str(alloc_path), "--epsilon", "1/2",
                "--output", str(out_path)]) == 2
    assert capsys.readouterr().err == "verification failed: planted witness\n"
    assert "sweeps" in json.loads(out_path.read_text())


# ---------------------------------------------------------------------------
# The collector: main pauses it for each command, and no command leaves a
# reference cycle behind, so the pause holds back no garbage.


@pytest.fixture(scope="module")
def collector_inputs(tmp_path_factory):
    """Each command's argv, on inputs written once: a three-class market, its
    DAC and renegotiated allocations, a realizable and an unrealizable
    roommates instance with their aspirations, a contract model and a game."""
    d = tmp_path_factory.mktemp("collector")
    p = {name: str(d / f"{name}.json") for name in (
        "market", "dac", "reneg", "rm", "rm_asp", "odd", "odd_asp", "model", "game", "out")}
    three = "zero_sum,strictly_competitive,repeated"
    assert run(["gen", "--seed", "1", "--doctors", "12", "--hospitals", "4", "--classes", three,
                "--output", p["market"]]) == 0
    market = ["--input", p["market"], "--epsilon", "1/2"]
    assert run(["solve-dac", *market, "--output", p["dac"]]) == 0
    assert run(["renegotiate", *market, "--allocation", p["dac"], "--output", p["reneg"]]) == 0
    for name, seed, n, strategies in (("rm", 13, 5, 4), ("odd", 2, 5, 3)):
        assert run(["gen", "--model", "roommates", "--seed", str(seed), "--doctors", str(n),
                    "--strategies", str(strategies), "--output", p[name]]) == 0
        assert run(["roommates-aspiration", "--input", p[name], "--output", p[f"{name}_asp"]]) == 0
    with open(p["model"], "w") as fh:
        json.dump({"contracts": [{"id": f"c{k}", "doctor": f"d{k % 3}", "hospital": f"h{k % 2}"}
                                 for k in range(6)],
                   "doctor_utilities": {f"d{k % 3}": {f"c{j}": str(j) for j in range(k % 3, 6, 3)}
                                        for k in range(3)},
                   "hospitals": {f"h{k}": {"weights": {f"c{j}": str(j + 1) for j in range(k, 6, 2)},
                                           "quota": 2} for k in range(2)}}, fh)
    with open(p["game"], "w") as fh:
        json.dump({"class": "zero_sum", "A": [["1", "-1"], ["-1", "1"]],
                   "M": [["-1", "1"], ["1", "-1"]]}, fh)
    out = ["--output", p["out"]]
    return {
        "gen": (["gen", "--seed", "2", "--doctors", "12", "--hospitals", "4", "--classes", three,
                 *out], 0),
        "solve-dac": (["solve-dac", *market, *out], 0),
        "verify": (["verify", *market, "--allocation", p["dac"], "--coalitions", "3", *out], 0),
        "renegotiate": (["renegotiate", *market, "--allocation", p["dac"], *out], 0),
        "verify --renegotiation": (["verify", *market, "--allocation", p["reneg"],
                                    "--renegotiation", *out], 0),
        "roommates-aspiration": (["roommates-aspiration", "--input", p["rm"], *out], 0),
        "roommates-realize": (["roommates-realize", "--input", p["rm"], "--profile", p["rm_asp"],
                               *out], 0),
        "roommates-realize unrealizable": (["roommates-realize", "--input", p["odd"],
                                            "--profile", p["odd_asp"], *out], 2),
        "contracts-da --audit": (["contracts-da", "--input", p["model"], "--audit", *out], 0),
        "cne": (["cne", "--game", p["game"], "--f-res", "-1", "--g-res", "-1",
                 "--epsilon", "1/10", *out], 0),
    }


@pytest.mark.parametrize("command", [
    "gen", "solve-dac", "verify", "renegotiate", "verify --renegotiation",
    "roommates-aspiration", "roommates-realize", "roommates-realize unrealizable",
    "contracts-da --audit", "cne"])
def test_a_command_leaves_no_reference_cycles(collector_inputs, command):
    argv, code = collector_inputs[command]
    assert run(argv) == code  # a first call fills the per-process caches
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert run(argv) == code
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("start_enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, start_enabled):
    from matchgames import gen
    states = []
    generate = gen.generate_instance

    def recording(*args, **kwargs):
        states.append(gc.isenabled())
        return generate(*args, **kwargs)

    def failing(*args, **kwargs):
        raise RuntimeError("planted failure")

    was = gc.isenabled()
    (gc.enable if start_enabled else gc.disable)()
    try:
        monkeypatch.setattr(gen, "generate_instance", recording)
        assert run(["gen", "--seed", "1", "--output", str(tmp_path / "g.json")]) == 0
        assert gc.isenabled() is start_enabled and states == [False]
        assert run(["solve-dac", "--input", str(tmp_path / "nope.json"), "--epsilon", "1/2"]) == 1
        assert gc.isenabled() is start_enabled
        monkeypatch.setattr(gen, "generate_instance", failing)
        with pytest.raises(RuntimeError, match="planted failure"):
            run(["gen", "--seed", "1", "--output", str(tmp_path / "g.json")])
        assert gc.isenabled() is start_enabled
    finally:
        (gc.enable if was else gc.disable)()
