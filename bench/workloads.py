"""Workload inputs and pipelines.

Every input is generated from the run's seed and written to files; the
program sees only those files, through its CLI.  A workload is a fixed list
of units (one market, or one roommates instance plus two contract models),
each a fixed sequence of CLI steps, plus fault probes.  A pass runs every
unit and every probe once, so each pass attempts the same operations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List

import checks

MIXED_CLASSES = "zero_sum,strictly_competitive,repeated"


@dataclass
class Step:
    key: str               # names the step's document within its unit
    metric: str            # command name used for per-command timings
    argv: List[str]
    output: str            # document the command writes
    ok_codes: tuple = (0,)  # exit codes of a completed operation


@dataclass
class Unit:
    steps: List[Step]
    check: Callable[[Dict[str, dict], Dict[str, int]], None]


@dataclass
class Probe:
    """An operation kept because it fails today, on inputs fixed for every seed."""

    name: str
    argv: List[str]
    output: str
    check: Callable[[dict], None]
    cause: str


@dataclass
class Workload:
    name: str
    units: List[Unit] = field(default_factory=list)
    probes: List[Probe] = field(default_factory=list)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _gen_seeds(workload, seed, count):
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


# ---------------------------------------------------------------------------
# Markets: solve-dac -> verify --coalitions 4 -> renegotiate -> verify --renegotiation


def _market_unit(cli, work: Path, tag, gen_argv, epsilon):
    inst = str(work / f"{tag}.json")
    cli(gen_argv + ["--output", inst])
    out = {name: str(work / f"{tag}.{name}.json")
           for name in ("solve_dac", "verify", "renegotiate", "verify_rp")}
    common = ["--input", inst, "--epsilon", epsilon]
    steps = [
        Step("solve_dac", "solve_dac", ["solve-dac", *common, "--output", out["solve_dac"]],
             out["solve_dac"]),
        # Exit 2 with a blocking coalition is a completed verification: with
        # nonzero hospital baselines a team-replacement coalition can block an
        # eps-pairwise-stable allocation.  The coalition is replayed below.
        Step("verify", "verify", ["verify", *common, "--allocation", out["solve_dac"], "--coalitions", "4",
                        "--output", out["verify"]], out["verify"], ok_codes=(0, 2)),
        Step("renegotiate", "renegotiate", ["renegotiate", *common, "--allocation", out["solve_dac"],
                             "--output", out["renegotiate"]], out["renegotiate"]),
        Step("verify_rp", "verify_rp", ["verify", *common, "--allocation", out["renegotiate"], "--renegotiation",
                           "--output", out["verify_rp"]], out["verify_rp"]),
    ]
    eps = Fraction(epsilon)

    def check(docs, codes):
        market = checks.Market(_load(inst))
        checks.check_market_allocation(market, docs["solve_dac"], eps)
        checks.check_verify_report(docs["verify"], renegotiation=False)
        coalition = docs["verify"].get("blocking_coalition")
        if (coalition is not None) != (codes["verify"] == 2):
            raise checks.CheckError(f"verify exit {codes['verify']} disagrees with its report")
        if coalition is not None:
            checks.check_blocking_coalition(market, docs["solve_dac"], eps, coalition)
        checks.check_same_matching(docs["solve_dac"], docs["renegotiate"])
        checks.check_market_allocation(market, docs["renegotiate"], eps)
        checks.check_verify_report(docs["verify_rp"], renegotiation=True)

    return Unit(steps, check)


def zs_market(cli, work: Path, seed: int, units: int) -> Workload:
    """Zero-sum 40 x 10 markets at generator defaults, eps = 1/2."""
    wl = Workload("zs-market")
    for i, s in enumerate(_gen_seeds(wl.name, seed, units)):
        gen = ["gen", "--seed", str(s), "--doctors", "40", "--hospitals", "10"]
        wl.units.append(_market_unit(cli, work, f"zs{i}", gen, "1/2"))
    # Fixed market (generator seed 0), the same for every benchmark seed.
    probe_inst = str(work / "probe_zs.json")
    cli(["gen", "--seed", "0", "--doctors", "40", "--hospitals", "10", "--output", probe_inst])
    probe_out = str(work / "probe_zs.solve_dac.json")
    wl.probes.append(Probe(
        "solve-dac --epsilon 1/10",
        ["solve-dac", "--input", probe_inst, "--epsilon", "1/10", "--output", probe_out],
        probe_out,
        lambda doc: checks.check_market_allocation(checks.Market(_load(probe_inst)), doc, Fraction(1, 10)),
        "dac._default_iteration_cap ignores the number of seats",
    ))
    return wl


def mixed_market(cli, work: Path, seed: int, units: int) -> Workload:
    """20 x 6 markets mixing zero-sum and strictly competitive pairs at
    generator defaults, eps = 1/2.

    No repeated pairs: DAC compounds the denominators of their hull-LP
    weights, so about one market in a thousand gets cycles of hundreds of
    thousands of steps, and verify and renegotiate then take minutes.  Not
    eps = 1/10: about one market in ten then trips DAC's iteration cap.
    """
    wl = Workload("mixed-market")
    for i, s in enumerate(_gen_seeds(wl.name, seed, units)):
        gen = ["gen", "--seed", str(s), "--doctors", "20", "--hospitals", "6",
               "--classes", "zero_sum,strictly_competitive"]
        wl.units.append(_market_unit(cli, work, f"mx{i}", gen, "1/2"))
    return wl


# ---------------------------------------------------------------------------
# Roommates (aspiration -> realize) and contracts (contracts-da --audit)

ROOMMATES_KINDS = (("8", "zero_sum"), ("9", "zero_sum"), ("9", "zero_sum,strictly_competitive"))
# Largest per-hospital contract count of every game-derived model (the audits
# scan 2^n subsets); one size keeps the per-unit time unimodal.
CONTRACT_SIZE = 10


def _rational(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _contract_doc(model):
    """The contracts-da input document of a matchgames ContractModel."""
    return {
        "contracts": [{"id": c.id, "doctor": c.doctor, "hospital": c.hospital}
                      for c in model.contracts.values()],
        "doctor_utilities": {
            d: {cid: _rational(v) for (dd, cid), v in sorted(model.doctor_utilities.items()) if dd == d}
            for d in model.doctors
        },
        "hospitals": {
            h: {"weights": {cid: _rational(v) for cid, v in sorted(model.hospital_additive[h].items())},
                "quota": model.hospital_quotas[h]}
            for h in model.hospitals
        },
    }


def _game_contract_doc(rng, n_doctors, target):
    """A model discretised from a random mixed market (mesh 1) whose largest
    hospital holds exactly ``target`` contracts; redraws the market until so."""
    from matchgames.contracts import game_to_contracts
    from matchgames.gen import generate_instance

    while True:
        instance = generate_instance(
            seed=rng.randrange(1 << 31), n_doctors=n_doctors, n_hospitals=2, max_strategies=2,
            classes=MIXED_CLASSES.split(","),
        )
        model = game_to_contracts(instance, 1)
        if max(len(model.contracts_of_hospital(h)) for h in model.hospitals) == target:
            return _contract_doc(model)


def _table_contract_doc(rng, n_doctors):
    """Hospital h1 values subsets through an explicit table with pairwise
    complementarities; h2 is additive with quota 2."""
    doctors = [f"d{i + 1}" for i in range(n_doctors)]
    contracts, utilities = [], {d: {} for d in doctors}
    for d in doctors:
        for h in ("h1", "h2"):
            for k in range(rng.randint(1, 2)):
                cid = f"{d}~{h}~{k}"
                contracts.append({"id": cid, "doctor": d, "hospital": h})
                utilities[d][cid] = str(rng.randint(-2, 10))
    own = {h: [c["id"] for c in contracts if c["hospital"] == h] for h in ("h1", "h2")}
    weight = {cid: rng.randint(-4, 4) for cid in own["h1"]}
    bonus = {}
    for i, a in enumerate(doctors):
        for b in doctors[i + 1:]:
            bonus[(a, b)] = rng.choice((0, 0, rng.randint(3, 8)))
    per_doctor = [[None] + [c for c in own["h1"] if c.startswith(f"{d}~")] for d in doctors]
    table = {}

    def subsets(idx, acc):
        if idx == len(per_doctor):
            if acc:
                yield list(acc)
            return
        for c in per_doctor[idx]:
            yield from subsets(idx + 1, acc + ([c] if c else []))

    for subset in subsets(0, []):
        ds = [c.split("~")[0] for c in subset]
        value = sum(weight[c] for c in subset)
        value += sum(bonus[(a, b)] for i, a in enumerate(ds) for b in ds[i + 1:])
        table["+".join(sorted(subset))] = str(value)
    hospitals = {
        "h1": {"table": table},
        "h2": {"weights": {cid: str(rng.randint(-3, 9)) for cid in own["h2"]}, "quota": 2},
    }
    return {"contracts": contracts, "doctor_utilities": utilities, "hospitals": hospitals}


def _roommates_instance(cli, rng, path, n, classes):
    """A generated roommates instance with at most one single-strategy doctor.

    Two single-strategy doctors make a 1 x 1 pair, whose frontier is one
    point; with several such pairs the aspiration set can be empty, and
    roommates-aspiration then fails (see README).  Redraws until none.
    """
    while True:
        cli(["gen", "--model", "roommates", "--seed", str(rng.randrange(1 << 31)), "--doctors", n,
             "--classes", classes, "--output", path])
        if sum(len(d["strategies"]) == 1 for d in _load(path)["doctors"]) <= 1:
            return


def roommates_contracts(cli, work: Path, seed: int, units: int) -> Workload:
    """Each unit is one roommates instance, one game-derived contract model
    and one contract model with a table hospital.

    Roommates kinds cycle through ROOMMATES_KINDS; game-derived models hold
    CONTRACT_SIZE contracts at their largest hospital.
    """
    wl = Workload("roommates-contracts")
    rm_rng = random.Random(f"{wl.name}:{seed}:roommates")
    ct_rng = random.Random(f"{wl.name}:{seed}:contracts")
    for i in range(units):
        n, classes = ROOMMATES_KINDS[i % len(ROOMMATES_KINDS)]
        rm = str(work / f"rm{i}.json")
        _roommates_instance(cli, rm_rng, rm, n, classes)
        models = {"game": _game_contract_doc(ct_rng, 3 + i % 2, CONTRACT_SIZE),
                  "table": _table_contract_doc(ct_rng, 3 + i % 2)}
        out = {name: str(work / f"rm{i}.{name}.json") for name in ("aspiration", "realize")}
        steps = [
            Step("aspiration", "aspiration",
                 ["roommates-aspiration", "--input", rm, "--output", out["aspiration"]],
                 out["aspiration"]),
            Step("realize", "realize", ["roommates-realize", "--input", rm, "--profile",
                                        out["aspiration"], "--output", out["realize"]],
                 out["realize"], ok_codes=(0, 2)),
        ]
        paths = {}
        for kind, doc in models.items():
            paths[kind] = str(work / f"ct{i}{kind}.json")
            with open(paths[kind], "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
            audit = str(work / f"ct{i}{kind}.audit.json")
            steps.append(Step(kind, "contracts_audit",
                              ["contracts-da", "--input", paths[kind], "--audit", "--scan-cap",
                               str(len(doc["contracts"])), "--output", audit],
                              audit, ok_codes=(0, 2)))
        wl.units.append(Unit(steps, _rc_check(rm, paths)))
    probe_out = str(work / "probe_rm10.json")
    wl.probes.append(Probe(
        "gen --model roommates --doctors 10",
        ["gen", "--model", "roommates", "--seed", "0", "--doctors", "10", "--output", probe_out],
        probe_out,
        lambda doc: checks.check_roommates_instance(doc, 10),
        "gen.generate_instance keys pairs by string order of ids, so d10 < d2",
    ))
    return wl


def _rc_check(rm_path, ct_paths):
    def check(docs, codes):
        instance = checks.Roommates(_load(rm_path))
        profile = checks.read_profile(instance, docs["aspiration"])
        checks.check_aspiration(instance, profile)
        if codes["realize"] == 0:
            checks.check_realized(instance, profile, docs["realize"])
        else:
            checks.check_unrealizable(instance, profile, docs["realize"])
        for kind, path in ct_paths.items():
            checks.check_contracts_output(checks.ContractModel(_load(path)), docs[kind], codes[kind])

    return check


# name -> (builder, units per pass)
WORKLOADS = {
    "zs-market": (zs_market, 24),
    "mixed-market": (mixed_market, 52),
    "roommates-contracts": (roommates_contracts, 52),
}
