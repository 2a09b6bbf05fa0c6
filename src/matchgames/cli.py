"""Command-line pipeline: load -> solve -> renegotiate -> verify -> report.

Exit codes: 0 all requested work succeeded and verified, 1 bad input,
2 a verification failed (the report is still written).  Every rational in
authoritative output is a canonical p/q string; byte-identical runs for
identical inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import contracts as contracts_mod
from . import core, dac, gen, renegotiation, roommates, stability
from .errors import (
    InputNotPairwiseStableError,
    MatchGamesError,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


def _epsilon(text: str) -> Fraction:
    value = core.parse_rational(text)
    if value <= 0:
        raise core.MatchGamesError("epsilon must be strictly positive")
    return value


def _emit(doc: dict, path):
    if path:
        core.dump_json(doc, path)
    else:
        core.write_json(doc, sys.stdout)


def _witness_doc(witness):
    if witness is None:
        return None
    doc = {
        "doctor": witness.doctor,
        "partner": witness.partner,
        "doctor_gain": core.format_rational(witness.doctor_gain),
        "partner_gain": core.format_rational(witness.partner_gain),
        "method": witness.method,
    }
    if witness.x is not None:
        doc["x"] = [core.format_rational(w) for w in witness.x]
        doc["y"] = [core.format_rational(w) for w in witness.y]
    return doc


def _report_doc(report: stability.StabilityReport) -> dict:
    doc = {
        "individually_rational": report.individually_rational,
        "blocking_pair": _witness_doc(report.blocking_pair),
        "methods": report.methods,
    }
    if report.ir_witness:
        doc["ir_witness"] = report.ir_witness
    if report.blocking_coalition is not None:
        doc["blocking_coalition"] = {
            "doctors": list(report.blocking_coalition.doctors),
            "hospital": report.blocking_coalition.hospital,
            "method": report.blocking_coalition.method,
        }
    if report.renegotiation_proof is not None:
        doc["renegotiation_proof"] = report.renegotiation_proof
        if report.renegotiation_witness:
            doc["renegotiation_witness"] = report.renegotiation_witness
    return doc


def cmd_solve_dac(args) -> int:
    instance = core.load_instance(args.input)
    epsilon = _epsilon(args.epsilon)
    allocation, trace = dac.run_dac(instance, epsilon)
    doc = core.serialize_allocation(allocation)
    doc["iterations"] = trace.iterations
    doc["competitions"] = trace.competitions
    _emit(doc, args.output)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("\n".join(trace.events) + "\n")
    if args.oracle:
        witness = stability.find_blocking_pair(instance, allocation, epsilon, grid_mesh=args.grid)
        if witness is not None:
            return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = core.load_instance(args.input)
    allocation = core.load_allocation(args.allocation)
    epsilon = _epsilon(args.epsilon)
    report = stability.full_report(
        instance,
        allocation,
        epsilon,
        coalition_size=args.coalitions,
        grid_mesh=args.grid,
        check_renegotiation=args.renegotiation,
    )
    _emit(_report_doc(report), args.output)
    failed = (
        not report.individually_rational
        or report.blocking_pair is not None
        or report.blocking_coalition is not None
        or (args.renegotiation and report.renegotiation_proof is False)
    )
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_renegotiate(args) -> int:
    instance = core.load_instance(args.input)
    allocation = core.load_allocation(args.allocation)
    epsilon = _epsilon(args.epsilon)
    try:
        result = renegotiation.run_renegotiation(instance, allocation, epsilon)
    except InputNotPairwiseStableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    doc = core.serialize_allocation(result.allocation)
    doc["sweeps"] = result.sweeps
    _emit(doc, args.output)
    # The certificate evaluates the payoffs afresh instead of reading the
    # sweep's ledger, so it shares no state with the code it checks.
    ok, witness = stability.verify_renegotiation_proof(instance, result.allocation, epsilon)
    if not ok:
        print(f"verification failed: {witness}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_cne(args) -> int:
    with open(args.game, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    game = core.BimatrixGame(
        doctor_matrix=core.parse_matrix(doc["A"]),
        hospital_matrix=core.parse_matrix(doc["M"]),
        class_tag=str(doc["class"]),
    )
    reservations = renegotiation.ReservationPair(
        doctor_reservation=core.parse_rational(args.f_res),
        hospital_reservation=core.parse_rational(args.g_res),
    )
    result = renegotiation.compute_cne_for_pair(game, reservations, _epsilon(args.epsilon))
    out = {
        "case": result.case_tag,
        "doctor_payoff": core.format_rational(result.doctor_payoff),
        "hospital_payoff": core.format_rational(result.hospital_payoff),
    }
    if result.cycle is not None:
        out["cycle"] = [[s, t] for s, t in result.cycle.cycle]
        if result.cycle.punishment:
            out["punisher"] = result.cycle.punishment.punisher
    else:
        out["x"] = [core.format_rational(w) for w in result.x]
        out["y"] = [core.format_rational(w) for w in result.y]
    _emit(out, args.output)
    return EXIT_OK


def cmd_contracts_da(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    model = contracts_mod.load_contract_model(doc)
    tables = contracts_mod.ChoiceRules(model)  # compiled once, read by DA and every audit
    allocation = contracts_mod.run_da_contracts(model, tables=tables)
    out = contracts_mod.serialize_contract_allocation(model, allocation)
    status = EXIT_OK
    if args.audit:
        audit = {}
        for h in model.hospitals:
            subs_ok, subs_witness = contracts_mod.check_substitutability(
                model, h, cap=args.scan_cap, tables=tables)
            irc_ok, irc_witness = contracts_mod.check_irc(model, h, cap=args.scan_cap, tables=tables)
            audit[h] = {
                "substitutable": subs_ok,
                "irc": irc_ok,
            }
            if not subs_ok:
                audit[h]["substitutability_witness"] = [list(subs_witness[0]), subs_witness[1], subs_witness[2]]
            if not irc_ok:
                audit[h]["irc_witness"] = [list(irc_witness[0]), irc_witness[1]]
        stable, witness = contracts_mod.check_hm_stability(
            model, allocation, cap=args.scan_cap, tables=tables)
        audit["stable"] = stable
        audit["pairwise_stable"] = contracts_mod.is_pairwise_stable(model, allocation, tables=tables)
        if not stable:
            audit["stability_witness"] = str(witness)
            status = EXIT_VERIFY
        out["audit"] = audit
    _emit(out, args.output)
    return status


def cmd_roommates_aspiration(args) -> int:
    instance = core.load_instance(args.input)
    profile = roommates.solve_aspiration_zero_sum(instance)
    _emit({d: core.format_rational(v) for d, v in sorted(profile.items())}, args.output)
    return EXIT_OK


def cmd_roommates_realize(args) -> int:
    instance = core.load_instance(args.input)
    with open(args.profile, "r", encoding="utf-8") as fh:
        profile = {d: core.parse_rational(v) for d, v in json.load(fh).items()}
    result = roommates.realize_aspiration(instance, profile)
    if isinstance(result, roommates.UnrealizableReport):
        _emit(
            {
                "realizable": False,
                "exposed_doctor": result.exposed_doctor,
                "component": list(result.component),
                "message": result.message,
            },
            args.output,
        )
        return EXIT_VERIFY
    doc = core.serialize_allocation(result)
    doc["realizable"] = True
    _emit(doc, args.output)
    return EXIT_OK


def cmd_gen(args) -> int:
    instance = gen.generate_instance(
        seed=args.seed,
        model=core.ROOMMATES if args.model == "roommates" else core.ADDITIVE_SEPARABLE,
        n_doctors=args.doctors,
        n_hospitals=args.hospitals,
        max_strategies=args.strategies,
        max_quota=args.quota,
        classes=args.classes.split(","),
        max_denominator=args.den,
    )
    _emit(core.serialize_instance(instance), args.output)
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every call to :func:`main` can share it."""
    parser = argparse.ArgumentParser(prog="matchgames")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, epsilon=True):
        p.add_argument("--input", required=True)
        p.add_argument("--output", default=None)
        if epsilon:
            p.add_argument("--epsilon", required=True, help="rational, e.g. 1/10")

    p = sub.add_parser("solve-dac", help="deferred acceptance with competitions")
    common(p)
    p.add_argument("--trace", default=None, help="write the event trace to this file")
    p.add_argument("--oracle", action="store_true", help="verify the output before exiting")
    p.add_argument("--grid", type=int, default=8)
    p.set_defaults(func=cmd_solve_dac)

    p = sub.add_parser("verify", help="stability report for an allocation")
    common(p)
    p.add_argument("--allocation", required=True)
    p.add_argument("--coalitions", type=int, default=None)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--renegotiation", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("renegotiate", help="drive an allocation to renegotiation proofness")
    common(p)
    p.add_argument("--allocation", required=True)
    p.set_defaults(func=cmd_renegotiate)

    p = sub.add_parser("cne", help="constrained Nash equilibrium of one game")
    p.add_argument("--game", required=True)
    p.add_argument("--f-res", required=True, dest="f_res")
    p.add_argument("--g-res", required=True, dest="g_res",
                   help="hospital reservation in hospital payoff units")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_cne)

    p = sub.add_parser("contracts-da", help="deferred acceptance with contracts")
    common(p, epsilon=False)
    p.add_argument("--audit", action="store_true")
    p.add_argument("--scan-cap", type=int, default=12, dest="scan_cap")
    p.set_defaults(func=cmd_contracts_da)

    p = sub.add_parser("roommates-aspiration", help="solve the aspiration equation")
    common(p, epsilon=False)
    p.set_defaults(func=cmd_roommates_aspiration)

    p = sub.add_parser("roommates-realize", help="implement a payoff profile")
    common(p, epsilon=False)
    p.add_argument("--profile", required=True)
    p.set_defaults(func=cmd_roommates_realize)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--model", choices=["additive", "roommates"], default="additive")
    p.add_argument("--doctors", type=int, default=4)
    p.add_argument("--hospitals", type=int, default=2)
    p.add_argument("--strategies", type=int, default=3)
    p.add_argument("--quota", type=int, default=2)
    p.add_argument("--classes", default="zero_sum")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--den", type=int, default=1)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


@core.gc_paused  # a command leaves no reference cycles: see core.gc_paused
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatchGamesError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
