"""Matching with contracts: choice functions, deferred acceptance, audits.

Contracts are bilateral (one doctor, one hospital each).  Hospitals either
carry additive per-contract weights with a quota, or an explicit utility
table over subsets (the table form is what lets tests build substitutability
violators).  Utilities, not primitive choice rules, are the ground truth, so
the irrelevance of rejected contracts holds by construction for the additive
form; tables can break anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .core import MatchingGameInstance, bilinear, format_rational, parse_rational
from .errors import MatchGamesError, ScanCapExceededError
from .qcqp import simplex_grid


@dataclass(frozen=True)
class Contract:
    id: str
    doctor: str
    hospital: str


@dataclass
class ContractModel:
    contracts: Dict[str, Contract]
    doctor_utilities: Dict[Tuple[str, str], Fraction]      # (doctor, contract id)
    hospital_additive: Dict[str, Dict[str, Fraction]]      # hospital -> contract id -> weight
    hospital_quotas: Dict[str, int]
    hospital_tables: Dict[str, Dict[FrozenSet[str], Fraction]] = field(default_factory=dict)

    def __post_init__(self):
        for (d, cid) in self.doctor_utilities:
            if cid not in self.contracts:
                raise MatchGamesError(f"utility names unknown contract {cid!r}")
        for cid, contract in self.contracts.items():
            if (contract.doctor, cid) not in self.doctor_utilities:
                raise MatchGamesError(f"contract {cid} lacks a doctor utility")

    @property
    def doctors(self) -> List[str]:
        return sorted({c.doctor for c in self.contracts.values()})

    @property
    def hospitals(self) -> List[str]:
        return sorted({c.hospital for c in self.contracts.values()})

    def contracts_of_doctor(self, d: str) -> List[str]:
        return sorted(cid for cid, c in self.contracts.items() if c.doctor == d)

    def contracts_of_hospital(self, h: str) -> List[str]:
        return sorted(cid for cid, c in self.contracts.items() if c.hospital == h)

    def hospital_value(self, h: str, subset: FrozenSet[str]) -> Optional[Fraction]:
        """Utility of a contract subset; None marks an inadmissible subset."""
        doctors = [self.contracts[cid].doctor for cid in subset]
        if len(doctors) != len(set(doctors)):
            return None  # at most one contract per doctor
        if h in self.hospital_tables:
            return self.hospital_tables[h].get(frozenset(subset), None if subset else Fraction(0))
        weights = self.hospital_additive.get(h, {})
        if len(subset) > self.hospital_quotas.get(h, 1):
            return None
        total = Fraction(0)
        for cid in subset:
            if cid not in weights:
                return None
            total += weights[cid]
        return total


def choice_doctor(model: ContractModel, d: str, subset: Sequence[str]) -> Optional[str]:
    """The doctor's favourite own contract in the subset, or None for the
    empty contract; ties break to the lexicographically smallest id."""
    best = None
    for cid in sorted(set(subset)):
        contract = model.contracts.get(cid)
        if contract is None or contract.doctor != d:
            continue
        u = model.doctor_utilities[(d, cid)]
        if u < 0:
            continue  # worse than staying unmatched
        if best is None or u > best[0]:
            best = (u, cid)
    return best[1] if best else None


def choice_hospital(model: ContractModel, h: str, subset: Sequence[str]) -> FrozenSet[str]:
    """The hospital's favourite admissible subset of its contracts in
    ``subset``; ties break to the lexicographically smallest sorted id tuple,
    and the empty set wins at value 0.  Additive hospitals choose greedily
    (exact, same tie-break); table hospitals by an exhaustive scan."""
    own = frozenset(cid for cid in subset if model.contracts[cid].hospital == h)
    if h in model.hospital_tables:
        return _choice_by_scan(model, h, own)
    return _additive_choice(model, h, own)


def _additive_choice(model: ContractModel, h: str, own: FrozenSet[str]) -> FrozenSet[str]:
    """The scan's choice for an additive hospital, greedily in O(k log k).

    Only contracts of non-negative weight can be in a best subset.  Each
    doctor competes with her highest weight (smallest id among equal
    weights), and the quota highest doctors win, ties going to the smallest
    ids.  When fewer than quota doctors have a positive weight, a best subset
    holds all of them, and a zero-weight contract keeps its value; one whose
    id sorts below the largest id kept makes the sorted id tuple smaller, so
    such contracts join, smallest first, while places remain.  Weights are
    compared as integers over their common denominator.
    """
    quota = model.hospital_quotas.get(h, 1)
    weights = model.hospital_additive.get(h, {})
    offered = [(cid, weights[cid]) for cid in own if cid in weights and weights[cid].numerator >= 0]
    if quota < 1 or not offered:
        return frozenset()
    scale = math.lcm(*(w.denominator for _, w in offered))
    best: Dict[str, Tuple[int, str]] = {}  # doctor -> (negated scaled weight, id)
    for cid, w in offered:
        key = (-w.numerator * (scale // w.denominator), cid)
        d = model.contracts[cid].doctor
        if d not in best or key < best[d]:
            best[d] = key
    ranked = sorted(best.values())
    chosen = [cid for neg, cid in ranked[:quota] if neg < 0]
    if not chosen:
        return frozenset()
    if len(chosen) < quota:
        top = max(chosen)
        zeros = [cid for neg, cid in ranked if neg == 0 and cid < top]
        chosen += zeros[:quota - len(chosen)]
    return frozenset(chosen)


def _choice_by_scan(model: ContractModel, h: str, own: FrozenSet[str]) -> FrozenSet[str]:
    """The choice by brute force over every subset of ``own``."""
    best = (Fraction(0), frozenset())  # the empty set is always admissible at 0
    ordered = sorted(own)
    for size in range(1, len(ordered) + 1):
        for combo in combinations(ordered, size):
            value = model.hospital_value(h, frozenset(combo))
            if value is None:
                continue
            if value > best[0] or (value == best[0] and best[1] and tuple(sorted(combo)) < tuple(sorted(best[1]))):
                best = (value, frozenset(combo))
    return best[1]


def run_da_contracts(model: ContractModel) -> FrozenSet[str]:
    """Doctor-proposing deferred acceptance over contracts.

    Unmatched doctors offer their best not-yet-rejected contract; the named
    hospital keeps its favourite subset of current plus offered contracts and
    rejects the rest.  Rejections only accumulate, so the loop terminates.
    Under substitutability a rejected contract stays rejected, which makes
    the output pairwise stable (and, with IRC, fully stable); a hospital
    with complementarities can come to want a contract it rejected earlier,
    and then even pairwise stability can fail -- the audits report why.
    """
    accepted: set = set()
    rejected: set = set()
    while True:
        matched = {model.contracts[cid].doctor for cid in accepted}
        proposer = None
        offer = None
        for d in model.doctors:
            if d in matched:
                continue
            available = [cid for cid in model.contracts_of_doctor(d) if cid not in rejected]
            pick = choice_doctor(model, d, available)
            if pick is not None:
                proposer, offer = d, pick
                break
        if proposer is None:
            return frozenset(accepted)
        h = model.contracts[offer].hospital
        pool = {cid for cid in accepted if model.contracts[cid].hospital == h} | {offer}
        keep = choice_hospital(model, h, sorted(accepted | {offer}))
        dropped = pool - keep
        accepted = (accepted - dropped) | keep
        rejected |= dropped


# ---------------------------------------------------------------------------
# Audits


def _powerset(items):
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def _subsets(own: Sequence[str]):
    """Every subset of ``own`` in ``_powerset`` order, paired with its bit
    mask (bit i stands for ``own[i]``)."""
    return zip(_powerset(own), map(sum, _powerset([1 << i for i in range(len(own))])))


def _choice_table(model: ContractModel, h: str, own: Sequence[str]) -> List[FrozenSet[str]]:
    """The hospital's choice out of every subset of its own contracts ``own``,
    indexed by the subset's bit mask."""
    table: List[FrozenSet[str]] = [frozenset()] * (1 << len(own))
    for subset, mask in _subsets(own):
        table[mask] = choice_hospital(model, h, subset)
    return table


ChoiceTables = Dict[str, List[FrozenSet[str]]]


def _shared_table(model: ContractModel, h: str, own: Sequence[str],
                  tables: Optional[ChoiceTables]) -> List[FrozenSet[str]]:
    """``h``'s choice table, taken from ``tables`` or built and stored there.

    ``tables`` (hospital -> table) belongs to one model: it lets the audits
    of one command share a table per hospital, and it must not outlive a
    change to the model.  Each audit asks only after its own cap check, so a
    cap trip builds no table."""
    if tables is None:
        return _choice_table(model, h, own)
    if h not in tables:
        tables[h] = _choice_table(model, h, own)
    return tables[h]


def check_substitutability(model: ContractModel, h: str, cap: int = 12,
                           tables: Optional[ChoiceTables] = None):
    """Exhaustive: a rejected contract must stay rejected as the pool grows."""
    own = model.contracts_of_hospital(h)
    if len(own) > cap:
        raise ScanCapExceededError(f"{len(own)} contracts at {h} exceed the scan cap {cap}")
    table = _shared_table(model, h, own, tables)
    for subset, mask in _subsets(own):
        chosen = table[mask]
        grown = [(x_new, table[mask | 1 << i]) for i, x_new in enumerate(own) if not mask >> i & 1]
        for x in subset:
            if x in chosen:
                continue
            for x_new, bigger in grown:
                if x in bigger:
                    return False, (subset, x, x_new)
    return True, None


def check_irc(model: ContractModel, h: str, cap: int = 12,
              tables: Optional[ChoiceTables] = None):
    """Exhaustive: dropping a contract the hospital rejects changes nothing."""
    own = model.contracts_of_hospital(h)
    if len(own) > cap:
        raise ScanCapExceededError(f"{len(own)} contracts at {h} exceed the scan cap {cap}")
    table = _shared_table(model, h, own, tables)
    for subset, mask in _subsets(own):
        for i, z in enumerate(own):
            if mask >> i & 1:
                continue
            with_z = table[mask | 1 << i]
            if z not in with_z and with_z != table[mask]:
                return False, (subset, z)
    return True, None


def is_individually_rational(model: ContractModel, allocation: FrozenSet[str]) -> bool:
    """Every doctor keeps her chosen contract; every hospital keeps its set."""
    per_doctor: Dict[str, List[str]] = {}
    for cid in allocation:
        per_doctor.setdefault(model.contracts[cid].doctor, []).append(cid)
    for d, owned in per_doctor.items():
        if len(owned) > 1:
            return False
        if choice_doctor(model, d, owned) != owned[0]:
            return False
    for h in model.hospitals:
        own = frozenset(cid for cid in allocation if model.contracts[cid].hospital == h)
        if choice_hospital(model, h, sorted(own)) != own:
            return False
    return True


def is_pairwise_stable(model: ContractModel, allocation: FrozenSet[str]) -> bool:
    """No single outside contract is wanted by both its doctor and hospital."""
    if not is_individually_rational(model, allocation):
        return False
    for cid, contract in sorted(model.contracts.items()):
        if cid in allocation:
            continue
        d, h = contract.doctor, contract.hospital
        mine = [c for c in allocation if model.contracts[c].doctor == d] + [cid]
        if choice_doctor(model, d, mine) != cid:
            continue
        pool = sorted({c for c in allocation if model.contracts[c].hospital == h} | {cid})
        if cid in choice_hospital(model, h, pool):
            return False
    return True


def check_hm_stability(model: ContractModel, allocation: FrozenSet[str], cap: int = 12,
                       tables: Optional[ChoiceTables] = None):
    """Full stability: individual rationality plus no blocking subset X''.

    Exhaustive over candidate subsets per hospital; a blocking X'' must be the
    hospital's choice out of allocation + X'' and every contract in it must be
    its doctor's choice there too.
    """
    if len(model.contracts) > cap:
        raise ScanCapExceededError("contract set exceeds the stability scan cap")
    if not is_individually_rational(model, allocation):
        return False, "individual rationality fails"
    for h in model.hospitals:
        own = model.contracts_of_hospital(h)
        table = _shared_table(model, h, own, tables)
        current = sum(1 << i for i, cid in enumerate(own) if cid in allocation)
        kept = table[current]
        for candidate, mask in _subsets(own):
            block = frozenset(candidate)
            if block == kept or table[current | mask] != block:
                continue
            pool = sorted(set(allocation) | block)
            good_for_doctors = True
            for cid in block:
                d = model.contracts[cid].doctor
                mine = [c for c in pool if model.contracts[c].doctor == d]
                if choice_doctor(model, d, mine) != cid:
                    good_for_doctors = False
                    break
            if good_for_doctors:
                return False, (h, tuple(sorted(block)))
    return True, None


# ---------------------------------------------------------------------------
# Mappings between matching games and contract models


def game_to_contracts(instance: MatchingGameInstance, mesh: int) -> ContractModel:
    """Discretise an additive separable instance into a contract model.

    One contract per (doctor, hospital, grid profile); doctor utility is her
    exact payoff at the profile, hospital weights are the per-seat values.
    The grid mesh bounds the stability loss of the induced model.
    """
    contracts: Dict[str, Contract] = {}
    doctor_utilities = {}
    additive: Dict[str, Dict[str, Fraction]] = {h: {} for h in instance.hospitals}
    quotas = {h: hosp.quota for h, hosp in instance.hospitals.items()}
    for d in instance.doctor_ids:
        for h in instance.partner_options(d):
            game = instance.game_for(d, h)
            xs = list(simplex_grid(game.n_rows, mesh))
            ys = list(simplex_grid(game.n_cols, mesh))
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    cid = f"{d}~{h}~{i}.{j}"
                    contracts[cid] = Contract(id=cid, doctor=d, hospital=h)
                    doctor_utilities[(d, cid)] = bilinear(x, game.doctor_matrix, y) - instance.doctors[d].irp
                    additive[h][cid] = bilinear(x, game.hospital_matrix, y) - instance.hospitals[h].irp
    return ContractModel(
        contracts=contracts,
        doctor_utilities=doctor_utilities,
        hospital_additive=additive,
        hospital_quotas=quotas,
    )


def contracts_to_game_tables(model: ContractModel, disagreement: Fraction = Fraction(-1)):
    """The reverse construction: strategy sets from contract names.

    Doctors pick a contract they appear in, hospitals pick one per doctor;
    agreeing on the same contract pays its utility, disagreeing pays the
    disagreement value.  Returned as per-pair payoff tables keyed by
    (doctor contract, hospital contract); no stability claims attached.
    """
    tables = {}
    for d in model.doctors:
        for h in model.hospitals:
            d_moves = model.contracts_of_doctor(d)
            h_moves = model.contracts_of_hospital(h)
            if not d_moves or not h_moves:
                continue
            f_table = {}
            g_table = {}
            for cd in d_moves:
                for ch in h_moves:
                    if cd == ch:
                        f_table[(cd, ch)] = model.doctor_utilities[(d, cd)]
                        value = model.hospital_value(h, frozenset([cd]))
                        g_table[(cd, ch)] = value if value is not None else disagreement
                    else:
                        f_table[(cd, ch)] = disagreement
                        g_table[(cd, ch)] = disagreement
            tables[(d, h)] = (d_moves, h_moves, f_table, g_table)
    return tables


# ---------------------------------------------------------------------------
# Serialisation


def load_contract_model(doc: dict) -> ContractModel:
    contracts = {}
    for entry in doc["contracts"]:
        cid = str(entry["id"])
        contracts[cid] = Contract(id=cid, doctor=str(entry["doctor"]), hospital=str(entry["hospital"]))
    doctor_utilities = {}
    for d, table in doc["doctor_utilities"].items():
        for cid, value in table.items():
            doctor_utilities[(str(d), str(cid))] = parse_rational(value)
    additive = {}
    quotas = {}
    tables = {}
    for h, entry in doc["hospitals"].items():
        h = str(h)
        if "table" in entry:
            tables[h] = {
                frozenset(key.split("+")) if key else frozenset(): parse_rational(v)
                for key, v in entry["table"].items()
            }
            quotas[h] = int(entry.get("quota", len(contracts)))
            additive[h] = {}
        else:
            additive[h] = {str(cid): parse_rational(v) for cid, v in entry["weights"].items()}
            quotas[h] = int(entry.get("quota", 1))
    return ContractModel(
        contracts=contracts,
        doctor_utilities=doctor_utilities,
        hospital_additive=additive,
        hospital_quotas=quotas,
        hospital_tables=tables,
    )


def serialize_contract_allocation(model: ContractModel, allocation: FrozenSet[str]) -> dict:
    return {
        "contracts": sorted(allocation),
        "matches": {
            model.contracts[cid].doctor: model.contracts[cid].hospital
            for cid in sorted(allocation)
        },
    }
