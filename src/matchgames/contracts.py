"""Matching with contracts: choice functions, deferred acceptance, audits.

Contracts are bilateral (one doctor, one hospital each).  Hospitals either
carry additive per-contract weights, or an explicit utility table over
subsets (the table form is what lets tests build substitutability
violators); either way a quota bounds the contracts kept.  Utilities, not
primitive choice rules, are the ground truth: every choice maximises one
total order over admissible subsets, so the irrelevance of rejected
contracts (IRC) holds by construction, while tables can break
substitutability.

The audits stay exhaustive.  Each reads a hospital's choice table (the
choice out of every subset of its n contracts, as bit masks) through its
bit planes, n ints of 2^n bits: after the O(n 2^n) pass that builds the
table and its planes, substitutability and IRC are O(n^2) word operations,
and a witness is located by the subset-by-subset visit order only when an
audit fails.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .core import MatchingGameInstance, bilinear, format_rational, parse_rational, read_quota
from .errors import (
    EmptySetValueError,
    ForeignContractError,
    MatchGamesError,
    ScanCapExceededError,
    UndeclaredHospitalError,
    UnknownContractError,
)
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
                raise UnknownContractError(f"utility names unknown contract {cid!r}")
        declared = set(self.hospital_additive) | set(self.hospital_tables)
        for cid, contract in self.contracts.items():
            if (contract.doctor, cid) not in self.doctor_utilities:
                raise MatchGamesError(f"contract {cid} lacks a doctor utility")
            if contract.hospital not in declared:
                raise UndeclaredHospitalError(
                    f"contract {cid} names hospital {contract.hospital!r}, which has no weights or table")
        for h, weights in self.hospital_additive.items():
            for cid in weights:
                self._check_own(h, cid, "weights")
        for h, table in self.hospital_tables.items():
            for key in table:
                for cid in sorted(key):
                    self._check_own(h, cid, "table key")
            empty = table.get(frozenset(), 0)
            if empty != 0:
                raise EmptySetValueError(
                    f"table of hospital {h} values the empty set at {format_rational(empty)};"
                    " the empty set is always worth 0")

    def _check_own(self, h: str, cid: str, where: str):
        contract = self.contracts.get(cid)
        if contract is None:
            raise UnknownContractError(f"{where} of hospital {h} names unknown contract {cid!r}")
        if contract.hospital != h:
            raise ForeignContractError(
                f"{where} of hospital {h} names contract {cid} of hospital {contract.hospital}")

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
    and the empty set wins at value 0.  One pool is chosen by the rules that
    fill ``_choice_table``: one greedy walk for an additive hospital, the best
    ranked admissible subset for a table hospital."""
    own = sorted({cid for cid in subset if model.contracts[cid].hospital == h})
    if h in model.hospital_tables:
        ranked = _table_ranking(model, h, own)
        return _decode(own, ranked[-1] if ranked else 0)
    chosen = prior = 0
    quota = model.hospital_quotas.get(h, 1)
    for step in _walk_order(model, h, own):
        chosen = _join(chosen, prior, step, quota)
        prior |= step[0]
    return _decode(own, chosen)


def _decode(own: Sequence[str], mask: int) -> FrozenSet[str]:
    return frozenset(_ids(own, mask))


def _ids(own: Sequence[str], mask: int) -> Tuple[str, ...]:
    """The contracts of ``own`` named by the bit mask, in ``own`` order."""
    return tuple(cid for i, cid in enumerate(own) if mask >> i & 1)


# Choice rules on bit masks.  ``own`` is a sorted list of one hospital's
# contracts and bit i stands for ``own[i]``, so comparing two single bits
# compares two ids.


def _walk_order(model: ContractModel, h: str, own: Sequence[str]) -> List[Tuple[int, int, bool]]:
    """The contracts of ``own`` an additive hospital can take, in the order of
    its greedy walk: highest weight first, smallest id among equal weights.

    Each step is ``(bit, rivals, positive)``: the contract's bit, the bits of
    its doctor's contracts, and whether its weight is above 0.  Negative and
    missing weights never enter a best subset, so they take no step; the
    weights are compared as integers over their common denominator.
    """
    weights = model.hospital_additive.get(h, {})
    offered = [(i, weights[cid]) for i, cid in enumerate(own)
               if cid in weights and weights[cid].numerator >= 0]
    if not offered:
        return []
    scale = math.lcm(*(w.denominator for _, w in offered))
    rivals: Dict[str, int] = {}
    for i, _ in offered:
        d = model.contracts[own[i]].doctor
        rivals[d] = rivals.get(d, 0) | 1 << i
    offered.sort(key=lambda e: (-e[1].numerator * (scale // e[1].denominator), e[0]))
    return [(1 << i, rivals[model.contracts[own[i]].doctor], w.numerator > 0) for i, w in offered]


def _join(chosen: int, prior: int, step: Tuple[int, int, bool], quota: int) -> int:
    """The greedy's choice once its walk reaches one more contract.

    ``chosen`` is the choice out of ``prior``, the contracts of the pool met
    earlier on the walk.  The contract joins unless a contract of its
    doctor was met before (that one is the doctor's best), the quota is
    full, or it weighs 0 and its id does not sort below the largest id kept.  That last
    rule is the scan's tie-break: a zero-weight contract keeps the value, and
    one below the largest id kept makes the sorted id tuple smaller; with
    nothing kept it cannot join, since the empty set wins at value 0.
    """
    bit, rivals, positive = step
    if prior & rivals or chosen.bit_count() >= quota or not (positive or bit < chosen):
        return chosen
    return chosen | bit


def _table_ranking(model: ContractModel, h: str, own: Sequence[str]) -> List[int]:
    """The bit masks of the table hospital's admissible subsets of ``own``
    worth more than 0, least preferred first.

    A subset is admissible when the table values it, it holds at most
    ``quota`` contracts and at most one per doctor.  The scan's tie-break
    makes its preference a total order: higher value first, and among equal
    values the smaller sorted id tuple.  Every subset worth 0 or less loses
    to the empty set, so only these can be chosen.
    """
    index = {cid: 1 << i for i, cid in enumerate(own)}
    quota = model.hospital_quotas.get(h, len(model.contracts))
    entries = []
    for key, value in model.hospital_tables[h].items():
        if value <= 0 or not key or len(key) > quota or not all(cid in index for cid in key):
            continue
        if len({model.contracts[cid].doctor for cid in key}) < len(key):
            continue  # at most one contract per doctor
        entries.append((value, sorted(key), sum(index[cid] for cid in key)))
    entries.sort(key=lambda e: e[1], reverse=True)
    entries.sort(key=lambda e: e[0])
    return [mask for _, _, mask in entries]


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


@lru_cache(maxsize=None)
def _visit_order(n: int) -> Tuple[int, ...]:
    """The bit masks of every subset of n contracts in the audits' visit
    order: by size, then lexicographically by position."""
    bits = [1 << i for i in range(n)]
    return tuple(sum(combo) for size in range(n + 1) for combo in combinations(bits, size))


def _choice_table(model: ContractModel, h: str, own: Sequence[str]) -> List[int]:
    """The hospital's choice out of every subset of its own contracts ``own``
    (sorted), as bit masks indexed by the subset's bit mask.

    An additive hospital's table grows one walk step at a time: the subsets
    whose last contract on the walk is x are x added to each subset of the
    contracts before it, and each choice is one ``_join`` on that subset's.
    Contracts off the walk change no choice.  A table hospital's choice out
    of S is the best ranked admissible subset of S, which the subset DP
    best[S] = max(rank of S, best[S - {x}] for x in S) finds; it runs one
    bit at a time, in O(n 2^n) steps.
    """
    n = len(own)
    if h in model.hospital_tables:
        ranked = [0] + _table_ranking(model, h, own)
        best = [0] * (1 << n)
        for rank, mask in enumerate(ranked):
            best[mask] = rank
        for i in range(n):
            keep = ~(1 << i)
            best = [max(rank, best[m & keep]) for m, rank in enumerate(best)]
        return [ranked[rank] for rank in best]
    table = [0] * (1 << n)
    quota = model.hospital_quotas.get(h, 1)
    order = _walk_order(model, h, own)
    walked = [0]
    for step in order:
        bit = step[0]
        for sub in walked:
            table[sub | bit] = _join(table[sub], sub, step, quota)
        walked += [sub | bit for sub in walked]
    offered = sum(step[0] for step in order)
    if offered != (1 << n) - 1:
        table = [table[m & offered] for m in range(1 << n)]
    return table


# Bit planes.  Plane i of a hospital's choice table is an int of 2^n bits
# whose bit m is set when contract i is in table[m].  For b = 1 << k,
# ``plane >> b`` holds at bit m the plane's bit at m + b, which is m | b
# for every m without contract k: one shift reads the choice out of every
# subset with contract k added.  The audits combine planes with O(n^2) word
# operations and read the table itself only to rebuild a witness.

# _BIT_DIGITS[i] maps a byte to b"1" when its bit i is set, else to b"0".
_BIT_DIGITS = [bytes(48 + (v >> i & 1) for v in range(256)) for i in range(8)]


def _planes(table: Sequence[int], n: int) -> List[int]:
    """The n bit planes of a choice table over n contracts.

    The entries are packed as fixed-width little-endian ints, so byte
    column j (byte j of every entry) holds bits 8j to 8j + 7 of each.  A
    column is reversed once, entry 0 last; one translate then spells bit i
    of every entry as binary digits, entry 0 the lowest, which parse as the
    plane.  Each plane costs a few C-level passes over 2^n bytes.
    """
    entries = array("B" if n <= 8 else "H" if n <= 16 else "Q", table)
    if sys.byteorder == "big":
        entries.byteswap()
    raw, width = entries.tobytes(), entries.itemsize
    columns = [raw[j::width][::-1] for j in range((n + 7) // 8)]
    return [int(columns[i >> 3].translate(_BIT_DIGITS[i & 7]), 2) for i in range(n)]


@lru_cache(maxsize=None)
def _holders(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(has, lacks) over the subsets of n contracts: has[i] sets bit m when
    the subset m holds contract i, and lacks[i] when it does not."""
    full = (1 << (1 << n)) - 1
    has = tuple(full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
                for i in range(n))
    return has, tuple(full ^ h for h in has)


def _first_visited(found: int, n: int) -> int:
    """The first subset mask in ``_visit_order(n)`` whose bit is set in ``found``."""
    return next(m for m in _visit_order(n) if found >> m & 1)


def _substitutability_on_planes(own: Sequence[str], table: Sequence[int],
                               planes: Sequence[int]):
    """The substitutability audit of one choice table and its planes.

    A subset m violates when some contract i in m is rejected there but
    chosen out of m | b for some contract k outside m, b = 1 << k: the
    union over k and i of has[i] & ~plane[i] & (plane[i] >> b) & lacks[k].
    (For i = k the term is empty, as has[k] & lacks[k] is.)  The witness is
    rebuilt at the first violating subset in visit order.
    """
    n = len(own)
    has, lacks = _holders(n)
    rejected = [h & ~p for h, p in zip(has, planes)]
    found = 0
    for k, lack in enumerate(lacks):
        b = 1 << k
        regained = 0
        for r, p in zip(rejected, planes):
            regained |= r & (p >> b)
        found |= regained & lack
    if not found:
        return True, None
    mask = _first_visited(found, n)
    bits = [1 << i for i in range(n)]
    regained = 0
    for b in bits:  # a bit already in mask adds table[mask], which holds no rejected bit
        regained |= table[mask | b]
    regained &= mask & ~table[mask]
    x = regained & -regained
    x_new = next(b for b in bits if not mask & b and table[mask | b] & x)
    return False, (_ids(own, mask), own[x.bit_length() - 1], own[x_new.bit_length() - 1])


def _irc_on_planes(own: Sequence[str], table: Sequence[int], planes: Sequence[int]):
    """The IRC audit of one choice table and its planes.

    A subset m violates when adding some contract k outside it, b = 1 << k,
    changes the choice though k is not chosen: the union over k of
    OR_j((plane[j] >> b) ^ plane[j]) & ~(plane[k] >> b) & lacks[k].  The
    witness is the first violating subset in visit order, with the first
    such k.
    """
    n = len(own)
    _, lacks = _holders(n)
    found = 0
    for k, lack in enumerate(lacks):
        b = 1 << k
        changed = 0
        for p in planes:
            changed |= (p >> b) ^ p
        found |= changed & lack & ~(planes[k] >> b)
    if not found:
        return True, None
    mask = _first_visited(found, n)
    chosen = table[mask]
    z = next(b for b in (1 << i for i in range(n))
             if not mask & b and table[mask | b] != chosen and not table[mask | b] & b)
    return False, (_ids(own, mask), own[z.bit_length() - 1])


# hospital -> (choice table, its bit planes)
ChoiceTables = Dict[str, Tuple[List[int], List[int]]]


def _shared_choices(model: ContractModel, h: str, own: Sequence[str],
                    tables: Optional[ChoiceTables]) -> Tuple[List[int], List[int]]:
    """``h``'s choice table and its planes, taken from ``tables`` or built
    and stored there.

    ``tables`` belongs to one model: it lets the audits of one command
    share one table and one set of planes per hospital, and it must not
    outlive a change to the model.  Each audit asks only after its own cap
    check, so a cap trip builds nothing."""
    if tables is not None and h in tables:
        return tables[h]
    table = _choice_table(model, h, own)
    choices = table, _planes(table, len(own))
    if tables is not None:
        tables[h] = choices
    return choices


def _own_within_cap(model: ContractModel, h: str, cap: int) -> List[str]:
    own = model.contracts_of_hospital(h)
    if len(own) > cap:
        raise ScanCapExceededError(f"{len(own)} contracts at {h} exceed the scan cap {cap}")
    return own


def check_substitutability(model: ContractModel, h: str, cap: int = 12,
                           tables: Optional[ChoiceTables] = None):
    """Exhaustive: a rejected contract must stay rejected as the pool grows."""
    own = _own_within_cap(model, h, cap)
    return _substitutability_on_planes(own, *_shared_choices(model, h, own, tables))


def check_irc(model: ContractModel, h: str, cap: int = 12,
              tables: Optional[ChoiceTables] = None):
    """Exhaustive: dropping a contract the hospital rejects changes nothing."""
    own = _own_within_cap(model, h, cap)
    return _irc_on_planes(own, *_shared_choices(model, h, own, tables))


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
        table, _ = _shared_choices(model, h, own, tables)
        current = sum(1 << i for i, cid in enumerate(own) if cid in allocation)
        kept = table[current]
        for mask in _visit_order(len(own)):
            if mask == kept or table[current | mask] != mask:
                continue
            block = _ids(own, mask)
            pool = sorted(set(allocation).union(block))
            good_for_doctors = True
            for cid in block:
                d = model.contracts[cid].doctor
                mine = [c for c in pool if model.contracts[c].doctor == d]
                if choice_doctor(model, d, mine) != cid:
                    good_for_doctors = False
                    break
            if good_for_doctors:
                return False, (h, block)
    return True, None


# ---------------------------------------------------------------------------
# Matching games as contract models


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
            quotas[h] = read_quota(entry, h, default=len(contracts), floor=0)
            additive[h] = {}
        else:
            additive[h] = {str(cid): parse_rational(v) for cid, v in entry["weights"].items()}
            quotas[h] = read_quota(entry, h, default=1, floor=0)
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
