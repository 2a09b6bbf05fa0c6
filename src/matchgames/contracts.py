"""Matching with contracts: choice functions, deferred acceptance, audits.

Contracts are bilateral (one doctor, one hospital each).  Hospitals either
carry additive per-contract weights, or an explicit utility table over
subsets (the table form is what lets tests build substitutability
violators); either way a quota bounds the contracts kept.  Utilities, not
primitive choice rules, are the ground truth: every choice maximises one
total order over admissible subsets, so the irrelevance of rejected
contracts (IRC) holds by construction, while tables can break
substitutability.

A model's choice rules are compiled once (``ChoiceRules``) and every
question of one command reads them: each doctor's acceptable contracts are
ranked once, and each hospital's contracts get bit indices, so a choice is
one greedy walk (additive) or one scan of a ranking (table) on bit masks.

The audits stay exhaustive.  Each reads a hospital's choices out of every
subset of its n contracts through its bit planes, n ints of 2^n bits.  An
additive hospital's planes are built straight from its greedy walk, in
O(n min(quota, n)) word operations and with no 2^n table; a table
hospital's come from an O(n 2^n) subset DP over its ranking.
Substitutability and IRC are then O(n^2) word operations, full stability
reads its candidate blocking sets off the planes, and a witness is located
by the subset-by-subset visit order only when an audit fails.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .core import (
    MatchingGameInstance,
    _bilinears,
    _integer_weights,
    format_rational,
    parse_rational,
    read_quota,
)
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
    pool = set(subset)
    return next((cid for cid in _preference(model, d, model.contracts_of_doctor(d)) if cid in pool),
                None)


def choice_hospital(model: ContractModel, h: str, subset: Sequence[str]) -> FrozenSet[str]:
    """The hospital's favourite admissible subset of its contracts in
    ``subset``; ties break to the lexicographically smallest sorted id tuple,
    and the empty set wins at value 0.  One pool is chosen by the compiled
    rule that answers every audit: one greedy walk for an additive hospital,
    the best ranked admissible subset for a table hospital."""
    rule = _HospitalRule(model, h)
    return frozenset(_ids(rule.own, rule[rule.mask(subset)]))


def _ids(own: Sequence[str], mask: int) -> Tuple[str, ...]:
    """The contracts of ``own`` named by the bit mask, in ``own`` order."""
    return tuple(cid for i, cid in enumerate(own) if mask >> i & 1)


def _members(x: int) -> List[int]:
    """The positions of the set bits of x, lowest first."""
    digits = bin(x)[:1:-1]
    found = []
    i = digits.find("1")
    while i >= 0:
        found.append(i)
        i = digits.find("1", i + 1)
    return found


# Compiled choice rules.  A doctor's rule is the doctor's acceptable
# contracts, ranked once.  A hospital's rule gives each of its contracts a bit (bit i stands
# for own[i], own sorted, so comparing two single bits compares two ids) and
# answers every choice on bit masks.


def _preference(model: ContractModel, d: str, cids: Sequence[str]) -> List[str]:
    """The doctor's acceptable contracts among ``cids``, best first: utility
    descending, then id ascending.  A contract of negative utility is worse
    than staying unmatched and is left out."""
    utilities = _integer_weights([model.doctor_utilities[(d, cid)] for cid in cids])[0]
    return [cid for _, cid in sorted((-u, cid) for u, cid in zip(utilities, cids) if u >= 0)]


def _walk_order(model: ContractModel, h: str, own: Sequence[str]) -> List[Tuple[int, int, bool]]:
    """The contracts of ``own`` an additive hospital can take, in the order of
    its greedy walk: highest weight first, smallest id among equal weights.

    Each step is ``(bit, rivals, positive)``: the contract's bit, the bits of
    its doctor's contracts on the walk, and whether its weight is above 0.
    Negative and missing weights never enter a best subset, so they take no
    step; the weights are compared as integers over their common denominator.
    """
    weights = model.hospital_additive.get(h, {})
    offered = [(i, weights[cid]) for i, cid in enumerate(own)
               if cid in weights and weights[cid].numerator >= 0]
    scaled = _integer_weights([w for _, w in offered])[0]
    rivals: Dict[str, int] = {}
    for i, _ in offered:
        d = model.contracts[own[i]].doctor
        rivals[d] = rivals.get(d, 0) | 1 << i
    order = sorted(zip(scaled, (i for i, _ in offered)), key=lambda e: (-e[0], e[1]))
    return [(1 << i, rivals[model.contracts[own[i]].doctor], w > 0) for w, i in order]


def _table_ranking(model: ContractModel, h: str, own: Sequence[str], quota: int) -> List[int]:
    """The bit masks of the table hospital's admissible subsets of ``own``
    worth more than 0, least preferred first.

    A subset is admissible when the table values it, it holds at most
    ``quota`` contracts and at most one per doctor.  The scan's tie-break
    makes its preference a total order: higher value first, and among equal
    values the smaller sorted id tuple.  Every subset worth 0 or less loses
    to the empty set, so only these can be chosen.  The values are compared
    as integers over their common denominator.
    """
    index = {cid: 1 << i for i, cid in enumerate(own)}
    entries = []
    for key, value in model.hospital_tables[h].items():
        if value.numerator <= 0 or not key or len(key) > quota:
            continue
        if len({model.contracts[cid].doctor for cid in key}) < len(key):
            continue  # at most one contract per doctor
        entries.append((value, sorted(key), sum(index[cid] for cid in key)))
    entries.sort(key=lambda e: e[1], reverse=True)
    ranked = sorted(zip(_integer_weights([value for value, _, _ in entries])[0], range(len(entries))))
    return [entries[k][2] for _, k in ranked]


class _HospitalRule:
    """One hospital's choice rule, compiled from the model once.

    ``rule[mask]`` is the choice out of the contracts named by ``mask``; so a
    rule reads like a choice table, though it stores none.  An additive
    hospital answers by its greedy walk, a table hospital by scanning its
    ranking from the top.  ``planes()`` builds the rule's bit planes on first
    use (see below).
    """

    def __init__(self, model: ContractModel, h: str):
        self.own = model.contracts_of_hospital(h)
        self.bit = {cid: 1 << i for i, cid in enumerate(self.own)}
        if h in model.hospital_tables:
            self.quota = model.hospital_quotas.get(h, len(model.contracts))
            self.walk = None
            self.ranked = _table_ranking(model, h, self.own, self.quota)
        else:
            self.quota = model.hospital_quotas.get(h, 1)
            self.walk = _walk_order(model, h, self.own)
            self.ranked = None
        self._planes: Optional[List[int]] = None

    def mask(self, cids) -> int:
        """The bits of this hospital's contracts among ``cids``."""
        mask = 0
        for cid in cids:
            mask |= self.bit.get(cid, 0)
        return mask

    def __getitem__(self, mask: int) -> int:
        """The choice out of ``mask``.

        The greedy keeps each contract it meets unless a contract of its
        doctor was met before (that one is the doctor's best), the quota is
        full, or it weighs 0 and its id does not sort below the largest id
        kept.  That last rule is the scan's tie-break: a zero-weight contract
        keeps the value, and one below the largest id kept makes the sorted
        id tuple smaller; with nothing kept it cannot join, since the empty
        set wins at value 0.  Contracts off the walk are never kept.
        """
        if self.walk is None:
            return next((r for r in reversed(self.ranked) if not r & ~mask), 0)
        chosen = met = 0
        for bit, rivals, positive in self.walk:
            if not mask & bit:
                continue
            if not (met & rivals or chosen.bit_count() >= self.quota
                    or not (positive or bit < chosen)):
                chosen |= bit
            met |= bit
        return chosen

    def planes(self) -> List[int]:
        if self._planes is None:
            n = len(self.own)
            if self.walk is None:
                self._planes = _planes(_table_choices(self.ranked, n), n)
            else:
                self._planes = _walk_planes(self.walk, self.quota, n)
        return self._planes


class ChoiceRules:
    """Every choice rule of one model, compiled once and shared by the
    questions of one command (deferred acceptance, individual rationality,
    pairwise and full stability, substitutability and IRC), which take it as
    their ``tables`` argument.

    Each doctor's acceptable contracts are ranked once; each hospital's rule
    is compiled when first asked, and its planes when an audit first needs
    them.  The rules must not outlive a change to the model.
    """

    def __init__(self, model: ContractModel):
        self.model = model
        mine: Dict[str, List[str]] = {}
        for cid in sorted(model.contracts):
            mine.setdefault(model.contracts[cid].doctor, []).append(cid)
        # doctor -> acceptable contracts, best first (doctors in sorted order)
        self.preferences = {d: _preference(model, d, mine[d]) for d in sorted(mine)}
        # contract -> its place in its doctor's preference; unacceptable ones are absent
        self.rank = {cid: r for ranked in self.preferences.values() for r, cid in enumerate(ranked)}
        self._hospitals: Dict[str, _HospitalRule] = {}
        self._rational: Dict[FrozenSet[str], bool] = {}

    def hospital(self, h: str) -> _HospitalRule:
        rule = self._hospitals.get(h)
        if rule is None:
            rule = self._hospitals[h] = _HospitalRule(self.model, h)
        return rule

    def masks(self, allocation) -> Dict[str, int]:
        """hospital -> the bits of its contracts in ``allocation``."""
        masks: Dict[str, int] = {}
        for cid in allocation:
            h = self.model.contracts[cid].hospital
            masks[h] = masks.get(h, 0) | self.hospital(h).bit[cid]
        return masks

    def held(self, allocation) -> Dict[str, int]:
        """doctor -> the rank of the doctor's contract in an individually
        rational allocation, which gives each doctor one acceptable contract
        at most."""
        return {self.model.contracts[cid].doctor: self.rank[cid] for cid in allocation}

    def doctors_choose(self, cids, held: Dict[str, int]) -> bool:
        """Whether each of ``cids`` is its doctor's choice out of itself and
        the contract the doctor holds (``held`` as above)."""
        for cid in cids:
            rank = self.rank.get(cid)
            if rank is None or rank > held.get(self.model.contracts[cid].doctor, rank):
                return False
        return True

    def individually_rational(self, allocation) -> bool:
        allocation = frozenset(allocation)
        known = self._rational.get(allocation)
        if known is None:
            known = self._rational[allocation] = self._rational_now(allocation)
        return known

    def _rational_now(self, allocation: FrozenSet[str]) -> bool:
        doctors = [self.model.contracts[cid].doctor for cid in allocation]
        if len(set(doctors)) < len(doctors) or not all(cid in self.rank for cid in allocation):
            return False
        masks = self.masks(allocation)
        return all(self.hospital(h)[mask] == mask for h, mask in masks.items())


def _rules(model: ContractModel, tables: Optional[ChoiceRules]) -> ChoiceRules:
    return tables if tables is not None else ChoiceRules(model)


def run_da_contracts(model: ContractModel, tables: Optional[ChoiceRules] = None) -> FrozenSet[str]:
    """Doctor-proposing deferred acceptance over contracts.

    Unmatched doctors offer their best not-yet-rejected contract; the named
    hospital keeps its favourite subset of current plus offered contracts and
    rejects the rest.  Rejections only accumulate, so the loop terminates.
    Under substitutability a rejected contract stays rejected, which makes
    the output pairwise stable (and, with IRC, fully stable); a hospital
    with complementarities can come to want a contract it rejected earlier,
    and then even pairwise stability can fail -- the audits report why.

    A doctor offers contracts in preference order and each rejection is of
    an offered one, so the doctor's rejected contracts are a prefix of the
    preference: ``rejected[d]`` is its length.
    """
    rules = _rules(model, tables)
    rejected = dict.fromkeys(rules.preferences, 0)
    held: Dict[str, int] = {}  # hospital -> bits of the contracts it holds
    matched = set()
    while True:
        proposer = next((d for d, ranked in rules.preferences.items()
                         if d not in matched and rejected[d] < len(ranked)), None)
        if proposer is None:
            break
        offer = rules.preferences[proposer][rejected[proposer]]
        h = model.contracts[offer].hospital
        rule = rules.hospital(h)
        pool = held.get(h, 0) | rule.bit[offer]
        held[h] = keep = rule[pool]
        for cid in _ids(rule.own, pool & ~keep):
            d = model.contracts[cid].doctor
            rejected[d] += 1
            matched.discard(d)
        if keep & rule.bit[offer]:
            matched.add(proposer)
    return frozenset(cid for h, mask in held.items() for cid in _ids(rules.hospital(h).own, mask))


# ---------------------------------------------------------------------------
# Audits


@lru_cache(maxsize=None)
def _visit_order(n: int) -> Tuple[int, ...]:
    """The bit masks of every subset of n contracts in the audits' visit
    order: by size, then lexicographically by position."""
    bits = [1 << i for i in range(n)]
    return tuple(sum(combo) for size in range(n + 1) for combo in combinations(bits, size))


def _table_choices(ranked: Sequence[int], n: int) -> List[int]:
    """A table hospital's choice out of every subset of its n contracts, as
    bit masks indexed by the subset's bit mask.

    The choice out of S is the best ranked admissible subset of S, which the
    subset DP best[S] = max(rank of S, best[S - {x}] for x in S) finds; it
    runs one bit at a time, in O(n 2^n) steps.
    """
    ranked = [0] + list(ranked)
    best = [0] * (1 << n)
    for rank, mask in enumerate(ranked):
        best[mask] = rank
    for i in range(n):
        keep = ~(1 << i)
        best = [max(rank, best[m & keep]) for m, rank in enumerate(best)]
    return [ranked[rank] for rank in best]


# Bit planes.  Plane i of a hospital's choice table is an int of 2^n bits
# whose bit m is set when contract i is in the choice out of subset m.  For
# b = 1 << k, ``plane >> b`` holds at bit m the plane's bit at m + b, which
# is m | b for every m without contract k: one shift reads the choice out of
# every subset with contract k added.  The audits combine planes with O(n^2)
# word operations and ask the rule itself only to rebuild a witness.

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
    if sys.byteorder == "big":  # runs on big-endian hosts only
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


def _walk_planes(walk: Sequence[Tuple[int, int, bool]], quota: int, n: int) -> List[int]:
    """The n bit planes of an additive hospital's choices, built straight
    from its greedy walk with no table.

    The walk decides contract k, for every subset at once, from the planes
    of the contracts walked before it: the subsets m holding k that lack
    every rival of k walked earlier and whose choice so far is below the
    quota take k, and a zero-weight k also needs a kept contract above it,
    the OR of the planes at higher positions.  at_least[j] holds the subsets
    whose choice so far keeps j contracts or more; it is updated top down,
    min(quota, steps) word operations per step.
    """
    has, lacks = _holders(n)
    planes = [0] * n
    at_least = [(1 << (1 << n)) - 1] + [0] * min(quota, len(walk))
    fills = quota < len(at_least)  # else the walk is too short to reach the quota
    walked = 0
    for bit, rivals, positive in walk:
        k = bit.bit_length() - 1
        join = has[k] & ~at_least[quota] if fills else has[k]
        for r in _members(walked & rivals):
            join &= lacks[r]
        if not positive:
            above = 0
            for p in planes[k + 1:]:
                above |= p
            join &= above
        planes[k] = join
        for j in range(len(at_least) - 1, 0, -1):
            at_least[j] |= at_least[j - 1] & join
        walked |= bit
    return planes


def _visit_key(mask: int) -> Tuple[int, List[int]]:
    """The sort key of a subset mask in the audits' visit order: its size,
    then its positions."""
    return mask.bit_count(), _members(mask)


def _first_visited(found: int, n: int) -> int:
    """The first subset mask in ``_visit_order(n)`` whose bit is set in ``found``."""
    return next(m for m in _visit_order(n) if found >> m & 1)


def _substitutability_on_planes(own: Sequence[str], table, planes: Sequence[int]):
    """The substitutability audit of one hospital's choices: its planes, and
    ``table``, the choice out of each subset mask (a list, or a compiled
    rule), which only a witness reads.

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


def _irc_on_planes(own: Sequence[str], table, planes: Sequence[int]):
    """The IRC audit of one hospital's choices, read as in
    ``_substitutability_on_planes``.

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


def _audited_rule(model: ContractModel, h: str, cap: int,
                  tables: Optional[ChoiceRules]) -> _HospitalRule:
    """``h``'s compiled rule, if its contracts are within the scan cap; the
    planes are built only after this check, so a cap trip builds none."""
    rule = tables.hospital(h) if tables is not None else _HospitalRule(model, h)
    if len(rule.own) > cap:
        raise ScanCapExceededError(f"{len(rule.own)} contracts at {h} exceed the scan cap {cap}")
    return rule


def check_substitutability(model: ContractModel, h: str, cap: int = 12,
                           tables: Optional[ChoiceRules] = None):
    """Exhaustive: a rejected contract must stay rejected as the pool grows."""
    rule = _audited_rule(model, h, cap, tables)
    return _substitutability_on_planes(rule.own, rule, rule.planes())


def check_irc(model: ContractModel, h: str, cap: int = 12,
              tables: Optional[ChoiceRules] = None):
    """Exhaustive: dropping a contract the hospital rejects changes nothing."""
    rule = _audited_rule(model, h, cap, tables)
    return _irc_on_planes(rule.own, rule, rule.planes())


def is_individually_rational(model: ContractModel, allocation: FrozenSet[str],
                             tables: Optional[ChoiceRules] = None) -> bool:
    """Every doctor keeps her chosen contract; every hospital keeps its set."""
    return _rules(model, tables).individually_rational(allocation)


def is_pairwise_stable(model: ContractModel, allocation: FrozenSet[str],
                       tables: Optional[ChoiceRules] = None) -> bool:
    """No single outside contract is wanted by both its doctor and hospital."""
    rules = _rules(model, tables)
    if not is_individually_rational(model, allocation, rules):
        return False
    held = rules.held(allocation)
    masks = rules.masks(allocation)
    for cid, contract in sorted(model.contracts.items()):
        if cid in allocation or not rules.doctors_choose([cid], held):
            continue
        rule = rules.hospital(contract.hospital)
        if rule[masks.get(contract.hospital, 0) | rule.bit[cid]] & rule.bit[cid]:
            return False
    return True


def check_hm_stability(model: ContractModel, allocation: FrozenSet[str], cap: int = 12,
                       tables: Optional[ChoiceRules] = None):
    """Full stability: individual rationality plus no blocking subset X''.

    Exhaustive over candidate subsets per hospital; a blocking X'' must be the
    hospital's choice out of allocation + X'' and every contract in it must be
    its doctor's choice there too.

    The candidates are read off the planes.  X is the choice out of
    current | X exactly when X = choice(M) for M = current | X, and such M
    are the supersets of ``current`` whose contracts outside it are all
    chosen: M in EQ = AND_{i in current} has[i] & AND_{i not in current}
    ~(has[i] ^ plane[i]), one M for each X.  The candidates are visited in
    visit order; a candidate holds at most one contract per doctor.
    """
    if len(model.contracts) > cap:
        raise ScanCapExceededError("contract set exceeds the stability scan cap")
    rules = _rules(model, tables)
    if not is_individually_rational(model, allocation, rules):
        return False, "individual rationality fails"
    held = rules.held(allocation)
    masks = rules.masks(allocation)
    for h in model.hospitals:
        rule = rules.hospital(h)
        n = len(rule.own)
        has, _ = _holders(n)
        current = masks.get(h, 0)
        eq = (1 << (1 << n)) - 1
        for i, (holds, plane) in enumerate(zip(has, rule.planes())):
            eq &= holds if current >> i & 1 else ~(holds ^ plane)
        kept = rule[current]
        candidates = [x for x in map(rule.__getitem__, _members(eq)) if x != kept]
        for x in sorted(candidates, key=_visit_key):
            block = _ids(rule.own, x)
            if rules.doctors_choose(block, held):
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
        for h, game in instance.pairs_of(d):
            xs = [_integer_weights(x) for x in simplex_grid(game.n_rows, mesh)]
            ys = [_integer_weights(y) for y in simplex_grid(game.n_cols, mesh)]
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    cid = f"{d}~{h}~{i}.{j}"
                    contracts[cid] = Contract(id=cid, doctor=d, hospital=h)
                    f, g = _bilinears(x, game.scaled, y)
                    doctor_utilities[(d, cid)] = f - instance.doctors[d].irp
                    additive[h][cid] = g - instance.hospitals[h].irp
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
