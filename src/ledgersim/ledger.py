"""Chains of transactions: validity, appending, unspent outputs, classification.

Every query takes a :class:`Chain`, valid or not.  A chain is valid when
output positions are chain-wide distinct, every input points at a
strictly-earlier unspent output whose validator accepts the spend, (when the
chain carries slot assignments) every transaction's slot falls inside its slot
range, and (when a monetary policy table is in force) every transaction's
forging obeys it.  An input resolves to the first earlier output at its
position.  ``_check_transaction`` is the one place these conditions are
stated; every other judgement derives from it.  A chunk is a sequence that is
valid once one transaction put in front of it supplies an output any spend
unlocks at every position its inputs name and none of its transactions
outputs.  Failures are reported, not thrown; see :class:`ValidationReport`.
Every spend that resolves goes through ``run_validator``, but the spending
transaction's context (``context_at``) is built only for the kinds that read
it (``validators.CONTEXT_READERS``); any other kind is given ``None``.

Every query that asks what sits at a position, whether it is spent, or which
positions a sequence mentions reads one :class:`LedgerIndex`: its ``output``
keys are the positions some output names, its ``spent`` set the positions
some input names, and ``output.keys() | spent`` the positions mentioned.
Invariant: a chain's index summarizes exactly that chain's transactions, in
order.  A ``Chain`` builds its index on the first query that needs it, in
O(n) for n transactions, and keeps it.  A successful :func:`append` updates
the parent's index in place, in O(|inputs| + |outputs|), and hands it to the
child; the parent, whose transactions the index no longer summarizes, builds
a fresh one if it is queried again, and so does any chain made another way
(``prefix``, parsing, renaming).  The child also shares its parent's
transaction log (and slot log) when the parent is the log's tip, so a tip
append pushes one entry and checks only the new slot; only a fork, an append
to a parent that already has a child or was built by ``Chain(...)``, copies
the parent's n entries into a new log.  ``utxo``, ``classify``, the
scheduler's submit phase and the policy, portal, generator and equivalence
modules read the cached index; ``validate_chain`` grows a fresh one as it
walks, since it checks each transaction against the prefix before it, and
leaves the result on the chain for the queries that follow.
Judged without a policy table, a chain also keeps its report, and a later
``validate_chain`` of that same object returns it unchecked; a chain made
any other way (``append``, ``prefix``, ``Chain(...)``, renaming) has none.

The index keeps eagerly only what ``append``'s check reads: ``output``,
``spent``, its size and its last slot.  Its other views are built by their
first query and kept by ``absorb`` from then on.  The unspent map
(``LedgerIndex.unspent_map``) is derived as ``output`` less ``spent`` while
every output took a position not yet mentioned (the fresh rule, kept by
every valid chain); ``absorb`` builds it at the first output that breaks
the rule.  The per-symbol tables of the unspent outputs
(``LedgerIndex.carriers``) serve the portal lookup and the affine policy
check, which read only the outputs carrying the symbol they judge; a table
plus the ``shadowed`` outputs carrying its symbol are exactly what
``unspent_outputs()`` yields that carry it.  ``utxo``'s set
(``LedgerIndex.unspent_set``) is kept too, so a later ``utxo`` copies a
set, reusing its stored hashes, and hashes no output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .model import ACCEPT_ALL, Output, Position, Transaction, context_at
from .policy import policy_violation
from .validators import CONTEXT_READERS, run_validator

# Violation condition ids.
DUPLICATE_POSITION = "duplicate-position"
DANGLING_OR_FORWARD = "dangling-or-forward-input"
VALIDATOR_REJECTED = "validator-rejected"
SLOT_OUT_OF_RANGE = "slot-out-of-range"
POLICY_VIOLATION = "policy-violation"


class InvalidChainError(Exception):
    """An operation requiring a valid chain was given an invalid one."""


@dataclass(frozen=True)
class Violation:
    index: int
    condition: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.violations

    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None

    def describe(self) -> str:
        if self.valid:
            return "valid"
        return "; ".join(f"tx {v.index}: {v.condition} ({v.detail})" for v in self.violations)


class LedgerIndex:
    """What sits at each position of a transaction sequence, and whether it
    is spent, for any sequence, valid or not.

    Eager: ``output``, the first output at each position; ``spent``, every
    position some input names, so ``output.keys() | spent`` are the
    positions mentioned; ``size`` and ``last_slot``.  Built on first query,
    then kept by ``absorb``: ``unspent``, the outputs no later input names
    by position (read through ``unspent_map()``; None until built), with
    ``shadowed`` more of them at a position already in it, none on a valid
    chain; ``by_symbol``, each symbol asked of ``carriers`` mapped to the
    map's outputs carrying it (``carriers`` filters the shadowed ones
    itself); and ``kept``, the set ``unspent_set`` copies.  The fresh rule:
    while every output takes a position not yet mentioned, its own
    transaction's inputs included, the map is ``output`` less ``spent``.
    """

    __slots__ = ("size", "last_slot", "output", "spent", "unspent", "shadowed", "by_symbol", "kept")

    def __init__(self) -> None:
        self.size = 0
        self.last_slot: int | None = None
        self.output: dict[Position, Output] = {}
        self.spent: set[Position] = set()
        self.unspent: dict[Position, Output] | None = None
        self.shadowed: dict[Position, list[Output]] = {}
        self.by_symbol: dict[int, dict[Position, Output]] = {}
        self.kept: set[Output] | None = None

    @classmethod
    def of(cls, txs: Iterable[Transaction], slots: Sequence[int] | None = None) -> LedgerIndex:
        """The index of a sequence, built from scratch in O(n)."""
        index = cls()
        absorb = index.absorb
        for tx, slot in zip(txs, itertools.repeat(None) if slots is None else slots):
            absorb(tx, slot)
        return index

    def absorb(self, tx: Transaction, slot: int | None = None) -> None:
        """Summarize one more transaction, at index ``size``.  Its inputs
        spend only earlier outputs, so they are taken first.  Without a map
        the outputs just join ``output``, until one breaks the fresh rule and
        builds the map.  With one, the kept set first drops the outputs at
        each spent position, shadowed ones included, and takes the new ones;
        the map and every per-symbol table built so far follow."""
        unspent, output, spent = self.unspent, self.output, self.spent
        if slot is not None:
            self.last_slot = slot
        self.size += 1
        if unspent is None:
            for inp in tx.inputs:
                spent.add(inp.position)
            outputs = iter(tx.outputs)
            for out in outputs:
                p = out.position
                if p in output or p in spent:
                    break
                output[p] = out
            else:
                return  # every output took a fresh position
            unspent, placed = self.unspent_map(), (out, *outputs)
        else:
            kept = self.kept
            if kept is not None:
                for inp in tx.inputs:
                    out = unspent.get(inp.position)
                    if out is not None:
                        kept.discard(out)
                        kept.difference_update(self.shadowed.get(inp.position, ()))
                kept.update(tx.outputs)
            for inp in tx.inputs:
                spent.add(inp.position)
                unspent.pop(inp.position, None)
                if self.shadowed:
                    self.shadowed.pop(inp.position, None)
            placed = tx.outputs
        for out in placed:
            p = out.position
            if p in output:
                if p in unspent:
                    self.shadowed.setdefault(p, []).append(out)
                    continue
            else:
                output[p] = out
            unspent[p] = out
        tables = self.by_symbol
        if tables:  # only the symbols already asked for
            for inp in tx.inputs:
                for table in tables.values():
                    table.pop(inp.position, None)
            for out in tx.outputs:
                if unspent.get(out.position) is out:
                    for chip, _ in out.value:
                        table = tables.get(chip.symbol)
                        if table is not None:
                            table[out.position] = out

    def unspent_map(self) -> dict[Position, Output]:
        """The unspent outputs, the first at each position (the rest are
        ``shadowed``), by position: on first call ``output`` less ``spent``,
        exact under the fresh rule, and kept by ``absorb`` from then on."""
        if self.unspent is None:
            spent = self.spent
            self.unspent = {p: out for p, out in self.output.items() if p not in spent}
        return self.unspent

    def unspent_outputs(self) -> Iterator[Output]:
        """Every output no later input names; one per position on a valid
        chain."""
        unspent = self.unspent_map()
        if not self.shadowed:
            return iter(unspent.values())
        return itertools.chain(unspent.values(), *self.shadowed.values())

    def unspent_set(self) -> frozenset[Output]:
        """``frozenset(unspent_outputs())``.  The first call builds the set
        ``kept``, in one scan of the unspent outputs, and ``absorb`` keeps it
        current from then on.  Every call copies it, and a copy reuses the
        set's stored hashes, so only the first call hashes the outputs."""
        kept = self.kept
        if kept is None:
            kept = self.kept = set(self.unspent_outputs())
        return frozenset(kept)

    def carriers(self, symbol: int) -> Iterator[Output]:
        """The outputs of ``unspent_outputs()`` whose value holds some chip
        of the currency symbol, shadowed ones included.  The first query for
        a symbol builds its table in one scan of the unspent map; ``absorb``
        keeps it from then on."""

        def holds(out: Output) -> bool:
            return any(chip.symbol == symbol for chip, _ in out.value)

        table = self.by_symbol.get(symbol)
        if table is None:
            table = self.by_symbol[symbol] = {p: out for p, out in self.unspent_map().items() if holds(out)}
        if not self.shadowed:
            return iter(table.values())
        return itertools.chain(table.values(), filter(holds, itertools.chain.from_iterable(self.shadowed.values())))


class Chain:
    """An ordered sequence of transactions, optionally with one slot per
    transaction (monotone nondecreasing).  A chain may be invalid: validity
    is what ``validate_chain`` judges, not what the type promises.

    A chain is the first ``len(chain)`` entries of a log of transactions,
    and of a parallel log of slots when it is slotted.  The constructor keeps
    the tuple it is given as the log.  ``append`` pushes onto the parent's
    log when the parent is the log's tip, that is, when the log holds nothing
    past it, so a linear history shares one list.  It copies the parent's
    entries into a new list only on a fork: when the parent already has a
    child, or its log is a constructor's tuple.  ``prefix`` shares the log
    too.  No entry a chain holds ever changes, since a push only extends the
    log past every chain that shares it.  ``transactions`` and ``slots`` are
    tuples built on first read and kept; equality, hashing and repr are
    those of ``(transactions, slots)``.  ``_report`` is ``validate_chain``'s
    verdict without policies once it has judged this object, else None.
    """

    __slots__ = ("_log", "_slot_log", "_len", "_transactions", "_slots", "_index", "_report")

    def __init__(self, transactions: Iterable[Transaction] = (), slots: Iterable[int] | None = None) -> None:
        log = tuple(transactions)
        if slots is not None:
            slots = tuple(slots)
            if len(slots) != len(log):
                raise ValueError("slot sequence must match transaction count")
            if any(b < a for a, b in zip(slots, slots[1:])):
                raise ValueError("slots must be monotone nondecreasing")
            if any(s < 0 for s in slots):
                raise ValueError("slots must be naturals")
            if not log:
                slots = None  # empty chains are unslotted
        self._log = self._transactions = log
        self._slot_log = self._slots = slots
        self._len = len(log)
        # The chain's LedgerIndex once built or handed over by append.
        self._index: LedgerIndex | None = None
        self._report: ValidationReport | None = None

    @classmethod
    def _over(cls, log: Sequence[Transaction], slot_log: Sequence[int] | None, length: int) -> Chain:
        """The chain of the first ``length`` entries of the logs, sharing them."""
        chain = cls.__new__(cls)
        chain._log, chain._slot_log, chain._len = log, slot_log, length
        chain._transactions = chain._slots = chain._index = chain._report = None
        return chain

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        txs = self._transactions
        if txs is None:
            txs = self._transactions = tuple(self._log[: self._len])
        return txs

    @property
    def slots(self) -> tuple[int, ...] | None:
        slots = self._slots
        if slots is None and self._slot_log is not None:
            slots = self._slots = tuple(self._slot_log[: self._len])
        return slots

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Transaction]:
        return itertools.islice(self._log, self._len)  # not past the chain, though the log grows

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._len == other._len and (self.transactions, self.slots) == (other.transactions, other.slots)

    def __hash__(self) -> int:
        return hash((self.transactions, self.slots))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(transactions={self.transactions!r}, slots={self.slots!r})"

    @property
    def slotted(self) -> bool:
        return self._slot_log is not None

    def last_slot(self) -> int | None:
        return None if self._slot_log is None else self._slot_log[self._len - 1]

    def prefix(self, upto: int) -> Chain:
        length = len(range(self._len)[:upto])  # a tuple slice's length
        return Chain._over(self._log, self._slot_log, length) if length else Chain()

    def index(self) -> LedgerIndex:
        """The index of this chain: the cached one while it still summarizes
        exactly these transactions (append only ever grows it), else a fresh
        O(n) build."""
        index = self._index
        if index is None or index.size != self._len:
            index = self._index = LedgerIndex.of(self._log[: self._len], self._slot_log)
        return index


def _check_transaction(index: LedgerIndex, tx: Transaction, slot: int | None, policies) -> list[Violation]:
    """All violations of appending ``tx`` (at ``slot``) to the chain
    summarized by ``index``.  ``policies``, when given, is a monetary policy
    table, checked only when every other condition holds: its forging
    deltas need every input resolved."""
    at = index.size
    violations: list[Violation] = []
    for out in tx.outputs:
        if out.position in index.output:
            violations.append(Violation(at, DUPLICATE_POSITION, f"output position {out.position} already used"))
    for inp in tx.inputs:
        out = index.output.get(inp.position)
        if out is None:
            violations.append(
                Violation(at, DANGLING_OR_FORWARD, f"input at {inp.position} resolves to no earlier output")
            )
            continue
        if inp.position in index.spent:
            violations.append(Violation(at, DANGLING_OR_FORWARD, f"output at {inp.position} is already spent"))
            continue
        validator = out.validator
        ctx = context_at(tx, inp) if validator.kind in CONTEXT_READERS else None
        if not run_validator(validator, inp.redeemer, out.datum, out.value, ctx):
            violations.append(
                Violation(at, VALIDATOR_REJECTED, f"validator {validator.kind} rejected input at {inp.position}")
            )
    if slot is not None:
        if index.last_slot is not None and slot < index.last_slot:
            violations.append(Violation(at, SLOT_OUT_OF_RANGE, f"slot {slot} below chain tip {index.last_slot}"))
        if tx.slot_range is not None and not tx.slot_range.contains(slot):
            hi = "*" if tx.slot_range.hi is None else tx.slot_range.hi
            violations.append(
                Violation(at, SLOT_OUT_OF_RANGE, f"slot {slot} outside range [{tx.slot_range.lo}, {hi}]")
            )
    if policies is not None and not violations:
        problem = policy_violation(policies, index, tx)
        if problem is not None:
            violations.append(Violation(at, POLICY_VIOLATION, problem))
    return violations


def validate_chain(chain: Chain, policies=None) -> ValidationReport:
    """Check the whole chain; the report lists every violation found.

    ``policies``, when given, is a monetary policy table checked per
    transaction against its prefix (a configuration extension on top of the
    base validity conditions).  The index grown on the way stays on the chain.
    Without policies the report is kept on the chain, and a later call
    without policies returns it unchecked; with policies it always checks.
    """
    if policies is None and chain._report is not None:
        return chain._report
    index = LedgerIndex()
    violations: list[Violation] = []
    slots = chain._slot_log
    for at, tx in enumerate(chain):
        slot = None if slots is None else slots[at]
        violations.extend(_check_transaction(index, tx, slot, policies))
        index.absorb(tx, slot)
    chain._index = index
    report = ValidationReport(tuple(violations))
    if policies is None:
        chain._report = report
    return report


def append(chain: Chain, tx: Transaction, slot: int | None = None, policies=None) -> Chain | ValidationReport:
    """Extend a valid chain by one transaction.

    Returns the extended chain when the incremental check passes, otherwise a
    report carrying the violations.  Only ``tx`` is examined against the
    existing chain; agreement with whole-chain revalidation is guaranteed by
    prefix closure.  Slot handling: a slotted chain requires a slot and an
    unslotted nonempty chain forbids one (ValueError on misuse).
    """
    if chain.slotted and slot is None:
        raise ValueError("appending to a slotted chain requires a slot")
    if len(chain) > 0 and not chain.slotted and slot is not None:
        raise ValueError("cannot attach a slot to an unslotted chain")
    if slot is not None and slot < 0:
        raise ValueError("slot must be a natural")
    index = chain.index()
    violations = _check_transaction(index, tx, slot, policies)
    if violations:
        return ValidationReport(tuple(violations))
    length, log, slot_log = len(chain), chain._log, chain._slot_log
    if type(log) is not list or len(log) != length:  # a fork, or a constructor's tuple: copy
        log = list(log[:length])
        if slot is not None:
            slot_log = list(slot_log[:length]) if length else []
    log.append(tx)
    if slot is not None:
        slot_log.append(slot)
    extended = Chain._over(log, slot_log, length + 1)
    index.absorb(tx, slot)
    extended._index = index
    return extended


def utxo(chain: Chain) -> frozenset[Output]:
    """The set of unspent outputs: outputs no later input points to.

    Defined for every chain, valid or not.
    """
    return chain.index().unspent_set()


BLOCKCHAIN = "blockchain"
CHUNK = "chunk"
NEITHER = "neither"


def classify(chain: Chain) -> str:
    """Classify a transaction sequence as blockchain, chunk, or neither.

    A chunk satisfies every blockchain condition, slot ranges included,
    except that inputs may dangle (point outside the sequence): it is a valid
    chain once one transaction put in front of it, at slot 0, supplies an
    ``ACCEPT_ALL`` output at every position its inputs name that none of its
    transactions outputs.
    """
    if validate_chain(chain).valid:
        return BLOCKCHAIN
    index = chain.index()
    dangling = index.spent - index.output.keys()
    supplier = Transaction(frozenset(), frozenset(Output(p, ACCEPT_ALL) for p in dangling))
    slots = None if chain.slots is None else (0,) + chain.slots
    return CHUNK if validate_chain(Chain((supplier,) + chain.transactions, slots)).valid else NEITHER


def schedule_extension(chain: Chain, txs: Iterable[Transaction]) -> tuple[Chain, int]:
    """Append ``txs`` in order, choosing for each the earliest admissible slot.

    Greedy earliest-slot assignment is complete: when any monotone assignment
    within the slot ranges exists, this one does.  Returns the chain extended
    by the longest prefix of ``txs`` that can be scheduled, and its length.
    On an unslotted chain the transactions are appended without slots and
    ranges are ignored; an empty chain is slotted when some of ``txs`` has a
    range.
    """
    txs = tuple(txs)
    slotted = chain.slotted or (len(chain) == 0 and any(tx.slot_range is not None for tx in txs))
    for count, tx in enumerate(txs):
        slot = None
        if slotted:
            floor = chain.last_slot() or 0
            slot = max(floor, tx.slot_range.lo) if tx.slot_range is not None else floor
            if tx.slot_range is not None and not tx.slot_range.contains(slot):
                return chain, count
        result = append(chain, tx, slot)
        if isinstance(result, ValidationReport):
            return chain, count
        chain = result
    return chain, len(txs)
