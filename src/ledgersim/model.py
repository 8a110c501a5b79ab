"""Core vocabulary of the UTxO-style ledger.

Positions name outputs; an input pointing at a position spends the output
carrying it.  Values are finite multisets of chips (asset kinds), transactions
are sets of inputs and outputs, and a context is a transaction viewed from one
of its inputs.  Everything here is an immutable value; uniqueness constraints
between transactions live at the chain level.

An output carries its validator as data: a ``ValidatorRef`` names one of
four kinds and its natural parameters, so transactions stay serializable and
chains replayable.  What a reference means at a spend is the interpreter's
business (``validators.run_validator``), not this module's.

The dataclasses here are frozen and slotted: an instance holds its fields
and no ``__dict__``, which keeps the inputs, outputs and values of a long
chain small and cheap for the collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

Position = int
Datum = int
Redeemer = int
KeyId = int


class MalformedChainError(Exception):
    """The chain breaks a structural assumption (e.g. two outputs share a
    position) in a way that makes the requested query ill-posed."""


class Chip(NamedTuple):
    """An asset kind: (currency symbol, token name) pair of naturals."""

    symbol: int
    token: int


#: The reserved base-currency chip.
ADA = Chip(0, 0)


@dataclass(frozen=True, slots=True)
class Value:
    """A finite multiset of chips.

    Stored quantities are strictly positive; a chip with no entry counts as
    zero.  Entries are kept sorted so equal multisets compare and hash equal.
    Use :meth:`Value.of` to build one from an arbitrary mapping or pair list.
    """

    entries: tuple[tuple[Chip, int], ...] = ()

    def __post_init__(self) -> None:
        prev: Chip | None = None
        for chip, qty in self.entries:
            if not isinstance(chip, Chip):
                raise TypeError(f"value entry key must be a Chip, got {chip!r}")
            if qty < 1:
                raise ValueError(f"quantity for {chip} must be >= 1, got {qty}")
            if prev is not None and chip <= prev:
                raise ValueError("value entries must be strictly sorted by chip")
            prev = chip

    @classmethod
    def of(cls, source: Mapping | Iterable[tuple] = ()) -> Value:
        """Build a Value, merging duplicate chips and dropping zero quantities.

        ``source`` is a mapping or anything with ``items()`` (a dict, a
        Counter), or an iterable of (chip, quantity) pairs.
        """
        items = source.items() if hasattr(source, "items") else source
        merged: dict[Chip, int] = {}
        for chip, qty in items:
            chip = Chip(*chip)
            merged[chip] = merged.get(chip, 0) + qty
        for chip, qty in merged.items():
            if qty < 0:
                raise ValueError(f"quantity for {chip} must not be negative")
        return cls(tuple(sorted((c, q) for c, q in merged.items() if q > 0)))

    def get(self, chip: Chip) -> int:
        """Quantity of ``chip`` in this value; 0 when absent."""
        for c, q in self.entries:
            if c == chip:
                return q
        return 0

    def symbol_total(self, symbol: int) -> int:
        """Total quantity across every chip with the given currency symbol."""
        return sum(q for c, q in self.entries if c.symbol == symbol)

    def symbols(self) -> frozenset[int]:
        return frozenset(c.symbol for c, _ in self.entries)

    def __add__(self, other: Value) -> Value:
        """Pointwise sum of quantities."""
        merged = dict(self.entries)
        for chip, qty in other.entries:
            merged[chip] = merged.get(chip, 0) + qty
        return Value(tuple(sorted(merged.items())))

    def subtract(self, other: Value) -> Value:
        """Pointwise difference; raises ValueError if any quantity underflows."""
        merged = dict(self.entries)
        for chip, qty in other.entries:
            left = merged.get(chip, 0) - qty
            if left < 0:
                raise ValueError(f"cannot remove {qty} of {chip}: only {merged.get(chip, 0)} held")
            if left == 0:
                merged.pop(chip, None)
            else:
                merged[chip] = left
        return Value(tuple(sorted(merged.items())))

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self) -> Iterator[tuple[Chip, int]]:
        return iter(self.entries)


def singleton(chip: Chip | tuple[int, int], qty: int) -> Value:
    """A value holding exactly ``qty`` of one chip; qty must be >= 1."""
    if qty < 1:
        raise ValueError(f"singleton quantity must be >= 1, got {qty}")
    return Value(((Chip(*chip), qty),))


EMPTY_VALUE = Value()


ACCEPT_ALL_KIND = "AcceptAll"
REJECT_ALL_KIND = "RejectAll"
PAY_TO_PUBKEY_KIND = "PayToPubKey"
STATE_MACHINE_KIND = "StateMachine"

#: Parameter arity per validator kind (all parameters are naturals).
KIND_ARITY = {
    ACCEPT_ALL_KIND: 0,
    REJECT_ALL_KIND: 0,
    PAY_TO_PUBKEY_KIND: 1,
    STATE_MACHINE_KIND: 5,
}


@dataclass(frozen=True, slots=True)
class ValidatorRef:
    """Serializable reference to a validator: a kind plus natural parameters.

    PayToPubKey carries the key id; StateMachine carries a flattened token
    portal configuration (issuer, traded symbol/token, state symbol/token).
    """

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        arity = KIND_ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown validator kind {self.kind!r}")
        if len(self.params) != arity:
            raise ValueError(f"{self.kind} takes {arity} parameters, got {len(self.params)}")
        if any(p < 0 for p in self.params):
            raise ValueError("validator parameters must be naturals")


ACCEPT_ALL = ValidatorRef(ACCEPT_ALL_KIND)
REJECT_ALL = ValidatorRef(REJECT_ALL_KIND)


def pay_to_pubkey(key: KeyId) -> ValidatorRef:
    """Validator accepting exactly the redeemer equal to ``key`` (simulated
    signature check)."""
    return ValidatorRef(PAY_TO_PUBKEY_KIND, (key,))


@dataclass(frozen=True, slots=True)
class Input:
    """Points at the output sharing its position; the redeemer is the key
    presented to that output's validator."""

    position: Position
    redeemer: Redeemer = 0

    def __post_init__(self) -> None:
        if self.position < 0 or self.redeemer < 0:
            raise ValueError("positions and redeemers are naturals")


@dataclass(frozen=True, slots=True)
class Output:
    position: Position
    validator: ValidatorRef
    datum: Datum = 0
    value: Value = EMPTY_VALUE

    def __post_init__(self) -> None:
        if self.position < 0 or self.datum < 0:
            raise ValueError("positions and datums are naturals")

    def __hash__(self) -> int:
        # The fields ``==`` compares, the validator's and the value's own
        # fields inlined: one frame instead of three.  Not cached, so an
        # output holds no extra slot and a pickle carries no hash.
        validator = self.validator
        return hash((self.position, validator.kind, validator.params, self.datum, self.value.entries))


@dataclass(frozen=True, slots=True)
class SlotRange:
    """Inclusive slot interval; ``hi=None`` means unbounded above."""

    lo: int = 0
    hi: int | None = None

    def __post_init__(self) -> None:
        if self.lo < 0:
            raise ValueError("slot range lower bound must be a natural number")
        if self.hi is not None and self.hi < self.lo:
            raise ValueError(f"slot range [{self.lo}, {self.hi}] is empty")

    def contains(self, slot: int) -> bool:
        return self.lo <= slot and (self.hi is None or slot <= self.hi)


@dataclass(frozen=True, slots=True)
class Transaction:
    """A set of inputs and a set of outputs, either possibly empty.

    Input positions must be pairwise distinct within the transaction, and
    likewise output positions.  ``slot_range``, when present, restricts which
    slots the transaction may be appended at; ``None`` means always valid.
    """

    inputs: frozenset[Input] = frozenset()
    outputs: frozenset[Output] = frozenset()
    slot_range: SlotRange | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))
        if len({i.position for i in self.inputs}) != len(self.inputs):
            raise ValueError("duplicate input positions within one transaction")
        if len({o.position for o in self.outputs}) != len(self.outputs):
            raise ValueError("duplicate output positions within one transaction")

    def sorted_inputs(self) -> list[Input]:
        return sorted(self.inputs, key=lambda i: i.position)

    def sorted_outputs(self) -> list[Output]:
        return sorted(self.outputs, key=lambda o: o.position)


@dataclass(frozen=True, slots=True)
class Context:
    """A transaction pointed at one of its inputs (the focus)."""

    inputs: frozenset[Input]
    focus: Input
    outputs: frozenset[Output]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))
        if self.focus not in self.inputs:
            raise ValueError("context focus must be one of the context inputs")


def context_at(tx: Transaction, focus: Input) -> Context:
    """The context obtained by pointing ``tx`` at ``focus``; focus must be an
    input of tx (``Context`` raises ValueError otherwise)."""
    return Context(tx.inputs, focus, tx.outputs)


def positions_of(tx: Transaction) -> frozenset[Position]:
    """Every position mentioned by the transaction's inputs or outputs."""
    return frozenset(i.position for i in tx.inputs) | frozenset(o.position for o in tx.outputs)


class PositionAllocator:
    """Monotone counter handing out fresh positions from ``start`` on.

    Positions are opaque names; tests and scenario runners own one allocator
    and thread it through every transaction builder so positions never clash.
    To continue a chain, start one past the largest position its
    ``LedgerIndex`` says it mentions.
    """

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def fresh(self) -> Position:
        p = self._next
        self._next += 1
        return p

    def peek(self) -> Position:
        return self._next
