"""Seeded random generation of chains and theorem-check instances.

Chains grow by appending transactions that spend uniformly chosen unspent
outputs and create a few fresh ones, with genesis transactions (no inputs)
mixed in at the fixed rate ``GENESIS_PROB``; empty input and output sets both
occur.  The distribution is part of every fuzzed statement, so its fixed
values are the module constants below; ``ChainGen`` takes only the four that
some caller sets.  Everything is driven by a caller-supplied
``random.Random``, so campaigns are reproducible from a seed.

Outputs share their immutable parts instead of rebuilding them per draw: the
pay-to-key validators are the ``KEY_VALIDATORS`` tuple, and ``VALUE_TABLE``
maps the tuple of draws behind a value (the pick count, then chip index and
quantity per pick) to the ``Value`` built from them.  The table lives for the
process, shared by every ``ChainGen``, and is bounded by the draw space, not
by any input: 1 + 16 + 16**2 = 273 keys for two picks over the four ``CHIPS``
and four quantities.

Every integer draw goes through ``_below``, the loop ``randrange`` runs on
``getrandbits``, so the generator reads the same bits in the same order as
``randrange`` would, with fewer frames per draw.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from operator import attrgetter

from .ledger import Chain, ValidationReport, append
from .model import (
    ACCEPT_ALL,
    ACCEPT_ALL_KIND,
    ADA,
    PAY_TO_PUBKEY_KIND,
    REJECT_ALL,
    Chip,
    Input,
    Output,
    PositionAllocator,
    SlotRange,
    Transaction,
    Value,
    pay_to_pubkey,
)


MAX_LEN = 8  # chain() draws a length in 0..MAX_LEN
GENESIS_PROB = 0.3
EMPTY_TX_PROB = 0.04
NO_OUTPUT_PROB = 0.08
P2PK_PROB = 0.4
KEY_COUNT = 4
MAX_DATUM = 9
RANGE_PROB = 0.6
MAX_SLOT_STEP = 3
CHIPS = (ADA, Chip(1, 1), Chip(2, 5), Chip(3, 1))
KEY_VALIDATORS = tuple(pay_to_pubkey(1 + k) for k in range(KEY_COUNT))
VALUE_TABLE: dict[tuple[int, ...], Value] = {}

SPENDABLE_KINDS = (ACCEPT_ALL_KIND, PAY_TO_PUBKEY_KIND)
_position = attrgetter("position")


def spendable(chain: Chain) -> list[Output]:
    """Unspent outputs the generic generator knows how to spend, in position
    order.  Read off the index's unspent outputs, not ``utxo``'s set, so the
    index keeps no set for it; on a valid chain, one output per position,
    the two give the same list."""
    outs = [o for o in chain.index().unspent_outputs() if o.validator.kind in SPENDABLE_KINDS]
    return sorted(outs, key=_position)


def _below(bits, n: int) -> int:
    """``random.Random.randrange(n)`` for an int ``n >= 1``, given the
    generator's ``getrandbits``: draw ``n.bit_length()`` bits until the
    result is below ``n``, as ``randrange`` does, without its frames."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _advance(pool: list[Output], tx: Transaction) -> None:
    """Turn ``spendable(chain)`` into ``spendable`` of the chain extended by
    ``tx``, in place: drop what tx spends, add what it creates (at the end
    when its position is past the last, as a fresh one is)."""
    for inp in tx.inputs:
        at = bisect_left(pool, inp.position, key=_position)
        if at < len(pool) and pool[at].position == inp.position:
            del pool[at]
    for out in tx.outputs:
        if out.validator.kind in SPENDABLE_KINDS:
            if not pool or pool[-1].position < out.position:
                pool.append(out)
            else:
                insort(pool, out, key=_position)


def spend(out: Output, rng: random.Random) -> Input:
    """An input consuming ``out`` with a redeemer its validator accepts."""
    if out.validator.kind == PAY_TO_PUBKEY_KIND:
        return Input(out.position, out.validator.params[0])
    return Input(out.position, _below(rng.getrandbits, 10))


class ChainGen:
    """Random chain builder over a shared RNG."""

    def __init__(
        self,
        rng: random.Random,
        *,
        slotted: bool = False,
        reject_all_prob: float = 0.06,
        max_inputs: int = 4,
        max_outputs: int = 4,
    ) -> None:
        self.rng = rng
        self.slotted = slotted
        self.reject_all_prob = reject_all_prob
        self.max_inputs = max_inputs
        self.max_outputs = max_outputs

    def random_output(self, alloc: PositionAllocator) -> Output:
        """A fresh output: its validator, datum and value drawn in that
        order, the value as up to two picks of a chip and a quantity."""
        rng = self.rng
        bits = rng.getrandbits
        position = alloc.fresh()
        roll = rng.random()
        if roll < self.reject_all_prob:
            validator = REJECT_ALL
        elif roll < self.reject_all_prob + P2PK_PROB:
            validator = KEY_VALIDATORS[_below(bits, KEY_COUNT)]
        else:
            validator = ACCEPT_ALL
        datum = _below(bits, MAX_DATUM + 1)
        draws = [_below(bits, 3)]
        for _ in range(draws[0]):
            draws += (_below(bits, len(CHIPS)), _below(bits, 4))
        key = tuple(draws)
        value = VALUE_TABLE.get(key)
        if value is None:  # Value.of merges a chip picked twice
            value = VALUE_TABLE[key] = Value.of((CHIPS[c], 1 + q) for c, q in zip(key[1::2], key[2::2]))
        return Output(position, validator, datum, value)

    def random_range(self, slot: int) -> SlotRange | None:
        rng = self.rng
        if rng.random() >= RANGE_PROB:
            return None
        lo = max(0, slot - _below(rng.getrandbits, 3))
        hi = None if rng.random() < 0.3 else slot + _below(rng.getrandbits, 4)
        return SlotRange(lo, hi)

    def transaction(
        self,
        chain: Chain,
        alloc: PositionAllocator,
        pool: list[Output] | None = None,
        slot: int | None = None,
    ) -> Transaction:
        """A transaction valid to append to ``chain``, spending from ``pool``
        (default: every spendable unspent output)."""
        rng = self.rng
        if rng.random() < EMPTY_TX_PROB:
            return Transaction(frozenset(), frozenset(), self.random_range(slot) if slot is not None else None)
        if pool is None:
            pool = spendable(chain)
        genesis = not pool or rng.random() < GENESIS_PROB
        inputs: frozenset[Input] = frozenset()
        if not genesis:
            k = 1 + _below(rng.getrandbits, min(self.max_inputs, len(pool)))
            inputs = frozenset(spend(out, rng) for out in rng.sample(pool, k))
        if rng.random() < NO_OUTPUT_PROB and inputs:
            n_out = 0
        else:
            n_out = (1 if genesis else 0) + _below(rng.getrandbits, self.max_outputs + (0 if genesis else 1))
        outputs = frozenset(self.random_output(alloc) for _ in range(n_out))
        slot_range = self.random_range(slot) if slot is not None else None
        return Transaction(inputs, outputs, slot_range)

    def next_slot(self, chain: Chain) -> int:
        last = chain.last_slot()
        return (0 if last is None else last) + _below(self.rng.getrandbits, MAX_SLOT_STEP + 1)

    def grow(self, chain: Chain, steps: int, alloc: PositionAllocator) -> tuple[Chain, list[Transaction]]:
        """Append ``steps`` random valid transactions; returns the extended
        chain and the appended transactions."""
        added = []
        pool = spendable(chain)
        for _ in range(steps):
            slot = self.next_slot(chain) if self.slotted else None
            tx = self.transaction(chain, alloc, pool, slot)
            result = append(chain, tx, slot)
            if isinstance(result, ValidationReport):  # generator bug guard
                raise AssertionError(f"generated transaction failed to append: {result.describe()}")
            chain = result
            added.append(tx)
            _advance(pool, tx)
        return chain, added

    def chain(self, length: int | None = None) -> tuple[Chain, PositionAllocator]:
        """A fresh random valid chain and the allocator that continues it."""
        length = _below(self.rng.getrandbits, MAX_LEN + 1) if length is None else length
        alloc = PositionAllocator()
        grown, _ = self.grow(Chain(), length, alloc)
        return grown, alloc

    def apart_pair(self, chain: Chain, alloc: PositionAllocator) -> tuple[Transaction, Transaction]:
        """Two transactions, each valid on ``chain``, mentioning disjoint
        positions (inputs drawn from disjoint unspent pools, outputs fresh)."""
        pool = spendable(chain)
        self.rng.shuffle(pool)
        half = len(pool) // 2
        tx1 = self.transaction(chain, alloc, pool=pool[:half])
        tx2 = self.transaction(chain, alloc, pool=pool[half:])
        return tx1, tx2
