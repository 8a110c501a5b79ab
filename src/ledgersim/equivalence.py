"""Equivalence notions on chains and the reorder check.

Two chains, valid or not, are observationally equivalent when they have the
same unspent outputs.  Two valid chains are alpha-equivalent when they differ
only in the position names of spent output-input pairs; positions of unspent
outputs are observable and may not be renamed.  Alpha-equivalence is defined
by canonical form: every spent pair is renamed to an index determined by
traversal order, so equal canonical forms mean the chains were equal up to
renaming spent pairs.  A renaming is a plain mapping from old position to
new, and a position it does not map keeps its name.  ``canonicalize`` builds
the canonical form and is the reference.  Spent names are bound, so
``alpha_equiv`` decides on descriptions that hold none of them, as de
Bruijn's nameless terms do: two valid chains are alpha-equivalent exactly
when their slots, slot ranges, unspent outputs with their producers' indices
and sorted spent-edge keys (``_edge_key``) are equal.  ``alpha_mismatch``
finds the first index at which the canonical forms differ, building neither:
it reads each transaction through its chain's canonical renaming.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Sequence

from .ledger import Chain, InvalidChainError, schedule_extension, utxo, validate_chain
from .model import Input, Output, Position, Transaction, positions_of


def obs_equiv(a: Chain, b: Chain) -> bool:
    """Observational equivalence: equal unspent-output sets."""
    return utxo(a) == utxo(b)


def apart(tx1: Transaction, tx2: Transaction) -> bool:
    """True when the two transactions mention disjoint sets of positions."""
    return not (positions_of(tx1) & positions_of(tx2))


def rename_positions(chain: Chain, table: dict[Position, Position]) -> Chain:
    """Apply a position renaming, a mapping from old position to new, to
    every input and output; a position it does not map stays."""
    txs = []
    for tx in chain.transactions:
        inputs = frozenset(Input(table.get(i.position, i.position), i.redeemer) for i in tx.inputs)
        outputs = frozenset(
            Output(table.get(o.position, o.position), o.validator, o.datum, o.value) for o in tx.outputs
        )
        txs.append(Transaction(inputs, outputs, tx.slot_range))
    return Chain(tuple(txs), chain.slots)


def _producers(chain: Chain) -> dict[Position, int]:
    """Each output position of a valid chain, mapped to its transaction's index."""
    return {out.position: at for at, tx in enumerate(chain) for out in tx.outputs}


def spent_edges(chain: Chain) -> list[tuple[int, Output, int, Input]]:
    """Every bound output-input pair of a valid chain, as (producer index,
    output, spender index, input), the producers read off the chain."""
    output, producer = chain.index().output, _producers(chain)
    return [
        (producer[inp.position], output[inp.position], spender, inp)
        for spender, tx in enumerate(chain)
        for inp in tx.inputs
    ]


def _require_valid(chain: Chain) -> None:
    report = validate_chain(chain)
    if not report.valid:
        raise InvalidChainError(report.describe())


def _least_free(positions: Iterable[Position], taken: Container[Position]) -> list[tuple[Position, Position]]:
    """The one fresh-name rule: each position, in order, paired with the
    least natural that is not in ``taken`` and not handed to an earlier
    one."""
    pairs = []
    candidate = 0
    for p in positions:
        while candidate in taken:
            candidate += 1
        pairs.append((p, candidate))
        candidate += 1
    return pairs


def _edge_key(producer: int, out: Output, spender: int, inp: Input) -> tuple:
    """All of a spent output-input pair but its position: producer index,
    output payload, spender index and redeemer."""
    return (producer, out.validator.kind, out.validator.params, out.datum, out.value.entries, spender, inp.redeemer)


def canonical_renaming(chain: Chain) -> dict[Position, Position]:
    """The renaming taking a valid chain to its canonical form, as a mapping
    from each spent position that moves to its canonical name.

    Spent pairs are ordered by ``_edge_key`` -- a key that never looks at the
    position being renamed, so all alpha-variants order their edges
    identically -- and then named by the fresh-name rule, avoiding the
    unspent positions; pairs already at their name are left out.  Edges tied
    on the whole key are interchangeable, so the assignment is well defined
    on alpha-classes.
    """
    _require_valid(chain)
    unspent = chain.index().unspent_map().keys()
    edges = sorted(spent_edges(chain), key=lambda edge: _edge_key(*edge))
    named = _least_free((out.position for _, out, _, _ in edges), unspent)
    return {p: q for p, q in named if p != q}


def canonicalize(chain: Chain) -> Chain:
    """The canonical representative of the chain's alpha-class.

    Idempotent; the result validates and is alpha-equivalent to the input.
    """
    return rename_positions(chain, canonical_renaming(chain))


def _renamed(tx: Transaction, table: dict[Position, Position]) -> tuple:
    """``tx`` under a position renaming, as plain tuples: its inputs as
    (position, redeemer) and its outputs as (position, validator, datum,
    value), each sorted by position, then its slot range."""
    return (
        sorted((table.get(i.position, i.position), i.redeemer) for i in tx.inputs),
        sorted((table.get(o.position, o.position), o.validator, o.datum, o.value) for o in tx.outputs),
        tx.slot_range,
    )


def alpha_mismatch(a: Chain, b: Chain) -> int | None:
    """The first index at which the canonical forms of two valid chains
    differ, in transaction or slot, or None when they are alpha-equivalent.

    When one chain is a prefix of the other up to renaming, the mismatch is
    at the shorter length.  No canonical chain is built: each transaction is
    read through its chain's canonical renaming, so the answer is the one
    ``canonicalize`` would give at a fraction of the allocation.  Raises
    InvalidChainError when either chain is invalid.
    """
    table_a, table_b = canonical_renaming(a), canonical_renaming(b)
    slots_a, slots_b = a.slots, b.slots
    for index, (tx_a, tx_b) in enumerate(zip(a.transactions, b.transactions)):
        slot_a = None if slots_a is None else slots_a[index]
        slot_b = None if slots_b is None else slots_b[index]
        if slot_a != slot_b or _renamed(tx_a, table_a) != _renamed(tx_b, table_b):
            return index
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def _nameless(chain: Chain) -> tuple:
    """A valid chain's description that holds no spent name: its slots, its
    slot ranges, its unspent outputs each with its producer's index, and its
    sorted spent-edge keys, drawn in the one forward pass that finds the
    producers.  Raises InvalidChainError on an invalid chain."""
    _require_valid(chain)
    output, producer, keys = chain.index().output, {}, []
    for spender, tx in enumerate(chain):  # a spend reads only earlier producers
        for inp in tx.inputs:
            keys.append(_edge_key(producer[inp.position], output[inp.position], spender, inp))
        for out in tx.outputs:
            producer[out.position] = spender
    keys.sort()
    unspent = {p: (producer[p], out) for p, out in chain.index().unspent_map().items()}
    return chain.slots, [tx.slot_range for tx in chain], unspent, keys


def alpha_equiv(a: Chain, b: Chain) -> bool:
    """Decide alpha-equivalence of two valid chains: equal lengths, slots and
    slot ranges, equal unspent outputs made by the same transactions, and
    equal sorted spent-edge keys, since canonical naming gives equal names to
    equal keys and renaming spent pairs changes none of these.  Raises
    InvalidChainError when either chain is invalid, ``a`` checked first."""
    return _nameless(a) == _nameless(b)


def freshen_spent_clashes(chain: Chain, avoid: Iterable[Position]) -> Chain:
    """Alpha-convert ``chain`` so its spent positions avoid ``avoid``.

    The clashing spent pairs, in order of (producer index, position), are
    named by the fresh-name rule, avoiding ``avoid`` and every position the
    chain mentions, and renamed by the mapping from each clash to its name;
    deterministic.  Unspent positions are never touched (a clash there
    cannot be repaired by alpha-conversion).
    """
    _require_valid(chain)
    avoid = set(avoid)
    index = chain.index()
    producer = _producers(chain)
    clashes = sorted(index.spent & avoid, key=lambda p: (producer[p], p))
    named = _least_free(clashes, avoid | index.output.keys())
    return rename_positions(chain, dict(named))


@dataclass(frozen=True)
class DeferReport:
    """Facts about deferring a transaction past an intervening batch: whether
    B;txs;tx, B;tx and B;tx;txs can each be scheduled, and whether the two
    full orders are observationally equivalent."""

    valid_txs_tx: bool
    valid_tx: bool
    valid_tx_txs: bool
    equiv: bool


def check_defer(base: Chain, txs: Sequence[Transaction], tx: Transaction) -> DeferReport:
    """Check the deferral of ``tx`` past the batch ``txs`` on ``base``.

    With a one-transaction batch this is the swap of two transactions, the
    case of Lemmas 15.1 and 15.2.  Each ordering counts as valid when it can
    be scheduled: appended in order with some monotone slot assignment lying
    inside every slot range.  On an unslotted chain there are no slots to
    assign, so on a valid base this is plain validity.  Only the appended
    transactions are judged: on an invalid base an ordering is valid when
    they append, though the whole sequence is not.  Observational
    equivalence looks only at the transactions, scheduled or not.

    The two full orders are scheduled from the base.  B;tx is read off
    B;tx;txs, whose first step it is: valid when that order schedules tx.
    """
    batch = tuple(txs)
    both, both_count = schedule_extension(base, batch + (tx,))
    swapped, swapped_count = schedule_extension(base, (tx,) + batch)
    return DeferReport(
        valid_txs_tx=both_count > len(batch),
        valid_tx=swapped_count > 0,
        valid_tx_txs=swapped_count > len(batch),
        equiv=obs_equiv(
            both if both_count > len(batch) else Chain(base.transactions + batch + (tx,)),
            swapped if swapped_count > len(batch) else Chain(base.transactions + (tx,) + batch),
        ),
    )
