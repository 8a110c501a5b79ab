"""Equivalence notions on chains and the reorder check.

Two chains, valid or not, are observationally equivalent when they have the
same unspent outputs.  Two valid chains are alpha-equivalent when they differ
only in the position names of spent output-input pairs; positions of unspent
outputs are observable and may not be renamed.  Alpha-equivalence is defined
by canonical form: every spent pair is renamed to an index determined by
traversal order, so equal canonical forms mean the chains were equal up to
renaming spent pairs.  A renaming is a plain mapping from old position to
new, and a position it does not map keeps its name.  ``canonicalize`` builds
the canonical form and is the reference; ``alpha_mismatch`` decides the same
question without building a canonical chain, by reading both chains through
their canonical renamings one transaction at a time.
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


def spent_edges(chain: Chain) -> list[tuple[int, Output, int, Input]]:
    """Every bound output-input pair of a valid chain, as
    (producer index, output, spender index, input)."""
    index = chain.index()
    return [
        (index.producer[inp.position], index.output[inp.position], spender, inp)
        for spender, tx in enumerate(chain.transactions)
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


def canonical_renaming(chain: Chain) -> dict[Position, Position]:
    """The renaming taking a valid chain to its canonical form, as a mapping
    from each spent position that moves to its canonical name.

    Spent pairs are ordered by (producer index, output payload, spender index,
    redeemer) -- a key that never looks at the position being renamed, so all
    alpha-variants order their edges identically -- and then named by the
    fresh-name rule, avoiding the unspent positions; pairs already at their
    name are left out.  Edges tied on the whole key are interchangeable, so
    the assignment is well defined on alpha-classes.
    """
    _require_valid(chain)
    unspent = chain.index().unspent.keys()

    def edge_key(edge: tuple[int, Output, int, Input]) -> tuple:
        out_index, out, in_index, inp = edge
        return (
            out_index, out.validator.kind, out.validator.params, out.datum, out.value.entries, in_index, inp.redeemer
        )

    edges = sorted(spent_edges(chain), key=edge_key)
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
    return _mismatch(a, b, canonical_renaming(a), canonical_renaming(b))


def _mismatch(a: Chain, b: Chain, table_a: dict[Position, Position], table_b: dict[Position, Position]) -> int | None:
    """``alpha_mismatch``, given the two chains' canonical renamings."""
    slots_a, slots_b = a.slots, b.slots
    for index, (tx_a, tx_b) in enumerate(zip(a.transactions, b.transactions)):
        slot_a = None if slots_a is None else slots_a[index]
        slot_b = None if slots_b is None else slots_b[index]
        if slot_a != slot_b or _renamed(tx_a, table_a) != _renamed(tx_b, table_b):
            return index
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def alpha_equiv(a: Chain, b: Chain) -> bool:
    """Decide alpha-equivalence of two valid chains: equal canonical forms,
    compared transaction by transaction without building either one."""
    return alpha_mismatch(a, b) is None


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
    clashes = sorted(index.spent & avoid, key=lambda p: (index.producer[p], p))
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
