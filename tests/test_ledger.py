"""Chain validity, appending, unspent outputs, classification, slots."""

import random

import pytest

from ledgersim.gen import ChainGen
from ledgersim.ledger import (
    BLOCKCHAIN,
    CHUNK,
    DANGLING_OR_FORWARD,
    DUPLICATE_POSITION,
    NEITHER,
    SLOT_OUT_OF_RANGE,
    VALIDATOR_REJECTED,
    Chain,
    ValidationReport,
    Violation,
    append,
    classify,
    schedule_extension,
    utxo,
    validate_chain,
)
from ledgersim.model import (
    ACCEPT_ALL,
    ADA,
    REJECT_ALL,
    Input,
    Output,
    PositionAllocator,
    SlotRange,
    Transaction,
    pay_to_pubkey,
    singleton,
)

from conftest import A, B, C, D, E, F, G, H, I, J, K, ref_output


def spent_scan_utxo(txs):
    """Independent oracle: mark every output referenced by a strictly later
    input, return the complement."""
    txs = list(txs)
    unspent = set()
    for idx, tx in enumerate(txs):
        for out in tx.outputs:
            spent = any(
                inp.position == out.position for later in txs[idx + 1 :] for inp in later.inputs
            )
            if not spent:
                unspent.add(out)
    return frozenset(unspent)


def test_input_resolves_to_an_earlier_output():
    """An input resolves to an output of a strictly earlier transaction, or
    validation reports it as dangling or forward."""
    tx1 = Transaction(frozenset(), frozenset({ref_output(A), ref_output(B)}))
    assert validate_chain(Chain((tx1, Transaction(frozenset({Input(A, 0)}), frozenset())))).valid
    report = validate_chain(Chain((tx1, Transaction(frozenset({Input(99, 0)}), frozenset()))))
    assert report.violations == (Violation(1, DANGLING_OR_FORWARD, "input at 99 resolves to no earlier output"),)
    same_tx = Transaction(frozenset({Input(A, 0)}), frozenset({ref_output(A)}))  # strictly earlier only
    assert validate_chain(Chain((same_tx,))).first().condition == DANGLING_OR_FORWARD


def test_input_resolves_in_the_figure_chain(chain_b, figure_txs):
    tx1, tx2, _, _ = figure_txs
    inp = next(iter(tx2.inputs))
    assert chain_b.prefix(1).index().output[inp.position] == ref_output(B)
    assert validate_chain(Chain((tx1, tx2))).valid
    assert validate_chain(Chain((tx2,))).first() == Violation(
        0, DANGLING_OR_FORWARD, f"input at {inp.position} resolves to no earlier output"
    )


def test_empty_chain_is_valid():
    assert validate_chain(Chain()).valid


def test_figure_chain_valid(chain_b, chain_b_prime):
    assert validate_chain(chain_b).valid
    assert validate_chain(chain_b_prime).valid


def test_swapped_is_invalid(figure_txs):
    tx1, tx2, _, _ = figure_txs
    report = validate_chain(Chain((tx2, tx1)))
    assert not report.valid
    assert report.first().index == 0
    assert report.first().condition == DANGLING_OR_FORWARD


def test_validator_rejection_reported():
    lock = pay_to_pubkey(9)
    tx1 = Transaction(frozenset(), frozenset({Output(A, lock, 0, singleton(ADA, 1))}))
    bad = Transaction(frozenset({Input(A, 7)}), frozenset())
    good = Transaction(frozenset({Input(A, 9)}), frozenset())
    assert validate_chain(Chain((tx1, good))).valid
    report = validate_chain(Chain((tx1, bad)))
    assert report.first().condition == VALIDATOR_REJECTED


def test_reject_all_locks_forever():
    tx1 = Transaction(frozenset(), frozenset({Output(A, REJECT_ALL)}))
    spend = Transaction(frozenset({Input(A, 0)}), frozenset())
    assert validate_chain(Chain((tx1, spend))).first().condition == VALIDATOR_REJECTED


def test_double_spend_rejected():
    tx1 = Transaction(frozenset(), frozenset({ref_output(A)}))
    s1 = Transaction(frozenset({Input(A, 0)}), frozenset({ref_output(B)}))
    s2 = Transaction(frozenset({Input(A, 1)}), frozenset({ref_output(C)}))
    report = validate_chain(Chain((tx1, s1, s2)))
    assert not report.valid
    assert report.first().condition == DANGLING_OR_FORWARD


def test_append_genesis_and_rejections(chain_b):
    fresh = Transaction(frozenset(), frozenset({Output(50, ACCEPT_ALL)}))
    extended = append(chain_b, fresh)
    assert isinstance(extended, Chain) and len(extended) == 5

    spent = Transaction(frozenset({Input(A, 0)}), frozenset())  # position 1 was spent long ago
    report = append(chain_b, spent)
    assert isinstance(report, ValidationReport)
    assert report.first().condition == DANGLING_OR_FORWARD

    duplicate = Transaction(frozenset(), frozenset({Output(C, ACCEPT_ALL, 9)}))
    report = append(chain_b, duplicate)
    assert report.first().condition == DUPLICATE_POSITION


def test_utxo_empty_chain():
    assert utxo(Chain()) == frozenset()


def test_utxo_simple_spend():
    tx1 = Transaction(frozenset(), frozenset({ref_output(A), ref_output(B)}))
    tx2 = Transaction(frozenset({Input(A, 0)}), frozenset({ref_output(C)}))
    assert utxo(Chain((tx1, tx2))) == {ref_output(B), ref_output(C)}


def test_utxo_figure_chain_matches_oracle(chain_b, chain_b_prime):
    expected = spent_scan_utxo(chain_b.transactions)
    assert utxo(chain_b) == expected
    assert {out.position for out in expected} == {C, G, H, I, J, K}
    assert utxo(chain_b_prime) == expected


def test_utxo_same_index_input_does_not_spend():
    # an input pointing at an output of the same transaction is not "later"
    tx = Transaction(frozenset({Input(A, 0)}), frozenset({ref_output(A)}))
    assert utxo(Chain((tx,))) == {ref_output(A)}


def test_classify_reference_chains(figure_txs):
    tx1, tx2, tx3, tx4 = figure_txs
    assert classify(Chain((tx1, tx2, tx3, tx4))) == BLOCKCHAIN
    assert classify(Chain((tx1, tx3, tx2, tx4))) == BLOCKCHAIN
    assert classify(Chain((tx1, tx2))) == BLOCKCHAIN
    assert classify(Chain((tx1, tx3))) == BLOCKCHAIN
    assert classify(Chain((tx3, tx4))) == CHUNK
    assert classify(Chain((tx2, tx4))) == CHUNK
    assert classify(Chain((tx2, tx1))) == NEITHER


def test_classify_single_dangling_tx():
    tx = Transaction(
        frozenset({Input(1, 1), Input(2, 2), Input(3, 3)}),
        frozenset({ref_output(4), ref_output(5)}),
    )
    assert classify(Chain((tx,))) == CHUNK


def test_classify_chunk_needs_validator_pass():
    lock = pay_to_pubkey(8)
    tx1 = Transaction(frozenset({Input(99, 0)}), frozenset({Output(A, lock)}))
    bad = Transaction(frozenset({Input(A, 1)}), frozenset())
    good = Transaction(frozenset({Input(A, 8)}), frozenset())
    assert classify(Chain((tx1, good))) == CHUNK
    assert classify(Chain((tx1, bad))) == NEITHER


def test_classify_chunk_rejects_duplicate_positions():
    tx1 = Transaction(frozenset({Input(9, 0)}), frozenset({ref_output(A)}))
    tx2 = Transaction(frozenset({Input(8, 0)}), frozenset({Output(A, ACCEPT_ALL, 3)}))
    assert classify(Chain((tx1, tx2))) == NEITHER
    # two dangling inputs at the same position: also not a chunk
    tx3 = Transaction(frozenset({Input(9, 0)}), frozenset())
    assert classify(Chain((tx1, tx3))) == NEITHER


def test_classify_applies_slot_ranges():
    """A chunk meets every blockchain condition but dangling inputs, so a
    slot outside its range makes a sequence neither."""
    genesis = Transaction(frozenset(), frozenset({ref_output(A)}), SlotRange(5, 6))
    spend = Transaction(frozenset({Input(A, 0)}), frozenset())
    assert classify(Chain((genesis, spend), (0, 1))) == NEITHER
    dangling = Transaction(frozenset({Input(A, 0), Input(99, 0)}), frozenset())
    assert classify(Chain((genesis, dangling), (0, 1))) == NEITHER
    assert classify(Chain((genesis, dangling), (5, 6))) == CHUNK


def test_slots_monotonicity_enforced_by_type():
    tx = Transaction()
    with pytest.raises(ValueError):
        Chain((tx, tx), (5, 3))
    with pytest.raises(ValueError):
        Chain((tx,), (1, 2))


def test_append_slot_rules():
    genesis = Transaction(frozenset(), frozenset({ref_output(A)}))
    chain = append(Chain(), genesis, slot=4)
    assert isinstance(chain, Chain) and chain.slots == (4,)

    behind = append(chain, Transaction(), slot=3)
    assert isinstance(behind, ValidationReport)
    assert behind.first().condition == SLOT_OUT_OF_RANGE

    with pytest.raises(ValueError):
        append(chain, Transaction())  # slotted chain needs a slot
    with pytest.raises(ValueError):
        append(Chain((genesis,)), Transaction(), slot=1)  # unslotted chain refuses one


def test_slot_range_checked_on_append():
    genesis = Transaction(frozenset(), frozenset({ref_output(A)}))
    chain = append(Chain(), genesis, slot=0)
    timed = Transaction(frozenset({Input(A, 0)}), frozenset(), SlotRange(2, 5))
    report = append(chain, timed, slot=7)
    assert isinstance(report, ValidationReport)
    assert report.first().condition == SLOT_OUT_OF_RANGE
    ok = append(chain, timed, slot=3)
    assert isinstance(ok, Chain)
    assert validate_chain(ok).valid


def test_slot_range_ignored_without_slots():
    genesis = Transaction(frozenset(), frozenset({ref_output(A)}), SlotRange(5, 9))
    chain = append(Chain(), genesis)
    assert isinstance(chain, Chain) and not chain.slotted


def test_schedule_extension_greedy():
    """Each transaction takes the earliest slot its range allows, and the
    extension stops before the first that no slot fits: the longest
    schedulable prefix and its length."""
    genesis = Transaction(frozenset(), frozenset({ref_output(A), ref_output(B)}))
    base = append(Chain(), genesis, slot=0)
    pinned = Transaction(frozenset({Input(A, 0)}), frozenset(), SlotRange(0, 0))
    late = Transaction(frozenset({Input(B, 0)}), frozenset(), SlotRange(5, None))
    chain, count = schedule_extension(base, (pinned, late))
    assert count == 2 and chain.transactions == (genesis, pinned, late) and chain.slots == (0, 0, 5)
    chain, count = schedule_extension(base, (late, pinned))
    assert count == 1 and chain.transactions == (genesis, late) and chain.slots == (0, 5)


def test_incremental_append_agrees_with_batch():
    """append-then-done equals whole-chain revalidation, on random traffic."""
    rng = random.Random(21)
    gen = ChainGen(rng)
    for _ in range(300):
        chain, alloc = gen.chain(rng.randrange(7))
        tx = gen.transaction(chain, alloc)
        if rng.random() < 0.4:
            # sabotage: random mutation so some appends fail
            tx = Transaction(
                tx.inputs | {Input(alloc.fresh() + 500, 0)} if rng.random() < 0.5 else tx.inputs,
                tx.outputs,
            )
        result = append(chain, tx)
        batch = validate_chain(Chain(chain.transactions + (tx,)))
        assert isinstance(result, Chain) == batch.valid


def test_utxo_recurrence_under_append():
    """utxo(chain;tx) = (utxo(chain) - spent-by-tx) | outputs(tx)."""
    rng = random.Random(22)
    gen = ChainGen(rng)
    for _ in range(300):
        chain, alloc = gen.chain()
        tx = gen.transaction(chain, alloc)
        result = append(chain, tx)
        if not isinstance(result, Chain):
            continue
        consumed = {inp.position for inp in tx.inputs}
        expected = frozenset(o for o in utxo(chain) if o.position not in consumed) | tx.outputs
        assert utxo(result) == expected


def test_utxo_matches_spent_scan_oracle_random():
    rng = random.Random(23)
    gen = ChainGen(rng)
    for _ in range(200):
        chain, _ = gen.chain()
        assert utxo(chain) == spent_scan_utxo(chain.transactions)
