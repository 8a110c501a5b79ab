"""The ledger index against the naive definitions in ``oracles.py``.

Sequences are drawn from a small position space, so duplicate positions,
dangling and forward inputs, double spends and validator rejections are all
common; the indexed queries must agree with the from-scratch ones on all of
them, on chains built whole, grown at the tip, and branched.
"""

import random
from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, multiple, rule

import oracles
from ledgersim.equivalence import spent_edges
from ledgersim.gen import ChainGen, spendable
from ledgersim.ledger import (
    POLICY_VIOLATION,
    VALIDATOR_REJECTED,
    Chain,
    LedgerIndex,
    MalformedChainError,
    ValidationReport,
    append,
    classify,
    utxo,
    validate_chain,
)
from ledgersim.model import ADA, Chip, Input, Output, PositionAllocator, SlotRange, Transaction, Value, singleton
from ledgersim.policy import AFFINE_ONCE, FORBID_FORGE, PolicyTable, circulating, forged
from ledgersim.token_portal import NoPortalError, TokenConfig, find_portal
from ledgersim.validators import ACCEPT_ALL, REJECT_ALL, pay_to_pubkey

POSITIONS = 16
CHIPS = (ADA, Chip(1, 1), Chip(2, 1), Chip(5, 1))
VALIDATORS = (ACCEPT_ALL, ACCEPT_ALL, REJECT_ALL, pay_to_pubkey(1), pay_to_pubkey(2))
POLICIES = PolicyTable.of({2: AFFINE_ONCE, 5: FORBID_FORGE})
PORTAL = TokenConfig(issuer=1, traded_chip=Chip(1, 1), state_chip=Chip(2, 1))


def random_output(rng, position):
    value = Value.of([(CHIPS[rng.randrange(len(CHIPS))], 1 + rng.randrange(2)) for _ in range(rng.randrange(3))])
    return Output(position, VALIDATORS[rng.randrange(len(VALIDATORS))], rng.randrange(3), value)


def random_tx(rng, txs):
    """A transaction on top of ``txs``: its inputs mostly name unspent outputs
    (with a redeemer that often unlocks them), sometimes any position; its
    outputs land anywhere in the position space."""
    unspent = sorted(out.position for out in oracles.utxo(txs))
    inputs = set()
    for _ in range(rng.randrange(3)):
        if unspent and rng.random() < 0.7:
            inputs.add(rng.choice(unspent))
        else:
            inputs.add(rng.randrange(POSITIONS))
    outputs = rng.sample(range(POSITIONS), rng.randrange(3))
    slot_range = SlotRange(rng.randrange(3), None if rng.random() < 0.5 else 3 + rng.randrange(3))
    return Transaction(
        frozenset(Input(p, rng.randrange(3)) for p in inputs),
        frozenset(random_output(rng, p) for p in outputs),
        slot_range if rng.random() < 0.3 else None,
    )


def random_sequence(rng):
    txs = []
    for _ in range(rng.randrange(10)):
        txs.append(random_tx(rng, txs))
    slots = None
    if txs and rng.random() < 0.3:
        slots, slot = [], 0
        for _ in txs:
            slot += rng.randrange(2)
            slots.append(slot)
    return tuple(txs), slots


def outcome(fn, *args):
    """What a call returns or raises, for comparing two implementations."""
    try:
        return ("returned", fn(*args))
    except (MalformedChainError, NoPortalError, KeyError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


def oracle_find_portal(txs, cfg):
    carriers = oracles.find_carriers(txs, cfg.state_chip)
    if not carriers:
        raise NoPortalError("no unspent output carries the state chip")
    if len(carriers) > 1:
        raise MalformedChainError("state chip appears in more than one unspent output")
    return carriers[0]


def oracle_forge(txs, tx):
    """``forged``'s map from the per-symbol oracle, over every symbol the
    transaction or the outputs its inputs resolve to mention."""
    mentioned = set()
    for out in tx.outputs:
        mentioned |= out.value.symbols()
    for inp in tx.inputs:
        out = oracles.first_output(txs, inp.position)
        if out is None:
            raise MalformedChainError(f"input at {inp.position} does not resolve in the chain")
        mentioned |= out.value.symbols()
    forge = {symbol: oracles.forged(txs, tx, symbol) for symbol in mentioned}
    return {symbol: delta for symbol, delta in forge.items() if delta}


def assert_index_queries_match(chain):
    """Every query that reads ``chain``'s cached index agrees with the
    oracles; none of them replaces the index."""
    txs = chain.transactions
    assert utxo(chain) == oracles.utxo(txs)
    index, (spent, mentioned) = chain.index(), oracles.positions(txs)
    assert index.spent == spent
    assert index.output.keys() | index.spent == mentioned
    for symbol in (0, 1, 2, 5):
        assert circulating(chain.index(), symbol) == oracles.circulating(txs, symbol)
    assert outcome(find_portal, chain, PORTAL) == outcome(oracle_find_portal, txs, PORTAL)
    if oracles.validate(txs, chain.slots).valid:
        assert spent_edges(chain) == oracles.spent_edges(txs)
        assert spendable(chain) == oracles.spendable(txs)


def test_queries_match_oracles_on_random_sequences():
    rng = random.Random(41)
    valid = 0
    for _ in range(600):
        txs, slots = random_sequence(rng)
        chain = Chain(txs, slots)
        assert_index_queries_match(chain)
        expected = oracles.validate(txs, slots)
        valid += expected.valid
        assert validate_chain(chain) == expected
        assert outcome(validate_chain, Chain(txs, slots), POLICIES) == outcome(oracles.validate, txs, slots, POLICIES)
        assert utxo(Chain(txs)) == oracles.utxo(txs)
        assert classify(Chain(txs)) == oracles.classify(txs)
        assert classify(Chain(txs, slots)) == oracles.classify(txs, slots)
        tx = random_tx(rng, txs)
        assert outcome(forged, Chain(txs).index(), tx) == outcome(oracle_forge, txs, tx)
    assert 0 < valid < 600  # both kinds were drawn


def test_symbol_tables_match_oracles_as_the_index_grows():
    """Per-symbol tables first asked for at a random prefix of a valid or
    invalid sequence, then kept by ``absorb``: after every later transaction
    each table's carriers, shadowed outputs included, and ``circulating``
    equal the naive scans.  Before the first query the index holds no
    table."""
    rng = random.Random(44)
    valid = shadowed = 0
    for _ in range(600):
        txs, slots = random_sequence(rng)
        asked = rng.randrange(len(txs) + 1)
        index = LedgerIndex()
        for at in range(len(txs) + 1):
            if at < asked:
                assert not index.by_symbol
            else:
                for symbol in (0, 1, 2, 5):
                    assert Counter(index.carriers(symbol)) == Counter(oracles.symbol_carriers(txs[:at], symbol))
                    assert circulating(index, symbol) == oracles.circulating(txs[:at], symbol)
                assert Counter(index.unspent_outputs()) == Counter(oracles.unspent_scan(txs[:at]))
                shadowed += bool(index.shadowed)
            if at < len(txs):
                index.absorb(txs[at], None if slots is None else slots[at])
        valid += oracles.validate(txs, slots).valid
    assert 0 < valid < 600  # both kinds were drawn
    assert shadowed  # and some tables were read with shadowed outputs


def test_unqueried_chains_hold_no_symbol_table():
    """Building, validating and appending never build a per-symbol table, so
    an index nobody asks by symbol pays one falsy check per transaction."""
    gen = ChainGen(random.Random(45))
    chain, alloc = gen.chain(length=12)
    assert not LedgerIndex.of(chain.transactions).by_symbol
    assert validate_chain(chain).valid and not chain.index().by_symbol
    grown = append(chain, gen.transaction(chain, alloc))
    assert isinstance(grown, Chain) and not grown.index().by_symbol
    utxo(grown)
    assert not grown.index().by_symbol


def test_tip_appends_match_from_scratch_check():
    rng = random.Random(42)
    for walk in range(60):
        slotted = walk % 3 == 0
        policies = POLICIES if walk % 2 else None
        chain = Chain()
        for _ in range(40):
            tx = random_tx(rng, chain.transactions)
            slot = None
            if slotted:
                slot = max(0, (chain.last_slot() or 0) + rng.randrange(-1, 3))
            expected = oracles.append_report(chain.transactions, chain.slots, tx, slot, policies)
            result = append(chain, tx, slot, policies)
            if expected.valid:
                assert isinstance(result, Chain)
                assert result.transactions == chain.transactions + (tx,)
                chain = result
            else:
                assert result == expected
            assert_index_queries_match(chain)


def test_branching_histories():
    rng = random.Random(43)
    gen = ChainGen(rng, reject_all_prob=0.3)
    for _ in range(80):
        parent, alloc = gen.chain(length=4 + rng.randrange(8))
        assert_index_queries_match(parent)
        # two children of one parent: the second append finds the index
        # already handed to the first child
        first = append(parent, gen.transaction(parent, alloc))
        second = append(parent, gen.transaction(parent, alloc))
        third = append(first, gen.transaction(first, alloc))
        for chain in (first, second, third, parent):
            assert isinstance(chain, Chain)
            assert oracles.validate(chain.transactions).valid
            assert_index_queries_match(chain)
        # a prefix of an indexed chain
        cut = parent.prefix(rng.randrange(len(parent) + 1))
        grown, _ = gen.grow(cut, 3, alloc)
        assert_index_queries_match(grown)
        assert_index_queries_match(cut)
        assert_index_queries_match(parent)


def test_rejected_appends_leave_the_parent_intact():
    alloc = PositionAllocator()
    locked = Output(alloc.fresh(), REJECT_ALL, 0, singleton(ADA, 3))
    open_ = Output(alloc.fresh(), ACCEPT_ALL, 0, singleton(ADA, 1))
    chip = Output(alloc.fresh(), ACCEPT_ALL, 0, singleton(Chip(2, 1), 1))
    parent = append(Chain(), Transaction(frozenset(), frozenset({locked, open_, chip})), None, POLICIES)
    assert isinstance(parent, Chain)
    assert_index_queries_match(parent)

    spend_locked = Transaction(frozenset({Input(locked.position, 0)}), frozenset())
    report = append(parent, spend_locked, None, POLICIES)
    assert isinstance(report, ValidationReport) and report.first().condition == VALIDATOR_REJECTED
    assert_index_queries_match(parent)

    rogue = Transaction(frozenset(), frozenset({Output(alloc.fresh(), ACCEPT_ALL, 0, singleton(Chip(2, 1), 1))}))
    report = append(parent, rogue, None, POLICIES)
    assert isinstance(report, ValidationReport) and report.first().condition == POLICY_VIOLATION
    assert report == oracles.append_report(parent.transactions, None, rogue, None, POLICIES)
    assert_index_queries_match(parent)

    spend_open = Transaction(frozenset({Input(open_.position, 0)}), frozenset({Output(alloc.fresh(), ACCEPT_ALL)}))
    child = append(parent, spend_open, None, POLICIES)
    assert isinstance(child, Chain)
    assert_index_queries_match(child)
    assert_index_queries_match(parent)


def test_grow_matches_stepwise_spendable():
    """grow keeps its spendable pool incrementally; drawing from a pool
    recomputed at every step must give the same transactions."""
    for seed in range(40):
        slotted = seed % 2 == 1
        base, alloc = ChainGen(random.Random(seed), slotted=slotted).chain(length=seed % 7)
        grown, added = ChainGen(random.Random(1000 + seed), slotted=slotted).grow(base, 12, PositionAllocator(alloc.peek()))

        gen = ChainGen(random.Random(1000 + seed), slotted=slotted)
        stepwise_alloc = PositionAllocator(alloc.peek())
        chain = base
        for _ in range(12):
            slot = gen.next_slot(chain) if slotted else None
            tx = gen.transaction(chain, stepwise_alloc, oracles.spendable(chain.transactions), slot)
            chain = append(chain, tx, slot)
        assert chain == grown
        assert list(chain.transactions[len(base) :]) == added


def test_tip_append_builds_the_index_at_most_once(monkeypatch):
    """Growing a chain at its tip never rebuilds its index, not even after
    rejected appends: appending stays O(|inputs| + |outputs|) in the index."""
    builds = []
    absorbed = []
    build, absorb = LedgerIndex.of.__func__, LedgerIndex.absorb

    def counting_build(cls, txs, slots=None):
        builds.append(len(txs))
        return build(cls, txs, slots)

    def counting_absorb(self, tx, slot=None):
        absorbed.append(1)
        return absorb(self, tx, slot)

    monkeypatch.setattr(LedgerIndex, "of", classmethod(counting_build))
    monkeypatch.setattr(LedgerIndex, "absorb", counting_absorb)
    state_chip = singleton(Chip(2, 1), 1)
    chain = Chain()
    for i in range(3_000):
        created = {Output(2 * i, ACCEPT_ALL), Output(2 * i + 1, REJECT_ALL, 0, state_chip if i == 0 else Value())}
        spent = frozenset() if i == 0 else frozenset({Input(2 * i - 2, 0)})
        if i % 50 == 49:
            locked = Transaction(frozenset({Input(2 * i - 1, 0)}), frozenset())
            assert append(chain, locked, None, POLICIES).first().condition == VALIDATOR_REJECTED
            rogue = Transaction(frozenset(), frozenset({Output(10**6 + i, ACCEPT_ALL, 0, state_chip)}))
            assert append(chain, rogue, None, POLICIES).first().condition == POLICY_VIOLATION
        chain = append(chain, Transaction(spent, frozenset(created)), None, POLICIES)
        assert isinstance(chain, Chain)
    assert len(builds) <= 1
    assert len(absorbed) <= len(chain)
    assert utxo(chain) == oracles.utxo(chain.transactions)


class ChainHistories(RuleBasedStateMachine):
    """Chains grown, branched and cut in any order: every chain built from
    ``Chain()`` by appends and prefixes stays valid, and its index-backed
    answers match the oracles whichever chain last handed its index on."""

    chains = Bundle("chains")

    @initialize(target=chains)
    def empty(self):
        return Chain()

    @rule(target=chains, chain=chains, seed=st.integers(0, 2**32 - 1), policed=st.booleans())
    def append_tx(self, chain, seed, policed):
        policies = POLICIES if policed else None
        tx = random_tx(random.Random(seed), chain.transactions)
        expected = oracles.append_report(chain.transactions, None, tx, None, policies)
        result = append(chain, tx, None, policies)
        if not expected.valid:
            assert result == expected
            return multiple()
        assert isinstance(result, Chain) and result.transactions == chain.transactions + (tx,)
        return result

    @rule(target=chains, chain=chains, data=st.data())
    def cut(self, chain, data):
        return chain.prefix(data.draw(st.integers(0, len(chain))))

    @rule(chain=chains)
    def answers_match(self, chain):
        assert oracles.validate(chain.transactions).valid
        assert_index_queries_match(chain)


ChainHistories.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None, database=None, derandomize=True
)
test_chain_histories = ChainHistories.TestCase
