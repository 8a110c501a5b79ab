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
    SLOT_OUT_OF_RANGE,
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
from ledgersim.model import (
    ADA,
    Chip,
    Input,
    Output,
    PositionAllocator,
    SlotRange,
    Transaction,
    Value,
    context_at,
    singleton,
)
from ledgersim.policy import AFFINE_ONCE, FORBID_FORGE, PolicyTable, circulating, forged
from ledgersim.token_portal import (
    InsufficientSupply,
    NoPortalError,
    TokenConfig,
    build_buy_tx,
    build_set_price_tx,
    decode_action,
    encode_set_price,
    find_portal,
    init_portal,
)
from ledgersim.validators import (
    ACCEPT_ALL,
    PAY_TO_PUBKEY_KIND,
    REJECT_ALL,
    STATE_MACHINE_KIND,
    ValidatorRef,
    pay_to_pubkey,
)

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


def random_sequence(rng, draw=random_tx):
    txs = []
    for _ in range(rng.randrange(10)):
        txs.append(draw(rng, txs))
    slots = None
    if txs and rng.random() < 0.3:
        slots, slot = [], 0
        for _ in txs:
            slot += rng.randrange(2)
            slots.append(slot)
    return tuple(txs), slots


def portal_output(rng, position):
    """An output the portal's validator locks: mostly a portal, the state
    chip plus some supply at some price; sometimes one without the state
    chip, or one whose parameters name no portal."""
    roll = rng.random()
    validator = PORTAL.validator() if roll < 0.9 else ValidatorRef(STATE_MACHINE_KIND, (1, 1, 1, 1, 1))
    chips = {PORTAL.traded_chip: 1 + rng.randrange(6)}
    if roll < 0.8:
        chips[PORTAL.state_chip] = 1
    return Output(position, validator, rng.randrange(4), Value.of(chips))


def tamper(rng, tx):
    """A portal transaction changed in one place: another redeemer or
    signing key, one output fewer, another datum, one more ada, or a second
    output carrying the state chip."""
    inputs, outputs = tx.sorted_inputs(), tx.sorted_outputs()
    roll = rng.randrange(6)
    if roll == 0:
        inputs = [Input(inp.position, rng.randrange(12)) for inp in inputs]
    elif roll == 1:
        inputs = [Input(inp.position, encode_set_price(rng.randrange(5), 2)) for inp in inputs]
    elif roll == 2:
        outputs.pop(rng.randrange(len(outputs)))
    elif roll in (3, 4):
        at = rng.randrange(len(outputs))
        out = outputs[at]
        datum, value = (out.datum + 1, out.value) if roll == 3 else (out.datum, out.value + singleton(ADA, 1))
        outputs[at] = Output(out.position, out.validator, datum, value)
    else:
        outputs.append(Output(outputs[-1].position + 1, ACCEPT_ALL, 0, singleton(PORTAL.state_chip, 1)))
    return Transaction(frozenset(inputs), frozenset(outputs))


def portal_tx(rng, txs):
    """A transaction on top of ``txs`` that mostly spends a portal: a buy or
    a price change from the off-chain builders, often tampered with, or a
    spend of any output the portal's validator locks with any redeemer.
    Otherwise a new portal-locked output (always when no portal is left),
    or ``random_tx``'s kind.  Positions are mostly fresh."""
    fresh = max(oracles.positions(txs)[1], default=-1) + 1
    alloc = PositionAllocator(fresh if rng.random() < 0.9 else rng.randrange(POSITIONS))
    roll = rng.random()
    if roll < 0.1 or not oracles.find_carriers(txs, PORTAL.state_chip):
        return Transaction(frozenset(), frozenset({portal_output(rng, alloc.fresh())}))
    if roll < 0.2:
        return random_tx(rng, txs)
    locked = sorted(out.position for out in oracles.utxo(txs) if out.validator.kind == STATE_MACHINE_KIND)
    if roll < 0.3 and locked:
        outputs = frozenset(portal_output(rng, alloc.fresh()) for _ in range(rng.randrange(3)))
        return Transaction(frozenset({Input(rng.choice(locked), rng.randrange(12))}), outputs)
    try:
        if rng.random() < 0.55:
            tx = build_buy_tx(Chain(txs), PORTAL, rng.choice((7, 8)), 1 + rng.randrange(3), alloc)
        else:
            tx = build_set_price_tx(Chain(txs), PORTAL, rng.randrange(5), alloc)
    except (NoPortalError, MalformedChainError, InsufficientSupply):
        return random_tx(rng, txs)
    return tamper(rng, tx) if rng.random() < 0.35 else tx


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


def test_fork_trees_match_chains_built_whole():
    """Chains grown by appending to randomly chosen earlier chains, tips and
    parents that already have a child alike, slotted and unslotted, with
    rejected appends mixed in (validator, slot below the tip, policy): every
    append reports what the from-scratch check does, and every chain reads,
    once the whole tree is grown, as ``Chain(txs, slots)`` of its own
    tuples."""
    rng = random.Random(47)
    forks = Counter()
    rejected = Counter()
    for tree in range(60):
        slotted = tree % 2 == 1
        policies = POLICIES if tree % 3 else None
        txs, slots = random_sequence(rng) if tree % 4 == 0 else ((), None)
        slots = None if slots is None or not slotted else tuple(slots)
        nodes = [(Chain(txs, slots), txs, slots)]
        children = Counter()
        for _ in range(50):
            at = rng.randrange(len(nodes))
            chain, txs, slots = nodes[at]
            assert len(chain) == len(txs) and chain.last_slot() == (slots[-1] if slots else None)
            tx = random_tx(rng, txs)
            slot = None
            if slotted and (slots or not txs):
                slot = max(0, (slots[-1] if slots else 0) + rng.randrange(-1, 3))
            expected = oracles.append_report(txs, slots, tx, slot, policies)
            result = append(chain, tx, slot, policies)
            if not expected.valid:
                assert result == expected
                rejected[expected.first().condition] += 1
                continue
            assert isinstance(result, Chain)
            forks[children[at] > 0] += 1
            children[at] += 1
            nodes.append((result, txs + (tx,), None if slot is None else (slots or ()) + (slot,)))
        for chain, txs, slots in nodes:
            whole = Chain(txs, slots)
            assert chain.transactions == whole.transactions and chain.slots == whole.slots
            assert len(chain) == len(whole) and chain.slotted == whole.slotted
            assert chain.last_slot() == whole.last_slot() and list(chain) == list(txs)
            assert chain == whole and hash(chain) == hash(whole) and repr(chain) == repr(whole)
            cut = rng.randrange(len(txs) + 1)
            assert chain.prefix(cut) == Chain(txs[:cut], slots and slots[:cut])
    assert forks[True] and forks[False]  # both tip appends and forks were drawn
    assert {VALIDATOR_REJECTED, SLOT_OUT_OF_RANGE, POLICY_VIOLATION} <= rejected.keys()


def test_tip_appends_share_the_parents_log():
    """A tip append leaves its parent's transactions and slots as they were;
    a second child of the same parent does not change the first; a rejected
    append pushes nothing onto the shared log, so the parent still takes a
    tip append after it."""
    genesis = Transaction(frozenset(), frozenset({Output(0, ACCEPT_ALL), Output(1, REJECT_ALL)}))

    def spend(position, made):
        return Transaction(frozenset({Input(position, 0)}), frozenset({Output(made, ACCEPT_ALL)}))

    built = (genesis,)
    base = Chain(built, (0,))
    assert base.transactions is built  # the constructor's tuple is the log
    parent = append(base, spend(0, 2), 1)
    child = append(parent, spend(2, 3), 2)
    assert isinstance(child, Chain) and child._log is parent._log
    assert parent.transactions == (genesis, spend(0, 2)) and parent.slots == (0, 1)
    assert len(parent) == 2 and parent.last_slot() == 1
    assert base.transactions == (genesis,) and base.slots == (0,)

    second = append(parent, spend(2, 4), 5)  # a fork: parent already has a child
    assert isinstance(second, Chain) and second._log is not parent._log
    assert child.transactions == (genesis, spend(0, 2), spend(2, 3)) and child.slots == (0, 1, 2)
    assert second.transactions == (genesis, spend(0, 2), spend(2, 4)) and second.slots == (0, 1, 5)
    assert parent.transactions == (genesis, spend(0, 2)) and parent.slots == (0, 1)

    below_tip = append(child, spend(3, 5), 1)
    locked = append(child, spend(1, 5), 2)
    assert below_tip.first().condition == SLOT_OUT_OF_RANGE and locked.first().condition == VALIDATOR_REJECTED
    grandchild = append(child, spend(3, 5), 2)
    assert isinstance(grandchild, Chain) and grandchild._log is child._log
    assert len(child._log) == len(grandchild) == 4
    assert grandchild == Chain(child.transactions + (spend(3, 5),), (0, 1, 2, 2))


def test_portal_spends_match_oracles_on_random_sequences():
    """Sequences that create portals, buy from them, reprice them and spend
    them with tampered transactions, so that ``StateMachine`` validators,
    the kind that reads its context, accept and reject spends:
    ``validate_chain``, ``classify`` and the ``append`` of each step agree
    with the oracles, which build a context for every spend."""
    rng = random.Random(48)
    verdicts = Counter()
    for _ in range(400):
        txs, slots = random_sequence(rng, portal_tx)
        assert validate_chain(Chain(txs, slots)) == oracles.validate(txs, slots)
        assert outcome(validate_chain, Chain(txs, slots), POLICIES) == outcome(oracles.validate, txs, slots, POLICIES)
        assert classify(Chain(txs, slots)) == oracles.classify(txs, slots)
        chain = Chain()
        for at, tx in enumerate(txs):
            slot = None if slots is None else slots[at]
            expected = oracles.append_report(txs[:at], slots and slots[:at], tx, slot, POLICIES)
            result = append(chain, tx, slot, POLICIES)
            if expected.valid:
                assert isinstance(result, Chain) and result.transactions == txs[: at + 1]
                chain = result
            else:
                assert result == expected
                chain = Chain(txs[: at + 1], slots and slots[: at + 1])
            for inp in tx.inputs:
                out = oracles.first_output(txs[:at], inp.position)
                if out is not None and out.validator.kind == STATE_MACHINE_KIND:
                    action = type(decode_action(inp.redeemer)).__name__
                    verdicts[action, expected.valid or expected.first().condition] += 1
    assert verdicts["Buy", True] and verdicts["SetPrice", True]  # valid buys and price changes
    assert verdicts["Buy", VALIDATOR_REJECTED] and verdicts["SetPrice", VALIDATOR_REJECTED]
    assert verdicts["NoneType", VALIDATOR_REJECTED]  # redeemers naming no action


def test_contexts_are_built_for_context_readers_only(monkeypatch):
    """``validate_chain`` and ``append`` build one ``Context`` per spend of a
    ``StateMachine`` output, accepted or rejected, and none for a spend of
    any other kind: none at all over a ``ChainGen`` chain."""
    built = []

    def counting_context_at(tx, focus):
        built.append(focus.position)
        return context_at(tx, focus)

    monkeypatch.setattr("ledgersim.ledger.context_at", counting_context_at)
    rng = random.Random(49)
    alloc = PositionAllocator()
    chain = append(Chain(), init_portal(PORTAL, 2_000, 2, alloc), None, POLICIES)
    rejected = 0
    for _ in range(300):
        roll, before = rng.random(), len(built)
        if roll < 0.4:
            tx = build_buy_tx(chain, PORTAL, rng.choice((7, 8)), 1 + rng.randrange(3), alloc)
        elif roll < 0.6:
            tx = build_set_price_tx(chain, PORTAL, rng.randrange(5), alloc)
        elif roll < 0.7:  # signed by a key other than the issuer's
            portal = find_portal(chain, PORTAL)
            successor = Output(alloc.fresh(), PORTAL.validator(), 3, portal.value)
            tx = Transaction(frozenset({Input(portal.position, encode_set_price(3, 2))}), frozenset({successor}))
        else:  # a transfer of some pay-to-key output
            keyed = sorted((out for out in utxo(chain) if out.validator.kind == PAY_TO_PUBKEY_KIND), key=lambda o: o.position)
            victim = rng.choice(keyed)
            moved = Output(alloc.fresh(), pay_to_pubkey(rng.choice((7, 8))), 0, victim.value)
            tx = Transaction(frozenset({Input(victim.position, victim.validator.params[0])}), frozenset({moved}))
        result = append(chain, tx, None, POLICIES)
        assert len(built) - before == (roll < 0.7)
        if isinstance(result, Chain):
            chain = result
        else:
            assert 0.6 <= roll < 0.7 and result.first().condition == VALIDATOR_REJECTED
            rejected += 1
    locked = {out.position for tx in chain for out in tx.outputs if out.validator.kind == STATE_MACHINE_KIND}
    spent = sorted(inp.position for tx in chain for inp in tx.inputs if inp.position in locked)
    assert rejected and len(spent) + rejected == len(built)
    built.clear()
    assert validate_chain(Chain(chain.transactions), POLICIES).valid
    assert sorted(built) == spent

    built.clear()
    gen = ChainGen(random.Random(50))
    generated, gen_alloc = gen.chain(length=200)
    assert validate_chain(Chain(generated.transactions)).valid
    grown, _ = gen.grow(generated, 100, gen_alloc)
    assert sum(len(tx.inputs) for tx in grown) > 100 and built == []


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
