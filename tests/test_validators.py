"""Validator interpreter and the natural-number pairing codec."""

import random

import pytest

from ledgersim.ledger import VALIDATOR_REJECTED, Chain, Violation, validate_chain
from ledgersim.model import (
    ACCEPT_ALL,
    KIND_ARITY,
    REJECT_ALL,
    STATE_MACHINE_KIND,
    Chip,
    Context,
    Input,
    Output,
    PositionAllocator,
    Transaction,
    ValidatorRef,
    Value,
    context_at,
    pay_to_pubkey,
)
from ledgersim.token_portal import TokenConfig, build_buy_tx, encode_buy, init_portal, pair, transition_check, unpair
from ledgersim.validators import CONTEXT_READERS, _portal, run_validator


def _ctx() -> Context:
    i = Input(1, 0)
    return context_at(Transaction(frozenset({i}), frozenset()), i)


def test_accept_and_reject():
    ctx = _ctx()
    assert run_validator(ACCEPT_ALL, 0, 0, Value(), ctx)
    assert run_validator(ACCEPT_ALL, 999, 7, Value(), ctx)
    assert not run_validator(REJECT_ALL, 0, 0, Value(), ctx)


def test_pay_to_pubkey_signature_simulation():
    ctx = _ctx()
    lock = pay_to_pubkey(42)
    assert run_validator(lock, 42, 0, Value(), ctx)
    assert not run_validator(lock, 7, 0, Value(), ctx)


def test_determinism():
    ctx = _ctx()
    lock = pay_to_pubkey(3)
    verdicts = {run_validator(lock, 3, 1, Value(), ctx) for _ in range(10)}
    assert verdicts == {True}


def test_only_context_readers_need_a_context():
    """A kind outside ``CONTEXT_READERS`` decides the same with no context;
    a context reader given None raises TypeError naming its kind, before it
    reads its parameters."""
    assert CONTEXT_READERS == {STATE_MACHINE_KIND}
    ctx = _ctx()
    for kind, arity in KIND_ARITY.items():
        refs = [ValidatorRef(kind, tuple(range(1, arity + 1))), ValidatorRef(kind, (1,) * arity)]
        for ref in refs:
            for redeemer in (0, 1, 2):
                if kind in CONTEXT_READERS:
                    with pytest.raises(TypeError, match=kind):
                        run_validator(ref, redeemer, 0, Value(), None)
                else:
                    assert run_validator(ref, redeemer, 0, Value(), None) == run_validator(ref, redeemer, 0, Value(), ctx)


def test_validator_ref_arity_checked():
    with pytest.raises(ValueError):
        ValidatorRef("PayToPubKey", ())
    with pytest.raises(ValueError):
        ValidatorRef("AcceptAll", (1,))
    with pytest.raises(ValueError):
        ValidatorRef("NoSuchKind", ())


def test_pairing_round_trip():
    rng = random.Random(3)
    for _ in range(2000):
        a, b = rng.randrange(10**6), rng.randrange(10**6)
        assert unpair(pair(a, b)) == (a, b)


def test_pairing_injective_small():
    seen = {}
    for a in range(40):
        for b in range(40):
            z = pair(a, b)
            assert z not in seen
            seen[z] = (a, b)


def _uncached_verdict(out: Output, inp: Input, tx: Transaction) -> bool:
    """A ``StateMachine`` spend judged with its parameters decoded afresh."""
    try:
        cfg = TokenConfig.from_params(out.validator.params)
    except ValueError:
        return False
    return transition_check(cfg, inp.redeemer, out.datum, out.value, context_at(tx, inp))


def test_portal_decoding_is_cached_within_bounds():
    """A chain naming 1,000 distinct portals, each bought from once at its
    creation and once more after every other portal has been bought from,
    a fifth of the buys with a redeemer that asks for too much, plus spends
    of ``StateMachine`` outputs whose parameters name no portal:
    ``validate_chain`` gives every spend the verdict of an uncached
    ``TokenConfig.from_params``, and the decode cache holds at most 256
    portals."""
    alloc = PositionAllocator()
    txs, later = [], []
    for i in range(1_000):
        cfg = TokenConfig(1 + i % 7, Chip(10 + i, 1), Chip(2_000 + i, 1))
        genesis = init_portal(cfg, 10, i % 4, alloc)
        first = build_buy_tx(Chain((genesis,)), cfg, 7, 1, alloc)
        if i % 5 == 0:
            first = Transaction(frozenset(Input(inp.position, encode_buy(2)) for inp in first.inputs), first.outputs)
        txs += (genesis, first)
        later.append(build_buy_tx(Chain((genesis, first)), cfg, 8, 2, alloc))
    txs += later
    for params in ((1, 3, 1, 3, 1), (1, 0, 0, 2, 1), (1, 3, 1, 0, 0)):  # state chip = traded chip, or ada
        locked = Output(alloc.fresh(), ValidatorRef(STATE_MACHINE_KIND, params), 1, Value.of({Chip(3, 1): 1}))
        txs += (
            Transaction(frozenset(), frozenset({locked})),
            Transaction(frozenset({Input(locked.position, encode_buy(1))}), frozenset({Output(alloc.fresh(), ACCEPT_ALL)})),
        )
    resolved = {out.position: out for tx in txs for out in tx.outputs}
    expected = [
        Violation(at, VALIDATOR_REJECTED, f"validator {STATE_MACHINE_KIND} rejected input at {inp.position}")
        for at, tx in enumerate(txs)
        for inp in tx.inputs
        if not _uncached_verdict(resolved[inp.position], inp, tx)
    ]
    assert len(expected) == 200 + 3  # the tampered buys and the spends of no portal
    _portal.cache_clear()
    for _ in range(2):
        assert validate_chain(Chain(txs)).violations == tuple(expected)
    info = _portal.cache_info()
    assert info.maxsize == 256 and info.currsize == 256 and info.misses > 2_000
