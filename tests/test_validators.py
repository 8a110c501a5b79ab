"""Validator interpreter and the natural-number pairing codec."""

import random

import pytest

from ledgersim.model import Context, Input, Output, Transaction, Value, context_at
from ledgersim.validators import (
    ACCEPT_ALL,
    CONTEXT_READERS,
    KIND_ARITY,
    REJECT_ALL,
    STATE_MACHINE_KIND,
    ValidatorRef,
    pair,
    pay_to_pubkey,
    run_validator,
    unpair,
)


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
