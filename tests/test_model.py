"""Core type behaviour: multiset values, contexts, position bookkeeping."""

import collections
import dataclasses
import random

import pytest

from ledgersim.model import (
    ADA,
    Chip,
    Context,
    Input,
    Output,
    PositionAllocator,
    SlotRange,
    Transaction,
    Value,
    context_at,
    positions_of,
    singleton,
)
from ledgersim.validators import ACCEPT_ALL, ValidatorRef, pay_to_pubkey


def test_value_lookup_present():
    v = Value.of({Chip(1, 7): 3})
    assert v.get(Chip(1, 7)) == 3


def test_value_lookup_absent_is_zero():
    v = Value.of({Chip(1, 7): 3})
    assert v.get(ADA) == 0
    assert Value().get(Chip(5, 5)) == 0


def test_value_add_pointwise():
    c = Chip(2, 2)
    assert Value.of({c: 2}) + Value.of({c: 3}) == Value.of({c: 5})
    assert Value.of({c: 2}) + Value() == Value.of({c: 2})
    d = Chip(3, 3)
    assert Value.of({c: 1, d: 1}) + Value.of({d: 4}) == Value.of({c: 1, d: 5})


def test_singleton():
    assert singleton(Chip(2, 9), 1) == Value.of({Chip(2, 9): 1})
    assert singleton(ADA, 15).get(ADA) == 15
    with pytest.raises(ValueError):
        singleton(Chip(2, 9), 0)


def test_value_never_stores_zero():
    with pytest.raises(ValueError):
        Value(((Chip(1, 1), 0),))
    # merging to zero just drops the entry
    assert Value.of([(Chip(1, 1), 0)]) == Value()


def test_value_subtract():
    c = Chip(1, 1)
    assert Value.of({c: 5}).subtract(Value.of({c: 5})) == Value()
    assert Value.of({c: 5, ADA: 2}).subtract(Value.of({c: 1})) == Value.of({c: 4, ADA: 2})
    with pytest.raises(ValueError):
        Value.of({c: 1}).subtract(Value.of({c: 2}))


def test_value_add_properties():
    """Commutative, associative, empty identity; get distributes over add."""
    rng = random.Random(11)
    chips = [Chip(s, t) for s in range(3) for t in range(3)]

    def rand_value():
        return Value.of({c: rng.randrange(1, 5) for c in rng.sample(chips, rng.randrange(4))})

    for _ in range(500):
        v1, v2, v3 = rand_value(), rand_value(), rand_value()
        assert v1 + v2 == v2 + v1
        assert (v1 + v2) + v3 == v1 + (v2 + v3)
        assert v1 + Value() == v1
        for c in chips:
            assert (v1 + v2).get(c) == v1.get(c) + v2.get(c)
        for _, qty in v1 + v2:
            assert qty >= 1


def test_transaction_rejects_duplicate_positions():
    out = Output(1, ACCEPT_ALL)
    with pytest.raises(ValueError):
        Transaction(frozenset(), frozenset({out, Output(1, ACCEPT_ALL, 9)}))
    with pytest.raises(ValueError):
        Transaction(frozenset({Input(4, 0), Input(4, 1)}), frozenset())


def test_transaction_may_be_empty():
    tx = Transaction()
    assert not tx.inputs and not tx.outputs


def test_equal_outputs_hash_equal_through_distinct_parts():
    """An output's hash reads its validator's and its value's fields, so
    equal outputs built from distinct but equal validator and value objects
    hash equal, and unequal fields give unequal outputs."""
    rng = random.Random(5)
    chips = (ADA, Chip(1, 1), Chip(2, 1))
    for _ in range(300):
        position, key, datum = rng.randrange(4), rng.randrange(3), rng.randrange(3)
        pairs = [(chips[rng.randrange(3)], 1 + rng.randrange(3)) for _ in range(rng.randrange(3))]
        a = Output(position, ValidatorRef("PayToPubKey", (key,)), datum, Value.of(pairs))
        b = Output(position, ValidatorRef("PayToPubKey", [key]), datum, Value.of(pairs[::-1]))
        assert a.validator is not b.validator and a.value is not b.value
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    base = Output(1, pay_to_pubkey(2), 3, singleton(ADA, 4))
    for other in (
        Output(2, pay_to_pubkey(2), 3, singleton(ADA, 4)),
        Output(1, pay_to_pubkey(5), 3, singleton(ADA, 4)),
        Output(1, ACCEPT_ALL, 3, singleton(ADA, 4)),
        Output(1, pay_to_pubkey(2), 4, singleton(ADA, 4)),
        Output(1, pay_to_pubkey(2), 3, singleton(ADA, 5)),
    ):
        assert other != base and len({base, other}) == 2


def test_context_at():
    i1, i2 = Input(1, 0), Input(2, 5)
    tx = Transaction(frozenset({i1, i2}), frozenset({Output(3, ACCEPT_ALL)}))
    ctx = context_at(tx, i1)
    assert ctx.focus == i1
    assert ctx.inputs == tx.inputs
    assert ctx.outputs == tx.outputs
    solo = Transaction(frozenset({i1}), frozenset())
    assert context_at(solo, i1).focus == i1
    with pytest.raises(ValueError):
        context_at(solo, i2)


def test_context_pointedness_enforced():
    with pytest.raises(ValueError):
        Context(frozenset({Input(1, 0)}), Input(2, 0), frozenset())


def test_context_at_property():
    rng = random.Random(5)
    for _ in range(200):
        inputs = frozenset(Input(p, rng.randrange(4)) for p in rng.sample(range(20), rng.randrange(1, 5)))
        tx = Transaction(inputs, frozenset())
        for i in inputs:
            ctx = context_at(tx, i)
            assert ctx.focus == i and ctx.inputs == tx.inputs


def test_positions_of():
    tx = Transaction(frozenset({Input(1, 0)}), frozenset({Output(4, ACCEPT_ALL), Output(5, ACCEPT_ALL)}))
    assert positions_of(tx) == {1, 4, 5}
    genesis = Transaction(frozenset(), frozenset({Output(p, ACCEPT_ALL) for p in (1, 2, 3)}))
    assert positions_of(genesis) == {1, 2, 3}
    assert positions_of(Transaction()) == frozenset()


def test_slot_range():
    assert SlotRange(2, 5).contains(2) and SlotRange(2, 5).contains(5)
    assert not SlotRange(2, 5).contains(6)
    assert SlotRange(2, None).contains(10**9)
    with pytest.raises(ValueError):
        SlotRange(5, 2)


def test_position_allocator():
    alloc = PositionAllocator(10)
    assert alloc.peek() == 10
    assert alloc.fresh() == 10
    assert alloc.fresh() == 11
    assert alloc.peek() == 12
    assert PositionAllocator().fresh() == 0


def test_value_types_are_slotted():
    """Instances of the model's dataclasses and of ``ValidatorRef`` hold
    their fields and no ``__dict__``, and stay frozen."""
    tx = Transaction(frozenset({Input(1, 0)}), frozenset({Output(2, ACCEPT_ALL, 0, singleton(ADA, 1))}), SlotRange(0))
    instances = [
        singleton(ADA, 1),
        Input(1, 0),
        Output(2, ACCEPT_ALL, 0),
        SlotRange(0, 4),
        tx,
        context_at(tx, Input(1, 0)),
        pay_to_pubkey(3),
    ]
    assert {type(obj) for obj in instances} == {Value, Input, Output, SlotRange, Transaction, Context, ValidatorRef}
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, dataclasses.fields(obj)[0].name, None)


def test_value_of_accepts_mappings_and_pair_iterables():
    pairs = [(Chip(1, 1), 2), (ADA, 3), ((1, 1), 4)]
    expected = Value(((ADA, 3), (Chip(1, 1), 6)))
    merged = {ADA: 3, Chip(1, 1): 6}
    assert Value.of(merged) == expected
    assert Value.of(collections.Counter(merged)) == expected
    assert Value.of(pairs) == expected
    assert Value.of(pair for pair in pairs) == expected
    assert Value.of({ADA: 0}) == Value.of(()) == Value()
