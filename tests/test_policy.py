"""Forging deltas and the per-symbol policy rules."""

import pytest

from ledgersim.ledger import Chain, append
from ledgersim.model import ACCEPT_ALL, Chip, Input, MalformedChainError, Output, Transaction, Value, singleton
from ledgersim.policy import (
    AFFINE_ONCE,
    FORBID_FORGE,
    FREE_FORGE,
    Policy,
    PolicyTable,
    circulating,
    forged,
    policy_violation,
)

STATE = Chip(5, 1)


def _genesis(value: Value, position: int = 1) -> Transaction:
    return Transaction(frozenset(), frozenset({Output(position, ACCEPT_ALL, 0, value)}))


def test_forged_genesis_mint():
    tx = _genesis(singleton(STATE, 100))
    assert forged(Chain().index(), tx) == {5: 100}


def test_forged_conservation():
    chain = Chain((_genesis(singleton(STATE, 3)),))
    carry = Transaction(frozenset({Input(1, 0)}), frozenset({Output(2, ACCEPT_ALL, 0, singleton(STATE, 3))}))
    assert forged(chain.index(), carry) == {}


def test_forged_burn():
    chain = Chain((_genesis(singleton(STATE, 3)),))
    burn = Transaction(frozenset({Input(1, 0)}), frozenset({Output(2, ACCEPT_ALL, 0, singleton(STATE, 1))}))
    assert forged(chain.index(), burn) == {5: -2}


def test_forged_unresolved_input_raises():
    with pytest.raises(MalformedChainError):
        forged(Chain().index(), Transaction(frozenset({Input(9, 0)}), frozenset()))


def _mint_burn_carry() -> tuple[Chain, Transaction]:
    """A chain holding 3 of chip 6:1 and 2 of 7:1 at position 1, and a
    transaction spending them that mints one state chip, burns one 6:1 and
    carries the two 7:1 over."""
    chain = Chain((_genesis(Value.of({Chip(6, 1): 3, Chip(7, 1): 2})),))
    out = Output(2, ACCEPT_ALL, 0, Value.of({STATE: 1, Chip(6, 1): 2, Chip(7, 1): 2}))
    return chain, Transaction(frozenset({Input(1, 0)}), frozenset({out}))


def test_forged_maps_only_the_symbols_forged_or_burned():
    chain, tx = _mint_burn_carry()
    assert forged(chain.index(), tx) == {5: 1, 6: -1}


def test_policy_check_reads_the_forge_once(monkeypatch):
    """One policy-checked append computes the transaction's forge once,
    however many symbols it touches."""
    from ledgersim import policy

    calls = []
    monkeypatch.setattr(policy, "forged", lambda *args: calls.append(args) or forged(*args))
    chain, tx = _mint_burn_carry()
    table = PolicyTable.of({5: AFFINE_ONCE, 7: FORBID_FORGE})
    assert isinstance(append(chain, tx, policies=table), Chain)
    assert len(calls) == 1


def test_affine_once_rules():
    table = PolicyTable((Policy(5, AFFINE_ONCE),))
    mint_one = _genesis(singleton(STATE, 1))
    assert policy_violation(table, Chain().index(), mint_one) is None

    chain = append(Chain(), mint_one, policies=table)
    assert isinstance(chain, Chain)
    second = _genesis(singleton(STATE, 1), position=2)
    assert policy_violation(table, chain.index(), second) is not None

    burn = Transaction(frozenset({Input(1, 0)}), frozenset())
    assert policy_violation(table, chain.index(), burn) is not None
    assert "burn" in policy_violation(table, chain.index(), burn)

    mint_two = _genesis(singleton(STATE, 2), position=3)
    assert policy_violation(table, Chain().index(), mint_two) is not None


def test_affine_once_allows_carrying():
    table = PolicyTable((Policy(5, AFFINE_ONCE),))
    chain = append(Chain(), _genesis(singleton(STATE, 1)), policies=table)
    carry = Transaction(frozenset({Input(1, 0)}), frozenset({Output(2, ACCEPT_ALL, 7, singleton(STATE, 1))}))
    extended = append(chain, carry, policies=table)
    assert isinstance(extended, Chain)
    assert circulating(extended.index(), 5) == 1


def test_forbid_forge():
    table = PolicyTable((Policy(5, FORBID_FORGE),))
    assert policy_violation(table, Chain().index(), _genesis(singleton(STATE, 1))) is not None
    # moving existing quantity is not forging
    free = PolicyTable((Policy(5, FREE_FORGE),))
    chain = append(Chain(), _genesis(singleton(STATE, 4)), policies=free)
    carry = Transaction(frozenset({Input(1, 0)}), frozenset({Output(2, ACCEPT_ALL, 0, singleton(STATE, 4))}))
    assert policy_violation(table, chain.index(), carry) is None


def test_default_rule_free_forge():
    table = PolicyTable()
    assert policy_violation(table, Chain().index(), _genesis(singleton(Chip(9, 9), 1000))) is None


def test_policy_table_unique_symbols():
    with pytest.raises(ValueError):
        PolicyTable((Policy(5, AFFINE_ONCE), Policy(5, FREE_FORGE)))


def test_batch_validation_reports_dangling_before_policy():
    """A structurally broken transaction is reported, not crashed on, even
    when a policy table is in force."""
    from ledgersim.ledger import DANGLING_OR_FORWARD, validate_chain

    table = PolicyTable((Policy(5, AFFINE_ONCE),))
    dangle = Transaction(frozenset({Input(9, 0)}), frozenset())
    report = validate_chain(Chain((dangle,)), table)
    assert not report.valid
    assert report.first().condition == DANGLING_OR_FORWARD


def test_reused_position_then_spent_is_reported_under_policies():
    """Two outputs at one position, then a spend of it: the reuse is
    reported, with or without a policy table, and the spend resolves to the
    first output, as validation resolves it."""
    from ledgersim.ledger import validate_chain

    free = Chip(6, 1)
    first = _genesis(singleton(free, 1), position=5)
    reuse = _genesis(singleton(free, 2), position=5)
    spend = Transaction(frozenset({Input(5, 0)}), frozenset())
    chain = Chain((first, reuse, spend))
    expected = "tx 1: duplicate-position (output position 5 already used)"
    for table in (None, PolicyTable(), PolicyTable((Policy(5, AFFINE_ONCE),))):
        assert validate_chain(chain, table).describe() == expected
    assert forged(chain.prefix(2).index(), spend) == {6: -1}


def test_policy_check_invariant_under_canonical_rename():
    """Policy verdicts only look at unspent totals, so they agree on
    alpha-equivalent prefixes."""
    from ledgersim.equivalence import canonicalize

    table = PolicyTable((Policy(5, AFFINE_ONCE),))
    chain = append(Chain(), _genesis(singleton(STATE, 1)), policies=table)
    carry = Transaction(frozenset({Input(1, 0)}), frozenset({Output(2, ACCEPT_ALL, 0, singleton(STATE, 1))}))
    chain = append(chain, carry, policies=table)
    assert isinstance(chain, Chain)
    renamed = canonicalize(chain)
    probe = _genesis(singleton(STATE, 1), position=50)
    assert policy_violation(table, chain.index(), probe) == policy_violation(table, renamed.index(), probe) is not None
    free_probe = _genesis(singleton(Chip(6, 6), 5), position=51)
    assert policy_violation(table, chain.index(), free_probe) is None
    assert policy_violation(table, renamed.index(), free_probe) is None


def test_affine_apart_corpus_witness(corpus_dir):
    """Under an AffineOnce policy two apart transactions no longer commute:
    the order decides which of them lands."""
    import json

    from ledgersim import formats
    from ledgersim.equivalence import apart
    from ledgersim.ledger import POLICY_VIOLATION, utxo

    payload = json.loads((corpus_dir / "affine-apart-counterexample.json").read_text())
    table = PolicyTable.of({int(symbol): rule for symbol, rule in payload["policies"].items()})
    base = formats.parse_chain(payload["base"])
    (tx1,), _ = formats.parse_transactions(payload["tx1"])
    (tx2,), _ = formats.parse_transactions(payload["tx2"])
    assert apart(tx1, tx2)
    unspent = []
    for first, second in ((tx1, tx2), (tx2, tx1)):
        chain = append(base, first, policies=table)
        assert isinstance(chain, Chain)
        rejected = append(chain, second, policies=table)
        assert not isinstance(rejected, Chain)
        assert rejected.first().condition == POLICY_VIOLATION
        unspent.append({out.position for out in utxo(chain)})
    assert unspent == [{10}, {11}]
