"""Account ledger semantics: the contract's constructor, buy, send, setPrice,
the guarded buy, and the order-sensitivity witness."""

import random

import pytest

from ledgersim.accounts import (
    AccountChain,
    CallTx,
    call,
    deploy_changing,
)


def fresh(supply=1000, price=1):
    return deploy_changing(AccountChain(), name=1, sender=1, supply=supply, price=price)


def total_tokens(state):
    return sum(q for _, q in state.balances)


def test_deploy_gives_issuer_everything():
    chain = fresh(supply=1000, price=1)
    acct = chain.get(1)
    assert acct.state.issuer == 1
    assert acct.state.balance_of(1) == 1000
    assert acct.balance == 0


def test_deploy_name_collision():
    chain = fresh()
    with pytest.raises(ValueError):
        deploy_changing(chain, name=1, sender=2, supply=5, price=1)


def test_deploy_empty_economy():
    chain = deploy_changing(AccountChain(), name=3, sender=1, supply=0, price=1)
    assert chain.get(3).state.balances == ()


def test_unknown_contract_and_function():
    """Both are errors every caller already catches."""
    chain = fresh()
    with pytest.raises(KeyError, match="no contract named 9"):
        call(chain, CallTx(9, "buy", 2, 1))
    with pytest.raises(ValueError, match="contract has no function 'withdraw'"):
        call(chain, CallTx(1, "withdraw", 2, 1))


@pytest.mark.parametrize(
    "function, args", [("buy", (1,)), ("send", (3,)), ("setPrice", ()), ("buyGuarded", (1, 2))]
)
def test_call_checks_argument_count(function, args):
    with pytest.raises(ValueError):
        call(fresh(), CallTx(1, function, sender=1, value=5, args=args))


def test_buy_integer_division():
    chain = fresh(price=3)
    chain, result = call(chain, CallTx(1, "buy", sender=2, value=10))
    assert result.ok and result.tokens == 3  # floor(10/3)
    acct = chain.get(1)
    assert acct.state.balance_of(2) == 3
    assert acct.balance == 10  # the whole payment kept, remainder not refunded


def test_buy_exact_division():
    chain = fresh(price=5)
    chain, result = call(chain, CallTx(1, "buy", sender=2, value=15))
    assert result.ok and result.tokens == 3
    assert chain.get(1).balance == 15


def test_buy_rounding_bug_edge():
    # value below the price: the buyer pays and receives nothing
    chain = fresh(price=3)
    chain, result = call(chain, CallTx(1, "buy", sender=2, value=2))
    assert result.ok and result.tokens == 0
    acct = chain.get(1)
    assert acct.state.balance_of(2) == 0
    assert acct.balance == 2  # 2 units silently retained


def test_buy_price_zero_guard():
    chain = fresh(price=0)
    chain, result = call(chain, CallTx(1, "buy", sender=2, value=10))
    assert not result.ok
    assert chain.get(1).balance == 0  # value returned


def test_buy_insufficient_issuer_tokens():
    chain = fresh(supply=2, price=1)
    chain, result = call(chain, CallTx(1, "buy", sender=2, value=5))
    assert not result.ok
    assert chain.get(1).state.balance_of(2) == 0


def test_send_semantics():
    chain = fresh()
    chain, r = call(chain, CallTx(1, "buy", sender=2, value=10))
    assert r.ok and chain.get(1).state.balance_of(2) == 10
    chain, r = call(chain, CallTx(1, "send", sender=2, args=(3, 5)))
    assert r.ok
    assert chain.get(1).state.balance_of(2) == 5
    assert chain.get(1).state.balance_of(3) == 5
    chain, r = call(chain, CallTx(1, "send", sender=2, args=(3, 11)))
    assert not r.ok and chain.get(1).state.balance_of(2) == 5
    chain, r = call(chain, CallTx(1, "send", sender=2, args=(3, 0)))
    assert r.ok  # zero transfer is a no-op success


def test_set_price():
    chain = fresh(price=1)
    chain, r = call(chain, CallTx(1, "setPrice", sender=1, args=(9,)))
    assert r.ok and chain.get(1).state.price == 9
    chain, r = call(chain, CallTx(1, "setPrice", sender=2, args=(4,)))
    assert not r.ok and chain.get(1).state.price == 9


def test_buy_guarded_blocks_stale_price():
    chain = fresh(price=1)
    chain, r = call(chain, CallTx(1, "setPrice", sender=1, args=(100,)))
    assert r.ok
    chain, r = call(chain, CallTx(1, "buyGuarded", sender=2, value=100, args=(1,)))
    assert not r.ok and "expected" in r.reason
    assert chain.get(1).state.balance_of(2) == 0
    chain, r = call(chain, CallTx(1, "buyGuarded", sender=2, value=100, args=(100,)))
    assert r.ok and r.tokens == 1


def test_failed_calls_are_exact_noops():
    """Every guard failure returns the very chain the call was given."""
    chain = fresh(price=0)
    before = chain.get(1)
    after_chain, result = call(chain, CallTx(1, "buy", sender=2, value=7))
    assert not result.ok
    assert after_chain is chain and after_chain.get(1) is before
    for tx in (
        CallTx(1, "send", sender=2, args=(3, 1)),
        CallTx(1, "send", sender=1, args=(3, -1)),
        CallTx(1, "setPrice", sender=2, args=(5,)),
        CallTx(1, "buyGuarded", sender=2, value=7, args=(3,)),
    ):
        after_chain, result = call(chain, tx)
        assert not result.ok and after_chain is chain


def test_token_conservation_random_walk():
    """The sum of balances never changes after construction."""
    rng = random.Random(8)
    chain = fresh(supply=500, price=2)
    total = total_tokens(chain.get(1).state)
    actors = [1, 2, 3, 4]
    for _ in range(2000):
        roll = rng.random()
        sender = rng.choice(actors)
        if roll < 0.4:
            chain, _ = call(chain, CallTx(1, "buy", sender=sender, value=rng.randrange(0, 30)))
        elif roll < 0.7:
            chain, _ = call(chain, CallTx(1, "send", sender=sender, args=(rng.choice(actors), rng.randrange(0, 9))))
        elif roll < 0.85:
            chain, _ = call(chain, CallTx(1, "setPrice", sender=sender, args=(rng.randrange(0, 7),)))
        else:
            chain, _ = call(chain, CallTx(1, "buyGuarded", sender=sender, value=rng.randrange(0, 20), args=(rng.randrange(0, 7),)))
        state = chain.get(1).state
        assert total_tokens(state) == total
        assert all(q >= 0 for _, q in state.balances)


def test_rounding_inequality_random():
    """tokens * price <= value < (tokens + 1) * price for accepted buys."""
    rng = random.Random(9)
    for _ in range(500):
        price = rng.randrange(1, 20)
        value = rng.randrange(0, 100)
        chain = fresh(supply=10**6, price=price)
        chain, result = call(chain, CallTx(1, "buy", sender=2, value=value))
        assert result.ok
        assert result.tokens * price <= value < (result.tokens + 1) * price


def test_order_sensitivity_witness():
    """The same two calls in the two orders give materially different states."""
    buy = CallTx(1, "buy", sender=2, value=100)
    reprice = CallTx(1, "setPrice", sender=1, args=(100,))

    chain1 = fresh(supply=1000, price=1)
    for tx in (buy, reprice):
        chain1, r = call(chain1, tx)
        assert r.ok
    chain2 = fresh(supply=1000, price=1)
    for tx in (reprice, buy):
        chain2, r = call(chain2, tx)
        assert r.ok

    assert chain1.get(1).state.balance_of(2) == 100  # bought at price 1
    assert chain2.get(1).state.balance_of(2) == 1    # front-run: floor(100/100)
    assert chain1.get(1).balance == chain2.get(1).balance == 100  # paid the same
    assert chain1.get(1).state != chain2.get(1).state
