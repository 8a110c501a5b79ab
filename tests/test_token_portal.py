"""Portal lifecycle: initialization, transitions, builders, guard behaviour."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from ledgersim.ledger import (
    DANGLING_OR_FORWARD,
    POLICY_VIOLATION,
    VALIDATOR_REJECTED,
    Chain,
    LedgerIndex,
    ValidationReport,
    append,
    utxo,
    validate_chain,
)
from ledgersim.model import (
    ACCEPT_ALL,
    ADA,
    Chip,
    Input,
    MalformedChainError,
    Output,
    PositionAllocator,
    Transaction,
    Value,
    context_at,
    pay_to_pubkey,
    singleton,
)
from ledgersim.policy import AFFINE_ONCE, Policy, PolicyTable, policy_violation
from ledgersim.token_portal import (
    Buy,
    InsufficientSupply,
    NoPortalError,
    PriceRefused,
    SetPrice,
    TokenConfig,
    build_buy_tx,
    build_set_price_tx,
    decode_action,
    encode_buy,
    encode_set_price,
    find_portal,
    init_portal,
    transition_check,
)

CFG = TokenConfig(issuer=1, traded_chip=Chip(1, 1), state_chip=Chip(2, 1))
POLICIES = PolicyTable((Policy(2, AFFINE_ONCE),))


def fresh_portal(supply=1000, price=1):
    alloc = PositionAllocator()
    chain = append(Chain(), init_portal(CFG, supply, price, alloc), policies=POLICIES)
    assert isinstance(chain, Chain)
    return chain, alloc


def test_config_invariants():
    with pytest.raises(ValueError):
        TokenConfig(1, Chip(1, 1), Chip(1, 1))
    with pytest.raises(ValueError):
        TokenConfig(1, Chip(0, 0), Chip(2, 1))
    assert TokenConfig.from_params(CFG.validator.params) == CFG


def test_action_codec_round_trip():
    for n in (1, 2, 17, 1000):
        assert decode_action(encode_buy(n)) == Buy(n)
    for p in (0, 1, 9, 100):
        for k in (0, 1, 42):
            assert decode_action(encode_set_price(p, k)) == SetPrice(p, k)
    assert decode_action(0) is None  # would be Buy(0)
    with pytest.raises(ValueError):
        encode_buy(0)


def test_init_portal_shape():
    chain, _ = fresh_portal(supply=1000, price=1)
    portal = find_portal(chain, CFG)
    assert portal.datum == 1
    assert portal.value == Value.of({CFG.state_chip: 1, CFG.traded_chip: 1000})
    assert portal.validator == CFG.validator
    assert validate_chain(chain, POLICIES).valid


def test_init_portal_zero_supply_rejected():
    with pytest.raises(ValueError):
        init_portal(CFG, 0, 1, PositionAllocator())


def test_second_init_rejected_by_policy():
    chain, alloc = fresh_portal()
    again = init_portal(CFG, 5, 2, alloc)
    report = append(chain, again, policies=POLICIES)
    assert isinstance(report, ValidationReport)
    assert report.first().condition == POLICY_VIOLATION


def test_lookup_price():
    chain, alloc = fresh_portal(price=7)
    assert find_portal(chain, CFG).datum == 7
    with pytest.raises(NoPortalError):
        find_portal(Chain(), CFG)


def test_lookup_price_rejects_two_portals():
    # two state-chip carriers (policy bypassed on purpose)
    alloc = PositionAllocator()
    chain = append(Chain(), init_portal(CFG, 10, 1, alloc))
    chain = append(chain, init_portal(CFG, 10, 2, alloc))
    assert isinstance(chain, Chain)
    with pytest.raises(MalformedChainError):
        find_portal(chain, CFG)


def buy_oracle(chain, amount):
    """Independent recomputation of what an accepted buy must produce."""
    portal = find_portal(chain, CFG)
    price = portal.datum
    return {
        "payment": amount * price,
        "successor_value": portal.value.subtract(singleton(CFG.traded_chip, amount)),
        "datum": price,
    }


def test_build_buy_tx_matches_oracle():
    chain, alloc = fresh_portal(supply=1000, price=5)
    expected = buy_oracle(chain, 3)
    tx = build_buy_tx(chain, CFG, buyer=7, amount=3, alloc=alloc)
    successor = [o for o in tx.outputs if o.validator == CFG.validator]
    payment = [o for o in tx.outputs if o.validator == pay_to_pubkey(1)]
    delivery = [o for o in tx.outputs if o.validator == pay_to_pubkey(7)]
    assert len(successor) == len(payment) == len(delivery) == 1
    assert successor[0].value == expected["successor_value"]
    assert successor[0].datum == expected["datum"]
    assert payment[0].value.get(ADA) == expected["payment"] == 15
    assert delivery[0].value == singleton(CFG.traded_chip, 3)

    extended = append(chain, tx, policies=POLICIES)
    assert isinstance(extended, Chain)
    assert find_portal(extended, CFG).value.get(CFG.traded_chip) == 997


def test_buy_underpayment_rejected():
    chain, alloc = fresh_portal(supply=100, price=5)
    tx = build_buy_tx(chain, CFG, buyer=7, amount=3, alloc=alloc)
    # tamper: shave one ada off the issuer payment
    issuer_lock = pay_to_pubkey(1)
    outs = set()
    for out in tx.outputs:
        if out.validator == issuer_lock:
            out = Output(out.position, out.validator, out.datum, singleton(ADA, 14))
        outs.add(out)
    report = append(chain, Transaction(tx.inputs, frozenset(outs)))
    assert isinstance(report, ValidationReport)
    assert report.first().condition == VALIDATOR_REJECTED


def test_buy_price_change_attempt_rejected():
    chain, alloc = fresh_portal(price=5)
    tx = build_buy_tx(chain, CFG, buyer=7, amount=2, alloc=alloc)
    outs = set()
    for out in tx.outputs:
        if out.validator == CFG.validator:
            out = Output(out.position, out.validator, 1, out.value)  # cheaper successor price
        outs.add(out)
    report = append(chain, Transaction(tx.inputs, frozenset(outs)))
    assert isinstance(report, ValidationReport)
    assert report.first().condition == VALIDATOR_REJECTED


def test_buy_must_reproduce_state_chip():
    chain, alloc = fresh_portal(price=5)
    tx = build_buy_tx(chain, CFG, buyer=7, amount=2, alloc=alloc)
    outs = frozenset(o for o in tx.outputs if o.validator != CFG.validator)
    report = append(chain, Transaction(tx.inputs, outs))
    assert isinstance(report, ValidationReport)
    assert report.first().condition == VALIDATOR_REJECTED


def _spend_of_chipless_portal():
    """A portal-guarded output without the state chip, spent as a buy of 1."""
    alloc = PositionAllocator()
    chipless = Output(alloc.fresh(), CFG.validator, 5, singleton(CFG.traded_chip, 10))
    chain = append(Chain(), Transaction(frozenset(), frozenset({chipless})))
    successor = Output(alloc.fresh(), CFG.validator, 5, singleton(CFG.traded_chip, 9))
    payment = Output(alloc.fresh(), pay_to_pubkey(CFG.issuer), 0, singleton(ADA, 5))
    return chain, Transaction(frozenset({Input(chipless.position, encode_buy(1))}), frozenset({successor, payment}))


def _tampered_buy(redeemer=None, validator=None, extra=Value()):
    """A buy of 2 of the 3 tokens of a price-5 portal, with its redeemer or
    its successor's validator replaced, or ``extra`` added to the successor."""
    chain, alloc = fresh_portal(supply=3, price=5)
    tx = build_buy_tx(chain, CFG, buyer=7, amount=2, alloc=alloc)
    successor = next(o for o in tx.outputs if o.validator == CFG.validator)
    replaced = Output(successor.position, validator or successor.validator, successor.datum, successor.value + extra)
    (spent,) = tx.inputs
    inputs = frozenset({Input(spent.position, spent.redeemer if redeemer is None else redeemer)})
    return chain, Transaction(inputs, (tx.outputs - {successor}) | {replaced})


@pytest.mark.parametrize(
    "spend",
    [
        _spend_of_chipless_portal,
        lambda: _tampered_buy(extra=singleton(CFG.state_chip, 1)),
        lambda: _tampered_buy(validator=ACCEPT_ALL),
        lambda: _tampered_buy(redeemer=encode_buy(4)),
        lambda: _tampered_buy(extra=singleton(CFG.traded_chip, 1)),
    ],
    ids=["spent-without-state-chip", "two-state-chips", "other-validator", "more-than-held", "wrong-successor-value"],
)
def test_portal_spend_rejected(spend):
    assert isinstance(append(*_tampered_buy()), Chain)  # untampered, the buy attaches
    chain, tx = spend()
    report = append(chain, tx)
    assert isinstance(report, ValidationReport)
    assert report.first().condition == VALIDATOR_REJECTED


def test_buy_refusal_without_transaction():
    chain, alloc = fresh_portal(price=6)
    with pytest.raises(PriceRefused):
        build_buy_tx(chain, CFG, buyer=7, amount=1, alloc=alloc, max_price=5)
    before = alloc.peek()
    # at the limit the buy goes through
    tx = build_buy_tx(chain, CFG, buyer=7, amount=2, alloc=alloc, max_price=6)
    assert isinstance(tx, Transaction) and alloc.peek() > before


def test_buy_insufficient_supply():
    chain, alloc = fresh_portal(supply=3)
    with pytest.raises(InsufficientSupply):
        build_buy_tx(chain, CFG, buyer=7, amount=4, alloc=alloc)


def test_buy_whole_supply_and_free_price():
    chain, alloc = fresh_portal(supply=3, price=0)
    tx = build_buy_tx(chain, CFG, buyer=7, amount=3, alloc=alloc)
    extended = append(chain, tx, policies=POLICIES)
    assert isinstance(extended, Chain)
    portal = find_portal(extended, CFG)
    assert portal.value == singleton(CFG.state_chip, 1)  # tokens gone, chip stays
    issuer_ada = sum(o.value.get(ADA) for o in utxo(extended) if o.validator == pay_to_pubkey(1))
    assert issuer_ada == 0  # price 0 means free tokens


def test_set_price_round_trip():
    chain, alloc = fresh_portal(price=5)
    tx = build_set_price_tx(chain, CFG, 9, alloc)
    extended = append(chain, tx, policies=POLICIES)
    assert isinstance(extended, Chain)
    assert find_portal(extended, CFG).datum == 9
    assert find_portal(extended, CFG).value.get(CFG.traded_chip) == 1000  # value untouched


def test_set_price_by_non_issuer_rejected():
    chain, alloc = fresh_portal(price=5)
    portal = find_portal(chain, CFG)
    successor = Output(alloc.fresh(), CFG.validator, 9, portal.value)
    forged_redeemer = encode_set_price(9, 2)  # key 2 is not the issuer
    tx = Transaction(frozenset({Input(portal.position, forged_redeemer)}), frozenset({successor}))
    report = append(chain, tx)
    assert isinstance(report, ValidationReport)
    assert report.first().condition == VALIDATOR_REJECTED


def test_stale_set_price_rejected_after_portal_moves():
    chain, alloc = fresh_portal(price=5)
    stale = build_set_price_tx(chain, CFG, 9, alloc)  # built against the old portal
    buy = build_buy_tx(chain, CFG, buyer=7, amount=1, alloc=alloc)
    chain2 = append(chain, buy, policies=POLICIES)
    assert isinstance(chain2, Chain)
    report = append(chain2, stale, policies=POLICIES)
    assert isinstance(report, ValidationReport)
    assert report.first().condition == DANGLING_OR_FORWARD
    assert find_portal(chain2, CFG).datum == 5  # chain unchanged by the rejection


def test_transition_check_rejects_malformed_redeemer():
    chain, alloc = fresh_portal()
    portal = find_portal(chain, CFG)
    ctx = context_at(
        Transaction(frozenset({Input(portal.position, 0)}), frozenset()),
        Input(portal.position, 0),
    )
    assert not transition_check(CFG, 0, portal.datum, portal.value, ctx)


def test_run_validator_dispatches_to_transition():
    from ledgersim.validators import run_validator

    chain, alloc = fresh_portal(price=5)
    portal = find_portal(chain, CFG)
    tx = build_buy_tx(chain, CFG, buyer=7, amount=3, alloc=alloc)
    focus = next(iter(tx.inputs))
    ctx = context_at(tx, focus)
    assert run_validator(portal.validator, focus.redeemer, portal.datum, portal.value, ctx)
    assert not run_validator(portal.validator, focus.redeemer, portal.datum + 1, portal.value, ctx)


def test_buyer_determinism_under_interleaving():
    """A built buy, accepted after unrelated traffic, delivers byte-identical
    buyer and payment outputs, and the two orders are observationally
    equivalent."""
    from ledgersim.equivalence import obs_equiv

    chain, alloc = fresh_portal(supply=50, price=3)
    buy = build_buy_tx(chain, CFG, buyer=7, amount=4, alloc=alloc)
    buyer_outputs = {o for o in buy.outputs if o.validator == pay_to_pubkey(7)}
    payment_outputs = {o for o in buy.outputs if o.validator == pay_to_pubkey(1)}

    # unrelated traffic: two genesis-style transactions apart from the buy
    noise = [
        Transaction(frozenset(), frozenset({Output(alloc.fresh(), ACCEPT_ALL, 0, singleton(ADA, 2))}))
        for _ in range(2)
    ]
    deferred = chain
    for tx in noise:
        deferred = append(deferred, tx, policies=POLICIES)
        assert isinstance(deferred, Chain)
    deferred = append(deferred, buy, policies=POLICIES)
    assert isinstance(deferred, Chain)

    immediate = append(chain, buy, policies=POLICIES)
    for tx in noise:
        immediate = append(immediate, tx, policies=POLICIES)
    assert isinstance(immediate, Chain)

    assert buyer_outputs <= utxo(deferred) and payment_outputs <= utxo(deferred)
    assert buyer_outputs <= utxo(immediate) and payment_outputs <= utxo(immediate)
    assert obs_equiv(deferred, immediate)

    # and when the intervening traffic consumes the portal, the buy is
    # rejected outright instead of trading at the new price
    reprice = build_set_price_tx(chain, CFG, 30, alloc)
    moved = append(chain, reprice, policies=POLICIES)
    assert isinstance(moved, Chain)
    report = append(moved, buy, policies=POLICIES)
    assert isinstance(report, ValidationReport)
    assert report.first().condition == DANGLING_OR_FORWARD


class _NoScan(dict):
    """An unspent map that serves lookups and updates but refuses to be
    walked."""

    def _refuse(self, *args):
        raise AssertionError("the whole unspent set was scanned")

    __iter__ = keys = values = items = _refuse


def test_portal_queries_stop_scanning_after_a_long_walk(monkeypatch):
    """After a 1,000-step walk with the benchmark's step mix (buys with and
    without a limit, price changes, token transfers, rogue state-chip
    mints), the portal builders and the affine policy check answer from the
    state symbol's table: neither ``unspent_outputs`` nor a walk over the
    unspent map is needed, not even while the tip grows."""
    rng = random.Random(46)
    chain, alloc = fresh_portal(supply=4_000, price=2)
    buyers = (7, 8, 9)

    def rogue_mint():
        chip = singleton(CFG.state_chip, 1)
        return Transaction(frozenset(), frozenset({Output(alloc.fresh(), ACCEPT_ALL, 0, chip)}))

    for _ in range(1_000):
        roll = rng.random()
        try:
            if roll < 0.40:
                limit = rng.randrange(12) if rng.random() < 0.3 else None
                tx = build_buy_tx(chain, CFG, rng.choice(buyers), rng.randrange(1, 6), alloc, max_price=limit)
            elif roll < 0.65:
                tx = build_set_price_tx(chain, CFG, rng.randrange(0, 12), alloc)
            elif roll < 0.85:
                tokens = (out for out in utxo(chain) if out.value.get(CFG.traded_chip))
                held = sorted((out for out in tokens if out.validator.kind == "PayToPubKey"), key=lambda o: o.position)
                if not held:
                    continue
                victim = rng.choice(held)
                lock = pay_to_pubkey(rng.choice(buyers))
                tx = Transaction(
                    frozenset({Input(victim.position, victim.validator.params[0])}),
                    frozenset({Output(alloc.fresh(), lock, 0, victim.value)}),
                )
            else:
                tx = rogue_mint()
        except PriceRefused:
            continue
        result = append(chain, tx, policies=POLICIES)
        assert isinstance(result, Chain) == (roll < 0.85)
        chain = result if roll < 0.85 else chain
    assert len(utxo(chain)) > 500
    (expected,) = oracles.find_carriers(chain.transactions, CFG.state_chip)

    def refuse(index):
        raise AssertionError("unspent_outputs was called")

    monkeypatch.setattr(LedgerIndex, "unspent_outputs", refuse)
    index = chain.index()
    index.unspent = _NoScan(index.unspent_map())
    rogue = rogue_mint()
    assert find_portal(chain, CFG) == expected
    assert policy_violation(POLICIES, index, rogue) == "symbol 2 is affine and already circulates (1)"
    bought = append(chain, build_buy_tx(chain, CFG, 7, 1, alloc), policies=POLICIES)
    assert isinstance(bought, Chain) and bought.index() is index
    repriced = append(bought, build_set_price_tx(bought, CFG, 5, alloc), policies=POLICIES)
    assert isinstance(repriced, Chain) and repriced.index() is index
    assert find_portal(repriced, CFG).datum == 5
    assert append(repriced, rogue, policies=POLICIES).first().condition == POLICY_VIOLATION


_GROWN_PORTAL_UTXO = """
from ledgersim.ledger import Chain, append, utxo
from ledgersim.model import Chip, PositionAllocator
from ledgersim.token_portal import TokenConfig, build_buy_tx, build_set_price_tx, init_portal

cfg = TokenConfig(issuer=1, traded_chip=Chip(1, 1), state_chip=Chip(2, 1))
alloc = PositionAllocator()
chain = append(Chain(), init_portal(cfg, 1_000, 2, alloc))
for step in range(120):
    if step % 3:
        tx = build_buy_tx(chain, cfg, 7 + step % 4, 1 + step % 5, alloc)
    else:
        tx = build_set_price_tx(chain, cfg, step % 11, alloc)
    chain = append(chain, tx)
print([out.position for out in utxo(chain)])
"""


def test_utxo_order_does_not_follow_the_hash_seed():
    """The order in which ``utxo``'s set yields a grown portal chain's
    outputs is the same under two string-hash seeds: an output's hash reads
    no string."""
    src = Path(__file__).resolve().parent.parent / "src"
    orders = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-c", _GROWN_PORTAL_UTXO], env=env, capture_output=True, text=True, check=True)
        orders.add(run.stdout)
    assert len(orders) == 1
