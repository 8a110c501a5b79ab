"""The tradable-token portal on the UTxO-style chain.

One unspent output (the portal) carries a unique state chip plus the remaining
token supply, with the official per-token price stored as its datum.  Spending
the portal is guarded by a state-machine validator admitting two transitions:
anybody may buy n tokens by paying the issuer exactly n times the current
price, and the issuer may replace the price.  Off-chain builders construct the
corresponding transactions from a chain snapshot; a buy builder can refuse
locally when the current price exceeds the buyer's limit, before anything is
submitted.

The state machine is a ``StateMachine`` validator reference (``model``)
whose parameters flatten a ``TokenConfig``; ``validators.run_validator``
decodes it and hands the spend to ``transition_check``.  A price update's
redeemer packs the new price and the signing key with the Cantor pairing
(``pair``/``unpair``), which only this codec uses.  At run time the module
reads only ``model``: a chain snapshot is passed in and read through its
index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .model import (
    ADA,
    STATE_MACHINE_KIND,
    Chip,
    Context,
    Datum,
    Input,
    KeyId,
    MalformedChainError,
    Output,
    PositionAllocator,
    Redeemer,
    Transaction,
    ValidatorRef,
    Value,
    pay_to_pubkey,
    singleton,
)

if TYPE_CHECKING:
    from .ledger import Chain


class NoPortalError(Exception):
    """No unspent output carries the state chip."""


class PriceRefused(Exception):
    """The buy builder found the current price above the buyer's limit and
    refused to build a transaction."""


class InsufficientSupply(Exception):
    """The portal holds fewer traded tokens than requested."""


@dataclass(frozen=True)
class TokenConfig:
    """Portal configuration: issuer key, the chip being sold, the state chip."""

    issuer: KeyId
    traded_chip: Chip
    state_chip: Chip

    def __post_init__(self) -> None:
        object.__setattr__(self, "traded_chip", Chip(*self.traded_chip))
        object.__setattr__(self, "state_chip", Chip(*self.state_chip))
        if self.traded_chip == self.state_chip:
            raise ValueError("traded chip and state chip must differ")
        if ADA in (self.traded_chip, self.state_chip):
            raise ValueError("neither the traded chip nor the state chip may be ada")

    @cached_property
    def validator(self) -> ValidatorRef:
        """The state machine's reference, which guards the portal."""
        return ValidatorRef(STATE_MACHINE_KIND, (self.issuer, *self.traded_chip, *self.state_chip))

    @cached_property
    def issuer_lock(self) -> ValidatorRef:
        """The pay-to-key lock a buy pays the issuer under."""
        return pay_to_pubkey(self.issuer)

    @classmethod
    def from_params(cls, params: tuple[int, ...]) -> TokenConfig:
        issuer, ts, tt, ss, st = params
        return cls(issuer, Chip(ts, tt), Chip(ss, st))


@dataclass(frozen=True)
class Buy:
    amount: int


@dataclass(frozen=True)
class SetPrice:
    price: int
    key: KeyId


def pair(a: int, b: int) -> int:
    """Cantor pairing: injective map from pairs of naturals to naturals."""
    if a < 0 or b < 0:
        raise ValueError("pairing is defined on naturals only")
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(z: int) -> tuple[int, int]:
    """Inverse of :func:`pair`."""
    if z < 0:
        raise ValueError("pairing is defined on naturals only")
    w = (math.isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


# Redeemer codec: even redeemers are buys (2n, n >= 1); odd redeemers are
# price updates with the new price and the signing key Cantor-packed.
def encode_buy(amount: int) -> Redeemer:
    if amount < 1:
        raise ValueError("buy amount must be >= 1")
    return 2 * amount


def encode_set_price(price: int, key: KeyId) -> Redeemer:
    return 2 * pair(price, key) + 1


def decode_action(redeemer: Redeemer) -> Buy | SetPrice | None:
    """Decode a portal action from a redeemer; None when malformed."""
    if redeemer < 0:
        return None
    if redeemer % 2 == 0:
        amount = redeemer // 2
        return Buy(amount) if amount >= 1 else None
    price, key = unpair((redeemer - 1) // 2)
    return SetPrice(price, key)


def transition_check(cfg: TokenConfig, redeemer: Redeemer, datum: Datum, value: Value, ctx: Context) -> bool:
    """The on-chain rule deciding whether a portal spend is admissible.

    The spending transaction must reproduce the state chip exactly once, in a
    successor output guarded by the same validator.  A buy of n keeps the
    datum (price) unchanged, removes exactly n traded tokens from the portal
    value, and pays the issuer exactly n * price ada.  A price update must be
    signed by the issuer and carry the portal value over unchanged.
    """
    action = decode_action(redeemer)
    if action is None:
        return False
    if value.get(cfg.state_chip) != 1:
        return False
    carriers = [out for out in ctx.outputs if out.value.get(cfg.state_chip) > 0]
    if len(carriers) != 1:
        return False
    successor = carriers[0]
    if successor.value.get(cfg.state_chip) != 1 or successor.validator != cfg.validator:
        return False
    if isinstance(action, Buy):
        if successor.datum != datum:
            return False
        try:
            expected_value = value.subtract(singleton(cfg.traded_chip, action.amount))
        except ValueError:
            return False
        if successor.value != expected_value:
            return False
        price_due = action.amount * datum
        issuer_lock = cfg.issuer_lock
        return any(out.validator == issuer_lock and out.value.get(ADA) == price_due for out in ctx.outputs)
    if action.key != cfg.issuer:
        return False
    return successor.datum == action.price and successor.value == value


def init_portal(cfg: TokenConfig, supply: int, price: int, alloc: PositionAllocator) -> Transaction:
    """Genesis-style transaction creating the portal output.

    The single output carries one state chip plus the whole supply, with the
    price as its datum.  Appending it is subject to the state chip's affine
    policy, which is what makes a second initialization fail.
    """
    if supply < 1:
        raise ValueError("initial supply must be >= 1")
    if price < 0:
        raise ValueError("price must be a natural")
    out = Output(
        alloc.fresh(),
        cfg.validator,
        price,
        Value.of({cfg.state_chip: 1, cfg.traded_chip: supply}),
    )
    return Transaction(frozenset(), frozenset({out}))


def find_portal(chain: Chain, cfg: TokenConfig) -> Output:
    """The unique unspent output carrying the state chip, found among the
    unspent outputs that carry the state chip's currency symbol
    (``LedgerIndex.carriers``), not by a scan of the whole unspent set."""
    carriers = {out for out in chain.index().carriers(cfg.state_chip.symbol) if out.value.get(cfg.state_chip) > 0}
    if not carriers:
        raise NoPortalError("no unspent output carries the state chip")
    if len(carriers) > 1:
        raise MalformedChainError("state chip appears in more than one unspent output")
    return carriers.pop()


def build_buy_tx(
    chain: Chain,
    cfg: TokenConfig,
    buyer: KeyId,
    amount: int,
    alloc: PositionAllocator,
    max_price: int | None = None,
) -> Transaction:
    """Off-chain guarded buy builder.

    Reads the current price from the chain snapshot; when a limit is given and
    the price exceeds it, refuses without building anything.  Otherwise the
    transaction consumes the portal, recreates it with ``amount`` fewer
    tokens, pays the issuer amount * price ada, and hands the buyer the tokens
    under a pay-to-key lock.  The inputs and outputs are fixed here, at build
    time; whatever lands on the chain later cannot change them.
    """
    if amount < 1:
        raise ValueError("buy amount must be >= 1")
    portal = find_portal(chain, cfg)
    price = portal.datum
    if max_price is not None and price > max_price:
        raise PriceRefused(f"current price {price} exceeds limit {max_price}")
    available = portal.value.get(cfg.traded_chip)
    if amount > available:
        raise InsufficientSupply(f"portal holds {available} tokens, {amount} requested")
    successor = Output(alloc.fresh(), cfg.validator, price, portal.value.subtract(singleton(cfg.traded_chip, amount)))
    due = amount * price
    payment = Output(alloc.fresh(), cfg.issuer_lock, 0, singleton(ADA, due) if due else Value())
    delivery = Output(alloc.fresh(), pay_to_pubkey(buyer), 0, singleton(cfg.traded_chip, amount))
    return Transaction(frozenset({Input(portal.position, encode_buy(amount))}), frozenset({successor, payment, delivery}))


def build_set_price_tx(chain: Chain, cfg: TokenConfig, new_price: int, alloc: PositionAllocator) -> Transaction:
    """Issuer's price update: consume the portal, recreate it with the new
    datum and the value unchanged."""
    if new_price < 0:
        raise ValueError("price must be a natural")
    portal = find_portal(chain, cfg)
    successor = Output(alloc.fresh(), cfg.validator, new_price, portal.value)
    return Transaction(
        frozenset({Input(portal.position, encode_set_price(new_price, cfg.issuer))}),
        frozenset({successor}),
    )
