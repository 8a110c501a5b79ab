"""Account-style ledger: named contracts holding a balance and structured state.

The chain is a finite map from contract names to (balance, state); a call
names a contract and function, attaches a payment, and transforms the whole
chain.  A failed guard is an exact no-op (the attached value goes back to the
sender; there is no fee model).

The bundled token-sale contract mirrors the usual imperative style, bugs
included: ``buy`` divides the attached payment by the price at execution time
(integer division, remainder silently kept by the contract) and reads whatever
price happens to be current, so the outcome of a call depends on what landed
before it.  ``buyGuarded`` is the repaired variant that takes the price the
buyer expects and fails on mismatch -- included to show the fix exists only at
the contract author's discretion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import KeyId

FN_BUY = "buy"
FN_SEND = "send"
FN_SET_PRICE = "setPrice"
FN_BUY_GUARDED = "buyGuarded"

#: The contract's functions: the names of each one's arguments, in order.
FUNCTIONS = {
    FN_BUY: (),
    FN_SEND: ("to", "amount"),
    FN_SET_PRICE: ("p",),
    FN_BUY_GUARDED: ("expected",),
}
#: The functions that consume the attached payment.
PAYABLE = frozenset({FN_BUY, FN_BUY_GUARDED})


@dataclass(frozen=True)
class ContractState:
    """Token-sale contract state: issuer, current price, token balances."""

    issuer: KeyId
    price: int
    balances: tuple[tuple[KeyId, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "balances", tuple(sorted(self.balances)))
        keys = [k for k, _ in self.balances]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate balance entry")
        if any(q < 0 for _, q in self.balances):
            raise ValueError("balances must be naturals")
        if any(q == 0 for _, q in self.balances):
            raise ValueError("zero balances are dropped, not stored")

    def balance_of(self, key: KeyId) -> int:
        for k, q in self.balances:
            if k == key:
                return q
        return 0

    def with_balance(self, key: KeyId, qty: int) -> ContractState:
        rest = tuple((k, q) for k, q in self.balances if k != key)
        if qty:
            rest += ((key, qty),)
        return ContractState(self.issuer, self.price, rest)

    def with_price(self, price: int) -> ContractState:
        return ContractState(self.issuer, price, self.balances)


@dataclass(frozen=True)
class CallTx:
    """A call: target contract, function name, sender, attached payment, args."""

    contract: int
    function: str
    sender: KeyId
    value: int = 0
    args: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if self.value < 0:
            raise ValueError("attached value must be a natural")


@dataclass(frozen=True)
class CallResult:
    ok: bool
    reason: str = ""
    tokens: int = 0

    @property
    def status(self) -> str:
        return "accepted" if self.ok else "guard-failed"


@dataclass(frozen=True)
class ContractAccount:
    balance: int
    state: ContractState


@dataclass(frozen=True)
class AccountChain:
    """Finite map from contract name to (balance, state): the whole ledger
    state, so two chains are equal exactly when every contract's balance and
    state are."""

    contracts: tuple[tuple[int, ContractAccount], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "contracts", tuple(sorted(self.contracts, key=lambda kv: kv[0])))
        names = [n for n, _ in self.contracts]
        if len(set(names)) != len(names):
            raise ValueError("contract names must be unique")

    def get(self, name: int) -> ContractAccount:
        for n, acct in self.contracts:
            if n == name:
                return acct
        raise KeyError(f"no contract named {name}")

    def has(self, name: int) -> bool:
        return any(n == name for n, _ in self.contracts)

    def _with(self, name: int, acct: ContractAccount) -> AccountChain:
        return AccountChain(tuple((n, a) for n, a in self.contracts if n != name) + ((name, acct),))


def deploy_changing(chain: AccountChain, name: int, sender: KeyId, supply: int, price: int) -> AccountChain:
    """Deploy the token-sale contract: the deployer becomes the issuer and
    receives the whole initial supply."""
    if chain.has(name):
        raise ValueError(f"contract name {name} already taken")
    if supply < 0 or price < 0:
        raise ValueError("supply and price must be naturals")
    balances = ((sender, supply),) if supply else ()
    state = ContractState(issuer=sender, price=price, balances=balances)
    return chain._with(name, ContractAccount(balance=0, state=state))


def changing_buy(acct: ContractAccount, sender: KeyId, value: int) -> tuple[ContractAccount, CallResult]:
    """Buy tokens with the attached payment at the price current *now*.

    tokens = value // price (integer division); the remainder is kept by the
    contract, not refunded.  Zero tokens for a positive payment is a success.
    """
    state = acct.state
    if state.price == 0:
        return acct, CallResult(False, "price is zero: division impossible")
    tokens = value // state.price
    issuer_holds = state.balance_of(state.issuer)
    if issuer_holds < tokens:
        return acct, CallResult(False, f"issuer holds {issuer_holds} tokens, {tokens} needed")
    state = state.with_balance(state.issuer, issuer_holds - tokens)
    state = state.with_balance(sender, state.balance_of(sender) + tokens)
    return ContractAccount(acct.balance + value, state), CallResult(True, tokens=tokens)


def changing_send(acct: ContractAccount, sender: KeyId, recipient: KeyId, amount: int) -> tuple[ContractAccount, CallResult]:
    """Move tokens between balances inside the contract."""
    state = acct.state
    if amount < 0:
        return acct, CallResult(False, "negative amount")
    if state.balance_of(sender) < amount:
        return acct, CallResult(False, f"balance {state.balance_of(sender)} below {amount}")
    if amount and sender != recipient:
        state = state.with_balance(sender, state.balance_of(sender) - amount)
        state = state.with_balance(recipient, state.balance_of(recipient) + amount)
    return ContractAccount(acct.balance, state), CallResult(True)


def changing_set_price(acct: ContractAccount, sender: KeyId, price: int) -> tuple[ContractAccount, CallResult]:
    """Issuer-only price update."""
    if sender != acct.state.issuer:
        return acct, CallResult(False, "only the issuer may set the price")
    if price < 0:
        return acct, CallResult(False, "price must be a natural")
    return ContractAccount(acct.balance, acct.state.with_price(price)), CallResult(True)


def changing_buy_guarded(acct: ContractAccount, sender: KeyId, value: int, expected_price: int) -> tuple[ContractAccount, CallResult]:
    """The repaired buy: fails instead of trading when the current price is
    not the one the buyer expected."""
    if acct.state.price != expected_price:
        return acct, CallResult(False, f"price is {acct.state.price}, expected {expected_price}")
    return changing_buy(acct, sender, value)


def call(chain: AccountChain, tx: CallTx) -> tuple[AccountChain, CallResult]:
    """Apply one call to the chain.

    A guard failure returns the very chain it was given.  An unknown
    contract raises KeyError; an unknown function or a wrong argument count
    raises ValueError.  Attached value is consumed only by the ``PAYABLE``
    functions; the others ignore it.
    """
    acct = chain.get(tx.contract)
    names = FUNCTIONS.get(tx.function)
    if names is None:
        raise ValueError(f"contract has no function {tx.function!r}")
    if len(tx.args) != len(names):
        raise ValueError(f"{tx.function} takes ({', '.join(names)})")
    if tx.function == FN_BUY:
        new_acct, result = changing_buy(acct, tx.sender, tx.value)
    elif tx.function == FN_SEND:
        new_acct, result = changing_send(acct, tx.sender, *tx.args)
    elif tx.function == FN_SET_PRICE:
        new_acct, result = changing_set_price(acct, tx.sender, *tx.args)
    else:
        new_acct, result = changing_buy_guarded(acct, tx.sender, tx.value, *tx.args)
    return (chain._with(tx.contract, new_acct) if result.ok else chain), result
