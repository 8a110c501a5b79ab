"""Validator registry and interpreter.

Validators are registry-coded data rather than arbitrary code so transactions
stay serializable and chains replayable.  A ``ValidatorRef`` names one of four
kinds; ``run_validator`` is the total, deterministic interpreter deciding
whether a spend is accepted.  Signatures are simulated: a pay-to-key validator
accepts exactly when the redeemer equals the key id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Context, Datum, Redeemer, Value

KeyId = int

ACCEPT_ALL_KIND = "AcceptAll"
REJECT_ALL_KIND = "RejectAll"
PAY_TO_PUBKEY_KIND = "PayToPubKey"
STATE_MACHINE_KIND = "StateMachine"

#: Parameter arity per validator kind (all parameters are naturals).
KIND_ARITY = {
    ACCEPT_ALL_KIND: 0,
    REJECT_ALL_KIND: 0,
    PAY_TO_PUBKEY_KIND: 1,
    STATE_MACHINE_KIND: 5,
}


@dataclass(frozen=True, slots=True)
class ValidatorRef:
    """Serializable reference to a validator: a kind plus natural parameters.

    PayToPubKey carries the key id; StateMachine carries a flattened token
    portal configuration (issuer, traded symbol/token, state symbol/token).
    """

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        arity = KIND_ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown validator kind {self.kind!r}")
        if len(self.params) != arity:
            raise ValueError(f"{self.kind} takes {arity} parameters, got {len(self.params)}")
        if any(p < 0 for p in self.params):
            raise ValueError("validator parameters must be naturals")

    def sort_key(self) -> tuple:
        return (self.kind, self.params)


ACCEPT_ALL = ValidatorRef(ACCEPT_ALL_KIND)
REJECT_ALL = ValidatorRef(REJECT_ALL_KIND)


def pay_to_pubkey(key: KeyId) -> ValidatorRef:
    """Validator accepting exactly the redeemer equal to ``key`` (simulated
    signature check)."""
    return ValidatorRef(PAY_TO_PUBKEY_KIND, (key,))


def run_validator(ref: ValidatorRef, redeemer: Redeemer, datum: Datum, value: Value, ctx: Context) -> bool:
    """Decide whether the referenced validator accepts the spend.

    Total and pure: never raises for well-formed arguments, and checking is
    polynomial in the size of the context (no search over redeemers).
    """
    if ref.kind == ACCEPT_ALL_KIND:
        return True
    if ref.kind == REJECT_ALL_KIND:
        return False
    if ref.kind == PAY_TO_PUBKEY_KIND:
        return redeemer == ref.params[0]
    if ref.kind == STATE_MACHINE_KIND:
        from .token_portal import TokenConfig, transition_check

        try:
            cfg = TokenConfig.from_params(ref.params)
        except ValueError:  # the parameters name no portal: nothing unlocks it
            return False
        return transition_check(cfg, redeemer, datum, value, ctx)
    raise ValueError(f"unknown validator kind {ref.kind!r}")


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
