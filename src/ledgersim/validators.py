"""The validator interpreter.

Validators are registry-coded data rather than arbitrary code so transactions
stay serializable and chains replayable.  A ``ValidatorRef`` (defined in
``model``, beside the outputs that carry it) names one of four kinds;
``run_validator`` is the total, deterministic interpreter deciding whether a
spend is accepted.  Signatures are simulated: a pay-to-key validator accepts
exactly when the redeemer equals the key id.  A ``StateMachine`` reference is
a token portal, judged by ``token_portal.transition_check``; its parameters
are decoded into a ``TokenConfig`` once, through a cache bounded at 256
parameter tuples, and not again at every spend.

A validator is a function of its redeemer, its datum, its value and the
context, the spending transaction seen from one input.  Only the kinds in
``CONTEXT_READERS`` read the context; the others decide from the first three
alone, so the ledger builds a context only for a spend of a context reader
and passes ``None`` otherwise.
"""

from __future__ import annotations

from functools import lru_cache

from .model import (
    ACCEPT_ALL,  # re-exported: the benchmark reads validators.ACCEPT_ALL
    ACCEPT_ALL_KIND,
    PAY_TO_PUBKEY_KIND,
    REJECT_ALL_KIND,
    STATE_MACHINE_KIND,
    Context,
    Datum,
    Redeemer,
    ValidatorRef,
    Value,
    pay_to_pubkey,  # re-exported: the benchmark reads validators.pay_to_pubkey
)
from .token_portal import TokenConfig, transition_check

#: The validator kinds that read the spending context.
CONTEXT_READERS = frozenset({STATE_MACHINE_KIND})


@lru_cache(maxsize=256)
def _portal(params: tuple[int, ...]) -> TokenConfig | None:
    """The portal a ``StateMachine`` reference's parameters name, or None
    when they name none."""
    try:
        return TokenConfig.from_params(params)
    except ValueError:
        return None


def run_validator(ref: ValidatorRef, redeemer: Redeemer, datum: Datum, value: Value, ctx: Context | None) -> bool:
    """Decide whether the referenced validator accepts the spend.

    Total and pure: never raises for well-formed arguments, and checking is
    polynomial in the size of the context (no search over redeemers).
    ``ctx`` may be None only for a kind outside ``CONTEXT_READERS``; a
    context reader given None raises TypeError.
    """
    if ref.kind == ACCEPT_ALL_KIND:
        return True
    if ref.kind == REJECT_ALL_KIND:
        return False
    if ref.kind == PAY_TO_PUBKEY_KIND:
        return redeemer == ref.params[0]
    if ref.kind == STATE_MACHINE_KIND:
        if ctx is None:
            raise TypeError(f"a {ref.kind} validator reads the spending context, got None")
        cfg = _portal(ref.params)
        if cfg is None:  # the parameters name no portal: nothing unlocks it
            return False
        return transition_check(cfg, redeemer, datum, value, ctx)
    raise ValueError(f"unknown validator kind {ref.kind!r}")
