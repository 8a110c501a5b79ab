"""Dual-semantics ledger library.

One package, two ledgers: a UTxO-style chain whose validity, unspent-output
and equivalence machinery make submitted transactions order-independent up to
acceptance, and an account-style chain of named contracts where call effects
depend on execution order.  A tradable-token portal runs on both, and a
deterministic harness races the two under arbitrary interleavings.
"""

from .accounts import AccountChain, CallTx, ContractState, call, deploy_changing
from .equivalence import alpha_equiv, apart, canonicalize, check_defer, obs_equiv
from .ledger import Chain, ValidationReport, append, classify, utxo, validate_chain
from .model import (
    ACCEPT_ALL,
    ADA,
    REJECT_ALL,
    Chip,
    Context,
    Input,
    KeyId,
    Output,
    PositionAllocator,
    SlotRange,
    Transaction,
    ValidatorRef,
    Value,
    context_at,
    pay_to_pubkey,
    positions_of,
    singleton,
)
from .policy import Policy, PolicyTable, forged
from .token_portal import TokenConfig, build_buy_tx, build_set_price_tx, init_portal, transition_check
from .validators import run_validator

__all__ = [
    "ADA",
    "ACCEPT_ALL",
    "REJECT_ALL",
    "AccountChain",
    "CallTx",
    "Chain",
    "Chip",
    "Context",
    "ContractState",
    "Input",
    "KeyId",
    "Output",
    "Policy",
    "PolicyTable",
    "PositionAllocator",
    "SlotRange",
    "TokenConfig",
    "Transaction",
    "ValidationReport",
    "ValidatorRef",
    "Value",
    "alpha_equiv",
    "apart",
    "append",
    "build_buy_tx",
    "build_set_price_tx",
    "call",
    "canonicalize",
    "check_defer",
    "classify",
    "context_at",
    "deploy_changing",
    "forged",
    "init_portal",
    "obs_equiv",
    "pay_to_pubkey",
    "positions_of",
    "run_validator",
    "singleton",
    "transition_check",
    "utxo",
    "validate_chain",
]
