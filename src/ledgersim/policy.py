"""Per-currency-symbol forging rules, checked at append time.

The table is an optional configuration extension to chain validity: the base
model stays untouched and callers pass a table into ``append``/``validate``
when they want forging constrained.  A transaction's forge is one map from
currency symbol to net quantity created (``forged``), and the rules judge its
entries.  The affine rule is what makes a state chip work: it can be minted
once, never duplicated, never burned.

The rules read a chain through its ``LedgerIndex``, which ``ledger`` passes
in: ``ledger`` calls ``policy_violation`` and this module imports only
``model`` at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .model import MalformedChainError, Transaction

if TYPE_CHECKING:
    from .ledger import LedgerIndex

FREE_FORGE = "FreeForge"
FORBID_FORGE = "ForbidForge"
AFFINE_ONCE = "AffineOnce"

RULES = (FREE_FORGE, FORBID_FORGE, AFFINE_ONCE)


@dataclass(frozen=True)
class Policy:
    symbol: int
    rule: str

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown policy rule {self.rule!r}")
        if self.symbol < 0:
            raise ValueError("currency symbol must be a natural")


@dataclass(frozen=True)
class PolicyTable:
    """Finite map from currency symbol to policy; unlisted symbols are forged
    freely (``FREE_FORGE``), so genesis-style issuance works."""

    policies: tuple[Policy, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "policies", tuple(self.policies))
        symbols = [p.symbol for p in self.policies]
        if len(set(symbols)) != len(symbols):
            raise ValueError("at most one policy per currency symbol")

    @classmethod
    def of(cls, rules: Mapping[int, str]) -> PolicyTable:
        return cls(tuple(Policy(s, r) for s, r in sorted(rules.items())))

    def rule_for(self, symbol: int) -> str:
        for p in self.policies:
            if p.symbol == symbol:
                return p.rule
        return FREE_FORGE


def forged(index: LedgerIndex, tx: Transaction) -> dict[int, int]:
    """The forge of ``tx`` on top of the indexed chain, ``{symbol: net
    quantity}``: its outputs minus the outputs its inputs resolve to, so
    negative means burning.  Zero entries are dropped; every input must
    resolve."""
    net: dict[int, int] = {}
    for out in tx.outputs:
        for chip, qty in out.value:
            net[chip.symbol] = net.get(chip.symbol, 0) + qty
    for inp in tx.inputs:
        out = index.output.get(inp.position)
        if out is None:
            raise MalformedChainError(f"input at {inp.position} does not resolve in the chain")
        for chip, qty in out.value:
            net[chip.symbol] = net.get(chip.symbol, 0) - qty
    return {symbol: delta for symbol, delta in net.items() if delta}


def circulating(index: LedgerIndex, symbol: int) -> int:
    """Total quantity of the symbol over the indexed chain's unspent outputs,
    each distinct output counted once.  Only the outputs that carry the
    symbol are read (``LedgerIndex.carriers``)."""
    return sum(out.value.symbol_total(symbol) for out in frozenset(index.carriers(symbol)))


def policy_violation(table: PolicyTable, index: LedgerIndex, tx: Transaction) -> str | None:
    """First policy problem with appending ``tx`` to the indexed chain, or
    None when all pertinent policies are satisfied."""
    for symbol, delta in sorted(forged(index, tx).items()):
        rule = table.rule_for(symbol)
        if rule == FREE_FORGE:
            continue
        if rule == FORBID_FORGE:
            return f"symbol {symbol} may not be forged or burned (delta {delta:+d})"
        if delta < 0:
            return f"symbol {symbol} is affine and may not be burned (delta {delta:+d})"
        if delta > 1:
            return f"symbol {symbol} is affine: at most one may ever exist (delta {delta:+d})"
        existing = circulating(index, symbol)
        if existing != 0:
            return f"symbol {symbol} is affine and already circulates ({existing})"
    return None

