"""Seeded generator of long valid chains as chain-file text.

It writes the ledgersim chain format directly and imports nothing from
ledgersim, so the long-chain workload's input does not depend on the code it
measures.  The generator tracks the unspent pool itself; that pool is the
reference the benchmark checks ``utxo`` against.
"""

from __future__ import annotations

import random
from typing import NamedTuple

GENESIS_PROB = 0.1
REJECT_ALL_PROB = 0.05
P2PK_PROB = 0.45
KEYS = 4
CHIPS = ((0, 0), (1, 1), (2, 5), (3, 1))


class ChainText(NamedTuple):
    text: str  # the chain, canonical chain-file text
    variant: str  # the same chain with about half of its spent pairs renamed
    unspent: tuple[int, ...]  # sorted positions of the outputs never spent
    top: int  # every position in either text is below this


def _value_text(rng: random.Random) -> str:
    chips = sorted(rng.sample(CHIPS, rng.randrange(3)))
    return "".join(f" {s}:{t}={1 + rng.randrange(4)}" for s, t in chips)


def generate(rng: random.Random, n_tx: int) -> ChainText:
    """A valid chain of ``n_tx`` transactions.

    Each transaction spends one to three outputs drawn uniformly from the
    unspent pool (none for a genesis transaction) and creates one to three
    outputs locked by AcceptAll, PayToPubKey or, rarely, RejectAll.
    """
    pool: list[tuple[int, int]] = []  # spendable (position, redeemer it accepts)
    txs: list[tuple[list[tuple[int, int]], list[tuple[int, str]]]] = []
    spent: list[int] = []
    next_pos = 0
    for _ in range(n_tx):
        inputs = []
        if pool and rng.random() >= GENESIS_PROB:
            for _ in range(min(len(pool), 1 + rng.randrange(3))):
                j = rng.randrange(len(pool))
                pool[j], pool[-1] = pool[-1], pool[j]
                inputs.append(pool.pop())
        outputs = []
        for _ in range(1 + rng.randrange(3)):
            pos, next_pos = next_pos, next_pos + 1
            roll = rng.random()
            if roll < REJECT_ALL_PROB:
                lock = "RejectAll"
            elif roll < REJECT_ALL_PROB + P2PK_PROB:
                key = 1 + rng.randrange(KEYS)
                lock = f"PayToPubKey {key}"
                pool.append((pos, key))
            else:
                lock = "AcceptAll"
                pool.append((pos, rng.randrange(10)))
            outputs.append((pos, f"{lock} {rng.randrange(10)}{_value_text(rng)}"))
        spent.extend(p for p, _ in inputs)
        txs.append((inputs, outputs))

    renaming = {}
    for p in spent:
        if rng.random() < 0.5:
            renaming[p] = next_pos + len(renaming)
    spent_set = set(spent)
    unspent = tuple(p for p in range(next_pos) if p not in spent_set)
    return ChainText(_render(txs, {}), _render(txs, renaming), unspent, next_pos + len(renaming))


def _render(txs, renaming: dict[int, int]) -> str:
    lines = []
    for index, (inputs, outputs) in enumerate(txs):
        lines.append(f"TX {index}")
        for p, redeemer in sorted((renaming.get(p, p), r) for p, r in inputs):
            lines.append(f"IN {p} {redeemer}")
        for p, body in sorted((renaming.get(p, p), b) for p, b in outputs):
            lines.append(f"OUT {p} {body}")
    return "\n".join(lines) + "\n"
