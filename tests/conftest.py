"""Shared fixtures: the reference four-transaction chain, corpus paths and a
counter of the ledger's transaction checks."""

from pathlib import Path

import pytest

from ledgersim import ledger
from ledgersim.ledger import Chain
from ledgersim.model import ACCEPT_ALL, ADA, Input, Output, Transaction, singleton

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# Positions of the reference chain, named after the usual drawing.
A, B, C, D, E, F, G, H, I, J, K = range(1, 12)


def ref_output(position: int) -> Output:
    return Output(position, ACCEPT_ALL, 0, singleton(ADA, 1))


@pytest.fixture(scope="session")
def figure_txs():
    """tx1 .. tx4 of the reference chain: genesis creating 1,2,3; spenders of
    2, of 1, and of 4,5,6."""
    tx1 = Transaction(frozenset(), frozenset({ref_output(A), ref_output(B), ref_output(C)}))
    tx2 = Transaction(frozenset({Input(B, 0)}), frozenset({ref_output(D)}))
    tx3 = Transaction(frozenset({Input(A, 0)}), frozenset({ref_output(E), ref_output(F), ref_output(G)}))
    tx4 = Transaction(
        frozenset({Input(E, 0), Input(F, 0), Input(D, 0)}),
        frozenset({ref_output(H), ref_output(I), ref_output(J), ref_output(K)}),
    )
    return tx1, tx2, tx3, tx4


@pytest.fixture(scope="session")
def chain_b(figure_txs):
    tx1, tx2, tx3, tx4 = figure_txs
    return Chain((tx1, tx2, tx3, tx4))


@pytest.fixture(scope="session")
def chain_b_prime(figure_txs):
    tx1, tx2, tx3, tx4 = figure_txs
    return Chain((tx1, tx3, tx2, tx4))


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture
def checks(monkeypatch):
    """The transaction checks run from here on, as the index size each one
    was asked at."""
    original, seen = ledger._check_transaction, []

    def counted(index, tx, slot, policies):
        seen.append(index.size)
        return original(index, tx, slot, policies)

    monkeypatch.setattr(ledger, "_check_transaction", counted)
    return seen
