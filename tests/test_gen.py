"""The chain generator: its draws are pinned, and its shared values match the
naive construction in ``oracles.py``."""

import hashlib
import random

import oracles
from ledgersim import gen
from ledgersim.formats import chain_to_text, transactions_to_text
from ledgersim.gen import KEY_COUNT, P2PK_PROB, ChainGen
from ledgersim.harness import fuzz_theorem
from ledgersim.model import PAY_TO_PUBKEY_KIND, pay_to_pubkey

# (slotted, keyword arguments) for each generator setting that some caller uses
SETTINGS = [
    (slotted, kwargs)
    for slotted in (False, True)
    for kwargs in ({}, {"reject_all_prob": 0.0}, {"max_inputs": 2, "max_outputs": 2})
]
CHAINS_PER_SETTING = 50
GENERATED_CHAINS_PIN = "84c7a2b399f625a55eeba9b0bdad38094940aa0bee2be52a433240bffe9f11c4"


def test_generated_chains_pinned():
    """The generated chains, apart pairs and the RNG state after them are
    fixed across versions, not only across reruns: every fuzz campaign and
    every prefix-closure chain of the benchmark is drawn from them."""
    digest = hashlib.sha256()
    for setting, (slotted, kwargs) in enumerate(SETTINGS):
        rng = random.Random(setting)
        for _ in range(CHAINS_PER_SETTING):
            chains = ChainGen(rng, slotted=slotted, **kwargs)
            chain, alloc = chains.chain()
            digest.update(chain_to_text(chain).encode())
            digest.update(transactions_to_text(chains.apart_pair(chain, alloc)).encode())
        digest.update(repr(rng.random()).encode())
    assert digest.hexdigest() == GENERATED_CHAINS_PIN


# 1 draw without a pick, 16 (chip, quantity) draws with one, 16**2 with two
VALUE_DRAWS = 1 + 16 + 16**2


def test_value_table_matches_fresh_values(monkeypatch):
    """Over twin RNGs, the table-backed value equals the one built afresh,
    the draws are the same calls (both RNGs end in one state), the same draw
    gives the same object, and the table stays within the draw space."""
    monkeypatch.setattr(gen, "VALUE_TABLE", {})
    rng, twin = random.Random(9), random.Random(9)
    values = ChainGen(rng)
    shared = set()
    for _ in range(20_000):
        value = values.random_value()
        assert value == oracles.random_value(twin)
        shared.add(id(value))
    assert rng.getstate() == twin.getstate()
    assert len(gen.VALUE_TABLE) == VALUE_DRAWS  # this seed reaches every draw
    assert len(shared) == VALUE_DRAWS


def test_key_validators_are_pay_to_pubkey():
    rng, twin = random.Random(3), random.Random(3)
    validators = ChainGen(rng)
    keys = set()
    for _ in range(2_000):
        ref = validators.random_validator()
        roll = twin.random()
        if validators.reject_all_prob <= roll < validators.reject_all_prob + P2PK_PROB:
            key = 1 + twin.randrange(KEY_COUNT)
            assert ref == pay_to_pubkey(key)
            keys.add(key)
        else:
            assert ref.kind != PAY_TO_PUBKEY_KIND
    assert rng.getstate() == twin.getstate()
    assert keys == set(range(1, KEY_COUNT + 1))


def test_campaign_does_not_depend_on_the_table(monkeypatch):
    """A campaign reports the same with an empty table as with one that
    earlier campaigns filled."""
    monkeypatch.setattr(gen, "VALUE_TABLE", {})
    fresh = fuzz_theorem("theorem17", seed=5, cases=300)
    for which in ("lemma15_1", "lemma21"):
        fuzz_theorem(which, seed=1, cases=200)
    assert len(gen.VALUE_TABLE) <= VALUE_DRAWS
    assert fuzz_theorem("theorem17", seed=5, cases=300) == fresh
