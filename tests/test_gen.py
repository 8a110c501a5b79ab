"""The chain generator: its draws are pinned, they are ``randrange``'s draws,
and its shared values match the naive construction in ``oracles.py``."""

import hashlib
import random

import oracles
from ledgersim import gen
from ledgersim.formats import chain_to_text, transactions_to_text
from ledgersim.gen import KEY_COUNT, KEY_VALIDATORS, ChainGen
from ledgersim.harness import fuzz_theorem
from ledgersim.model import PAY_TO_PUBKEY_KIND, PositionAllocator, pay_to_pubkey

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


DEFAULT_DRAWS_PIN = "b060df437f4aa6cc2cc30c7ab83381d5b4b1baead53930487f9a0ed0ec9cf736"


def test_default_generator_draws_pinned():
    """200 chains of the default setting per seed, unslotted and slotted,
    with an apart pair on each of the first 50, and the RNG state after
    them: the draws the campaigns make most, pinned before the generator
    read its bits through ``_below``."""
    digest = hashlib.sha256()
    for seed in (11, 12):
        for slotted in (False, True):
            rng = random.Random(seed)
            chains = ChainGen(rng, slotted=slotted)
            for at in range(200):
                chain, alloc = chains.chain()
                digest.update(chain_to_text(chain).encode())
                if at < 50:
                    digest.update(transactions_to_text(chains.apart_pair(chain, alloc)).encode())
            digest.update(repr(rng.random()).encode())
    assert digest.hexdigest() == DEFAULT_DRAWS_PIN


def test_below_is_randrange():
    """On twin RNGs, ``_below`` over ``getrandbits`` returns what
    ``randrange`` returns and leaves the RNG in the same state, for bounds
    on both sides of each power of two the generator's bounds reach."""
    for seed in range(3):
        rng, twin = random.Random(seed), random.Random(seed)
        for n in range(1, 70):
            for _ in range(300):
                assert gen._below(rng.getrandbits, n) == twin.randrange(n)
        assert rng.random() == twin.random()


# 1 draw without a pick, 16 (chip, quantity) draws with one, 16**2 with two
VALUE_DRAWS = 1 + 16 + 16**2


def test_value_table_matches_fresh_values(monkeypatch):
    """Over twin RNGs, the generated output equals the one drawn with
    ``randrange`` and built afresh, the draws are the same calls (both RNGs
    end in one state), the same value draw gives the same object, and the
    table stays within the draw space."""
    monkeypatch.setattr(gen, "VALUE_TABLE", {})
    rng, twin = random.Random(9), random.Random(9)
    outputs, alloc = ChainGen(rng), PositionAllocator()
    shared = set()
    for position in range(20_000):
        out = outputs.random_output(alloc)
        assert out == oracles.random_output(twin, position, outputs.reject_all_prob)
        shared.add(id(out.value))
    assert rng.getstate() == twin.getstate()
    assert len(gen.VALUE_TABLE) == VALUE_DRAWS  # this seed reaches every draw
    assert len(shared) == VALUE_DRAWS


def test_key_validators_are_pay_to_pubkey():
    """Every pay-to-key output holds one of the shared ``KEY_VALIDATORS``,
    and the draws reach each key."""
    rng, twin = random.Random(3), random.Random(3)
    outputs, alloc = ChainGen(rng), PositionAllocator()
    keys = set()
    for position in range(2_000):
        ref = outputs.random_output(alloc).validator
        assert ref == oracles.random_output(twin, position, outputs.reject_all_prob).validator
        if ref.kind == PAY_TO_PUBKEY_KIND:
            key = ref.params[0]
            assert ref is KEY_VALIDATORS[key - 1] and ref == pay_to_pubkey(key)
            keys.add(key)
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
