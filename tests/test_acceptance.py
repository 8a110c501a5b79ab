"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; sizes and time budgets are asserted, not aspirational.
"""

import json
import random
import time

from ledgersim import formats
from ledgersim.cli import main as cli_main
from ledgersim.equivalence import alpha_equiv, apart, rename_positions, spent_edges
from ledgersim.gen import ChainGen, spend
from ledgersim.harness import (
    STATEMENTS,
    bundled_race_scenario,
    fuzz_theorem,
    run_scenario,
)
from ledgersim.ledger import Chain, ValidationReport, append, classify, utxo, validate_chain
from ledgersim.model import (
    ACCEPT_ALL,
    PAY_TO_PUBKEY_KIND,
    Chip,
    Input,
    Output,
    PositionAllocator,
    Transaction,
    pay_to_pubkey,
    singleton,
)
from ledgersim.policy import AFFINE_ONCE, Policy, PolicyTable, circulating
from ledgersim.token_portal import (
    InsufficientSupply,
    PriceRefused,
    TokenConfig,
    build_buy_tx,
    build_set_price_tx,
    init_portal,
)

from test_equivalence import alpha_equiv_bruteforce


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_figure_fixtures(corpus_dir):
    """Reconstructed figure chains classify exactly as printed."""
    t0 = time.time()
    expectations = {
        "figure-3-B.chain": "blockchain",
        "figure-6-Bprime.chain": "blockchain",
        "figure-4-prefix.chain": "blockchain",
        "figure-5-prefix.chain": "blockchain",
        "figure-4-chunk.chain": "chunk",
        "figure-5-chunk.chain": "chunk",
        "figure-2-tx.chain": "chunk",
        "swapped.chain": "neither",
    }
    for name, expected in expectations.items():
        chain = formats.parse_chain((corpus_dir / name).read_text())
        assert classify(chain) == expected, name
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"8 figure fixtures classify exactly as printed ({elapsed:.3f}s)")


def test_criterion_2_prefix_closure(corpus_dir):
    """10,000 generated valid chains: every prefix validates; plus the stored
    suffix-closure violation witness."""
    t0 = time.time()
    rng = random.Random(2024)
    gen = ChainGen(rng)
    failures = 0
    for _ in range(10_000):
        chain, _ = gen.chain(rng.randrange(13))
        assert validate_chain(chain).valid
        for upto in range(len(chain) + 1):
            if not validate_chain(chain.prefix(upto)).valid:
                failures += 1
    assert failures == 0

    witness = formats.parse_chain((corpus_dir / "suffix-closure-witness.chain").read_text())
    assert validate_chain(witness).valid
    assert not validate_chain(Chain(witness.transactions[1:])).valid

    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, f"10,000 chains prefix-closed, suffix witness invalid as stored ({elapsed:.1f}s)")


def test_criterion_3_apartness_and_commutation():
    """Apartness symmetry plus both commute clauses, 10,000 cases each."""
    t0 = time.time()
    rng = random.Random(14)
    gen = ChainGen(rng)
    for _ in range(10_000):
        chain, alloc = gen.chain()
        t1, t2 = gen.apart_pair(chain, alloc)
        if rng.random() < 0.3 and t1.outputs:
            # perturb into overlap so symmetry is checked off the diagonal too
            victim = sorted(t1.outputs, key=lambda o: o.position)[0]
            t2 = Transaction(t2.inputs | {Input(victim.position, 0)}, t2.outputs)
        assert apart(t1, t2) == apart(t2, t1)

    r1 = fuzz_theorem("lemma15_1", seed=151, cases=10_000)
    assert r1.cases == 10_000 and not r1.counterexamples
    r2 = fuzz_theorem("lemma15_2", seed=152, cases=10_000)
    assert r2.cases == 10_000 and not r2.counterexamples

    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(3, f"apartness symmetry + both commute clauses, 10,000 cases each, 0 counterexamples ({elapsed:.1f}s)")


def test_criterion_4_deferral():
    """10,000 instances where both deferral hypotheses hold: the deferred
    order is valid and observationally equivalent."""
    t0 = time.time()
    r = fuzz_theorem("theorem17", seed=17, cases=10_000)
    assert r.cases == 10_000
    assert r.passes == 10_000
    assert not r.counterexamples
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(4, f"deferral: 10,000 hypothesis-satisfying instances, 0 counterexamples ({elapsed:.1f}s)")


def test_criterion_5_slot_ranges(corpus_dir):
    """With slot ranges: 10,000 both-orders-valid instances stay equivalent,
    and a stored time-sensitive counterexample breaks the deferral direction."""
    r = fuzz_theorem("prop19", seed=19, cases=10_000)
    assert r.cases == 10_000 and not r.counterexamples

    payload = json.loads((corpus_dir / "remark18-counterexample.json").read_text())
    base = formats.parse_chain(payload["base"])
    txs, _ = formats.parse_transactions(payload["txs"])
    (tx,), _ = formats.parse_transactions(payload["tx"])
    assert STATEMENTS["remark18"].fails({"base": base, "txs": txs, "tx": tx})

    hunt = fuzz_theorem("remark18", seed=18, cases=50)
    assert hunt.counterexamples

    report(5, "slot-ranged equivalence holds on 10,000 instances; stored + fuzzed deferral counterexamples confirmed")


def _small_chain_for_oracle(rng):
    """A chain of at most 5 transactions and 4 spent pairs; the caller sets
    ``gen.MAX_INPUTS`` and ``gen.MAX_OUTPUTS`` to 2."""
    gen = ChainGen(rng, reject_all_prob=0.0)
    while True:
        chain, alloc = gen.chain(rng.randrange(6))
        if len(spent_edges(chain)) <= 4:
            return chain, alloc


def test_criterion_6_alpha_suite(monkeypatch):
    """The lemma21 campaign (all four parts per case) at 5,000 cases, and
    oracle agreement of the alpha decision on 1,000 small chains."""
    r = fuzz_theorem("lemma21", seed=21, cases=5_000)
    assert r.cases == 5_000 and not r.counterexamples

    monkeypatch.setattr("ledgersim.gen.MAX_INPUTS", 2)
    monkeypatch.setattr("ledgersim.gen.MAX_OUTPUTS", 2)

    rng = random.Random(6)
    mismatches = 0
    for case in range(1_000):
        chain, alloc = _small_chain_for_oracle(rng)
        roll = rng.random()
        if roll < 0.4:
            # true alpha variant: rename a subset of spent pairs
            spent = sorted({out.position for _, out, _, _ in spent_edges(chain)})
            chosen = rng.sample(spent, rng.randrange(len(spent) + 1))
            other = rename_positions(chain, {p: 500 + i for i, p in enumerate(chosen)})
        elif roll < 0.6 and utxo(chain):
            # rename one unspent position: observable, not alpha-equivalent
            target = sorted(out.position for out in utxo(chain))[0]
            other = rename_positions(chain, {target: 600})
        elif roll < 0.8:
            # tweak one datum
            txs = list(chain.transactions)
            if txs and txs[-1].outputs:
                tx = txs[-1]
                victim = sorted(tx.outputs, key=lambda o: o.position)[0]
                bumped = (tx.outputs - {victim}) | {
                    Output(victim.position, victim.validator, victim.datum + 1, victim.value)
                }
                txs[-1] = Transaction(tx.inputs, frozenset(bumped), tx.slot_range)
            other = Chain(tuple(txs))
        else:
            other, _ = _small_chain_for_oracle(rng)
        if not validate_chain(other).valid:
            continue
        if alpha_equiv(chain, other) != alpha_equiv_bruteforce(chain, other):
            mismatches += 1
    assert mismatches == 0
    report(6, "lemma21 campaign green on 5,000 cases; alpha decision matches brute-force search on 1,000 chains")


def test_criterion_7_portal_safety(corpus_dir):
    """Every interleaving of the bundled race: accepted buys pay exactly the
    build-time price; reordering only flips accept to reject.  Output equals
    the stored golden file byte for byte."""
    scenario = bundled_race_scenario("eutxo")
    rep = run_scenario(scenario)
    golden = (corpus_dir / "race_eutxo.golden.txt").read_text()
    assert rep.to_text() == golden

    build_price, amount = 1, 100
    accepted_effects = set()
    for outcome in rep.outcomes:
        holdings = {actor: dict(facts) for actor, facts in outcome.holdings}
        status, _ = outcome.statuses[0]  # intent 0 is the buy
        if status == "accepted":
            assert holdings["buyer"]["1:1"] == amount
            assert holdings["buyer"]["ada_paid"] == amount * build_price
            accepted_effects.add((holdings["buyer"]["1:1"], holdings["buyer"]["ada_paid"]))
        else:
            assert status == "rejected"
            assert holdings["buyer"].get("1:1", 0) == 0
            assert holdings["buyer"]["ada_paid"] == 0
    assert len(accepted_effects) <= 1  # all accepted buys have the one fixed effect
    report(7, "race outcomes match golden file; accepted buys pay the build-time price, others transfer nothing")


def test_criterion_8_account_bugs(corpus_dir):
    """Front-run outcome and the rounding loss, with exact numbers."""
    scenario = bundled_race_scenario("account")
    rep = run_scenario(scenario)
    golden = (corpus_dir / "race_account.golden.txt").read_text()
    assert rep.to_text() == golden

    by_order = {outcome.order: outcome for outcome in rep.outcomes}
    front_run = by_order[(1, 0)]  # setPrice first
    holdings = {actor: dict(facts) for actor, facts in front_run.holdings}
    assert [s for s, _ in front_run.statuses] == ["accepted", "accepted"]
    assert holdings["buyer"]["tokens"] == 1  # floor(100 / 100)
    assert holdings["buyer"]["ada_paid"] == 100

    from ledgersim.accounts import AccountChain, CallTx, call, deploy_changing

    chain = deploy_changing(AccountChain(), name=1, sender=1, supply=10, price=3)
    chain, result = call(chain, CallTx(1, "buy", sender=2, value=2))
    assert result.ok and result.tokens == 0
    assert chain.get(1).balance == 2  # two units silently retained
    assert chain.get(1).state.balance_of(2) == 0
    report(8, "front-run yields 1 token for 100 paid; value-2/price-3 buy yields 0 tokens with 2 retained")


def test_criterion_9_monetary_policy_invariant():
    """Across fuzzed token scenarios totalling >= 5,000 appends: the state
    chip's unspent total stays in {0,1} and is monotone; the traded total
    equals the initial supply from issuance on."""
    rng = random.Random(99)
    cfg = TokenConfig(issuer=1, traded_chip=Chip(1, 1), state_chip=Chip(2, 1))
    policies = PolicyTable((Policy(2, AFFINE_ONCE),))
    state_symbol, traded_symbol = 2, 1
    buyers = (7, 8, 9)
    total_appends = 0
    violations = 0

    def check(chain: Chain, supply: int, state_seen: bool) -> bool:
        nonlocal violations
        state_total = circulating(chain.index(), state_symbol)
        if state_total not in (0, 1):
            violations += 1
        if state_seen and state_total != 1:  # monotone: once minted, never gone
            violations += 1
        if circulating(chain.index(), traded_symbol) != supply:
            violations += 1
        return state_total == 1

    while total_appends < 5_000:
        supply = rng.randrange(50, 400)
        alloc = PositionAllocator()
        chain = Chain()
        state_seen = check(chain, 0, False)
        chain = append(chain, init_portal(cfg, supply, rng.randrange(0, 10), alloc), policies=policies)
        assert isinstance(chain, Chain)
        total_appends += 1
        state_seen = check(chain, supply, state_seen)
        for _ in range(60):
            roll = rng.random()
            tx = None
            try:
                if roll < 0.40:
                    limit = rng.randrange(12) if rng.random() < 0.3 else None
                    tx = build_buy_tx(chain, cfg, rng.choice(buyers), rng.randrange(1, 6), alloc, max_price=limit)
                elif roll < 0.65:
                    tx = build_set_price_tx(chain, cfg, rng.randrange(0, 12), alloc)
                elif roll < 0.85:
                    held = [
                        out
                        for out in utxo(chain)
                        if out.validator.kind == PAY_TO_PUBKEY_KIND and out.value.get(cfg.traded_chip) > 0
                    ]
                    if held:
                        victim = held[rng.randrange(len(held))]
                        tx = Transaction(
                            frozenset({spend(victim, rng)}),
                            frozenset({Output(alloc.fresh(), pay_to_pubkey(rng.choice(buyers)), 0, victim.value)}),
                        )
                else:
                    # rogue: attempt to mint a second state chip; must be rejected
                    rogue = Transaction(
                        frozenset(), frozenset({Output(alloc.fresh(), ACCEPT_ALL, 0, singleton(cfg.state_chip, 1))})
                    )
                    rejected = append(chain, rogue, policies=policies)
                    assert isinstance(rejected, ValidationReport)
                    continue
            except (PriceRefused, InsufficientSupply):
                continue
            if tx is None:
                continue
            result = append(chain, tx, policies=policies)
            assert isinstance(result, Chain), result.describe() if isinstance(result, ValidationReport) else ""
            chain = result
            total_appends += 1
            state_seen = check(chain, supply, state_seen)

    assert violations == 0
    report(9, f"{total_appends} appends across token scenarios: state chip stayed affine, traded supply conserved")


def test_criterion_10_determinism(capsys, corpus_dir):
    """Fuzz and scenario commands rerun with the same seed are byte-identical."""

    def cli(*argv) -> str:
        cli_main(list(argv))
        return capsys.readouterr().out

    pairs = []
    for argv in (
        ("fuzz", "--theorem", "lemma15_1", "--cases", "300", "--seed", "77"),
        ("fuzz", "--theorem", "remark18", "--cases", "20", "--seed", "77", "--format", "json"),
        ("scenario", str(corpus_dir / "race_eutxo.scenario")),
        ("scenario", str(corpus_dir / "race_account.scenario"), "--format", "json"),
    ):
        pairs.append((cli(*argv), cli(*argv)))
    for first, second in pairs:
        assert first.encode() == second.encode()

    assert fuzz_theorem("prop19", seed=5, cases=200).to_text() == fuzz_theorem("prop19", seed=5, cases=200).to_text()
    report(10, "fuzz and scenario reruns are byte-identical for fixed seeds")
