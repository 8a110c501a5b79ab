"""Text codecs: chain files, scenario files, corpus fixtures."""

import dataclasses
import random

import pytest

from ledgersim import formats
from ledgersim.formats import EUTXO, Intent, Scenario
from ledgersim.gen import ChainGen
from ledgersim.harness import RACE_SCENARIOS, bundled_race_scenario
from ledgersim.ledger import classify, utxo, validate_chain
from ledgersim.policy import PolicyTable

# What each corpus chain fixture must classify as, by file name.
CORPUS_EXPECTATIONS = {
    "figure-2-tx.chain": "chunk",
    "figure-3-B.chain": "blockchain",
    "figure-4-prefix.chain": "blockchain",
    "figure-4-chunk.chain": "chunk",
    "figure-5-prefix.chain": "blockchain",
    "figure-5-chunk.chain": "chunk",
    "figure-6-Bprime.chain": "blockchain",
    "swapped.chain": "neither",
    "bprime-unspent-renamed.chain": "blockchain",
    "suffix-closure-witness.chain": "blockchain",
}


def test_chain_round_trip_random():
    rng = random.Random(41)
    for slotted in (False, True):
        gen = ChainGen(rng, slotted=slotted)
        for _ in range(100):
            chain, _ = gen.chain()
            text = formats.chain_to_text(chain)
            parsed = formats.parse_chain(text)
            assert parsed == chain
            assert formats.chain_to_text(parsed) == text  # canonical text is a fixpoint


def test_parse_chain_comments_and_blanks():
    text = """
# leading comment
TX 0   # trailing comment
OUT 1 AcceptAll 0 0:0=1

TX 1
IN 1 0
"""
    chain = formats.parse_chain(text)
    assert len(chain) == 2
    assert validate_chain(chain).valid


def test_parse_chain_errors():
    cases = [
        "TX zero\n",
        "IN 1 0\n",  # IN before TX
        "TX 0\nOUT 1 NoSuchKind 0\n",
        "TX 0\nOUT 1 PayToPubKey 0\n",  # missing datum after param
        "TX 1\n",  # index out of order
        "TX 0\nOUT 1 AcceptAll 0 0:0=0\n",  # zero quantity
        "TX 0 SLOT 1\nTX 1\n",  # mixed slotting
        "WAT 0\n",
    ]
    for text in cases:
        with pytest.raises(formats.ParseError):
            formats.parse_chain(text)


def test_parse_chain_slot_monotonicity():
    with pytest.raises(formats.ParseError) as err:
        formats.parse_chain("TX 0 SLOT 5\nTX 1 SLOT 3\n")
    assert str(err.value) == "line 2: slot 3 below the previous slot 5"


@pytest.mark.parametrize(
    "text, message",
    [
        ("TX 0 SLOT 1 SLOT 7\n", "line 1: SLOT given twice"),
        ("TX 0 SLOT 2 RANGE 0 5 RANGE 9 *\n", "line 1: RANGE given twice"),
        # the last transaction, at line 6 of 8, spends position 1 twice
        (
            "TX 0\nOUT 1 AcceptAll 0\nOUT 2 AcceptAll 0\nTX 1\nOUT 3 AcceptAll 0\nTX 2\nIN 1 0\nIN 1 3\n",
            "line 6: duplicate input positions within one transaction",
        ),
        # two identical lines are two claims on one position, not one line
        (
            "TX 0\nOUT 1 AcceptAll 0\nTX 1\nIN 1 0\nOUT 2 AcceptAll 0\nOUT 2 AcceptAll 0\n",
            "line 3: duplicate output positions within one transaction",
        ),
        ("TX 0\nOUT 1 AcceptAll 0\nTX 1\nIN 1 0\nIN 1 0\n", "line 3: duplicate input positions within one transaction"),
        # naturals are ASCII digits: no underscore, no sign, no other script's digits
        ("TX 0\nOUT 1_0 AcceptAll 0\n", "line 2: position must be a natural number, got '1_0'"),
        ("TX 0\nOUT 1 AcceptAll +0\n", "line 2: datum must be a natural number, got '+0'"),
        ("TX 0\nOUT 1 AcceptAll 0 1:1=\u0663\n", "line 2: quantity must be a natural number, got '\u0663'"),
        ("TX 0 SLOT \u0663\n", "line 1: slot must be a natural number, got '\u0663'"),
        ("TX 0\nOUT 1 AcceptAll 0\nTX 1\nIN 1 -0\n", "line 4: redeemer must be a natural number, got '-0'"),
        # more digits than int() reads are refused, not read
        ("TX 0 SLOT " + "9" * 5000 + "\n", "line 1: slot must be a natural number, got '" + "9" * 5000 + "'"),
    ],
    ids=[
        "second-slot",
        "second-range",
        "duplicate-input-at-its-tx-line",
        "identical-output-lines",
        "identical-input-lines",
        "underscore-position",
        "signed-datum",
        "arabic-indic-quantity",
        "arabic-indic-slot",
        "signed-redeemer",
        "over-long-slot",
    ],
)
def test_parse_chain_error_messages(text, message):
    with pytest.raises(formats.ParseError) as err:
        formats.parse_chain(text)
    assert str(err.value) == message


SHARED_TEXT = """TX 0
OUT 1 PayToPubKey 5 0 0:0=1 1:1=2
OUT 2 PayToPubKey 5 3 0:0=1 1:1=2
OUT 3 AcceptAll 0
TX 1
IN 1 5
OUT 4 PayToPubKey 5 0 0:0=1 1:1=2
OUT 5 AcceptAll 9
OUT 6 PayToPubKey 6 0 0:0=1
"""


def _outputs(chain):
    return {out.position: out for tx in chain.transactions for out in tx.outputs}


def test_parse_shares_one_object_per_distinct_validator_and_value_text():
    """Within one parse, equal validator words and equal value words give one
    object each; a second parse of the same text shares none of them."""
    first = _outputs(formats.parse_chain(SHARED_TEXT))
    assert first[1].validator is first[2].validator is first[4].validator
    assert first[1].value is first[2].value is first[4].value
    assert first[3].validator is first[5].validator and first[3].value is first[5].value
    assert first[6].validator is not first[1].validator and first[6].value is not first[1].value
    second = _outputs(formats.parse_chain(SHARED_TEXT))
    assert first == second
    for one in first.values():
        for other in second.values():
            assert one.validator is not other.validator and one.value is not other.value
    assert formats.chain_to_text(formats.parse_chain(SHARED_TEXT)) == SHARED_TEXT


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("OUT 2 PayToPubKey 5 x 0:0=1", "datum must be a natural number, got 'x'"),
        ("OUT z PayToPubKey 5 0 0:0=1", "position must be a natural number, got 'z'"),
        ("OUT 2 PayToPubKey y 0 0:0=1", "PayToPubKey parameter must be a natural number, got 'y'"),
        ("OUT 2 PayToPubKey 5 0 0:0=0", "quantity must be >= 1, got 0"),
        ("OUT 2 PayToPubKey y 0 0:0=0", "PayToPubKey parameter must be a natural number, got 'y'"),
        ("OUT 2 PayToPubKey 5 x 0:0=0", "datum must be a natural number, got 'x'"),
    ],
    ids=["datum", "position", "param", "value", "param-before-value", "datum-before-value"],
)
def test_parse_error_after_shared_words_names_the_bad_line(bad_line, message):
    """A malformed OUT line after a good one with the same validator and value
    words is still refused, at its own line, for its first bad word."""
    text = f"TX 0\nOUT 1 PayToPubKey 5 0 0:0=1\nTX 1\n{bad_line}\n"
    with pytest.raises(formats.ParseError) as err:
        formats.parse_chain(text)
    assert str(err.value) == f"line 4: {message}"


def test_range_serialization():
    text = "TX 0 RANGE 2 *\nOUT 1 AcceptAll 0\nTX 1 SLOT 0\n"
    with pytest.raises(formats.ParseError):
        formats.parse_chain(text)  # mixed slotting again
    chain = formats.parse_chain("TX 0 SLOT 3 RANGE 2 *\nOUT 1 AcceptAll 0\n")
    assert chain.slots == (3,)
    tx = chain.transactions[0]
    assert tx.slot_range.lo == 2 and tx.slot_range.hi is None
    assert formats.chain_to_text(chain) == "TX 0 SLOT 3 RANGE 2 *\nOUT 1 AcceptAll 0\n"


def test_empty_value_serializes():
    chain = formats.parse_chain("TX 0\nOUT 4 AcceptAll 7\n")
    out = next(iter(chain.transactions[0].outputs))
    assert not out.value and out.datum == 7


def test_corpus_fixtures_parse_and_classify(corpus_dir):
    seen = set()
    for path in sorted(corpus_dir.glob("*.chain")):
        expected = CORPUS_EXPECTATIONS[path.name]
        chain = formats.parse_chain(path.read_text())
        assert classify(chain) == expected, path.name
        seen.add(path.name)
    assert seen == set(CORPUS_EXPECTATIONS)


def test_corpus_round_trip(corpus_dir):
    for path in sorted(corpus_dir.glob("*.chain")):
        chain = formats.parse_chain(path.read_text())
        assert formats.parse_chain(formats.chain_to_text(chain)) == chain


def test_separate_parses_give_equal_utxo_sets(corpus_dir):
    """Each ``parse_chain`` call makes its own validator and value objects,
    so two parses of one text share none; their unspent sets, frozensets
    of outputs, are still equal."""
    texts = [path.read_text() for path in sorted(corpus_dir.glob("*.chain"))]
    texts += [formats.chain_to_text(ChainGen(random.Random(seed)).chain(length=40)[0]) for seed in range(5)]
    for text in texts:
        first, second = formats.parse_chain(text), formats.parse_chain(text)
        ones, others = utxo(first), utxo(second)
        assert ones == others
        values = {id(out.value) for out in ones if out.value}
        assert values.isdisjoint(id(out.value) for out in others)


def test_scenario_round_trip_bundled():
    schedules = (("sample", 3, 9), ("explicit", (1, 0)), ("all",))
    scenarios = []
    for ledger in ("eutxo", "account"):
        scenario = bundled_race_scenario(ledger)
        scenarios += [scenario, dataclasses.replace(scenario, schedules=schedules)]
    eutxo = bundled_race_scenario("eutxo")
    mint = Intent.of("buyer", "mint", sym=5, tok=1, qty=2)
    scenarios += [
        dataclasses.replace(eutxo, policies=PolicyTable()),
        dataclasses.replace(eutxo, rebuild=True, intents=eutxo.intents + (mint,)),
    ]
    for scenario in scenarios:
        text = formats.scenario_to_text(scenario)
        assert formats.parse_scenario(text) == scenario
        assert formats.scenario_to_text(formats.parse_scenario(text)) == text


def test_scenario_with_default_policies_round_trips():
    """An eutxo scenario built with no policy table holds the empty one,
    which is what a file with no POLICY line parses to."""
    race = bundled_race_scenario("eutxo")
    scenario = Scenario(EUTXO, race.actors, race.intents, race.schedules, race.supply, race.price, cfg=race.cfg)
    assert scenario.policies == PolicyTable()
    assert formats.parse_scenario(formats.scenario_to_text(scenario)) == scenario


def test_corpus_scenarios_round_trip(corpus_dir):
    """The printer is the parser's inverse on every stored scenario, actor
    order included."""
    paths = sorted(corpus_dir.glob("*.scenario"))
    assert paths
    for path in paths:
        scenario = formats.parse_scenario(path.read_text())
        assert formats.parse_scenario(formats.scenario_to_text(scenario)) == scenario, path.name


def _mutate(rng: random.Random, scenario: Scenario) -> Scenario:
    """One mutation, in values the file format can spell: an actor dropped
    or named twice, an intent's actor re-pointed, an explicit order added
    (a permutation, or one with an entry changed, dropped or repeated), a
    sample count of 0, a supply of 0, or, on the account ledger, the
    deployer renamed."""
    actors, intents = scenario.actors, scenario.intents
    names = [name for name, _ in actors] + ["ghost"]
    which = rng.randrange(7 if scenario.ledger == "account" else 6)
    if which == 0 and actors:
        at = rng.randrange(len(actors))
        return dataclasses.replace(scenario, actors=actors[:at] + actors[at + 1 :])
    if which == 1 and actors:
        name, key = rng.choice(actors)
        at = rng.randrange(len(actors) + 1)
        return dataclasses.replace(scenario, actors=actors[:at] + ((name, key + rng.randrange(2)),) + actors[at:])
    if which == 2:
        at = rng.randrange(len(intents))
        repointed = dataclasses.replace(intents[at], actor=rng.choice(names))
        return dataclasses.replace(scenario, intents=intents[:at] + (repointed,) + intents[at + 1 :])
    if which == 3:
        order = list(range(len(intents)))
        rng.shuffle(order)
        perturb = rng.randrange(4)
        if perturb == 0:
            order[rng.randrange(len(order))] = rng.randrange(len(order) + 1)
        elif perturb == 1 and len(order) > 1:
            del order[rng.randrange(len(order))]
        elif perturb == 2:
            order.append(rng.choice(order))
        return dataclasses.replace(scenario, schedules=scenario.schedules + (("explicit", tuple(order)),))
    if which == 4:
        at = rng.randrange(len(scenario.schedules) + 1)
        schedules = scenario.schedules[:at] + (("sample", 0, rng.randrange(10)),) + scenario.schedules[at:]
        return dataclasses.replace(scenario, schedules=schedules)
    if which == 5:
        return dataclasses.replace(scenario, supply=0)
    if which == 6:
        return dataclasses.replace(scenario, deployer=rng.choice(names))
    return scenario


def test_the_judge_is_the_parser(corpus_dir):
    """For 2,400 seeded mutations of the corpus scenarios, the text of a
    scenario ``formats.scenario_problem`` passes parses back to it, and the
    text of one it refuses fails to parse with its message, at the line of
    the keyword it names."""
    corpus = [formats.parse_scenario(path.read_text()) for path in sorted(corpus_dir.glob("*.scenario"))]
    assert len(corpus) == 8
    rng = random.Random(2000)
    taken = {"passed": 0}
    for _ in range(2400):
        scenario = rng.choice(corpus)
        for _ in range(rng.randint(1, 2)):
            scenario = _mutate(rng, scenario)
        text = formats.scenario_to_text(scenario)
        problem = formats.scenario_problem(scenario)
        if problem is None:
            assert formats.parse_scenario(text) == scenario
            taken["passed"] += 1
            continue
        keyword, at, message = problem
        lines = [lineno for lineno, line in enumerate(text.splitlines(), start=1) if line.split()[0] == keyword]
        with pytest.raises(formats.ParseError) as err:
            formats.parse_scenario(text)
        assert str(err.value) == f"line {lines[at]}: {message}"
        taken[keyword] = taken.get(keyword, 0) + 1
    # at this seed: 417 passed; refused at ACTOR 526, INTENT 500, SCHEDULE 676, SUPPLY 251, DEPLOYER 30
    assert taken["passed"] >= 300 and sum(taken.values()) - taken["passed"] >= 1500, taken
    assert {"ACTOR", "INTENT", "SCHEDULE", "SUPPLY", "DEPLOYER"} <= set(taken), taken


def test_scenario_files_match_bundled(corpus_dir):
    for ledger in ("eutxo", "account"):
        on_disk = (corpus_dir / f"race_{ledger}.scenario").read_text()
        assert RACE_SCENARIOS[ledger] == on_disk  # bundled_race_scenario parses this text


def test_scenario_parse_errors():
    cases = [
        "LEDGER martian\n",
        "LEDGER eutxo\nSUPPLY 5\nPRICE 1\nSCHEDULE all\n",  # missing CONFIG
        "LEDGER eutxo\nCONFIG issuer=1 traded=1:1 state=2:1\nSUPPLY 5\nPRICE 1\n",  # no SCHEDULE
        # intent references an unknown actor
        "LEDGER eutxo\nCONFIG issuer=1 traded=1:1 state=2:1\nSUPPLY 5\nPRICE 1\n"
        "INTENT ghost buy n=1\nSCHEDULE all\n",
        # account scenario without a deployer
        "LEDGER account\nCONTRACT 1\nSUPPLY 5\nPRICE 1\nACTOR issuer 1\nSCHEDULE all\n",
        # unknown function
        "LEDGER account\nCONTRACT 1\nDEPLOYER issuer\nSUPPLY 5\nPRICE 1\nACTOR issuer 1\n"
        "INTENT issuer call selfdestruct\nSCHEDULE all\n",
    ]
    for text in cases:
        with pytest.raises(formats.ParseError):
            formats.parse_scenario(text)
    # naturals are ASCII digits: no underscore, no sign, no other script's digits
    head = EUTXO_HEAD + "INTENT buyer buy n=1\nINTENT buyer buy n=2\n"
    every = head + "SCHEDULE all\n"
    pinned = [
        (every.replace("SUPPLY 1000", "SUPPLY 1_000"), "line 3: supply must be a natural number, got '1_000'"),
        (every.replace("PRICE 1", "PRICE +1"), "line 4: price must be a natural number, got '+1'"),
        (every.replace("buyer 7", "buyer \u0667"), "line 5: key id must be a natural number, got '\u0667'"),
        (head + "SCHEDULE +1,-0\n", "line 8: bad explicit schedule '+1,-0'"),
        (head + "SCHEDULE 1,\u0660\n", "line 8: bad explicit schedule '1,\u0660'"),
        (head + "SCHEDULE sample 1_0 @1\n", "line 8: sample count must be a natural number, got '1_0'"),
    ]
    for text, message in pinned:
        with pytest.raises(formats.ParseError) as err:
            formats.parse_scenario(text)
        assert str(err.value) == message


EUTXO_HEAD = "LEDGER eutxo\nCONFIG issuer=1 traded=1:1 state=2:1\nSUPPLY 1000\nPRICE 1\nACTOR buyer 7\n"
ACCOUNT_HEAD = "LEDGER account\nCONTRACT 1\nDEPLOYER buyer\nSUPPLY 1000\nPRICE 1\nACTOR buyer 7\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (EUTXO_HEAD + "POLICY 2 AffineOnce\nPOLICY 2 FreeForge\n", "line 7: symbol 2 already has a policy"),
        (EUTXO_HEAD + "POLICY 2 AffineOnce\nPOLICY 2 AffineOnce\n", "line 7: symbol 2 already has a policy"),
        (EUTXO_HEAD + "INTENT buyer buy n=5 n=7\n", "line 6: n given twice"),
        (ACCOUNT_HEAD + "INTENT buyer call setPrice p=3 p=4\n", "line 7: p given twice"),
        # the function is the word after ``call``; a function= word is a parameter no row has
        (ACCOUNT_HEAD + "INTENT buyer call send function=3 to=1 amount=1\n", "line 7: send unknown ['function']"),
        ("LEDGER eutxo\nCONFIG issuer=1 issuer=2 traded=1:1 state=2:1\n", "line 2: issuer given twice"),
        (ACCOUNT_HEAD + "INTENT buyer buy n=5\n", "line 7: buy intents need LEDGER eutxo"),
        (EUTXO_HEAD + "INTENT buyer call setPrice p=3\n", "line 6: call intents need LEDGER account"),
        # the ledger is known only at the end of the file
        ("INTENT buyer set_price p=3\n" + ACCOUNT_HEAD, "line 1: set_price intents need LEDGER eutxo"),
        # a second single-valued line is refused rather than replacing the first
        (ACCOUNT_HEAD + "LEDGER eutxo\n", "line 7: LEDGER given twice"),
        (EUTXO_HEAD + "CONFIG issuer=2 traded=1:1 state=2:1\n", "line 6: CONFIG given twice"),
        (ACCOUNT_HEAD + "CONTRACT 2\n", "line 7: CONTRACT given twice"),
        (ACCOUNT_HEAD + "DEPLOYER buyer\n", "line 7: DEPLOYER given twice"),
        (ACCOUNT_HEAD + "SUPPLY 5\n", "line 7: SUPPLY given twice"),
        (EUTXO_HEAD + "PRICE 2\n", "line 6: PRICE given twice"),
        (ACCOUNT_HEAD + "REBUILD\n", "line 7: REBUILD needs LEDGER eutxo"),
        (ACCOUNT_HEAD + "CONFIG issuer=1 traded=1:1 state=2:1\n", "line 7: CONFIG needs LEDGER eutxo"),
        (ACCOUNT_HEAD + "POLICY 2 AffineOnce\n", "line 7: POLICY needs LEDGER eutxo"),
        (EUTXO_HEAD + "CONTRACT 1\n", "line 6: CONTRACT needs LEDGER account"),
        (EUTXO_HEAD + "DEPLOYER nobody\n", "line 6: DEPLOYER needs LEDGER account"),
        (EUTXO_HEAD.replace("state=2:1", "state=2:1 isuer=5"), "line 2: CONFIG unknown ['isuer']"),
        (EUTXO_HEAD + "REBUILD\nREBUILD\n", "line 7: REBUILD given twice"),
        (EUTXO_HEAD + "REBUILD x\n", "line 6: REBUILD takes no arguments"),
        (EUTXO_HEAD + "INTENT buyer mint sym=5 tok=1\n", "line 6: mint missing ['qty']"),
        (EUTXO_HEAD + "INTENT buyer buy n=0\n", "line 6: buy n must be at least 1, got 0"),
        (EUTXO_HEAD + "INTENT buyer mint sym=1 tok=1 qty=0\n", "line 6: mint qty must be at least 1, got 0"),
        (
            EUTXO_HEAD + "INTENT buyer buy n=1\nINTENT buyer buy n=2\nSCHEDULE 0,2\n",
            "line 8: schedule (0, 2) is not a permutation of 0..1",
        ),
        (EUTXO_HEAD + "SCHEDULE sample 0 @1\n", "line 6: sample count must be at least 1"),
        (EUTXO_HEAD.replace("SUPPLY 1000", "SUPPLY 0"), "line 3: SUPPLY must be at least 1 on LEDGER eutxo"),
    ],
    ids=[
        "second-policy",
        "same-policy-twice",
        "repeated-intent-key",
        "repeated-call-key",
        "call-function-as-parameter",
        "repeated-config-key",
        "eutxo-intent-on-account",
        "call-intent-on-eutxo",
        "intent-before-ledger",
        "second-ledger",
        "second-config",
        "second-contract",
        "second-deployer",
        "second-supply",
        "second-price",
        "rebuild-on-account",
        "config-on-account",
        "policy-on-account",
        "contract-on-eutxo",
        "deployer-on-eutxo",
        "config-unknown-key",
        "second-rebuild",
        "rebuild-with-argument",
        "mint-missing-qty",
        "buy-zero",
        "mint-zero",
        "explicit-not-permutation",
        "sample-zero",
        "eutxo-supply-zero",
    ],
)
def test_scenario_contradictory_lines(text, message):
    with pytest.raises(formats.ParseError) as err:
        formats.parse_scenario(text + "SCHEDULE all\n")
    assert str(err.value) == message


def test_account_scenario_may_start_with_no_supply():
    """``SUPPLY 0`` is refused only on eutxo, where the portal must hold the
    supply; an account contract may be deployed empty."""
    scenario = formats.parse_scenario(ACCOUNT_HEAD.replace("SUPPLY 1000", "SUPPLY 0") + "SCHEDULE all\n")
    assert scenario.supply == 0


@pytest.mark.parametrize(
    "intent, message",
    [
        ("buyGuarded", "buyGuarded missing ['expected', 'value']"),
        ("buyGuarded value=3", "buyGuarded missing ['expected']"),
        ("send to=1", "send missing ['amount']"),
        ("buy", "buy missing ['value']"),
        ("setPrice", "setPrice missing ['p']"),
    ],
)
def test_call_intent_missing_parameter(intent, message):
    text = (
        "LEDGER account\nCONTRACT 1\nDEPLOYER issuer\nSUPPLY 5\nPRICE 1\nACTOR issuer 1\n"
        f"INTENT issuer call {intent}\nSCHEDULE all\n"
    )
    with pytest.raises(formats.ParseError) as err:
        formats.parse_scenario(text)
    assert str(err.value) == f"line 7: {message}"


@pytest.mark.parametrize(
    "intent, message",
    [
        ("setPrice p=3 bogus=4", "setPrice unknown ['bogus']"),
        ("setPrice p=3 value=2", "setPrice unknown ['value']"),
        ("send to=1 amount=2 value=5", "send unknown ['value']"),
        ("buy value=3 n=1", "buy unknown ['n']"),
        ("buyGuarded expected=1 value=3 p=2 to=1", "buyGuarded unknown ['p', 'to']"),
        ("send to=1 bogus=4", "send missing ['amount']"),  # missing is reported first
    ],
)
def test_call_intent_unknown_parameter(intent, message):
    text = (
        "LEDGER account\nCONTRACT 1\nDEPLOYER issuer\nSUPPLY 5\nPRICE 1\nACTOR issuer 1\n"
        f"INTENT issuer call {intent}\nSCHEDULE all\n"
    )
    with pytest.raises(formats.ParseError) as err:
        formats.parse_scenario(text)
    assert str(err.value) == f"line 7: {message}"


def test_remark18_corpus_witness(corpus_dir):
    import json

    from ledgersim.harness import STATEMENTS

    payload = json.loads((corpus_dir / "remark18-counterexample.json").read_text())
    base = formats.parse_chain(payload["base"])
    txs, _ = formats.parse_transactions(payload["txs"])
    (tx,), _ = formats.parse_transactions(payload["tx"])
    assert STATEMENTS["remark18"].fails({"base": base, "txs": txs, "tx": tx})


def test_suffix_closure_corpus_witness(corpus_dir):
    from ledgersim.ledger import Chain

    chain = formats.parse_chain((corpus_dir / "suffix-closure-witness.chain").read_text())
    assert validate_chain(chain).valid
    assert not validate_chain(Chain(chain.transactions[1:])).valid
