"""Scheduler behaviour, interleaving enumeration, fuzz engine plumbing."""

import dataclasses
import math

import pytest

from ledgersim.formats import Intent
from ledgersim.harness import (
    MAX_ORDERS,
    STATEMENTS,
    Outcome,
    Run,
    build_world,
    bundled_race_scenario,
    expand_schedules,
    fuzz_theorem,
    minimize_instance,
    run_scenario,
    run_schedule,
)
from ledgersim import formats
from ledgersim.ledger import Chain, validate_chain
from ledgersim.model import Chip
from ledgersim.policy import PolicyTable
from ledgersim.token_portal import TokenConfig

import oracles


def _holding(outcome: Outcome, actor: str) -> dict:
    for name, facts in outcome.holdings:
        if name == actor:
            return dict(facts)
    raise AssertionError(f"no holdings for {actor}")


def test_single_buy_accepted():
    scenario = bundled_race_scenario("eutxo")
    world = build_world(scenario)
    intents = (Intent.of("buyer", "buy", n=5),)
    outcome = run_schedule(world, intents, (0,))
    assert outcome.statuses[0][0] == "accepted"
    assert _holding(outcome, "buyer")["1:1"] == 5
    assert _holding(outcome, "buyer")["ada_paid"] == 5


def test_eutxo_race_set_price_first():
    scenario = bundled_race_scenario("eutxo")
    world = build_world(scenario)
    outcome = run_schedule(world, scenario.intents, (1, 0))
    assert outcome.statuses[1][0] == "accepted"
    assert outcome.statuses[0][0] == "rejected"  # stale portal reference
    buyer = _holding(outcome, "buyer")
    assert buyer.get("1:1", 0) == 0 and buyer["ada_paid"] == 0
    assert dict(outcome.state)["portal_price"] == 100


def test_eutxo_race_buy_first():
    scenario = bundled_race_scenario("eutxo")
    world = build_world(scenario)
    outcome = run_schedule(world, scenario.intents, (0, 1))
    assert outcome.statuses[0][0] == "accepted"
    assert outcome.statuses[1][0] == "rejected"
    buyer = _holding(outcome, "buyer")
    assert buyer["1:1"] == 100 and buyer["ada_paid"] == 100  # price 1 each, as built


def test_account_race_set_price_first():
    scenario = bundled_race_scenario("account")
    world = build_world(scenario)
    outcome = run_schedule(world, scenario.intents, (1, 0))
    assert [s for s, _ in outcome.statuses] == ["accepted", "accepted"]
    buyer = _holding(outcome, "buyer")
    assert buyer["tokens"] == 1  # floor(100/100) after the front-run
    assert buyer["ada_paid"] == 100


def test_account_race_buy_first():
    scenario = bundled_race_scenario("account")
    world = build_world(scenario)
    outcome = run_schedule(world, scenario.intents, (0, 1))
    assert _holding(outcome, "buyer")["tokens"] == 100


def test_build_refusal_recorded():
    scenario = bundled_race_scenario("eutxo")
    world = build_world(scenario)
    intents = (Intent.of("buyer", "buy", n=1, max_price=0),)  # portal price is 1
    outcome = run_schedule(world, intents, (0,))
    status, reason = outcome.statuses[0]
    assert status == "rejected" and reason.startswith("refused-at-build")


def test_order_must_be_permutation():
    """An entry that is no int is refused as any other, not with the
    TypeError of sorting it or of indexing the intents with it, and a bool
    is no int, as in an explicit schedule clause."""
    scenario = bundled_race_scenario("eutxo")
    world = build_world(scenario)
    for order, shown in (
        ((0, 0), r"\(0, 0\)"),
        ((0, "1"), r"\(0, '1'\)"),
        ((None, 0), r"\(None, 0\)"),
        ((0, True), r"\(0, True\)"),
        ((1.0, 0), r"\(1\.0, 0\)"),
    ):
        with pytest.raises(ValueError, match=rf"^order {shown} is not a permutation of 0\.\.1$"):
            run_schedule(world, scenario.intents, order)


def test_run_schedule_deterministic():
    scenario = bundled_race_scenario("eutxo")
    world = build_world(scenario)
    a = run_schedule(world, scenario.intents, (1, 0))
    b = Run(build_world(scenario), scenario.intents).outcome((1, 0))
    assert a.to_lines() == b.to_lines()


def test_empty_intents():
    scenario = bundled_race_scenario("eutxo")
    world = build_world(scenario)
    outcome = run_schedule(world, (), ())
    assert outcome.statuses == ()
    assert dict(outcome.state)["portal_supply"] == 1000


def test_expand_schedules_all_small():
    race = bundled_race_scenario("eutxo")
    for intents, orders in ((2, [(0, 1), (1, 0)]), (1, [(0,)]), (0, [()])):
        scenario = dataclasses.replace(race, intents=race.intents[:intents], schedules=(("all",),))
        assert expand_schedules(scenario) == orders


def test_expand_schedules_sampled():
    race = bundled_race_scenario("eutxo")
    five = dataclasses.replace(race, intents=race.intents * 2 + race.intents[:1])
    sampled = expand_schedules(dataclasses.replace(five, schedules=(("sample", 10, 42),)))
    assert len(sampled) == 10
    assert all(sorted(order) == [0, 1, 2, 3, 4] for order in sampled)
    assert sampled == expand_schedules(dataclasses.replace(five, schedules=(("sample", 10, 42),)))
    assert sampled != expand_schedules(dataclasses.replace(five, schedules=(("sample", 10, 43),)))
    assert math.factorial(5) > 10  # fewer samples than orders


def test_expand_schedules_explicit_and_sample():
    race = bundled_race_scenario("eutxo")
    orders = expand_schedules(dataclasses.replace(race, schedules=(("explicit", (1, 0)), ("sample", 3, 5))))
    assert orders[0] == (1, 0) and len(orders) == 4


def test_expand_schedules_bounds_the_orders_asked_for():
    """Up to MAX_ORDERS orders over all clauses are built; one more is
    refused."""
    race = bundled_race_scenario("eutxo")
    eight = dataclasses.replace(race, intents=race.intents * 4)
    nine = dataclasses.replace(race, intents=race.intents * 4 + race.intents[:1])
    assert MAX_ORDERS == math.factorial(8)
    assert len(expand_schedules(dataclasses.replace(eight, schedules=(("all",),)))) == MAX_ORDERS
    assert len(expand_schedules(dataclasses.replace(race, schedules=(("sample", MAX_ORDERS, 1),)))) == MAX_ORDERS
    for scenario, clauses in (
        (nine, (("all",),)),
        (race, (("sample", MAX_ORDERS + 1, 1),)),
        (eight, (("all",), ("explicit", tuple(range(8))))),
        (race, (("sample", MAX_ORDERS, 1), ("all",))),
    ):
        with pytest.raises(ValueError, match="more than 40320 orders"):
            expand_schedules(dataclasses.replace(scenario, schedules=clauses))
    # a sample clause the parser would refuse is refused by the judge before
    # counting: a negative count would subtract from the tally, here leaving
    # 2 x 8! orders
    for clauses, message in (
        ((("all",), ("all",), ("sample", -MAX_ORDERS, 1)), "schedule 2: sample count must be at least 1"),
        ((("sample", 2.5, 1),), "schedule 0: sample count must be an int, got 2.5"),
        ((("sample", 0, 1),), "schedule 0: sample count must be at least 1"),
        ((("sample", True, 1),), "schedule 0: sample count must be an int, got True"),
        ((("sample", 3, -1),), "schedule 0: sample seed must be a natural int, got -1"),
        ((("sample", 3, "7"),), "schedule 0: sample seed must be a natural int, got '7'"),
    ):
        with pytest.raises(ValueError) as raised:
            expand_schedules(dataclasses.replace(eight, schedules=clauses))
        assert str(raised.value) == message


def test_expand_schedules_checks_permutations_before_the_bound():
    """A bad explicit clause is reported even after clauses that ask for
    too many orders."""
    race = bundled_race_scenario("eutxo")
    scenario = dataclasses.replace(race, schedules=(("sample", MAX_ORDERS + 1, 1), ("explicit", (1, 1))))
    with pytest.raises(ValueError, match=r"^schedule 1: schedule \(1, 1\) is not a permutation of 0\.\.1$"):
        expand_schedules(scenario)


def test_unknown_function_in_a_built_scenario_raises_value_error():
    """A scenario built in code skips the parser; the run still fails, before
    any turn, with the parser's message and an error its callers catch."""
    account = bundled_race_scenario("account")
    bogus = dataclasses.replace(account, intents=(Intent.of("buyer", "call", function="bogus", value=1),))
    with pytest.raises(ValueError) as raised:
        run_scenario(bogus)
    assert str(raised.value) == "intent 0: unknown function 'bogus'"


# Malformed intents, each with ``formats.intent_problem``'s message: on each
# ledger a missing parameter, a non-natural one, an unknown kind or
# function, the other ledger's kind and an unknown actor.
MALFORMED = [
    ("eutxo", Intent.of("buyer", "buy"), "buy missing ['n']"),
    ("eutxo", Intent.of("buyer", "mint", sym=5, tok=1), "mint missing ['qty']"),
    ("account", Intent.of("buyer", "call", function="send"), "send missing ['amount', 'to']"),
    ("eutxo", Intent.of("buyer", "buy", n="5"), "n must be a natural number, got '5'"),
    ("eutxo", Intent.of("buyer", "set_price", p=-1), "p must be a natural number, got -1"),
    ("eutxo", Intent.of("buyer", "buy", n=0), "buy n must be at least 1, got 0"),
    ("eutxo", Intent.of("buyer", "transfer", n=1), "unknown intent kind 'transfer'"),
    ("eutxo", Intent.of("buyer", "call", function="buy", value=1), "call intents need LEDGER account"),
    ("eutxo", Intent.of("ghost", "buy", n=1), "intent references unknown actor 'ghost'"),
    ("account", Intent.of("buyer", "call", function="buy", value=1, n=2), "buy unknown ['n']"),
    ("account", Intent.of("buyer", "call", function="buy", value=True), "value must be a natural number, got True"),
    ("account", Intent.of("buyer", "call", function="bogus"), "unknown function 'bogus'"),
    ("account", Intent.of("buyer", "call"), "unknown function None"),
    ("account", Intent.of("buyer", "buy", n=1), "buy intents need LEDGER eutxo"),
    ("account", Intent.of("ghost", "call", function="setPrice", p=1), "intent references unknown actor 'ghost'"),
]


@pytest.mark.parametrize(
    "ledger, intent, message", [(ledger, intent, f"intent 0: {problem}") for ledger, intent, problem in MALFORMED]
)
def test_built_intent_is_checked_against_its_row(ledger, intent, message):
    """A scenario built in code meets the judge a parsed intent does: its
    row, its actor and its ledger.  A fault is a ValueError naming the
    intent, never a TypeError or a KeyError from the run."""
    scenario = dataclasses.replace(bundled_race_scenario(ledger), intents=(intent,))
    with pytest.raises(ValueError) as raised:
        run_scenario(scenario)
    assert str(raised.value) == message


def _counting_submits(monkeypatch) -> dict:
    """Count what the scheduler builds and runs: worlds, UTxO intents,
    account calls and their execution."""
    from ledgersim import harness

    calls = dict.fromkeys(("init_portal", "deploy_changing", "_build_eutxo_intent", "CallTx", "call"), 0)
    for name in calls:

        def counted(*args, _real=getattr(harness, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    return calls


@pytest.mark.parametrize("ledger, intent, problem", MALFORMED)
def test_malformed_intent_is_refused_before_any_turn(monkeypatch, ledger, intent, problem):
    """Through ``Run``, through ``run_schedule`` on a world that has run,
    and through ``run_scenario``, a malformed intent is one ValueError
    naming it, raised before any world, intent or call is built or run; the
    run ``run_schedule`` kept serves the next call, which builds and runs
    nothing."""
    race = bundled_race_scenario(ledger)
    intents = race.intents + (intent,)
    world = build_world(race)
    first = run_schedule(world, race.intents, (1, 0))
    calls = _counting_submits(monkeypatch)
    for order in ((0, 1, 2), (2, 1, 0)):
        with pytest.raises(ValueError) as raised:
            run_schedule(world, intents, order)
        assert str(raised.value) == f"intent 2: {problem}"
    with pytest.raises(ValueError) as raised:
        Run(world, intents)
    assert str(raised.value) == f"intent 2: {problem}"
    with pytest.raises(ValueError) as raised:
        run_scenario(dataclasses.replace(race, intents=intents))
    assert str(raised.value) == f"intent 2: {problem}"
    assert run_schedule(world, race.intents, (1, 0)) == first
    assert set(calls.values()) == {0}
    assert run_schedule(world, race.intents, (0, 1)) == Run(build_world(race), race.intents).outcome((0, 1))


# Scenarios built in code that the parser would refuse, each with the
# ValueError ``formats.scenario_problem``'s answer is raised as: by ledger,
# the changed fields of the bundled race.
REFUSED_SCENARIOS = [
    ("eutxo", {"actors": (("buyer", 7), ("issuer", 1), ("buyer", 8))}, "actor 2: actor 'buyer' given twice"),
    ("account", {"actors": (("buyer", 7), ("issuer", 1), ("issuer", 9))}, "actor 2: actor 'issuer' given twice"),
    ("eutxo", {"schedules": (("explicit", (0, "1")),)}, "schedule 0: schedule (0, '1') is not a permutation of 0..1"),
    ("eutxo", {"schedules": (("all",), ("explicit", 5))}, "schedule 1: schedule 5 is not a permutation of 0..1"),
    ("account", {"schedules": (("explicit", (0, True)),)}, "schedule 0: schedule (0, True) is not a permutation of 0..1"),
    ("eutxo", {"schedules": (("explicit", [1, 0]),)}, "schedule 0: schedule [1, 0] is not a permutation of 0..1"),
    ("eutxo", {"schedules": (("sample", 2),)}, "schedule 0: unknown schedule clause ('sample', 2)"),
    ("eutxo", {"ledger": "martian"}, "ledger 0: unknown ledger kind 'martian'"),
    ("eutxo", {"cfg": None}, "config 0: eutxo scenario is missing a CONFIG line"),
    ("eutxo", {"supply": 0}, "supply 0: SUPPLY must be at least 1 on LEDGER eutxo"),
    ("account", {"deployer": "ghost"}, "deployer 0: deployer 'ghost' is not an actor"),
    ("eutxo", {"supply": "5"}, "supply 0: supply must be a natural number, got '5'"),
    ("eutxo", {"price": 2.5}, "price 0: price must be a natural number, got 2.5"),
    ("eutxo", {"actors": (("buyer", "x"), ("issuer", 1))}, "actor 0: key id must be a natural number, got 'x'"),
    ("account", {"contract": "c"}, "contract 0: contract name must be a natural number, got 'c'"),
    ("eutxo", {"schedules": ()}, "schedule 0: scenario has no SCHEDULE lines"),
    # fields the parser cannot spell: a field of the wrong type, or one the
    # other ledger's keyword sets
    ("eutxo", {"cfg": (1, 2)}, "config 0: cfg must be a TokenConfig, got (1, 2)"),
    ("eutxo", {"policies": None}, "policy 0: policies must be a PolicyTable, got None"),
    ("eutxo", {"rebuild": "yes"}, "rebuild 0: rebuild must be a bool, got 'yes'"),
    ("eutxo", {"contract": 5}, "contract 0: CONTRACT needs LEDGER account"),
    ("eutxo", {"deployer": "buyer"}, "deployer 0: DEPLOYER needs LEDGER account"),
    ("account", {"cfg": TokenConfig(1, Chip(1, 1), Chip(2, 1))}, "config 0: CONFIG needs LEDGER eutxo"),
    ("account", {"rebuild": True}, "rebuild 0: REBUILD needs LEDGER eutxo"),
    ("account", {"policies": PolicyTable.of({2: "AffineOnce"})}, "policy 0: POLICY needs LEDGER eutxo"),
    # actor names the parser cannot read back as one word
    ("account", {"actors": (("buyer", 7), ("issuer", 1), (5, 9))}, "actor 2: ACTOR takes a name and a key id"),
    ("account", {"actors": (("buyer", 7), ("issuer", 1), ("two words", 9))}, "actor 2: ACTOR takes a name and a key id"),
    ("account", {"actors": (("buyer", 7), ("issuer", 1), ("#x", 9))}, "actor 2: ACTOR takes a name and a key id"),
    ("account", {"actors": (("buyer", 7), ("issuer", 1), ("", 9))}, "actor 2: ACTOR takes a name and a key id"),
]


@pytest.mark.parametrize(
    "ledger, changes, message",
    REFUSED_SCENARIOS,
    ids=[
        "second-buyer",
        "second-issuer",
        "explicit-str-entry",
        "explicit-not-a-tuple",
        "explicit-bool-entry",
        "explicit-list",
        "sample-without-seed",
        "unknown-ledger",
        "eutxo-without-config",
        "eutxo-supply-zero",
        "unknown-deployer",
        "supply-a-str",
        "price-a-float",
        "actor-key-a-str",
        "contract-a-str",
        "no-schedules",
        "eutxo-config-a-tuple",
        "eutxo-policies-none",
        "eutxo-rebuild-a-str",
        "eutxo-with-contract",
        "eutxo-with-deployer",
        "account-with-config",
        "account-with-rebuild",
        "account-with-policies",
        "actor-name-an-int",
        "actor-name-two-words",
        "actor-name-a-comment",
        "actor-name-empty",
    ],
)
def test_built_scenario_the_parser_refuses_is_refused_before_anything_is_built(monkeypatch, ledger, changes, message):
    """``run_scenario``, ``build_world`` and ``expand_schedules`` each raise
    one ValueError for a scenario whose text would not parse, before a
    portal, a contract or an intent is built."""
    scenario = dataclasses.replace(bundled_race_scenario(ledger), **changes)
    calls = _counting_submits(monkeypatch)
    for step in (run_scenario, build_world, expand_schedules):
        with pytest.raises(ValueError) as raised:
            step(scenario)
        assert str(raised.value) == message
    assert set(calls.values()) == {0}


def test_run_scenario_distinct_outcomes():
    report = run_scenario(bundled_race_scenario("eutxo"))
    assert len(report.outcomes) == 2
    assert len(report.distinct()) == 2
    report2 = run_scenario(bundled_race_scenario("account"))
    assert len(report2.distinct()) == 2


def test_identical_outcomes_merge_into_one_distinct():
    """A buy refused at build (its limit is below the price) cannot race the
    price update, so both orders give one outcome, counted twice."""
    scenario = formats.parse_scenario(
        "LEDGER eutxo\nCONFIG issuer=1 traded=1:1 state=2:1\nSUPPLY 1000\nPRICE 1\nPOLICY 2 AffineOnce\n"
        "ACTOR buyer 7\nACTOR issuer 1\nINTENT buyer buy n=5 max_price=0\nINTENT issuer set_price p=3\nSCHEDULE all\n"
    )
    report = run_scenario(scenario)
    [(outcome, count)] = report.distinct()
    assert count == 2 and outcome.order == (0, 1)
    assert outcome.statuses == (
        ("rejected", "refused-at-build: current price 1 exceeds limit 0"),
        ("accepted", ""),
    )
    summary = report.to_text().splitlines()[-2:]
    assert summary == ["SUMMARY distinct=1", f"DISTINCT count=2 order=0,1 digest={outcome.digest}"]


def test_fuzz_reports_deterministic():
    a = fuzz_theorem("lemma15_1", seed=5, cases=100)
    b = fuzz_theorem("lemma15_1", seed=5, cases=100)
    assert a.to_text() == b.to_text()
    c = fuzz_theorem("lemma15_1", seed=6, cases=100)
    assert a.to_text() != c.to_text()  # different traffic


def test_fuzz_unknown_theorem():
    """An unknown statement, and a case count below 1, are refused before
    anything is drawn."""
    for which, cases, message in [("lemma99", 1, "unknown theorem 'lemma99'"), ("lemma15_1", 0, "cases must be >= 1")]:
        with pytest.raises(ValueError, match=message):
            fuzz_theorem(which, seed=0, cases=cases)


@pytest.mark.parametrize("which", ["lemma15_1", "lemma15_2", "theorem17", "prop19", "lemma21"])
def test_fuzz_proved_statements_smoke(which):
    report = fuzz_theorem(which, seed=2, cases=200)
    assert report.cases == 200
    assert report.passes == 200
    assert not report.counterexamples


def test_fuzz_remark18_finds_counterexamples():
    report = fuzz_theorem("remark18", seed=2, cases=50)
    assert report.counterexamples
    payload = dict(report.counterexamples[0].payload)
    assert set(payload) == {"base", "txs", "tx"}


def test_remark18_counterexamples_replay():
    """Serialized counterexamples parse back and still witness the failure."""
    from ledgersim import formats

    report = fuzz_theorem("remark18", seed=3, cases=5)
    payload = dict(report.counterexamples[0].payload)
    base = formats.parse_chain(payload["base"])
    txs, _ = formats.parse_transactions(payload["txs"])
    (tx,), _ = formats.parse_transactions(payload["tx"])
    assert STATEMENTS["remark18"].fails({"base": base, "txs": txs, "tx": tx})


def test_mint_intent_from_scenario_text():
    """A mint lands as a genesis paying the actor's key; a mint of the
    affine state chip breaks its policy."""
    scenario = formats.parse_scenario(
        "LEDGER eutxo\nCONFIG issuer=1 traded=1:1 state=2:1\nSUPPLY 1000\nPRICE 1\nPOLICY 2 AffineOnce\n"
        "ACTOR buyer 7\nINTENT buyer mint sym=5 tok=1 qty=2\nINTENT buyer mint sym=2 tok=1 qty=1\nSCHEDULE 0,1\n"
    )
    [outcome] = run_scenario(scenario).outcomes
    assert outcome.statuses[0] == ("accepted", "")
    assert _holding(outcome, "buyer")["5:1"] == 2
    status, reason = outcome.statuses[1]
    assert status == "rejected" and reason.startswith("policy-violation")


def test_rebuild_mode_retries_against_current_chain():
    """With rebuild on, a stale unguarded buy re-reads the new price; a
    guarded one still refuses."""
    scenario = dataclasses.replace(bundled_race_scenario("eutxo"), rebuild=True)
    world = build_world(scenario)
    unguarded = (
        Intent.of("buyer", "buy", n=2),  # no max_price: willing to pay whatever
        Intent.of("issuer", "set_price", p=100),
    )
    outcome = run_schedule(world, unguarded, (1, 0))
    assert outcome.statuses[0] == ("accepted", "rebuilt-at-execute")
    buyer = _holding(outcome, "buyer")
    assert buyer["1:1"] == 2 and buyer["ada_paid"] == 200  # price 100 at rebuild

    guarded = (
        Intent.of("buyer", "buy", n=2, max_price=1),
        Intent.of("issuer", "set_price", p=100),
    )
    outcome = run_schedule(build_world(scenario), guarded, (1, 0))
    status, reason = outcome.statuses[0]
    assert status == "rejected" and reason.startswith("refused-at-rebuild")
    assert _holding(outcome, "buyer")["ada_paid"] == 0


@pytest.mark.parametrize("rebuild", [False, True])
def test_only_the_issuer_key_may_set_the_price(rebuild):
    """A price change by a key other than the issuer's is refused in every
    order, before it takes a position, as the account contract refuses it;
    an actor of another name holding the issuer's key may set the price."""
    import itertools

    scenario = bundled_race_scenario("eutxo")
    scenario = dataclasses.replace(scenario, actors=scenario.actors + (("treasurer", 1),), rebuild=rebuild)
    world = build_world(scenario)
    rogue = (Intent.of("buyer", "set_price", p=0), Intent.of("buyer", "buy", n=100))
    buy_alone = run_schedule(build_world(scenario), rogue[1:], (0,))
    refused = "refused-at-rebuild" if rebuild else "refused-at-build"
    for order in itertools.permutations(range(2)):
        outcome = run_schedule(world, rogue, order)
        assert outcome.statuses == (("rejected", f"{refused}: only the issuer may set the price"), ("accepted", ""))
        assert _holding(outcome, "buyer") == {"1:1": 100, "ada_paid": 100}
        assert outcome.state == (("portal_price", 1), ("portal_supply", 900))
        assert outcome.digest == buy_alone.digest  # the refusal took no position
    outcome = run_schedule(world, (Intent.of("treasurer", "set_price", p=0),), (0,))
    assert outcome.statuses == (("accepted", ""),)
    assert outcome.state == (("portal_price", 0), ("portal_supply", 1000))


def test_rebuild_off_by_default_matches_plain_run():
    """A scenario without a REBUILD line builds a world that does not
    rebuild, as does a world made without the flag."""
    from ledgersim.harness import EutxoWorld

    scenario = bundled_race_scenario("eutxo")
    world = build_world(scenario)
    assert not scenario.rebuild and not world.rebuild
    plain = run_schedule(world, scenario.intents, (1, 0))
    unflagged = EutxoWorld(world.chain, world.cfg, world.policies, world.actors)
    assert run_schedule(unflagged, scenario.intents, (1, 0)) == plain


def test_submit_takes_positions_past_every_one_the_snapshot_mentions():
    """On a world whose chain has an input naming a position no output
    names, the submit phase hands out positions past that input too, as
    ``oracles.eutxo_fold`` does."""
    from ledgersim.harness import EutxoWorld
    from ledgersim.model import Input, Transaction

    scenario = bundled_race_scenario("eutxo")
    world = build_world(scenario)
    dangling = Transaction(frozenset({Input(40, 0)}), frozenset())
    chunk = EutxoWorld(Chain(world.chain.transactions + (dangling,)), world.cfg, world.policies, world.actors)
    outcome = run_schedule(chunk, scenario.intents, (0, 1))
    statuses, _, _, (chain, _) = oracles.eutxo_fold(chunk, scenario.intents, (0, 1))
    assert outcome.statuses == statuses and statuses[0] == ("accepted", "")
    assert outcome.digest == oracles.eutxo_digest(chain)
    assert min(out.position for tx in chain.transactions[2:] for out in tx.outputs) == 41


@pytest.mark.parametrize("rebuild", [False, True])
def test_duplicated_state_chip_is_recorded_not_raised(corpus_dir, rebuild):
    """With no policy on the state chip a mint duplicates it.  Every order
    still reaches an outcome: a portal builder refuses at rebuild, and an
    order that ends with two state chips reads the portal as missing."""
    import itertools

    scenario = formats.parse_scenario((corpus_dir / "race_unguarded_state.scenario").read_text())
    world = build_world(dataclasses.replace(scenario, rebuild=rebuild))
    reasons = set()
    for order in itertools.permutations(range(len(scenario.intents))):
        outcome = run_schedule(world, scenario.intents, order)
        assert outcome.statuses[0] == ("accepted", "")  # the mint always lands
        assert outcome.state == (("portal_price", -1), ("portal_supply", -1))
        reasons |= {reason for _, reason in outcome.statuses}
    duplicated = "refused-at-rebuild: state chip appears in more than one unspent output"
    assert (duplicated in reasons) == rebuild


def test_minimize_instance_shrinks():
    """The greedy shrinker drops transactions irrelevant to the failure."""
    from ledgersim.ledger import append
    from ledgersim.model import ACCEPT_ALL, ADA, Input, Output, SlotRange, Transaction, singleton

    def out(p):
        return Output(p, ACCEPT_ALL, 0, singleton(ADA, 1))

    base = append(Chain(), Transaction(frozenset(), frozenset({out(1), out(2)})), slot=0)
    base = append(base, Transaction(frozenset(), frozenset({out(3)})), slot=0)  # padding
    pinned = Transaction(frozenset({Input(1, 0)}), frozenset(), SlotRange(0, 0))
    late = Transaction(frozenset({Input(2, 0)}), frozenset(), SlotRange(5, None))
    instance = {"base": base, "txs": (pinned,), "tx": late}
    fails = STATEMENTS["remark18"].fails
    assert fails(instance)
    shrunk = minimize_instance(instance, fails)
    assert fails(shrunk)
    assert len(shrunk["base"]) < len(base)


# ---------------------------------------------------------------------------
# Failure path: a check patched so that the statement's conclusion fails.


def _without_equiv(real):
    return lambda *args: dataclasses.replace(real(*args), equiv=False)


def _doubled(real):
    return lambda chain, names: Chain(real(chain, names).transactions * 2)


# (statement, check patched in ledgersim.harness, the patch, kind, payload names)
BROKEN_CHECKS = [
    ("lemma15_1", "check_defer", _without_equiv, "lemma15_1", ["base", "tx1", "tx2"]),
    ("lemma15_2", "apart", lambda real: lambda tx1, tx2: not real(tx1, tx2), "lemma15_2", ["base", "tx_prime", "tx"]),
    ("theorem17", "check_defer", _without_equiv, "theorem17", ["base", "txs", "tx"]),
    ("prop19", "check_defer", _without_equiv, "prop19", ["base", "txs", "tx"]),
    ("lemma21", "alpha_equiv", lambda real: lambda a, b: False, "lemma21_2", ["alpha", "base", "tx", "variant"]),
    # parts 1 and 4 compare two chains ending in one appended transaction
    # object; part 2 compares a chain with itself or with a renamed copy,
    # whose transactions are all rebuilt
    ("lemma21", "obs_equiv", lambda real: lambda a, b: a is b or (a.transactions[-1] is not b.transactions[-1] and real(a, b)), "lemma21_1", ["alpha", "base", "tx", "variant"]),
    ("lemma21", "freshen_spent_clashes", lambda real: lambda chain, positions: Chain(), "lemma21_34", ["alpha", "base", "tx", "variant"]),
    # a derived chain that is invalid, every position in it named twice: the
    # judge reports it rather than raising InvalidChainError
    ("lemma21", "rename_positions", _doubled, "lemma21_2", ["alpha", "base", "tx", "variant"]),
    ("lemma21", "freshen_spent_clashes", _doubled, "lemma21_34", ["alpha", "base", "tx", "variant"]),
]


@pytest.mark.parametrize("which, check, patch, kind, names", BROKEN_CHECKS)
def test_broken_check_yields_shrunk_counterexample(monkeypatch, capsys, which, check, patch, kind, names):
    import json

    from ledgersim import harness
    from ledgersim.cli import main

    monkeypatch.setattr(harness, check, patch(getattr(harness, check)))
    shrinks = []
    real_minimize = harness.minimize_instance

    def spy(instance, fails):
        shrunk = real_minimize(instance, fails)
        shrinks.append((len(instance["base"]), len(shrunk["base"])))
        return shrunk

    monkeypatch.setattr(harness, "minimize_instance", spy)
    code = main(["fuzz", "--theorem", which, "--cases", "20", "--seed", "1", "--format", "json"])
    assert code == 1
    first = json.loads(capsys.readouterr().out)["counterexamples"][0]
    assert first["kind"] == kind
    assert sorted(first["payload"]) == sorted(names)
    if which == "lemma21":
        assert shrinks == []  # its parts derive from one another
    else:
        assert any(after < before for before, after in shrinks)


def _parsed_instance(payload: dict) -> dict:
    """A printed payload read back: the chains by ``parse_chain``, the batch
    as its transactions, and every other part as its one transaction."""
    instance = {}
    for name, text in payload.items():
        if name in ("base", "alpha", "variant"):
            instance[name] = formats.parse_chain(text)
        else:
            txs, _ = formats.parse_transactions(text)
            instance[name] = txs if name == "txs" else txs[0]
    return instance


# The obs_equiv patch compares chains by the identity of their last
# transaction, which no parse preserves.
REPLAYABLE_CHECKS = [row for row in BROKEN_CHECKS if row[1] != "obs_equiv"]


@pytest.mark.parametrize("which, check, patch, kind, names", REPLAYABLE_CHECKS)
def test_printed_counterexample_replays_to_its_verdict(monkeypatch, capsys, which, check, patch, kind, names):
    """A counterexample prints the instance its judge saw: each one, parsed
    back from the printed JSON and judged again, gets its printed kind and
    detail, shrunk or not."""
    import json

    from ledgersim import harness
    from ledgersim.cli import main

    monkeypatch.setattr(harness, check, patch(getattr(harness, check)))
    replayed = 0
    for seed in range(1, 4):
        assert main(["fuzz", "--theorem", which, "--cases", "30", "--seed", str(seed), "--format", "json"]) == 1
        for printed in json.loads(capsys.readouterr().out)["counterexamples"]:
            assert printed["kind"] == kind and sorted(printed["payload"]) == sorted(names)
            verdict = STATEMENTS[which].judge(_parsed_instance(printed["payload"]))
            assert (which + verdict[0], verdict[1]) == (printed["kind"], printed["detail"])
            replayed += 1
    assert replayed == 15


def test_remark18_with_conclusion_holding_exits_one(monkeypatch, capsys):
    from ledgersim import harness
    from ledgersim.cli import main

    real = harness.check_defer
    monkeypatch.setattr(harness, "check_defer", lambda *a: dataclasses.replace(real(*a), valid_tx_txs=True))
    assert main(["fuzz", "--theorem", "remark18", "--cases", "5", "--seed", "3"]) == 1
    assert "counterexamples=0" in capsys.readouterr().out


def test_shrink_predicate_exceptions_propagate(monkeypatch):
    from ledgersim import harness

    real_check, real_minimize = harness.check_defer, harness.minimize_instance
    shrinking = []

    def check(*args):
        if shrinking:
            raise RuntimeError("check failed on a shrink candidate")
        return real_check(*args)

    def minimize(instance, fails):
        shrinking.append(True)
        return real_minimize(instance, fails)

    monkeypatch.setattr(harness, "check_defer", check)
    monkeypatch.setattr(harness, "minimize_instance", minimize)
    with pytest.raises(RuntimeError, match="shrink candidate"):
        fuzz_theorem("remark18", seed=3, cases=1)


@pytest.mark.parametrize("seed", [0, 3, 6, 8, 9])
def test_shrunk_remark18_bases_validate(seed):
    """Shrinking drops a base transaction only while the base stays a valid
    chain, so every stored witness replays on a valid base."""
    report = fuzz_theorem("remark18", seed=seed, cases=20)
    assert report.counterexamples
    for counterexample in report.counterexamples:
        base = formats.parse_chain(dict(counterexample.payload)["base"])
        assert validate_chain(base).valid, validate_chain(base).describe()


# sha256 of (to_text(), CLI JSON) at seed 7: 200 cases, or 20 for remark18.
TRANSCRIPT_PINS = {
    "lemma15_1": (
        "34db32069272a9e243da1111c7832e84b40aea03840da01994bff1d0bb8c2525",
        "9c257be942d9ba5ecd8408b8f397197c4de295c9153724d14dd3b4fe0f98172f",
    ),
    "lemma15_2": (
        "ffebc90b5a856853f05986e4b301be2c91abc349ec2ace8be217c9ee1160fea4",
        "0d8efd783f9a320c8e0464f8aa35aac0dae4786e600c647eaff80968aa454806",
    ),
    "theorem17": (
        "2a55d518d8f6948c8f8e178246138676778683fed7da35332a493aa6a42ec760",
        "4065d257e16cfe838b639a492823ca5d9ab03353639dda2f6fb40559d54b63da",
    ),
    "prop19": (
        "dd1ff72f5813747e03fe8a2bc8f8c6cb12282bf693ac5ae894781518e8074add",
        "dbecac8ef59c34a859e493682211900b7a9bb087fee56203e583d5821c6d6762",
    ),
    "lemma21": (
        "dfc48ed405c7cc6590c6772b24fd12d8f609acf0d8c09aba1d5d18d872246567",
        "82f5008ba3956b0851da884cac1242436e28763fce21dadb88cbf8a26f54560d",
    ),
    "remark18": (
        "2c84ecb166e0d53f16033a3175d54182904acbd06fa5708c1c26b5fc0f2ccfc7",
        "0f98d2542824e94bf200aeb4c226b5668bfd2d5338017083a2a848bc1abaf99e",
    ),
}


@pytest.mark.parametrize("which", sorted(TRANSCRIPT_PINS))
def test_fuzz_transcript_pinned(which):
    """The campaign's RNG draws and shrink steps are fixed across versions,
    not only across reruns."""
    import hashlib
    import json

    report = fuzz_theorem(which, seed=7, cases=20 if which == "remark18" else 200)
    text = report.to_text()
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    digests = tuple(hashlib.sha256(s.encode()).hexdigest() for s in (text, payload))
    assert digests == TRANSCRIPT_PINS[which]


def _random_eutxo_race(seed: int, max_n: int = 1200):
    """A seeded 6-intent race on the bundled portal: buys of fewer than
    ``max_n`` tokens with and without a price limit, price changes, and
    mints of the affine state chip to ``b2``'s key."""
    import random

    rng = random.Random(seed)
    intents = []
    for _ in range(6):
        draw = rng.random()
        if draw < 0.5:
            limit = {"max_price": rng.randrange(1, 8)} if rng.random() < 0.5 else {}
            intents.append(Intent.of(rng.choice(("buyer", "b2")), "buy", n=rng.randrange(1, max_n), **limit))
        elif draw < 0.85:
            intents.append(Intent.of("issuer", "set_price", p=rng.randrange(0, 8)))
        else:
            intents.append(Intent.of("b2", "mint", sym=2, tok=1, qty=1))
    scenario = bundled_race_scenario("eutxo")
    return dataclasses.replace(scenario, actors=scenario.actors + (("b2", 9),), intents=tuple(intents))


def _random_account_race(seed: int):
    """A seeded 6-intent race on the bundled contract: ``buy`` and
    ``buyGuarded`` calls by ``buyer`` and ``b2``, token sends between the
    three keys, and price changes, some to 0."""
    import random

    rng = random.Random(seed)
    intents = []
    for _ in range(6):
        draw = rng.random()
        actor = rng.choice(("buyer", "b2"))
        if draw < 0.3:
            intents.append(Intent.of(actor, "call", function="buy", value=rng.randrange(0, 300)))
        elif draw < 0.55:
            value = rng.randrange(0, 300)
            intents.append(Intent.of(actor, "call", function="buyGuarded", value=value, expected=rng.randrange(0, 4)))
        elif draw < 0.8:
            intents.append(Intent.of(actor, "call", function="send", to=rng.choice((1, 7, 9)), amount=rng.randrange(0, 150)))
        else:
            intents.append(Intent.of("issuer", "call", function="setPrice", p=rng.randrange(0, 4)))
    scenario = bundled_race_scenario("account")
    return dataclasses.replace(scenario, actors=scenario.actors + (("b2", 9),), intents=tuple(intents))


# sha256 of every outcome's lines, newline-terminated, for seeds 0-2, all 720
# orders, rebuild off then on; re-pinned when the digest became the unspent
# set's (OBSERVATION_PIN holds the rest of each outcome).
SCHEDULE_PIN = "2bf62512ab637f199b6d2f9f718b86261d7249776eefc8345d3329e5f4274bc7"
# The same over ``_random_account_race`` at seeds 0-2; re-pinned when the
# digest stopped hashing the call log.
ACCOUNT_SCHEDULE_PIN = "0625f4eff6a1c961ce8294fa688ce16a76aeb8be268f0cc270df4a3e506992da"


def test_eutxo_race_outcomes_pinned():
    """Submit-time and rebuilt attaches give the same outcomes across
    versions; the benchmark never turns ``rebuild`` on."""
    import hashlib
    import itertools

    digest = hashlib.sha256()
    for seed in range(3):
        scenario = _random_eutxo_race(seed)
        for rebuild in (False, True):
            world = build_world(dataclasses.replace(scenario, rebuild=rebuild))
            for order in itertools.permutations(range(6)):
                lines = run_schedule(world, scenario.intents, order).to_lines()
                digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == SCHEDULE_PIN


def test_account_race_outcomes_pinned():
    """Every order of three seeded account races, run on one world per
    race, gives the pinned outcomes."""
    import hashlib
    import itertools

    digest = hashlib.sha256()
    for seed in range(3):
        scenario = _random_account_race(seed)
        world = build_world(scenario)
        for order in itertools.permutations(range(6)):
            lines = run_schedule(world, scenario.intents, order).to_lines()
            digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == ACCOUNT_SCHEDULE_PIN


# sha256 of ``repr((order, statuses, holdings, state))`` of every order of
# ``_random_eutxo_race`` at seeds 0-2 (rebuild off, then on), then of
# ``_random_account_race`` at seeds 0-2: everything an outcome says but its
# digest, so it holds across a change of what the digest hashes.
OBSERVATION_PIN = "3a7dc669a133f5ca62eede910b472bff18c2c82bf870248324fd7a17b0c18514"


def test_race_observations_pinned():
    """Statuses, holdings and state of every order of the seeded races are
    fixed across versions, whatever the digest hashes."""
    import hashlib
    import itertools

    digest = hashlib.sha256()
    races = [
        dataclasses.replace(_random_eutxo_race(seed), rebuild=rebuild) for seed in range(3) for rebuild in (False, True)
    ]
    for scenario in races + [_random_account_race(seed) for seed in range(3)]:
        world = build_world(scenario)
        for order in itertools.permutations(range(6)):
            outcome = run_schedule(world, scenario.intents, order)
            digest.update(repr((outcome.order, outcome.statuses, outcome.holdings, outcome.state)).encode())
    assert digest.hexdigest() == OBSERVATION_PIN


def _counting_builders(monkeypatch) -> dict:
    """Count calls of the two portal builders as the scheduler sees them."""
    from ledgersim import harness

    calls = {"buy": 0, "set_price": 0}
    for kind, name in (("buy", "build_buy_tx"), ("set_price", "build_set_price_tx")):

        def counted(*args, _real=getattr(harness, name), _kind=kind, **kwargs):
            calls[_kind] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    return calls


def _eutxo_turns(world, intents) -> dict:
    """Each distinct (state, intent index) turn of every order of the
    intents, found by replaying every order prefix with ``oracles.eutxo_fold``
    from the world's chain, mapped to the intent's status there."""
    import itertools

    folds = {
        prefix: oracles.eutxo_fold(world, intents, prefix)
        for k in range(len(intents) + 1)
        for prefix in itertools.permutations(range(len(intents)), k)
    }
    return {
        (folds[prefix[:-1]][3], prefix[-1]): statuses[prefix[-1]]
        for prefix, (statuses, *_) in folds.items()
        if prefix
    }


@pytest.mark.parametrize("seed", [0, 6])
def test_submit_phase_built_once_per_world(monkeypatch, seed):
    """All 720 orders on one world build each intent once; on a world with
    rebuild on, only the rebuilds add builder calls, one per distinct
    (state, intent) turn whose submit-time transaction did not attach."""
    import itertools
    from collections import Counter

    scenario = _random_eutxo_race(seed)
    rebuilding = dataclasses.replace(scenario, rebuild=True)
    rebuilt = Counter(
        scenario.intents[index].kind
        for (_, index), status in _eutxo_turns(build_world(rebuilding), scenario.intents).items()
        if status != ("accepted", "")
    )
    calls = _counting_builders(monkeypatch)
    world = build_world(scenario)
    orders = list(itertools.permutations(range(6)))
    for order in orders:
        run_schedule(world, scenario.intents, order)
    kinds = Counter(intent.kind for intent in scenario.intents)
    assert kinds["buy"] and kinds["set_price"]
    assert calls == {"buy": kinds["buy"], "set_price": kinds["set_price"]}
    calls.update(buy=0, set_price=0)
    world = build_world(rebuilding)
    for order in orders:
        run_schedule(world, scenario.intents, order)
    assert calls == {kind: kinds[kind] + rebuilt[kind] for kind in calls}
    assert calls == {0: {"buy": 113, "set_price": 22}, 6: {"buy": 214, "set_price": 103}}[seed]


def test_account_orders_share_their_prefixes(monkeypatch):
    """All 720 orders of a 6-intent account race on one world make one call
    per distinct (contract state, intent) turn, counted by replaying every
    order from the world's chain: fewer than one per distinct order prefix,
    the sum over k of 6!/(6-k)!, let alone 720 x 6.  The run's graph holds
    one node per distinct state any prefix reaches, the start state too."""
    import itertools

    from ledgersim import harness

    scenario = _random_account_race(0)
    world = build_world(scenario)
    turns, states = set(), set()
    for order in itertools.permutations(range(6)):
        chains = [oracles.account_fold(world, scenario.intents, order[:depth])[3] for depth in range(7)]
        states.update(chains)
        turns.update(zip(chains, order))

    calls = 0
    real = harness.call

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(harness, "call", counted)
    run = Run(world, scenario.intents)
    for order in itertools.permutations(range(6)):
        run.outcome(order)
    assert calls == len(turns) == 268
    assert calls < sum(math.perm(6, k) for k in range(1, 7)) == 1956
    assert len(run.states) == len(states) == 104


@pytest.mark.parametrize("rebuild", [False, True])
def test_eutxo_orders_share_their_prefixes(monkeypatch, rebuild):
    """All 720 orders of 6-intent UTxO races on one world append once per
    attach of each distinct (state, intent) turn, counted by replaying every
    order prefix with ``oracles.eutxo_fold``: a turn attaches its
    submit-time transaction, and with rebuild on a rebuilt one when that
    fails and the rebuild builds."""
    import itertools

    from ledgersim import harness

    calls = 0
    real = harness._attach

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(harness, "_attach", counted)
    counts = []
    for seed in (0, 6):
        scenario = dataclasses.replace(_random_eutxo_race(seed, max_n=300), rebuild=rebuild)  # every buy builds
        world = build_world(scenario)
        turns = _eutxo_turns(world, scenario.intents)
        attaches = sum(
            1 if status == ("accepted", "") or not rebuild else 1 + (not status[1].startswith("refused-at-rebuild"))
            for status in turns.values()
        )
        calls = 0
        for order in itertools.permutations(range(6)):
            run_schedule(world, scenario.intents, order)
        assert calls == attaches >= len(turns)
        counts.append(calls)
    # with rebuild off, one attach per order prefix would be sum_k 6!/(6-k)! = 1956
    assert counts == ([1852, 2150] if rebuild else [31, 31])


@pytest.mark.parametrize("rebuild", [False, True])
def test_shared_world_matches_fresh_worlds(monkeypatch, rebuild):
    """Through ``run_schedule``, outcomes on one world equal those of a
    ``Run`` on a fresh world per order, also when the world runs intent
    tuple A, then B, then A again.  Its one slot keeps a run while the
    world is the same object and the intents are equal: each tuple's 720
    orders submit once, and an equal world of its own submits anew."""
    import itertools

    from ledgersim import harness

    a, b = (dataclasses.replace(_random_eutxo_race(seed), rebuild=rebuild) for seed in (0, 6))
    orders = list(itertools.permutations(range(6)))
    fresh = {
        scenario.intents: [Run(build_world(scenario), scenario.intents).outcome(order) for order in orders]
        for scenario in (a, b)
    }
    # both races hold a mint the policy rejects and a buy refused at build
    refused = "refused-at-rebuild" if rebuild else "refused-at-build"
    for outcomes in fresh.values():
        reasons = {reason.split(":")[0] for outcome in outcomes for _, reason in outcome.statuses}
        assert {refused, "policy-violation"} <= reasons
    real, submitted = harness.EutxoWorld.submit, []

    def counted(world, intents):
        submitted.append(intents)
        return real(world, intents)

    monkeypatch.setattr(harness.EutxoWorld, "submit", counted)
    world = build_world(a)
    for scenario in (a, b, a):
        assert [run_schedule(world, scenario.intents, order) for order in orders] == fresh[scenario.intents]
    assert submitted == [a.intents, b.intents, a.intents]
    twin = build_world(a)
    assert twin == world and run_schedule(twin, list(a.intents), orders[0]) == fresh[a.intents][0]
    assert run_schedule(twin, a.intents, orders[1]) == fresh[a.intents][1]
    assert submitted == [a.intents, b.intents, a.intents, a.intents]
    # running leaves the world's value as it was
    untouched = build_world(b)
    assert world == untouched and hash(world) == hash(untouched) and repr(world) == repr(untouched)


def _orders_out_of_sequence() -> list[tuple[int, ...]]:
    """Orders of 6 intents in no lexicographic sequence: all of them
    reversed, a seeded shuffle, and shuffled orders each run twice in a row."""
    import itertools
    import random

    orders = list(itertools.permutations(range(6)))
    shuffled = orders[:]
    random.Random(5).shuffle(shuffled)
    return orders[::-1] + shuffled[:200] + [order for order in shuffled[200:260] for _ in range(2)]


@pytest.mark.parametrize("ledger", ["eutxo", "account"])
def test_resumed_runs_match_fresh_worlds(ledger):
    """Orders out of sequence on one world equal a fresh world per order,
    also when the world runs intent tuple A, then B, then A again; on the
    UTxO ledger with rebuild off and on."""
    race = _random_eutxo_race if ledger == "eutxo" else _random_account_race
    orders = _orders_out_of_sequence()
    for rebuild in (False, True) if ledger == "eutxo" else (False,):
        a, b = (dataclasses.replace(race(seed), rebuild=rebuild) for seed in (0, 2))
        world = build_world(a)
        for scenario in (a, b, a):
            for order in orders:
                fresh = Run(build_world(scenario), scenario.intents).outcome(order)
                assert run_schedule(world, scenario.intents, order) == fresh
        # running leaves the world's value as it was
        untouched = build_world(a)
        assert world == untouched and hash(world) == hash(untouched) and repr(world) == repr(untouched)


def test_run_that_raises_part_way_leaves_the_world_usable(monkeypatch):
    """An order whose call fails once part-way leaves a run later orders
    resume from correctly.  (A malformed intent never gets this far: see
    ``test_malformed_intent_is_refused_before_any_turn``.)"""
    from ledgersim import harness

    scenario = _random_account_race(1)
    world = build_world(scenario)
    real, calls = harness.call, []

    def flaky(*args):
        calls.append(args)
        if len(calls) == 4:
            raise RuntimeError("call failed")
        return real(*args)

    monkeypatch.setattr(harness, "call", flaky)
    run = Run(world, scenario.intents)
    with pytest.raises(RuntimeError):
        run.outcome((0, 1, 2, 3, 4, 5))
    edges = sum(len(node.turns) for node in run.states.values())
    assert edges == 3  # the call that raised left no turn
    for order in [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 5, 4)] + _orders_out_of_sequence()[:50]:
        assert run.outcome(order) == Run(build_world(scenario), scenario.intents).outcome(order)


def test_holdings_match_per_actor_scan(monkeypatch):
    """The one-pass holdings equal the per-actor scan on every order's final
    chain, replayed by ``oracles.eutxo_fold``, with two actors on one key and
    one holding nothing.  ``observe`` runs once per distinct state an order
    ends on: a rejected intent leaves the chain it found, so most orders end
    on a state an earlier order was observed on."""
    import itertools

    from ledgersim import harness

    real = harness.EutxoWorld.observe
    states = []

    def observed(world, state):
        states.append(state)
        return real(world, state)

    monkeypatch.setattr(harness.EutxoWorld, "observe", observed)
    seen = []
    calls, finals = {}, {}
    for seed in (0, 3, 6):
        scenario = _random_eutxo_race(seed, max_n=300)  # rebuilt buys can all land
        actors = scenario.actors + (("b3", 9), ("idle", 42))  # b3 shares b2's key
        for rebuild in (False, True):
            world = build_world(dataclasses.replace(scenario, actors=actors, rebuild=rebuild))
            run = Run(world, scenario.intents)
            before = len(states)
            for order in itertools.permutations(range(6)):
                holdings = run.outcome(order).holdings
                state = oracles.eutxo_fold(world, scenario.intents, order)[3]
                finals.setdefault((seed, rebuild), set()).add(state)
                paid = {name: dict(facts)["ada_paid"] for name, facts in holdings}
                assert holdings == oracles.eutxo_holdings(world, state[0], paid)
                seen.append(dict(holdings))
            calls[seed, rebuild] = len(states) - before
            assert set(states[before:]) == finals[seed, rebuild]
            edges = sum(len(node.turns) for node in run.states.values())
            assert edges < sum(math.perm(6, k) for k in range(1, 7))
    assert len(seen) == 3 * 2 * 720
    assert len(set(states)) == len(states)  # no state is observed twice
    assert calls == {run: len(ends) for run, ends in finals.items()}
    assert calls == {(0, False): 5, (0, True): 296, (3, False): 6, (3, True): 304, (6, False): 5, (6, True): 396}
    assert all(facts["idle"] == (("ada_paid", 0),) for facts in seen)
    # b3 holds b2's tokens, on some chains from two buys of fewer than 300
    assert any(dict(facts["b3"]).get("1:1", 0) >= 300 for facts in seen)


def test_holdings_built_once_per_final_state_and_ada_paid(corpus_dir):
    """Over every order of the seeded races and of ``shared_key.scenario``,
    holdings are assembled once per distinct (final state, ada-paid map),
    both found by replaying the order with ``oracles.eutxo_fold`` or
    ``oracles.account_fold``: every order with that pair reports the one
    tuple built for it, and the run keeps one per pair.  In the witness two
    actors share a key and both orders end on one state with ``ada_paid``
    on a different actor, so holdings kept per final state alone would give
    one order's payment to the other."""
    import itertools

    races = [
        dataclasses.replace(_random_eutxo_race(seed), rebuild=rebuild) for seed in range(3) for rebuild in (False, True)
    ]
    races += [_random_account_race(seed) for seed in range(3)]
    races.append(formats.parse_scenario((corpus_dir / "shared_key.scenario").read_text()))
    counts = []
    for scenario in races:
        world = build_world(scenario)
        run = Run(world, scenario.intents)
        fold = oracles.eutxo_fold if scenario.ledger == "eutxo" else oracles.account_fold
        built, states = {}, set()
        for order in itertools.permutations(range(len(scenario.intents))):
            holdings = run.outcome(order).holdings
            _, expected, _, state = fold(world, scenario.intents, order)
            assert holdings == expected
            paid = frozenset((name, ada) for name, facts in expected if (ada := dict(facts)["ada_paid"]))
            assert built.setdefault((state, paid), holdings) is holdings
            states.add(state)
        assert len({id(holdings) for holdings in built.values()}) == len(built)
        assert sum(len(node.holdings) for node in run.states.values()) == len(built)
        counts.append((len(states), len(built)))
    # (distinct final states, distinct (final state, ada paid)) per race
    assert counts == [(3, 3), (18, 18), (6, 6), (72, 72), (4, 4), (48, 48), (96, 96), (3, 3), (18, 18), (1, 2)]


@pytest.mark.parametrize("rebuild", [False, True])
def test_observe_that_raises_leaves_nothing_behind(monkeypatch, rebuild):
    """An ``observe`` that raises once, part-way through all 720 orders,
    leaves its state unobserved: the order it failed in, run again, and
    every later order equal a fresh world's."""
    import itertools

    from ledgersim import harness

    scenario = dataclasses.replace(_random_eutxo_race(0), rebuild=rebuild)
    real, calls = harness.EutxoWorld.observe, []

    def flaky(world, state):
        calls.append(state)
        if len(calls) == 2:
            raise RuntimeError("observe failed")
        return real(world, state)

    monkeypatch.setattr(harness.EutxoWorld, "observe", flaky)
    world = build_world(scenario)
    orders = list(itertools.permutations(range(6)))
    with pytest.raises(RuntimeError, match="observe failed"):
        for at, order in enumerate(orders):
            run_schedule(world, scenario.intents, order)
    assert 0 < at < len(orders) - 1
    for order in orders[at:]:
        fresh = Run(build_world(scenario), scenario.intents).outcome(order)
        assert run_schedule(world, scenario.intents, order) == fresh


def test_account_observes_each_final_state_once(monkeypatch):
    """On the account ledger ``observe`` runs once per distinct final
    contract state over all 720 orders, however many orders reach it."""
    import itertools

    from ledgersim import harness

    real = harness.AccountWorld.observe
    observed = []

    def counted(world, chain):
        observed.append(chain)
        return real(world, chain)

    monkeypatch.setattr(harness.AccountWorld, "observe", counted)
    calls = {}
    for seed in range(3):
        scenario = _random_account_race(seed)
        world = build_world(scenario)
        before = len(observed)
        finals = set()
        for order in itertools.permutations(range(6)):
            run_schedule(world, scenario.intents, order)
            finals.add(oracles.account_fold(world, scenario.intents, order)[3])
        calls[seed] = len(observed) - before
        assert set(observed[before:]) == finals and calls[seed] == len(finals)  # none observed twice
    assert calls == {0: 96, 1: 3, 2: 18}


def test_digests_match_naive_oracles():
    """Every outcome's digest is the sha256 of its final unspent set, or of
    its final contract states, computed from scratch."""
    import itertools

    for seed in range(3):
        for rebuild in (False, True):
            scenario = dataclasses.replace(_random_eutxo_race(seed), rebuild=rebuild)
            world = build_world(scenario)
            for order in itertools.permutations(range(6)):
                outcome = run_schedule(world, scenario.intents, order)
                chain, _ = oracles.eutxo_fold(world, scenario.intents, order)[3]
                assert outcome.digest == oracles.eutxo_digest(chain)
        scenario = _random_account_race(seed)
        world = build_world(scenario)
        for order in itertools.permutations(range(6)):
            outcome = run_schedule(world, scenario.intents, order)
            assert outcome.digest == oracles.account_digest(oracles.account_fold(world, scenario.intents, order)[3])


def test_account_run_builds_each_call_once(monkeypatch):
    """All 720 orders of a seeded account race on one world build each
    intent's ``CallTx`` once, at submit, though they execute many more
    turns; a second run of the same intents on that world builds none, and
    ``run_scenario`` builds each once for all 720 orders."""
    import itertools

    calls = _counting_submits(monkeypatch)
    for seed in range(3):
        scenario = _random_account_race(seed)
        world = build_world(scenario)
        calls.update(CallTx=0, call=0)
        for order in itertools.permutations(range(6)):
            run_schedule(world, scenario.intents, order)
        assert calls["CallTx"] == len(scenario.intents) == 6
        assert calls["call"] > 6
        run_schedule(world, scenario.intents, (5, 4, 3, 2, 1, 0))
        assert calls["CallTx"] == 6
        assert len(run_scenario(scenario).outcomes) == 720 and calls["CallTx"] == 12


def test_account_orders_match_a_plain_fold():
    """Statuses, holdings and state of every order of the seeded account
    races equal a fold of ``accounts.call`` over the order from the world's
    chain, with orders run in and out of lexicographic sequence on one
    world."""
    import itertools

    orders = list(itertools.permutations(range(6))) + _orders_out_of_sequence()
    for seed in range(3):
        scenario = _random_account_race(seed)
        world = build_world(scenario)
        for order in orders:
            outcome = run_schedule(world, scenario.intents, order)
            statuses, holdings, state, _ = oracles.account_fold(world, scenario.intents, order)
            assert (outcome.statuses, outcome.holdings, outcome.state) == (statuses, holdings, state)


@pytest.mark.parametrize("rebuild", [False, True])
def test_eutxo_orders_match_a_plain_fold(rebuild):
    """Statuses, holdings and state of every order of the seeded UTxO races
    equal ``oracles.eutxo_fold``, which attaches the built intents one after
    another from the world's chain, with orders run in and out of
    lexicographic sequence on one world."""
    import itertools

    orders = list(itertools.permutations(range(6))) + _orders_out_of_sequence()
    for seed in range(3):
        scenario = dataclasses.replace(_random_eutxo_race(seed), rebuild=rebuild)
        world = build_world(scenario)
        for order in orders:
            outcome = run_schedule(world, scenario.intents, order)
            statuses, holdings, state, _ = oracles.eutxo_fold(world, scenario.intents, order)
            assert (outcome.statuses, outcome.holdings, outcome.state) == (statuses, holdings, state)
