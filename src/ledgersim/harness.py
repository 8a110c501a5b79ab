"""Deterministic mempool/scheduler and the theorem fuzz campaigns.

Intents (``formats.Intent``, one per ``INTENT`` line of a
``formats.Scenario``) are actor actions replayed against a ledger snapshot
in a chosen order.  ``build_world`` and ``expand_schedules`` take a
scenario only as ``formats.scenario_problem`` judges it, the judge the
parser reports at a line, and ``Run`` takes an intent tuple only as
``formats.intent_problem`` judges it: what they refuse is a ValueError
naming the actor, intent or clause, never a TypeError or a KeyError,
raised before anything is built or any turn runs.  Then every intent is
built once, at submit time.  On the UTxO-style ledger it becomes a concrete
transaction, against the initial snapshot, and is never rebuilt: competing
traffic can only make an intent fail to attach, never change what it does.
On the account ledger it becomes its ``CallTx``, which executes against
whatever state it finds, so its effect depends on the order.
An outcome is a pure function of (initial ledger, intents, order);
outcomes serialize canonically so identical runs are byte-identical.

The submit phase is therefore the same in every order: each intent is
built from the world's snapshot, never from the chain an order has grown,
and a UTxO intent is built again only in a world built from a scenario with
a ``REBUILD`` line (``EutxoWorld.rebuild``), at its execution turn.

``Run`` is one loop for both ledgers; each world class supplies what differs
between them: ``submit`` (the submit phase, and the state a run starts
from), ``execute`` (one intent's turn, a pure step from a state) and
``observe`` (each key's holdings, the ledger's state pairs and the digest of
a final state).  A state is ``(chain, next free position)`` on the UTxO
ledger and the ``AccountChain`` on the account ledger; on both, an intent's
turn depends on the state it starts from and nothing else.  So the run of
one intent tuple on one world, a ``Run`` its caller holds, is a graph with
one node per distinct state and one edge per (state, intent) turn taken.
Every order walks the graph from the start node; a turn is executed once per
run, on the first order that takes it, and ``observe`` runs once per
distinct state an order ends on.  The digest hashes the paper's observation
of the final state: the unspent outputs in position order, or the contracts'
balances and states.  What an order adds is its own: each actor's ada paid.
Its holdings are kept on its final node per ada-paid map, so they are built
once per distinct (final state, ada paid), not once per order.
``run_scenario`` holds one ``Run`` per scenario; ``run_schedule`` keeps the
last one it made, for a caller that asks order by order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from . import formats
from .accounts import FUNCTIONS, PAYABLE, AccountChain, CallTx, call, deploy_changing
from .equivalence import (
    alpha_equiv,
    apart,
    check_defer,
    freshen_spent_clashes,
    obs_equiv,
    rename_positions,
    spent_edges,
)
from .formats import ACCOUNT, EUTXO, Intent, Scenario
from .gen import ChainGen, spend, spendable
from .ledger import Chain, ValidationReport, append, utxo, validate_chain
from .model import (
    ADA,
    PAY_TO_PUBKEY_KIND,
    Chip,
    Input,
    MalformedChainError,
    Output,
    PositionAllocator,
    SlotRange,
    Transaction,
    pay_to_pubkey,
    positions_of,
    singleton,
)
from .policy import PolicyTable
from .token_portal import (
    InsufficientSupply,
    NoPortalError,
    PriceRefused,
    TokenConfig,
    build_buy_tx,
    build_set_price_tx,
    find_portal,
    init_portal,
)

class _Node:
    """One state a run reached: the one object kept for it, its
    ``_observation`` (None until an order ends here), ``turns``, which maps
    each intent index already taken from here to (the next node, (status,
    reason), ada paid), and ``holdings``, which maps the frozenset of each
    nonzero ada-paid map an order ended here with to its holdings."""

    __slots__ = ("state", "observation", "turns", "holdings")

    def __init__(self, state) -> None:
        self.state, self.observation, self.turns, self.holdings = state, None, {}, {}


@dataclass(frozen=True)
class EutxoWorld:
    """The UTxO ledger a scenario runs against.  ``rebuild`` turns on the
    off-by-default retry mode: an intent whose submit-time transaction no
    longer attaches is rebuilt once against the chain as it stands at its
    execution turn (builder guards still apply)."""

    chain: Chain
    cfg: TokenConfig
    policies: PolicyTable
    actors: tuple[tuple[str, int], ...]
    rebuild: bool = False

    # The ledger the world's intents are judged for.  Not a field, so
    # equality, hashing and repr ignore it.
    _ledger = EUTXO

    def submit(self, intents: tuple[Intent, ...]) -> tuple:
        """The submit phase: every intent built against the world's
        snapshot, and the state the run starts from, the snapshot and the
        next free position after the builds; the builds take positions from
        one past the largest the snapshot mentions."""
        index = self.chain.index()
        alloc = PositionAllocator(max(index.output.keys() | index.spent, default=-1) + 1)
        built = tuple(_build_eutxo_intent(self, intent, self.chain, alloc) for intent in intents)
        return built, (self.chain, alloc.peek())

    def execute(self, intent: Intent, built: tuple, state: tuple):
        """One intent's turn from ``state``: its submit-time transaction,
        ``built``, appended to the chain, or with ``rebuild`` on and that
        failing, one built against the chain as it stands.  Returns the next
        state, the (status, reason) and the ada paid; a rejected intent
        leaves the chain as it found it."""
        chain, next_position = state
        entry, refusal = built
        if entry is None:
            result, reason = None, f"refused-at-build: {refusal}"
        else:
            result, reason = _attach(chain, entry[0], self.policies)
        accepted_how = ""
        if result is None and self.rebuild:
            alloc = PositionAllocator(next_position)  # rebuilds take positions from here
            entry, refusal = _build_eutxo_intent(self, intent, chain, alloc)
            next_position = alloc.peek()
            if entry is None:
                reason = f"refused-at-rebuild: {refusal}"
            else:
                result, reason = _attach(chain, entry[0], self.policies)
                accepted_how = "rebuilt-at-execute"
        if result is None:
            return (chain, next_position), ("rejected", reason), 0
        return (result, next_position), ("accepted", accepted_how), entry[1] if intent.kind == "buy" else 0

    def observe(self, state: tuple):
        """Each key's pay-to-key holdings, from one pass over the state's
        unspent set; the portal's price and supply; and the digest of the
        unspent outputs, rendered one a line in position order."""
        chain = state[0]
        by_key: dict[int, dict[str, int]] = {}
        unspent = sorted(utxo(chain), key=lambda out: out.position)
        for out in unspent:
            if out.validator.kind == PAY_TO_PUBKEY_KIND:
                facts = by_key.setdefault(out.validator.params[0], {})
                for chip, qty in out.value:
                    label = formats.chip_to_text(chip)
                    facts[label] = facts.get(label, 0) + qty
        try:
            portal = find_portal(chain, self.cfg)
            pairs = (("portal_price", portal.datum), ("portal_supply", portal.value.get(self.cfg.traded_chip)))
        except (NoPortalError, MalformedChainError):  # no portal, or not a unique one
            pairs = (("portal_price", -1), ("portal_supply", -1))
        return by_key, pairs, _digest("".join(formats.output_to_text(out) + "\n" for out in unspent))


@dataclass(frozen=True)
class AccountWorld:
    chain: AccountChain
    contract: int
    actors: tuple[tuple[str, int], ...]

    _ledger = ACCOUNT  # as on ``EutxoWorld``

    def submit(self, intents: tuple[Intent, ...]) -> tuple:
        """The submit phase: every intent built once into its ``CallTx``,
        sent by the actor's key; what the call does depends on the chain it
        meets.  The run starts from the world's chain."""
        keys = dict(self.actors)
        built = tuple(
            CallTx(
                self.contract,
                intent.get("function"),
                keys[intent.actor],
                intent.get("value", 0),
                tuple(intent.get(name) for name in FUNCTIONS[intent.get("function")]),
            )
            for intent in intents
        )
        return built, self.chain

    def execute(self, intent: Intent, tx: CallTx, state: AccountChain):
        """One intent's turn: its submit-time call ``tx`` against the chain
        ``state`` as it stands.  Returns the next chain, the (status, reason)
        and the ada paid."""
        after, result = call(state, tx)
        return after, (result.status, result.reason), tx.value if result.ok and tx.function in PAYABLE else 0

    def observe(self, chain: AccountChain):
        """Each key's token balance; the contract's balance and price; and
        the digest of every contract's balance and state."""
        acct = chain.get(self.contract)
        by_key = {key: {"tokens": acct.state.balance_of(key)} for _, key in self.actors}
        pairs = (("contract_balance", acct.balance), ("price", acct.state.price))
        contracts = [[n, a.balance, a.state.issuer, a.state.price, list(a.state.balances)] for n, a in chain.contracts]
        return by_key, pairs, _digest(json.dumps(contracts))


class Outcome(NamedTuple):
    """Everything observable about one order of a run.

    ``statuses`` is indexed by intent (not by order position).  On the UTxO
    ledger ``state`` reads ``portal_price=-1 portal_supply=-1`` when no
    unspent output, or more than one, carries the state chip.  ``key()``
    drops the order so permutations with identical effects collapse when
    counting distinct outcomes.
    """

    order: tuple[int, ...]
    statuses: tuple[tuple[str, str], ...]
    holdings: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    state: tuple[tuple[str, int], ...]
    digest: str

    def key(self) -> tuple:
        return (self.statuses, self.holdings, self.state, self.digest)

    def to_lines(self) -> list[str]:
        lines = ["ORDER " + ",".join(str(i) for i in self.order)]
        for index, (status, reason) in enumerate(self.statuses):
            lines.append(f"INTENT {index} {status} {reason or '-'}")
        for actor, facts in self.holdings:
            rendered = " ".join(f"{k}={v}" for k, v in facts)
            lines.append(f"HOLDING {actor} {rendered}".rstrip())
        lines.append("STATE " + " ".join(f"{k}={v}" for k, v in self.state))
        lines.append(f"DIGEST {self.digest}")
        return lines


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _build_eutxo_intent(world: EutxoWorld, intent: Intent, chain: Chain, alloc: PositionAllocator):
    """Materialize one intent, judged by ``formats.intent_problem``,
    against the given chain snapshot.

    Returns (transaction, planned ada payment) or (None, refusal reason).
    A portal builder refuses when no unspent output, or more than one,
    carries the state chip, and a price change refuses an actor whose key
    is not the issuer's.
    """
    key = dict(world.actors)[intent.actor]
    if intent.kind == "mint":
        minted = singleton(Chip(intent.get("sym"), intent.get("tok")), intent.get("qty"))
        tx = Transaction(frozenset(), frozenset({Output(alloc.fresh(), pay_to_pubkey(key), 0, minted)}))
    elif intent.kind == "set_price" and key != world.cfg.issuer:
        return None, "only the issuer may set the price"
    else:
        try:
            if intent.kind == "buy":
                tx = build_buy_tx(chain, world.cfg, key, intent.get("n"), alloc, intent.get("max_price"))
            else:
                tx = build_set_price_tx(chain, world.cfg, intent.get("p"), alloc)
        except (PriceRefused, InsufficientSupply, NoPortalError, MalformedChainError) as exc:
            return None, str(exc)
    issuer_lock = world.cfg.issuer_lock
    paid = sum(out.value.get(ADA) for out in tx.outputs if out.validator == issuer_lock)
    return (tx, paid), ""


def _attach(chain: Chain, tx: Transaction, policies: PolicyTable) -> tuple[Chain | None, str]:
    """Append one built intent: the extended chain and no reason, or None and
    the first violation."""
    result = append(chain, tx, None, policies)
    if isinstance(result, ValidationReport):
        first = result.first()
        return None, f"{first.condition}: {first.detail}"
    return result, ""


def _observation(world: EutxoWorld | AccountWorld, state) -> tuple:
    """What every order ending on ``state`` reads of it: per actor, in name
    order, the name and the sorted holdings facts; the ledger's state pairs;
    and the digest."""
    by_key, pairs, digest = world.observe(state)
    facts = tuple((name, tuple(sorted(by_key.get(key, {}).items()))) for name, key in sorted(world.actors))
    return facts, pairs, digest


class Run:
    """The run of one intent tuple on one world: ``world``; ``intents``,
    judged by ``formats.intent_problem``; ``built``, its submit phase, each
    intent built once (on the UTxO ledger its transaction and payment or its
    refusal, on the account ledger its ``CallTx``); and its state graph:
    ``start``, the node of the state the run starts from, and ``states``,
    which maps each state reached to its node.  An intent the judge refuses
    raises ValueError("intent <i>: <problem>") before anything is built."""

    def __init__(self, world: EutxoWorld | AccountWorld, intents: Sequence[Intent]) -> None:
        intents = tuple(intents)
        names = [name for name, _ in world.actors]
        for at, intent in enumerate(intents):
            problem = formats.intent_problem(world._ledger, names, intent)
            if problem is not None:
                raise ValueError(f"intent {at}: {problem}")
        self.world, self.intents = world, intents
        self.built, state = world.submit(intents)
        self.start = _Node(state)
        self.states = {state: self.start}

    def outcome(self, order: Sequence[int]) -> Outcome:
        """Execute the intents in the given order and report every status.

        An order that ``formats.is_permutation`` refuses for the intent
        count raises ValueError before any turn runs.  Every failure of a
        judged intent is recorded in the outcome, never raised.

        The order walks the graph from the start node: a turn no earlier
        order took is executed by the world's ``execute`` and becomes an
        edge to the node of the state it reached, found or made through
        ``states``.  The final state is observed only when no earlier order
        ended there, and holdings are built only when none ended there with
        the same ada paid.  A turn or an ``observe`` that raises leaves no
        entry."""
        order, intents = tuple(order), self.intents
        if not formats.is_permutation(order, len(intents)):
            raise ValueError(f"order {order} is not a permutation of 0..{len(intents) - 1}")
        node = self.start
        statuses = [("", "")] * len(intents)
        paid: dict[str, int] = {}
        for index in order:
            turn = node.turns.get(index)
            if turn is None:
                after, status, ada = self.world.execute(intents[index], self.built[index], node.state)
                turn = node.turns[index] = (self.states.setdefault(after, _Node(after)), status, ada)
            node, statuses[index], ada = turn
            if ada:
                actor = intents[index].actor
                paid[actor] = paid.get(actor, 0) + ada
        if node.observation is None:
            node.observation = _observation(self.world, node.state)
        facts, observed, digest = node.observation
        key = frozenset(paid.items())
        if key not in node.holdings:
            node.holdings[key] = tuple([(name, tuple(sorted(held + (("ada_paid", paid.get(name, 0)),)))) for name, held in facts])
        return Outcome(order, tuple(statuses), node.holdings[key], observed, digest)


_slot: Run | None = None  # the last run ``run_schedule`` made


def run_schedule(world: EutxoWorld | AccountWorld, intents: Sequence[Intent], order: Sequence[int]) -> Outcome:
    """``Run(world, intents).outcome(order)``, for a caller that asks order
    by order.  One slot keeps the last ``Run`` made here, and a call reuses
    it when ``world`` is that run's world, the same object, and its intents
    equal the run's; otherwise a new ``Run`` takes the slot once it is
    made, so a ``Run`` that raises leaves the slot as it was.  The slot
    keeps at most one world and its graph alive."""
    global _slot
    run = _slot
    if run is None or run.world is not world or run.intents != tuple(intents):
        run = _slot = Run(world, intents)
    return run.outcome(order)


# ---------------------------------------------------------------------------
# Theorem fuzzing


@dataclass(frozen=True)
class Counterexample:
    kind: str
    detail: str
    payload: tuple[tuple[str, str], ...]  # name -> serialized text

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail, "payload": dict(self.payload)}


@dataclass(frozen=True)
class FuzzReport:
    """One campaign.  ``passes`` counts the cases whose conclusion held, so
    ``cases - passes`` counterexamples were found; ``counterexamples`` keeps
    the first five of them, shrunk."""

    which: str
    seed: int
    cases: int
    attempts: int
    passes: int
    counterexamples: tuple[Counterexample, ...]

    def to_dict(self) -> dict:
        return {
            "which": self.which,
            "seed": self.seed,
            "cases": self.cases,
            "attempts": self.attempts,
            "passes": self.passes,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
        }

    def to_text(self) -> str:
        lines = [
            f"FUZZ {self.which} seed={self.seed}",
            f"cases={self.cases} attempts={self.attempts} passes={self.passes} counterexamples={len(self.counterexamples)}",
        ]
        for c in self.counterexamples:
            lines.append(f"COUNTEREXAMPLE {c.kind}: {c.detail}")
            for name, text in c.payload:
                lines.append(f"--- {name} ---")
                lines.append(text.rstrip("\n"))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Statement:
    """One fuzzable statement of the paper.

    ``sample(rng)`` draws an instance: named chains and transactions, in the
    order a counterexample reports them.  ``judge(instance)`` runs the
    statement's check once and returns None when the hypothesis is unmet,
    True when the conclusion holds, and otherwise ``(part, detail)``: the
    counterexample's kind is the statement's name followed by ``part``, and
    it prints the instance judged.  ``expect``
    is "holds" for a proved statement, where a counterexample is a bug, and
    "refuted" for a refutation, where it is the finding.  ``shrink`` is False
    when an instance's parts derive from one another, so that dropping a
    transaction from one would leave the others stale.
    """

    sample: Callable[[random.Random], dict]
    judge: Callable[[dict], tuple | bool | None]
    expect: str = "holds"
    shrink: bool = True

    def fails(self, instance: dict) -> bool:
        """True when the instance meets the hypothesis but not the conclusion."""
        return isinstance(self.judge(instance), tuple)


def _payload(instance: dict) -> tuple[tuple[str, str], ...]:
    rendered = []
    for name, part in instance.items():
        if isinstance(part, Chain):
            rendered.append((name, formats.chain_to_text(part)))
        elif isinstance(part, Transaction):
            rendered.append((name, formats.transactions_to_text((part,))))
        else:
            rendered.append((name, formats.transactions_to_text(tuple(part))))
    return tuple(rendered)


def _drop_tx(chain: Chain, index: int) -> Chain:
    txs = chain.transactions[:index] + chain.transactions[index + 1 :]
    slots = None
    if chain.slots is not None:
        slots = chain.slots[:index] + chain.slots[index + 1 :]
    return Chain(txs, slots)


def _smaller(instance: dict):
    """The instance with one transaction dropped from the base chain, where
    the base stays valid, then with one dropped from the batch."""
    base = instance.get("base")
    if isinstance(base, Chain):
        for index in range(len(base)):
            smaller = _drop_tx(base, index)
            if validate_chain(smaller).valid:
                yield {**instance, "base": smaller}
    batch = instance.get("txs") or ()
    for index in range(len(batch)):
        yield {**instance, "txs": batch[:index] + batch[index + 1 :]}


def minimize_instance(instance: dict, fails: Callable[[dict], bool]) -> dict:
    """Greedy shrink: repeatedly drop one transaction from the base chain or
    the batch while the failure persists, keeping the base a valid chain."""
    while True:
        smaller = next((candidate for candidate in _smaller(instance) if fails(candidate)), None)
        if smaller is None:
            return instance
        instance = smaller


def fuzz_theorem(which: str, seed: int = 0, cases: int = 1000) -> FuzzReport:
    """Draw instances of one statement until ``cases`` of them meet its
    hypothesis, giving up after 20 draws per case, and judge each.

    The first five counterexamples are shrunk by greedy transaction removal,
    judged once more, and serialized for replay with that verdict.
    """
    if cases < 1:
        raise ValueError("cases must be >= 1")
    statement = STATEMENTS.get(which)
    if statement is None:
        raise ValueError(f"unknown theorem {which!r}; choose from {tuple(STATEMENTS)}")
    rng = random.Random(seed)
    attempts = 0
    done = 0
    passes = 0
    counterexamples: list[Counterexample] = []
    while done < cases and attempts < cases * 20:
        attempts += 1
        instance = statement.sample(rng)
        verdict = statement.judge(instance)
        if verdict is None:  # hypothesis not satisfied; resample
            continue
        done += 1
        if verdict is True:
            passes += 1
        elif len(counterexamples) < 5:
            if statement.shrink:
                instance = minimize_instance(instance, statement.fails)
                verdict = statement.judge(instance)
            part, detail = verdict
            counterexamples.append(Counterexample(which + part, detail, _payload(instance)))
    return FuzzReport(which, seed, done, attempts, passes, tuple(counterexamples))


def _sample_lemma15_1(rng: random.Random) -> dict:
    gen = ChainGen(rng)
    base, alloc = gen.chain()
    tx1, tx2 = gen.apart_pair(base, alloc)
    variant = rng.random()
    if variant < 0.15:
        # break apartness: tx2 spends one of tx1's outputs
        victims = sorted(tx1.outputs, key=lambda o: o.position)
        if victims:
            tx2 = Transaction(tx2.inputs | {spend(victims[0], rng)}, tx2.outputs)
    elif variant < 0.3:
        # tx2 gets a dangling input at a never-used position
        tx2 = Transaction(tx2.inputs | {Input(alloc.fresh() + 1000, 0)}, tx2.outputs)
    return {"base": base, "tx1": tx1, "tx2": tx2}


def _judge_lemma15_1(instance: dict):
    """Apart transactions commute: both orders are valid or neither, and
    they are observationally equivalent."""
    tx1, tx2 = instance["tx1"], instance["tx2"]
    if not apart(tx1, tx2):
        return None
    report = check_defer(instance["base"], (tx1,), tx2)
    if report.valid_txs_tx == report.valid_tx_txs and report.equiv:
        return True
    return "", f"apart pair: valid_12={report.valid_txs_tx} valid_21={report.valid_tx_txs} equiv={report.equiv}"


def _sample_lemma15_2(rng: random.Random) -> dict:
    gen = ChainGen(rng)
    base, alloc = gen.chain()
    extended, added = gen.grow(base, 1, alloc)
    tx = gen.transaction(extended, alloc)
    return {"base": base, "tx_prime": added[0], "tx": tx}


def _judge_lemma15_2(instance: dict):
    """If B;tx';tx is valid, then B;tx is valid exactly when tx is apart from tx'."""
    tx_prime, tx = instance["tx_prime"], instance["tx"]
    report = check_defer(instance["base"], (tx_prime,), tx)
    if not report.valid_txs_tx:
        return None
    rhs = apart(tx, tx_prime)
    if report.valid_tx == rhs:
        return True
    return "", f"valid(B;tx)={report.valid_tx} but apart={rhs}"


def _defer_instance(rng: random.Random, slotted: bool) -> dict:
    gen = ChainGen(rng, slotted=slotted)
    base, alloc = gen.chain()
    extended, batch = gen.grow(base, rng.randrange(4), alloc)
    pool_base = {out.position for out in spendable(base)}
    pool_now = [out for out in spendable(extended) if out.position in pool_base]
    tx_slot = gen.next_slot(extended) if slotted else None
    tx = gen.transaction(base, alloc, pool=pool_now, slot=tx_slot)
    if rng.random() < 0.15 and batch:
        # adversarial: spend something created inside the batch so valid(B;tx) fails
        fresh = [out for out in spendable(extended) if out.position not in pool_base]
        if fresh:
            tx = Transaction(tx.inputs | {spend(fresh[0], rng)}, tx.outputs, tx.slot_range)
    return {"base": base, "txs": tuple(batch), "tx": tx}


def _judge_theorem17(instance: dict):
    """If B;txs;tx and B;tx are valid, then B;tx;txs is valid and equivalent."""
    report = check_defer(instance["base"], instance["txs"], instance["tx"])
    if not (report.valid_txs_tx and report.valid_tx):
        return None
    if report.valid_tx_txs and report.equiv:
        return True
    return "", f"hyp holds but valid_tx_first={report.valid_tx_txs} equiv={report.equiv}"


def _judge_prop19(instance: dict):
    """With slot ranges: if both orders can be scheduled, they are equivalent."""
    report = check_defer(instance["base"], instance["txs"], instance["tx"])
    if not (report.valid_txs_tx and report.valid_tx_txs):
        return None
    if report.equiv:
        return True
    return "", "both orders schedule but are not observationally equivalent"


def _sample_remark18(rng: random.Random) -> dict:
    """A pinned transaction valid only at the tip slot, then a late one whose
    range opens after the pin closes."""
    gen = ChainGen(rng, slotted=True, reject_all_prob=0.0)
    base, alloc = gen.chain(length=rng.randrange(1, 4))
    pool = spendable(base)
    if len(pool) < 2:
        # a genesis of two fresh outputs always appends, and with no
        # RejectAll draws both are spendable
        out1 = gen.random_output(alloc)
        out2 = gen.random_output(alloc)
        base = append(base, Transaction(frozenset(), frozenset({out1, out2})), gen.next_slot(base))
        pool = spendable(base)
    tip = base.last_slot() or 0
    pinned = Transaction(
        frozenset({spend(pool[0], rng)}),
        frozenset({gen.random_output(alloc)}),
        SlotRange(tip, tip),  # time-sensitive: only valid right now
    )
    late = Transaction(
        frozenset({spend(pool[1], rng)}),
        frozenset({gen.random_output(alloc)}),
        SlotRange(tip + 1 + rng.randrange(3), None),  # opens after the pin closes
    )
    return {"base": base, "txs": (pinned,), "tx": late}


def _judge_remark18(instance: dict):
    """Deferral read on slotted chains: if B;txs;tx and B;tx are valid, then
    B;tx;txs can be scheduled.  Slot ranges refute it."""
    report = check_defer(instance["base"], instance["txs"], instance["tx"])
    if not (report.valid_txs_tx and report.valid_tx):
        return None
    if report.valid_tx_txs:
        return True
    return "", "txs is time-sensitive: B;txs;tx and B;tx are valid but B;tx;txs cannot be scheduled"


def _alpha_variant(rng: random.Random, base: Chain, alloc: PositionAllocator) -> Chain:
    """A random alpha-rename of some spent pairs to positions fresh from
    ``alloc``, the allocator that continues ``base``."""
    edges = spent_edges(base)
    if not edges:
        return base
    mapping = {
        out.position: alloc.fresh()
        for _, out, _, _ in sorted(edges, key=lambda e: (e[0], e[1].position))
        if rng.random() < 0.5
    }
    return rename_positions(base, mapping)


def _swap_variant(rng: random.Random, base: Chain) -> Chain:
    """Random adjacent swaps of apart transactions (validity preserved)."""
    chain = base
    for _ in range(3):
        txs = chain.transactions
        if len(txs) < 2:
            break
        i = rng.randrange(len(txs) - 1)
        if apart(txs[i], txs[i + 1]):
            candidate = Chain(txs[:i] + (txs[i + 1], txs[i]) + txs[i + 2 :])
            if validate_chain(candidate).valid:
                chain = candidate
    return chain


def _sample_lemma21(rng: random.Random) -> dict:
    """A chain, an alpha-variant of it, that variant with some apart
    transactions swapped, and a transaction valid on the chain."""
    gen = ChainGen(rng)
    base, alloc = gen.chain()
    alpha = _alpha_variant(rng, base, alloc)
    variant = _swap_variant(rng, alpha)
    tx = gen.transaction(base, alloc, pool=spendable(base))
    return {"base": base, "alpha": alpha, "variant": variant, "tx": tx}


def _judge_lemma21(instance: dict):
    """Alpha-equivalence is respected by observational equivalence and by
    appends, once name clashes are freshened away."""
    base, alpha, variant, tx = instance["base"], instance["alpha"], instance["variant"], instance["tx"]
    # part 2: alpha-variants are alpha-equivalent and observationally equivalent
    if not alpha_equiv(base, alpha) or not obs_equiv(base, alpha):
        return "_2", "alpha variant not equivalent"
    # part 1: appending the same valid tx to observationally equivalent chains
    extended, variant_extended = Chain(base.transactions + (tx,)), Chain(variant.transactions + (tx,))
    valid = validate_chain(extended).valid
    if valid and validate_chain(variant_extended).valid and not obs_equiv(extended, variant_extended):
        return "_1", "equivalent chains diverge after the same append"
    # parts 3 and 4: a name-clash between tx and the variant's spent pairs is
    # repaired by alpha-converting the variant, after which validity and
    # equivalence transfer
    base_index = base.index()
    clash_candidates = sorted(variant.index().spent - base_index.output.keys() - base_index.spent)
    if clash_candidates and tx.outputs:
        victim = sorted(tx.outputs, key=lambda o: o.position)[0]
        clash = Output(clash_candidates[0], victim.validator, victim.datum, victim.value)
        tx = Transaction(tx.inputs, (tx.outputs - {victim}) | {clash}, tx.slot_range)
        extended = Chain(base.transactions + (tx,))
        valid = validate_chain(extended).valid
    if not valid:
        return None  # construction failed to keep tx valid on B
    fresh_variant = freshen_spent_clashes(variant, positions_of(tx))
    fresh_extended = Chain(fresh_variant.transactions + (tx,))
    ok3 = validate_chain(fresh_extended).valid
    ok4 = obs_equiv(extended, fresh_extended)
    ok_alpha = alpha_equiv(variant, fresh_variant)
    if ok3 and ok4 and ok_alpha:
        return True
    return "_34", f"freshened variant: valid={ok3} equiv={ok4} alpha={ok_alpha}"


STATEMENTS = {
    "lemma15_1": Statement(_sample_lemma15_1, _judge_lemma15_1),
    "lemma15_2": Statement(_sample_lemma15_2, _judge_lemma15_2),
    "theorem17": Statement(lambda rng: _defer_instance(rng, slotted=False), _judge_theorem17),
    "prop19": Statement(lambda rng: _defer_instance(rng, slotted=True), _judge_prop19),
    "lemma21": Statement(_sample_lemma21, _judge_lemma21, shrink=False),
    "remark18": Statement(_sample_remark18, _judge_remark18, expect="refuted"),
}


# ---------------------------------------------------------------------------
# Scenarios


def _refuse(scenario: Scenario) -> None:
    """ValueError("<keyword> <i>: <message>") for what
    ``formats.scenario_problem`` finds wrong with ``scenario``."""
    problem = formats.scenario_problem(scenario)
    if problem is not None:
        keyword, at, message = problem
        raise ValueError(f"{keyword.lower()} {at}: {message}")


def build_world(scenario: Scenario) -> EutxoWorld | AccountWorld:
    """Set up the initial ledger a scenario runs against.  Before anything
    is built, a scenario that ``formats.scenario_problem`` finds wrong
    raises its answer as ``ValueError("<keyword> <i>: <message>")``, so a
    scenario built in code is refused where its text would not parse."""
    _refuse(scenario)
    if scenario.ledger == EUTXO:
        alloc = PositionAllocator()
        genesis = init_portal(scenario.cfg, scenario.supply, scenario.price, alloc)
        chain = append(Chain(), genesis, None, scenario.policies)
        if isinstance(chain, ValidationReport):
            raise ValueError(f"portal initialization rejected: {chain.describe()}")
        return EutxoWorld(chain, scenario.cfg, scenario.policies, scenario.actors, scenario.rebuild)
    deployer = dict(scenario.actors)[scenario.deployer]
    chain = deploy_changing(AccountChain(), scenario.contract, deployer, scenario.supply, scenario.price)
    return AccountWorld(chain, scenario.contract, scenario.actors)


#: The most orders one run may ask for: every order of 8 intents.  A run
#: keeps each order and its outcome in memory, so more is refused up front.
MAX_ORDERS = math.factorial(8)


def expand_schedules(scenario: Scenario) -> list[tuple[int, ...]]:
    """Concrete permutations for every clause of ``scenario.schedules``.
    Before any is built, a scenario that ``formats.scenario_problem`` finds
    wrong raises its answer as ``build_world`` does, so a sample count below
    1 never subtracts from the tally; then clauses asking for more than
    ``MAX_ORDERS`` in all raise ValueError."""
    _refuse(scenario)
    count = len(scenario.intents)
    asked = sum(  # 9! alone is past the bound
        math.factorial(min(count, 9)) if clause[0] == "all" else clause[1] if clause[0] == "sample" else 1
        for clause in scenario.schedules
    )
    if asked > MAX_ORDERS:
        raise ValueError(
            f"schedules ask for more than {MAX_ORDERS} orders (all orders of 8 intents); "
            "run fewer with 'sample <n> @<seed>'"
        )
    orders: list[tuple[int, ...]] = []
    for clause in scenario.schedules:
        if clause[0] == "all":
            orders.extend(itertools.permutations(range(count)))
        elif clause[0] == "sample":
            _, n, seed = clause
            rng = random.Random(seed)
            for _ in range(n):
                order = list(range(count))
                rng.shuffle(order)
                orders.append(tuple(order))
        else:
            orders.append(clause[1])
    return orders


@dataclass(frozen=True)
class ScenarioReport:
    ledger: str
    outcomes: tuple[Outcome, ...]

    def distinct(self) -> list[tuple[Outcome, int]]:
        """Distinct outcomes (order ignored) with their multiplicities, in
        first-seen order."""
        buckets: dict[tuple, tuple[Outcome, int]] = {}
        for outcome in self.outcomes:
            key = outcome.key()
            if key in buckets:
                rep, count = buckets[key]
                buckets[key] = (rep, count + 1)
            else:
                buckets[key] = (outcome, 1)
        return list(buckets.values())

    def to_text(self) -> str:
        lines = [f"LEDGER {self.ledger}", f"SCHEDULES {len(self.outcomes)}"]
        for i, outcome in enumerate(self.outcomes):
            lines.append(f"BEGIN OUTCOME {i}")
            lines.extend(outcome.to_lines())
            lines.append("END OUTCOME")
        distinct = self.distinct()
        lines.append(f"SUMMARY distinct={len(distinct)}")
        for rep, count in distinct:
            lines.append("DISTINCT count=%d order=%s digest=%s" % (count, ",".join(map(str, rep.order)), rep.digest))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "ledger": self.ledger,
            "outcomes": [
                {
                    "order": list(o.order),
                    "statuses": [list(s) for s in o.statuses],
                    "holdings": {actor: dict(facts) for actor, facts in o.holdings},
                    "state": dict(o.state),
                    "digest": o.digest,
                }
                for o in self.outcomes
            ],
            "distinct": len(self.distinct()),
        }


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Run every schedule of the scenario against a fresh world, as one
    ``Run``.  A scenario that ``formats.scenario_problem`` finds wrong
    raises its answer as ValueError before anything is built or any turn
    runs."""
    world = build_world(scenario)
    orders = expand_schedules(scenario)
    run = Run(world, scenario.intents)
    return ScenarioReport(scenario.ledger, tuple(map(run.outcome, orders)))


#: The two-actor race, as the text of ``corpus/race_<ledger>.scenario``: a buy
#: built when the price is 1 versus the issuer pushing the price to 100.
RACE_SCENARIOS = {
    EUTXO: "LEDGER eutxo\nCONFIG issuer=1 traded=1:1 state=2:1\nSUPPLY 1000\nPRICE 1\nPOLICY 2 AffineOnce\n"
    "ACTOR buyer 7\nACTOR issuer 1\nINTENT buyer buy max_price=1 n=100\nINTENT issuer set_price p=100\nSCHEDULE all\n",
    ACCOUNT: "LEDGER account\nCONTRACT 1\nDEPLOYER issuer\nSUPPLY 1000\nPRICE 1\nACTOR buyer 7\nACTOR issuer 1\n"
    "INTENT buyer call buy value=100\nINTENT issuer call setPrice p=100\nSCHEDULE all\n",
}


def bundled_race_scenario(ledger: str) -> Scenario:
    """The bundled race.  On the UTxO ledger whichever intent lands second
    goes stale and is rejected; on the account ledger both always land and
    the buyer's haul depends on the order."""
    return formats.parse_scenario(RACE_SCENARIOS[ledger])
