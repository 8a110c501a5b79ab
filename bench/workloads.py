"""The three benchmark workloads.

Each workload is a closed loop with one caller: its work is cut into rounds,
round ``r`` is a pure function of (seed, r), and one call into ledgersim
starts only after the previous one returned.  A round times its stages, times
single items for the latency percentiles, then checks what the calls returned.
Checks sit outside every timed region; those that call into ledgersim run
with the tracer paused, so they add no spans or counts.

Workloads reach ledgersim only through module attributes looked up at call
time (``m.ledger.append``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import chaintext
from speed import machine_speed

clock = time.perf_counter


class Recorder:
    """What one pass over a run of rounds measured and checked.

    A workload books each timed segment of a stage with ``lap``, which takes
    the machine speed (``speed.machine_speed``) after the segment and
    averages it with the one taken before, so that the stage's time and its
    items' latencies can also be given at the nominal speed.  Times are kept
    as measured too.
    """

    def __init__(self, stages: int, tracer=None, gc_watch: GcWatch | None = None) -> None:
        self.items = [0] * stages
        self.seconds = [0.0] * stages
        self.normalized_seconds = [0.0] * stages
        self.latencies: list[float] = []  # seconds per item
        self.normalized_latencies: list[float] = []
        self.speeds: list[float] = []  # one per lap
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.tracer = tracer
        self.gc_watch = gc_watch
        self._speed_before = 1.0
        self._latency_mark = 0

    def start_round(self) -> None:
        self._speed_before = machine_speed()
        self._latency_mark = len(self.latencies)

    def lap(self, index: int, seconds: float, items: int = 0) -> None:
        after = machine_speed()
        speed = (self._speed_before + after) / 2
        self._speed_before = after
        self.speeds.append(speed)
        self.items[index] += items
        self.seconds[index] += seconds
        self.normalized_seconds[index] += seconds * speed
        self.normalized_latencies += [dt * speed for dt in self.latencies[self._latency_mark :]]
        self._latency_mark = len(self.latencies)

    def rates(self) -> list[float]:
        """Items per second of each stage over the whole pass, as measured."""
        return [n / s for n, s in zip(self.items, self.seconds)]

    def normalized_rates(self) -> list[float]:
        return [n / s for n, s in zip(self.items, self.normalized_seconds)]

    def timed_seconds(self) -> float:
        return sum(self.seconds)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def feed(self, *parts) -> None:
        self.digest.update(repr(parts).encode())

    def paused(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def collect(self) -> None:
        """A full collection between timed regions, which the GC watch does
        not count: it is the benchmark's, not ledgersim's."""
        if self.gc_watch is not None:
            self.gc_watch.counting = False
        gc.collect()
        if self.gc_watch is not None:
            self.gc_watch.counting = True


class GcWatch:
    """Collections and pause time from ``gc.callbacks``; GC stays enabled."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause = 0.0
        self.counting = True
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if not self.counting:
            return
        if phase == "start":
            self._t0 = clock()
        else:
            self.collections += 1
            self.pause += clock() - self._t0

    def __enter__(self) -> GcWatch:
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def tx_key(tx) -> tuple:
    """Order-independent rendering of a transaction, for digests."""
    ins = sorted((i.position, i.redeemer) for i in tx.inputs)
    outs = sorted((o.position, o.validator.kind, o.validator.params, o.datum, o.value.entries) for o in tx.outputs)
    rng = None if tx.slot_range is None else (tx.slot_range.lo, tx.slot_range.hi)
    return ins, outs, rng


# ---------------------------------------------------------------------------
# fuzz-mix


PROVED = (("lemma15_1", 200), ("lemma15_2", 200), ("theorem17", 200), ("prop19", 200))
ALPHA = ("lemma21", 100)
REMARK18_HUNT = 5
PREFIX_CASES = 200


class FuzzMix:
    """The acceptance campaign mix of criteria 2-6 on GenConfig defaults."""

    name = "fuzz-mix"
    stages = (
        ("fuzz.cases_per_s", "cases/s", "checked cases of lemma15_1, lemma15_2, theorem17, prop19 and the remark18 hunt"),
        ("prefix.chains_per_s", "chains/s", "generated chains with every prefix re-validated"),
        ("fuzz.alpha_cases_per_s", "cases/s", "checked lemma21 cases"),
    )
    item = ("prefix.case_ms", "one prefix-closure case: generate a chain, validate each prefix")
    trace_rounds = 6

    def __init__(self, m, seed: int, root: Path) -> None:
        self.m = m
        self.seed = seed

    def round(self, r: int, rec: Recorder) -> None:
        m = self.m
        rng = random.Random(f"{self.seed}:fuzz-mix:{r}")
        gen = m.gen.ChainGen(rng)
        prefix_seconds = 0.0
        for _ in range(PREFIX_CASES):
            t0 = clock()
            chain, _ = gen.chain()
            valid = [m.ledger.validate_chain(chain.prefix(upto)).valid for upto in range(len(chain) + 1)]
            dt = clock() - t0
            rec.latencies.append(dt)
            prefix_seconds += dt
            rec.check(all(valid), f"round {r}: a prefix of a generated chain is invalid")
            rec.feed([tx_key(tx) for tx in chain.transactions])
        rec.lap(1, prefix_seconds, PREFIX_CASES)

        cases = 0
        seconds = 0.0
        for which, requested in PROVED + (("remark18", REMARK18_HUNT),):
            report, dt = self._campaign(which, rng.randrange(2**31), requested, rec)
            cases += report.cases
            seconds += dt
            if which == "remark18":
                rec.check(len(report.counterexamples) >= 1, f"round {r}: remark18 hunt found no counterexample")
            else:
                rec.check(
                    report.cases == requested and not report.counterexamples,
                    f"round {r}: {which} cases={report.cases}/{requested} counterexamples={len(report.counterexamples)}",
                )
        rec.lap(0, seconds, cases)

        which, requested = ALPHA
        report, dt = self._campaign(which, rng.randrange(2**31), requested, rec)
        rec.check(
            report.cases == requested and not report.counterexamples,
            f"round {r}: lemma21 cases={report.cases}/{requested} counterexamples={len(report.counterexamples)}",
        )
        rec.lap(2, dt, report.cases)

    def _campaign(self, which: str, seed: int, cases: int, rec: Recorder):
        t0 = clock()
        report = self.m.harness.fuzz_theorem(which, seed=seed, cases=cases)
        dt = clock() - t0
        rec.feed(report.to_text())
        return report, dt


# ---------------------------------------------------------------------------
# long-chain

CHAIN_TXS = 10_200
# (prefix length, transactions appended on top of it): the scaling series.
APPEND_WINDOWS = ((100, 100), (1_000, 600), (10_000, 20))
GROW_WINDOWS = ((100, 100), (1_000, 100), (10_000, 20))
# The latency percentiles come from the 10^3 window alone: at 10^4 a window
# affordable at the seed holds too few appends for percentiles, and about one
# in six of them pays for a full garbage collection.
LATENCY_LENGTH = 1_000
# Appends are booked in laps of about this long, so that the machine speed
# is measured often enough to follow its drift (see speed.py).
LAP_SECONDS = 0.3


class LongChain:
    """One seeded ~10^4-transaction chain: a read phase over all of it, and a
    write phase appending and growing on top of prefixes of three lengths."""

    name = "long-chain"
    stages = (
        ("chain.check_tx_per_s", "tx/s", "transactions through parse, validate_chain, utxo, classify and alpha_equiv"),
        ("chain.append_tx_per_s", "tx/s", "transactions through ledger.append, replayed on prefixes of 10^2, 10^3, 10^4"),
        ("chain.grow_tx_per_s", "tx/s", "transactions through ChainGen.grow on prefixes of 10^2, 10^3, 10^4"),
    )
    item = ("chain.append_ms", "one ledger.append replayed on the 10^3-transaction prefix")
    trace_rounds = 2
    scaling = {"ledger.append": APPEND_WINDOWS, "gen.ChainGen.grow": GROW_WINDOWS}

    def __init__(self, m, seed: int, root: Path) -> None:
        self.m = m
        self.seed = seed
        self.input = chaintext.generate(random.Random(f"{seed}:long-chain"), CHAIN_TXS)

    def round(self, r: int, rec: Recorder) -> None:
        m = self.m
        text, variant, unspent, top = self.input
        t0 = clock()
        chain = m.formats.parse_chain(text)
        rec.lap(0, clock() - t0)
        t0 = clock()
        renamed = m.formats.parse_chain(variant)
        rec.lap(0, clock() - t0)
        t0 = clock()
        report = m.ledger.validate_chain(chain)
        outputs = m.ledger.utxo(chain)
        kind = m.ledger.classify(chain)
        rec.lap(0, clock() - t0)
        t0 = clock()
        alpha = m.equivalence.alpha_equiv(chain, renamed)
        rec.lap(0, clock() - t0, len(chain))
        del renamed  # keep the collector's live set to what the write phase uses
        positions = tuple(sorted(out.position for out in outputs))
        rec.check(len(chain) == CHAIN_TXS and report.valid, f"round {r}: generated chain does not validate")
        rec.check(positions == unspent, f"round {r}: utxo differs from the generator's unspent pool")
        rec.check(kind == "blockchain", f"round {r}: classify gave {kind}")
        rec.check(alpha is True, f"round {r}: renamed variant is not alpha-equivalent")
        rec.feed(report.valid, positions, kind, alpha)
        if r == 0:
            with rec.paused():
                canon = m.equivalence.canonicalize(chain)
                rec.check(m.equivalence.canonicalize(canon) == canon, "canonicalize is not idempotent")

        txs = chain.transactions
        rec.collect()
        for length, count in APPEND_WINDOWS:
            appended = 0
            seconds = 0.0
            current = m.ledger.Chain(txs[:length])
            for tx in txs[length : length + count]:
                t0 = clock()
                result = m.ledger.append(current, tx)
                dt = clock() - t0
                if length == LATENCY_LENGTH:
                    rec.latencies.append(dt)
                seconds += dt
                appended += 1
                if seconds >= LAP_SECONDS:
                    rec.lap(1, seconds, appended)
                    seconds, appended = 0.0, 0
                accepted = isinstance(result, m.ledger.Chain)
                rec.check(accepted, f"round {r}: replayed append at length {len(current)} was rejected")
                if not accepted:
                    break
                current = result
            if appended:
                rec.lap(1, seconds, appended)
            rec.feed(length, len(current))

        rec.collect()
        for length, count in GROW_WINDOWS:
            gen = m.gen.ChainGen(random.Random(f"{self.seed}:grow:{r}:{length}"))
            alloc = m.model.PositionAllocator(top)
            t0 = clock()
            try:
                grown, added = gen.grow(m.ledger.Chain(txs[:length]), count, alloc)
            except AssertionError as exc:  # grow's guard against a generated tx that fails to append
                rec.check(False, f"round {r}: grow at length {length}: {exc}")
                continue
            rec.lap(2, clock() - t0, len(added))
            rec.check(len(grown) == length + count, f"round {r}: grow at length {length} gave {len(grown)} txs")
            rec.feed([tx_key(tx) for tx in added])


# ---------------------------------------------------------------------------
# portal-race

WALK_STEPS = 400
WALK_LAP = 100
RACE_LAP = 630  # 5,040 orders in 8 laps
BUYERS = (7, 8, 9)
SCHEDULE_INTENTS = 7


class PortalRace:
    """Token-portal walks under an affine state-chip policy, then every order
    of a seeded 7-intent race on each ledger, plus the two corpus races."""

    name = "portal-race"
    stages = (
        ("portal.steps_per_s", "steps/s", "walk steps: build against the snapshot, then append under the policy"),
        ("race.eutxo_orders_per_s", "orders/s", "run_schedule calls over all 5,040 orders of the eutxo race"),
        ("race.account_orders_per_s", "orders/s", "run_schedule calls over all 5,040 orders of the account race"),
    )
    item = ("portal.step_ms", "one walk step")
    trace_rounds = 2

    def __init__(self, m, seed: int, root: Path) -> None:
        self.m = m
        self.seed = seed
        self.cfg = m.token_portal.TokenConfig(issuer=1, traded_chip=m.model.Chip(1, 1), state_chip=m.model.Chip(2, 1))
        self.policies = m.policy.PolicyTable((m.policy.Policy(2, m.policy.AFFINE_ONCE),))
        corpus = root / "corpus"
        self.corpus = [
            ((corpus / f"race_{kind}.scenario").read_text(), (corpus / f"race_{kind}.golden.txt").read_text())
            for kind in ("eutxo", "account")
        ]

    def round(self, r: int, rec: Recorder) -> None:
        rng = random.Random(f"{self.seed}:portal-race:{r}")
        self._walk(r, rng, rec)
        self._eutxo_race(r, rng, rec)
        self._account_race(r, rng, rec)
        for text, golden in self.corpus:
            scenario = self.m.formats.parse_scenario(text)
            rendered = self.m.harness.run_scenario(scenario).to_text()
            rec.check(rendered == golden, f"round {r}: corpus {scenario.ledger} race differs from its golden file")

    def _walk(self, r: int, rng: random.Random, rec: Recorder) -> None:
        m, cfg, policies = self.m, self.cfg, self.policies
        Chain = m.ledger.Chain
        supply = rng.randrange(2_000, 4_000)
        alloc = m.model.PositionAllocator()
        genesis = m.token_portal.init_portal(cfg, supply, rng.randrange(0, 10), alloc)
        chain = m.ledger.append(Chain(), genesis, policies=policies)
        ledger = WalkLedger(cfg)
        rec.check(isinstance(chain, Chain) and ledger.apply(genesis), f"round {r}: portal initialization rejected")
        seconds = 0.0
        for step in range(WALK_STEPS):
            roll = rng.random()
            t0 = clock()
            tx, result = self._step(roll, rng, chain, alloc)
            dt = clock() - t0
            rec.latencies.append(dt)
            seconds += dt
            chain = self._check_step(r, step, roll, tx, result, chain, ledger, supply, rec)
            if (step + 1) % WALK_LAP == 0:
                rec.lap(0, seconds, WALK_LAP)
                seconds = 0.0

    def _step(self, roll: float, rng: random.Random, chain, alloc):
        """One walk step; returns the transaction built (None when the builder
        refused or there was nothing to transfer) and what ``append`` said."""
        m, cfg = self.m, self.cfg
        tx = None
        try:
            if roll < 0.40:
                limit = rng.randrange(12) if rng.random() < 0.3 else None
                buyer = BUYERS[rng.randrange(len(BUYERS))]
                tx = m.token_portal.build_buy_tx(chain, cfg, buyer, rng.randrange(1, 6), alloc, max_price=limit)
            elif roll < 0.65:
                tx = m.token_portal.build_set_price_tx(chain, cfg, rng.randrange(0, 12), alloc)
            elif roll < 0.85:
                held = [
                    out
                    for out in m.ledger.utxo(chain)
                    if out.validator.kind == "PayToPubKey" and out.value.get(cfg.traded_chip) > 0
                ]
                if held:
                    victim = held[rng.randrange(len(held))]
                    lock = m.validators.pay_to_pubkey(BUYERS[rng.randrange(len(BUYERS))])
                    tx = m.model.Transaction(
                        frozenset({m.model.Input(victim.position, victim.validator.params[0])}),
                        frozenset({m.model.Output(alloc.fresh(), lock, 0, victim.value)}),
                    )
            else:  # rogue: a second state chip
                chip = m.model.singleton(cfg.state_chip, 1)
                tx = m.model.Transaction(frozenset(), frozenset({m.model.Output(alloc.fresh(), m.validators.ACCEPT_ALL, 0, chip)}))
        except (m.token_portal.PriceRefused, m.token_portal.InsufficientSupply):
            return None, None
        if tx is None:
            return None, None
        return tx, m.ledger.append(chain, tx, policies=self.policies)

    def _check_step(self, r, step, roll, tx, result, chain, ledger, supply, rec: Recorder):
        """Check one step's outcome against the walk's invariants; returns the
        chain the next step builds on."""
        if tx is None:
            rec.feed(step, None)
            return chain
        Chain = self.m.ledger.Chain
        if roll >= 0.85:
            first = None if isinstance(result, Chain) else result.first()
            rec.check(
                first is not None and first.condition == "policy-violation",
                f"round {r} step {step}: rogue state-chip mint was not rejected by the policy",
            )
            rec.feed(step, "rogue", None if first is None else first.condition)
            return chain
        accepted = isinstance(result, Chain)
        rec.check(accepted and ledger.apply(tx), f"round {r} step {step}: walk transaction rejected or double-spent")
        if not accepted:
            return chain
        rec.check(
            ledger.state_total == 1 and ledger.traded_total == supply,
            f"round {r} step {step}: state chips {ledger.state_total}, traded {ledger.traded_total}/{supply}",
        )
        rec.feed(step, tx_key(tx))
        return result

    def _eutxo_race(self, r: int, rng: random.Random, rec: Recorder) -> None:
        h = self.m.harness
        price = rng.randrange(1, 10)
        actors = [("issuer", 1)] + [(f"b{i}", 10 + i) for i in range(SCHEDULE_INTENTS)]
        intents = []
        for i in range(SCHEDULE_INTENTS):
            if rng.random() < 0.6:
                limit = {"max_price": rng.randrange(1, 12)} if rng.random() < 0.5 else {}
                intents.append(h.Intent.of(f"b{i}", "buy", n=rng.randrange(1, 50), **limit))
            else:
                intents.append(h.Intent.of("issuer", "set_price", p=rng.randrange(0, 20)))
        scenario = h.Scenario(
            ledger=h.EUTXO,
            actors=tuple(actors),
            intents=tuple(intents),
            schedules=(("all",),),
            supply=1_000,
            price=price,
            cfg=self.cfg,
            policies=self.policies,
        )
        outcomes = self._race(scenario, rec, 1)
        for outcome in outcomes:
            holdings = dict(outcome.holdings)
            ok = True
            for intent, (status, _) in zip(intents, outcome.statuses):
                if intent.kind != "buy":
                    continue
                facts = dict(holdings[intent.actor])
                n = intent.get("n")
                if status == "accepted":
                    ok &= facts.get("1:1") == n and facts["ada_paid"] == n * price
                else:
                    ok &= "1:1" not in facts and facts["ada_paid"] == 0
            rec.check(ok, f"round {r}: eutxo order {outcome.order} paid other than n x snapshot price")
            rec.feed(outcome.statuses, outcome.digest)

    def _account_race(self, r: int, rng: random.Random, rec: Recorder) -> None:
        h = self.m.harness
        price = rng.randrange(1, 10)
        supply = 1_000
        actors = (("issuer", 1), ("a", 7), ("b", 8), ("c", 9))
        keys = [key for _, key in actors]
        intents = []
        for _ in range(SCHEDULE_INTENTS):
            actor = actors[1 + rng.randrange(3)][0]
            roll = rng.random()
            if roll < 0.3:
                intents.append(h.Intent.of(actor, "call", function="buy", value=rng.randrange(0, 200)))
            elif roll < 0.55:
                expected = price if rng.random() < 0.5 else rng.randrange(0, 20)
                intents.append(h.Intent.of(actor, "call", function="buyGuarded", value=rng.randrange(0, 200), expected=expected))
            elif roll < 0.8:
                intents.append(h.Intent.of(actor, "call", function="send", to=keys[rng.randrange(4)], amount=rng.randrange(0, 30)))
            else:
                intents.append(h.Intent.of("issuer", "call", function="setPrice", p=rng.randrange(0, 20)))
        scenario = h.Scenario(
            ledger=h.ACCOUNT,
            actors=actors,
            intents=tuple(intents),
            schedules=(("all",),),
            supply=supply,
            price=price,
            contract=1,
            deployer="issuer",
        )
        outcomes = self._race(scenario, rec, 2)
        for outcome in outcomes:
            total = sum(dict(facts)["tokens"] for _, facts in outcome.holdings)
            rec.check(total == supply, f"round {r}: account order {outcome.order} holds {total} tokens of {supply}")
            rec.feed(outcome.statuses, outcome.digest)

    def _race(self, scenario, rec: Recorder, stage: int):
        """Every order of the scenario, booked in laps of ``RACE_LAP`` orders."""
        h = self.m.harness
        t0 = clock()
        world = h.build_world(scenario)
        orders = h.expand_schedules(scenario)
        outcomes = []
        booked = 0
        for order in orders:
            outcomes.append(h.run_schedule(world, scenario.intents, order))
            if len(outcomes) - booked == RACE_LAP or len(outcomes) == len(orders):
                rec.lap(stage, clock() - t0, len(outcomes) - booked)
                booked = len(outcomes)
                t0 = clock()
        return outcomes


class WalkLedger:
    """The benchmark's own unspent-output book for a portal walk, kept from
    the accepted transactions alone, to check the monetary invariants."""

    def __init__(self, cfg) -> None:
        self.state_chip = cfg.state_chip
        self.traded_symbol = cfg.traded_chip.symbol
        self.unspent: dict[int, object] = {}
        self.state_total = 0
        self.traded_total = 0

    def _count(self, out, sign: int) -> None:
        for chip, qty in out.value.entries:
            if chip == self.state_chip:
                self.state_total += sign * qty
            if chip.symbol == self.traded_symbol:
                self.traded_total += sign * qty

    def apply(self, tx) -> bool:
        """Book an accepted transaction; False when it spends an output the
        book does not hold as unspent."""
        for inp in tx.inputs:
            out = self.unspent.pop(inp.position, None)
            if out is None:
                return False
            self._count(out, -1)
        for out in tx.outputs:
            self.unspent[out.position] = out
            self._count(out, +1)
        return True


WORKLOADS = {w.name: w for w in (FuzzMix, LongChain, PortalRace)}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1 <= q <= 99) by ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100)[q - 1]
