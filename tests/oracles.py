"""Naive reference definitions of the ledger queries, kept as test oracles.

Each one walks the transaction sequence from scratch on every call, the way
the package answered these queries before ``LedgerIndex``: the from-scratch
chain-state check behind validation and append, the reverse-scan ``utxo``
and its per-symbol filter ``symbol_carriers``, the walk ``positions`` of
the positions spent and mentioned, the scanning ``first_output``, the
two-pass ``classify``, the producer-map ``spent_edges`` and the policy check
built on them.  ``test_ledger_index.py`` compares the indexed versions
against these on random sequences, valid or not.  ``eutxo_holdings`` is the scheduler's per-actor scan of the unspent
set, which ``test_harness.py`` compares with its one-pass grouping;
``eutxo_digest`` and ``account_digest`` are the scheduler's digests of a
final state; ``account_fold`` runs an account order by folding
``accounts.call`` over it with no scheduler, and ``eutxo_fold`` runs a UTxO
order by attaching its built transactions one after another with
``ledger.append``; ``defer_by_validation`` is the deferral check by
whole-sequence validation, and ``defer_by_slots`` the same at the least
monotone slots, which ``test_equivalence.py`` compares with ``check_defer``.
``random_output`` is the generator's output draw made with ``randrange``
and built afresh (``pay_to_pubkey`` and ``Value.of``) on every call, which
``test_gen.py`` compares with ``ChainGen.random_output``, its ``_below``
draws, ``KEY_VALIDATORS`` and value table.  ``is_permutation`` is the schedule-order check by its definition, a tuple
of exact ints that sorts to ``0..count-1``, which ``test_formats.py``
compares with ``formats.is_permutation``.  ``alpha_equiv`` is alpha-equivalence by
its definition, equal canonical chains, and ``alpha_mismatch`` the first
index at which the two canonical chains differ, with both chains;
``test_equivalence.py`` compares ``equivalence.alpha_equiv``, which builds
no canonical chain, and ``equivalence.alpha_mismatch``, which builds them
only for an inequivalent pair, with them.
"""

import hashlib
import json

from ledgersim.accounts import FUNCTIONS, PAYABLE, CallTx, call
from ledgersim.equivalence import canonicalize
from ledgersim.formats import output_to_text
from ledgersim.harness import _build_eutxo_intent
from ledgersim.ledger import (
    BLOCKCHAIN,
    CHUNK,
    DANGLING_OR_FORWARD,
    DUPLICATE_POSITION,
    NEITHER,
    POLICY_VIOLATION,
    SLOT_OUT_OF_RANGE,
    VALIDATOR_REJECTED,
    ValidationReport,
    Violation,
    append,
)
from ledgersim.gen import CHIPS, KEY_COUNT, MAX_DATUM, P2PK_PROB
from ledgersim.model import (
    ACCEPT_ALL,
    ACCEPT_ALL_KIND,
    PAY_TO_PUBKEY_KIND,
    REJECT_ALL,
    MalformedChainError,
    Output,
    PositionAllocator,
    Value,
    context_at,
    pay_to_pubkey,
    positions_of,
)
from ledgersim.policy import AFFINE_ONCE, FORBID_FORGE, FREE_FORGE
from ledgersim.validators import run_validator


class ChainState:
    """Accumulator rebuilt from transaction 0 for every check."""

    def __init__(self):
        self.out_at = {}
        self.spent = set()
        self.last_slot = None

    def absorb(self, index, tx, slot):
        for out in tx.outputs:
            self.out_at.setdefault(out.position, (index, out))
        for inp in tx.inputs:
            self.spent.add(inp.position)
        if slot is not None:
            self.last_slot = slot


def check_transaction(state, index, tx, slot):
    violations = []
    for out in tx.outputs:
        if out.position in state.out_at:
            violations.append(Violation(index, DUPLICATE_POSITION, f"output position {out.position} already used"))
    for inp in tx.inputs:
        hit = state.out_at.get(inp.position)
        if hit is None:
            violations.append(
                Violation(index, DANGLING_OR_FORWARD, f"input at {inp.position} resolves to no earlier output")
            )
            continue
        if inp.position in state.spent:
            violations.append(Violation(index, DANGLING_OR_FORWARD, f"output at {inp.position} is already spent"))
            continue
        _, out = hit
        if not run_validator(out.validator, inp.redeemer, out.datum, out.value, context_at(tx, inp)):
            violations.append(
                Violation(index, VALIDATOR_REJECTED, f"validator {out.validator.kind} rejected input at {inp.position}")
            )
    if slot is not None:
        if state.last_slot is not None and slot < state.last_slot:
            violations.append(Violation(index, SLOT_OUT_OF_RANGE, f"slot {slot} below chain tip {state.last_slot}"))
        if tx.slot_range is not None and not tx.slot_range.contains(slot):
            hi = "*" if tx.slot_range.hi is None else tx.slot_range.hi
            violations.append(
                Violation(index, SLOT_OUT_OF_RANGE, f"slot {slot} outside range [{tx.slot_range.lo}, {hi}]")
            )
    return violations


def _slot(slots, index):
    return None if slots is None else slots[index]


def validate(txs, slots=None, policies=None):
    txs = tuple(txs)
    state = ChainState()
    violations = []
    for index, tx in enumerate(txs):
        found = check_transaction(state, index, tx, _slot(slots, index))
        violations.extend(found)
        if policies is not None and not found:
            problem = policy_violation(policies, txs[:index], tx)
            if problem is not None:
                violations.append(Violation(index, POLICY_VIOLATION, problem))
        state.absorb(index, tx, _slot(slots, index))
    return ValidationReport(tuple(violations))


def append_report(txs, slots, tx, slot, policies=None):
    """The report ``append`` must give: every prior transaction absorbed from
    scratch, then ``tx`` checked."""
    txs = tuple(txs)
    state = ChainState()
    for index, prior in enumerate(txs):
        state.absorb(index, prior, _slot(slots, index))
    violations = check_transaction(state, len(txs), tx, slot)
    if not violations and policies is not None:
        problem = policy_violation(policies, txs, tx)
        if problem is not None:
            violations.append(Violation(len(txs), POLICY_VIOLATION, problem))
    return ValidationReport(tuple(violations))


def unspent_scan(txs):
    """Every output no later input names, once per output, shadowed ones
    included: the multiset ``LedgerIndex.unspent_outputs`` yields."""
    later_inputs = set()
    unspent = []
    for tx in reversed(tuple(txs)):
        for out in tx.outputs:
            if out.position not in later_inputs:
                unspent.append(out)
        for inp in tx.inputs:
            later_inputs.add(inp.position)
    return unspent


def utxo(txs):
    return frozenset(unspent_scan(txs))


def positions(txs):
    """The positions some input names, and every position any transaction
    mentions, in one walk of a sequence, valid or not."""
    spent, mentioned = set(), set()
    for tx in txs:
        spent |= {inp.position for inp in tx.inputs}
        mentioned |= positions_of(tx)
    return spent, mentioned


def first_output(txs, position):
    """The output an input at ``position`` resolves to on top of ``txs``:
    the first one there, as in ``check_transaction``, or None."""
    for tx in txs:
        for out in tx.outputs:
            if out.position == position:
                return out
    return None


def classify(txs, slots=None):
    txs = tuple(txs)
    if validate(txs, slots).valid:
        return BLOCKCHAIN
    if slots is not None:
        for tx, slot in zip(txs, slots):
            if tx.slot_range is not None and not tx.slot_range.contains(slot):
                return NEITHER
    out_at = {}
    for index, tx in enumerate(txs):
        for out in tx.outputs:
            if out.position in out_at:
                return NEITHER
            out_at[out.position] = (index, out)
    seen_inputs = set()
    for index, tx in enumerate(txs):
        for inp in tx.inputs:
            if inp.position in seen_inputs:
                return NEITHER
            seen_inputs.add(inp.position)
            hit = out_at.get(inp.position)
            if hit is None:
                continue
            target_index, out = hit
            if target_index >= index:
                return NEITHER
            if not run_validator(out.validator, inp.redeemer, out.datum, out.value, context_at(tx, inp)):
                return NEITHER
    return CHUNK


def spent_edges(txs):
    txs = tuple(txs)
    producer = {}
    for index, tx in enumerate(txs):
        for out in tx.outputs:
            producer[out.position] = (index, out)
    edges = []
    for index, tx in enumerate(txs):
        for inp in tx.inputs:
            out_index, out = producer[inp.position]
            edges.append((out_index, out, index, inp))
    return edges


def spendable(txs):
    outs = [o for o in utxo(txs) if o.validator.kind in (ACCEPT_ALL_KIND, PAY_TO_PUBKEY_KIND)]
    return sorted(outs, key=lambda o: o.position)


def forged(txs, tx, symbol):
    txs = tuple(txs)
    created = sum(out.value.symbol_total(symbol) for out in tx.outputs)
    consumed = 0
    for inp in tx.inputs:
        out = first_output(txs, inp.position)
        if out is None:
            raise MalformedChainError(f"input at {inp.position} does not resolve in the chain")
        consumed += out.value.symbol_total(symbol)
    return created - consumed


def circulating(txs, symbol):
    return sum(out.value.symbol_total(symbol) for out in utxo(txs))


def policy_violation(table, txs, tx):
    txs = tuple(txs)
    symbols = set()
    for out in tx.outputs:
        symbols |= out.value.symbols()
    for inp in tx.inputs:
        out = first_output(txs, inp.position)
        if out is None:
            raise MalformedChainError(f"input at {inp.position} does not resolve in the chain")
        symbols |= out.value.symbols()
    for symbol in sorted(symbols):
        delta = forged(txs, tx, symbol)
        if delta == 0:
            continue
        rule = table.rule_for(symbol)
        if rule == FREE_FORGE:
            continue
        if rule == FORBID_FORGE:
            return f"symbol {symbol} may not be forged or burned (delta {delta:+d})"
        assert rule == AFFINE_ONCE
        if delta < 0:
            return f"symbol {symbol} is affine and may not be burned (delta {delta:+d})"
        if delta > 1:
            return f"symbol {symbol} is affine: at most one may ever exist (delta {delta:+d})"
        existing = circulating(txs, symbol)
        if existing != 0:
            return f"symbol {symbol} is affine and already circulates ({existing})"
    return None


def symbol_carriers(txs, symbol):
    """The unspent outputs holding some chip of ``symbol``, shadowed ones
    included, scanned from scratch (``LedgerIndex.carriers``)."""
    return [out for out in unspent_scan(txs) if out.value.symbol_total(symbol)]


def find_carriers(txs, chip):
    """The unspent outputs carrying ``chip`` (find_portal's scan)."""
    return [out for out in utxo(txs) if out.value.get(chip) > 0]


def eutxo_holdings(world, chain, paid):
    """Each actor's holdings: the unspent set scanned once per actor for
    outputs locked to the actor's key, plus the ada the actor paid."""
    holdings = []
    unspent = utxo(chain.transactions)
    for name, key in sorted(world.actors):
        lock = pay_to_pubkey(key)
        facts = {}
        for out in unspent:
            if out.validator == lock:
                for chip, qty in out.value:
                    label = f"{chip.symbol}:{chip.token}"
                    facts[label] = facts.get(label, 0) + qty
        facts["ada_paid"] = paid.get(name, 0)
        holdings.append((name, tuple(sorted(facts.items()))))
    return tuple(holdings)


def eutxo_digest(chain):
    """sha256 of the unspent outputs, scanned from scratch, rendered one a
    line in position order."""
    unspent = sorted(utxo(chain.transactions), key=lambda out: out.position)
    return hashlib.sha256("".join(output_to_text(out) + "\n" for out in unspent).encode()).hexdigest()


def account_digest(chain):
    """sha256 of the contract states as JSON, in contract-name order."""
    contracts = sorted(
        [name, acct.balance, acct.state.issuer, acct.state.price, sorted(map(list, acct.state.balances))]
        for name, acct in chain.contracts
    )
    return hashlib.sha256(json.dumps(contracts).encode()).hexdigest()


def account_fold(world, intents, order):
    """One account order, each call applied to the chain the call before
    left, starting at ``world.chain``: the statuses by intent, each actor's
    holdings, the state pairs and the final chain, as ``run_schedule``
    reports them."""
    keys = dict(world.actors)
    chain, statuses, paid = world.chain, [None] * len(intents), {}
    for index in order:
        intent = intents[index]
        function, value = intent.get("function"), intent.get("value", 0)
        args = tuple(intent.get(name) for name in FUNCTIONS[function])
        chain, result = call(chain, CallTx(world.contract, function, keys[intent.actor], value, args))
        statuses[index] = (result.status, result.reason)
        if result.ok and function in PAYABLE:
            paid[intent.actor] = paid.get(intent.actor, 0) + value
    acct = chain.get(world.contract)
    holdings = tuple(
        (name, (("ada_paid", paid.get(name, 0)), ("tokens", acct.state.balance_of(key))))
        for name, key in sorted(world.actors)
    )
    return tuple(statuses), holdings, (("contract_balance", acct.balance), ("price", acct.state.price)), chain


def _attached(world, chain, entry, refusal):
    """The chain with a built intent appended and no reason, or None and the
    refusal or the first violation."""
    if entry is None:
        return None, refusal
    result = append(chain, entry[0], None, world.policies)
    if isinstance(result, ValidationReport):
        first = result.first()
        return None, f"{first.condition}: {first.detail}"
    return result, ""


def eutxo_fold(world, intents, order):
    """One UTxO order with no steps, turns or cells: every intent built
    against ``world.chain`` with positions above it, then attached in order,
    each to the chain the one before left, and with ``world.rebuild`` on
    built again against that chain when its transaction does not attach.
    The statuses by intent, each actor's holdings, the state pairs and the
    final (chain, next free position), as ``run_schedule`` reports them."""
    alloc = PositionAllocator(max(positions(world.chain.transactions)[1], default=-1) + 1)
    built = [_build_eutxo_intent(world, intent, world.chain, alloc) for intent in intents]
    chain, next_position = world.chain, alloc.peek()
    statuses, paid = [None] * len(intents), {}
    for index in order:
        intent = intents[index]
        entry, refusal = built[index]
        landed, reason = _attached(world, chain, entry, f"refused-at-build: {refusal}")
        how = ""
        if landed is None and world.rebuild:
            alloc = PositionAllocator(next_position)
            entry, refusal = _build_eutxo_intent(world, intent, chain, alloc)
            next_position = alloc.peek()
            landed, reason = _attached(world, chain, entry, f"refused-at-rebuild: {refusal}")
            how = "rebuilt-at-execute"
        if landed is None:
            statuses[index] = ("rejected", reason)
            continue
        chain, statuses[index] = landed, ("accepted", how)
        if intent.kind == "buy":
            paid[intent.actor] = paid.get(intent.actor, 0) + entry[1]
    carriers = find_carriers(chain.transactions, world.cfg.state_chip)
    if len(carriers) == 1:
        pairs = (("portal_price", carriers[0].datum), ("portal_supply", carriers[0].value.get(world.cfg.traded_chip)))
    else:
        pairs = (("portal_price", -1), ("portal_supply", -1))
    return tuple(statuses), eutxo_holdings(world, chain, paid), pairs, (chain, next_position)


def defer_by_validation(base, txs, tx):
    """Deferral by validating whole sequences, without slots: the four
    fields of ``DeferReport``, that is valid B;txs;tx, valid B;tx, valid
    B;tx;txs, and equivalence of the two full orders."""
    prior, batch = tuple(base), tuple(txs)
    txs_then_tx = prior + batch + (tx,)
    tx_then_txs = prior + (tx,) + batch
    return (
        validate(txs_then_tx).valid,
        validate(prior + (tx,)).valid,
        validate(tx_then_txs).valid,
        utxo(tx_then_txs) == utxo(txs_then_tx),
    )


def defer_by_slots(base, txs, tx):
    """Deferral by validating whole sequences at their least slots: the four
    fields of ``DeferReport``, as ``defer_by_validation`` gives them.  An
    order is slotted when the base is, or when the base is empty and some
    transaction of the order has a range; a slotted order is validated at
    the least monotone slot assignment, the prefix maxima
    slot_j = max(tip, lo_1, ..., lo_j), a transaction without a range
    adding no bound."""
    prior, batch = tuple(base.transactions), tuple(txs)

    def valid(order):
        if not (base.slotted or (not prior and any(t.slot_range is not None for t in order))):
            return validate(prior + order).valid
        slots, slot = list(base.slots or ()), base.last_slot() or 0
        for t in order:
            slot = max(slot, 0 if t.slot_range is None else t.slot_range.lo)
            slots.append(slot)
        return validate(prior + order, slots).valid

    txs_then_tx, tx_then_txs = batch + (tx,), (tx,) + batch
    return (
        valid(txs_then_tx),
        valid((tx,)),
        valid(tx_then_txs),
        utxo(prior + tx_then_txs) == utxo(prior + txs_then_tx),
    )


def random_output(rng, position, reject_all_prob):
    """A random output drawn as ``ChainGen.random_output`` draws it: a
    validator (reject-all, pay-to-key or accept-all by one roll), a datum,
    then up to two picks of a chip and a quantity of 1 to 4, merged."""
    roll = rng.random()
    if roll < reject_all_prob:
        validator = REJECT_ALL
    elif roll < reject_all_prob + P2PK_PROB:
        validator = pay_to_pubkey(1 + rng.randrange(KEY_COUNT))
    else:
        validator = ACCEPT_ALL
    datum = rng.randrange(MAX_DATUM + 1)
    picks = rng.randrange(3)
    entries = {}
    for _ in range(picks):
        chip = CHIPS[rng.randrange(len(CHIPS))]
        entries[chip] = entries.get(chip, 0) + 1 + rng.randrange(4)
    return Output(position, validator, datum, Value.of(entries))


def is_permutation(order, count):
    """True when ``order`` is a tuple of ``int``s, not ``bool``s, that sorts
    to 0..count-1."""
    return type(order) is tuple and all(type(i) is int for i in order) and sorted(order) == list(range(count))


def alpha_equiv(a, b):
    """Alpha-equivalence as defined: the two canonical chains are equal."""
    return canonicalize(a) == canonicalize(b)


def alpha_mismatch(a, b):
    """The first index at which the canonical chains' (transaction, slot)
    pairs differ, a missing pair counting as different, and the two
    canonical chains; None when none do."""
    canonical = canonicalize(a), canonicalize(b)
    pairs = []
    for chain in canonical:
        slots = chain.slots if chain.slots is not None else (None,) * len(chain)
        pairs.append(list(zip(chain.transactions, slots)))
    left, right = pairs
    for index in range(max(len(left), len(right))):
        if left[index : index + 1] != right[index : index + 1]:
            return (index, *canonical)
    return None
