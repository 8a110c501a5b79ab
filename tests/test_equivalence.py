"""Observational equivalence, apartness, canonical renaming, the reorder check."""

import hashlib
import itertools
import random

import pytest

import oracles
from ledgersim.equivalence import (
    alpha_equiv,
    alpha_mismatch,
    apart,
    canonical_renaming,
    canonicalize,
    check_defer,
    freshen_spent_clashes,
    obs_equiv,
    rename_positions,
    spent_edges,
)
from ledgersim.formats import chain_to_text
from ledgersim.gen import ChainGen, spendable
from ledgersim.ledger import Chain, InvalidChainError, LedgerIndex, append, utxo, validate_chain
from ledgersim.model import (
    ACCEPT_ALL,
    ADA,
    Input,
    Output,
    PositionAllocator,
    SlotRange,
    Transaction,
    positions_of,
    singleton,
)

from conftest import A, B, C, D, E, F, G, ref_output


def alpha_equiv_bruteforce(left: Chain, right: Chain) -> bool:
    """Oracle: search every bijection between the spent-position sets and
    compare the renamed chain structurally."""
    spent_left = sorted({out.position for _, out, _, _ in spent_edges(left)})
    spent_right = sorted({out.position for _, out, _, _ in spent_edges(right)})
    if len(spent_left) != len(spent_right):
        return False
    for image in itertools.permutations(spent_right):
        mapping = dict(zip(spent_left, image))
        try:
            if rename_positions(left, mapping) == right:
                return True
        except ValueError:
            continue  # renaming collided inside one transaction; not this bijection
    return False


def test_obs_equiv_reflexive(chain_b):
    assert obs_equiv(chain_b, chain_b)


def test_obs_equiv_figure_chains(chain_b, chain_b_prime):
    assert obs_equiv(chain_b, chain_b_prime)


def test_obs_equiv_spending_changes_utxo():
    tx1 = Transaction(frozenset(), frozenset({ref_output(A)}))
    tx2 = Transaction(frozenset({Input(A, 0)}), frozenset())
    assert not obs_equiv(Chain((tx1,)), Chain((tx1, tx2)))


def test_apart_figure_transactions(figure_txs):
    _, tx2, tx3, tx4 = figure_txs
    assert apart(tx2, tx3)  # {2,4} vs {1,5,6,7}
    assert not apart(tx2, tx2)
    assert not apart(tx4, tx3)  # tx4 spends outputs 5 and 6 of tx3


def test_apart_shared_position():
    tx = Transaction(frozenset(), frozenset({ref_output(A)}))
    spender = Transaction(frozenset({Input(A, 0)}), frozenset())
    assert not apart(tx, spender)


def test_apart_symmetry_random():
    rng = random.Random(31)
    gen = ChainGen(rng)
    for _ in range(500):
        chain, alloc = gen.chain()
        t1, t2 = gen.apart_pair(chain, alloc)
        assert apart(t1, t2) == apart(t2, t1)
        # perturbed pairs too
        t3 = Transaction(t1.inputs, t2.outputs) if t1.inputs or t2.outputs else t1
        assert apart(t3, t2) == apart(t2, t3)


def test_canonicalize_no_spent_outputs_is_identity():
    tx = Transaction(frozenset(), frozenset({ref_output(A), ref_output(B)}))
    chain = Chain((tx,))
    assert canonicalize(chain) == chain


def test_canonicalize_idempotent(chain_b, chain_b_prime):
    for chain in (chain_b, chain_b_prime):
        once = canonicalize(chain)
        assert canonicalize(once) == once
        assert validate_chain(once).valid
        assert alpha_equiv(chain, once)


def test_canonicalize_properties_random():
    """Idempotence, validity, and alpha-equivalence to the original on random
    valid chains; unspent outputs never move."""
    rng = random.Random(34)
    gen = ChainGen(rng)
    for _ in range(300):
        chain, _ = gen.chain()
        canon = canonicalize(chain)
        assert canonicalize(canon) == canon
        assert validate_chain(canon).valid
        assert alpha_equiv(chain, canon)
        assert utxo(canon) == utxo(chain)


def test_canonicalize_rejects_invalid():
    bad = Chain((Transaction(frozenset({Input(9, 0)}), frozenset()),))
    with pytest.raises(InvalidChainError):
        canonicalize(bad)
    with pytest.raises(InvalidChainError):
        alpha_equiv(bad, bad)


def test_alpha_equiv_spent_rename(chain_b):
    # renaming the spent pair at position 2 (output of tx1, input of tx2)
    renamed = rename_positions(chain_b, {B: 77})
    assert validate_chain(renamed).valid
    assert alpha_equiv(chain_b, renamed)
    assert obs_equiv(chain_b, renamed)


def test_alpha_equiv_unspent_rename_is_observable(chain_b):
    renamed = rename_positions(chain_b, {C: 99})  # position 3 is unspent
    assert validate_chain(renamed).valid
    assert not alpha_equiv(chain_b, renamed)
    assert not obs_equiv(chain_b, renamed)


def test_alpha_not_equiv_different_datum(chain_b):
    txs = list(chain_b.transactions)
    tx1 = txs[0]
    bumped = frozenset(
        Output(o.position, o.validator, o.datum + 1, o.value) if o.position == A else o for o in tx1.outputs
    )
    txs[0] = Transaction(tx1.inputs, bumped)
    other = Chain(tuple(txs))
    assert validate_chain(other).valid
    assert not alpha_equiv(chain_b, other)


def _with_tx(chain: Chain, at: int, tx: Transaction) -> Chain:
    txs = list(chain.transactions)
    txs[at] = tx
    return Chain(tuple(txs), chain.slots)


def _perturbations(rng: random.Random, gen: ChainGen, chain: Chain, alloc: PositionAllocator):
    """(label, chain) pairs near ``chain``: alpha-variants, and copies with
    one thing changed, valid or not."""
    txs = chain.transactions
    spent = sorted({out.position for _, out, _, _ in spent_edges(chain)})
    unspent = sorted(out.position for out in utxo(chain))
    fresh = PositionAllocator(alloc.peek())
    for _ in range(2):
        chosen = rng.sample(spent, rng.randrange(len(spent) + 1))
        yield "alpha-variant", rename_positions(chain, {p: fresh.fresh() for p in chosen})
    if unspent:
        yield "unspent-renamed", rename_positions(chain, {rng.choice(unspent): fresh.fresh()})
    if txs:
        at = rng.randrange(len(txs))
        tx = txs[at]
        if tx.inputs:
            inp = rng.choice(sorted(tx.inputs, key=lambda i: i.position))
            changed = Input(inp.position, inp.redeemer + 1)
            yield "redeemer", _with_tx(chain, at, Transaction(tx.inputs - {inp} | {changed}, tx.outputs, tx.slot_range))
        if tx.outputs:
            out = rng.choice(tx.sorted_outputs())
            for changed in (
                Output(out.position, out.validator, out.datum + 1, out.value),
                Output(out.position, out.validator, out.datum, out.value + singleton(ADA, 1)),
            ):
                yield "output", _with_tx(chain, at, Transaction(tx.inputs, tx.outputs - {out} | {changed}, tx.slot_range))
        other_range = SlotRange(0, None) if tx.slot_range is None else None
        yield "slot-range", _with_tx(chain, at, Transaction(tx.inputs, tx.outputs, other_range))
        dropped = rng.randrange(len(txs))
        slots = None if chain.slots is None else chain.slots[:dropped] + chain.slots[dropped + 1 :]
        yield "dropped", Chain(txs[:dropped] + txs[dropped + 1 :], slots)
    yield "appended", gen.grow(chain, 1, PositionAllocator(alloc.peek()))[0]
    if chain.slots is not None:
        at = rng.randrange(len(txs))
        yield "slot", Chain(txs, chain.slots[:at] + tuple(s + 1 for s in chain.slots[at:]))
        yield "unslotted", Chain(txs)


def _assert_alpha_agrees(a: Chain, b: Chain) -> str:
    """``alpha_equiv`` and ``alpha_mismatch`` against the canonical-chain
    oracles on one pair; returns which way the pair went."""
    try:
        expected = oracles.alpha_equiv(a, b)
    except InvalidChainError as exc:
        for decide in (alpha_equiv, alpha_mismatch):
            with pytest.raises(InvalidChainError) as raised:
                decide(a, b)
            assert str(raised.value) == str(exc)
        return "invalid"
    mismatch = alpha_mismatch(a, b)
    assert mismatch == oracles.alpha_mismatch(a, b)
    assert alpha_equiv(a, b) is expected is (mismatch is None)
    return "equivalent" if expected else "different"


@pytest.mark.parametrize("slotted", [False, True], ids=["unslotted", "slotted"])
def test_alpha_mismatch_matches_canonical_oracle(slotted):
    """On generated chains and their alpha-variants and perturbed copies, in
    both argument orders and against an alpha-variant of the chain: the same
    verdict, the same first mismatch and the same InvalidChainError as
    comparing the two canonical chains."""
    rng = random.Random(19)
    gen = ChainGen(rng, slotted=slotted)
    seen: dict[tuple[str, str], int] = {}
    for _ in range(150):
        chain, alloc = gen.chain()
        nearby = list(_perturbations(rng, gen, chain, alloc))
        variant = nearby[0][1]
        for label, other in nearby:
            for a, b in ((chain, other), (other, chain), (variant, other)):
                verdict = _assert_alpha_agrees(a, b)
                seen[label, verdict] = seen.get((label, verdict), 0) + 1
    # every perturbation was drawn, and every kind of pair occurred
    assert {"equivalent"} == {verdict for label, verdict in seen if label == "alpha-variant"}
    assert ("unspent-renamed", "different") in seen and ("appended", "different") in seen
    for label in ("redeemer", "output", "slot-range", "dropped") + (("slot", "unslotted") if slotted else ()):
        assert (label, "different") in seen, label
    assert ("redeemer", "invalid") in seen and ("dropped", "invalid") in seen


def test_alpha_mismatch_counts_a_length_difference_at_the_shorter_length(chain_b):
    longer = Chain(chain_b.transactions + (Transaction(),))
    assert alpha_mismatch(chain_b, longer) == alpha_mismatch(longer, chain_b) == 4
    assert alpha_mismatch(chain_b, Chain()) == 0
    assert alpha_mismatch(Chain(), Chain()) is None


def test_alpha_mismatch_builds_no_canonical_chain(monkeypatch, chain_b):
    import ledgersim.equivalence as equivalence

    def refuse(*args):
        raise AssertionError("alpha_mismatch renamed a whole chain")

    monkeypatch.setattr(equivalence, "rename_positions", refuse)
    assert alpha_mismatch(chain_b, chain_b) is None


def _assert_renames_only_spent(chain: Chain) -> None:
    """The canonical renaming of ``chain`` is a dict that moves spent
    positions only, to distinct names that no unspent output carries."""
    renaming = canonical_renaming(chain)
    assert type(renaming) is dict
    unspent = {out.position for out in utxo(chain)}
    assert len(set(renaming.values())) == len(renaming)
    assert not (renaming.keys() | renaming.values()) & unspent


def test_canonical_renaming_fixes_unspent(chain_b):
    """On figure 3's chain and on 200 generated chains, unslotted and
    slotted, each as drawn and relabelled into sparse positions."""
    _assert_renames_only_spent(chain_b)
    rng = random.Random(23)
    moved = 0
    for slotted in (False, True):
        gen = ChainGen(rng, slotted=slotted)
        for _ in range(100):
            chain, alloc = gen.chain()
            used = range(alloc.peek())
            sparse = rename_positions(chain, dict(zip(used, rng.sample(range(3 * len(used) + 3), len(used)))))
            for drawn in (chain, sparse):
                _assert_renames_only_spent(drawn)
                moved += len(canonical_renaming(drawn))
    assert moved > 0


def test_alpha_equiv_agrees_with_bruteforce_on_variants(chain_b):
    rng = random.Random(32)
    for trial in range(30):
        spent = sorted({out.position for _, out, _, _ in spent_edges(chain_b)})
        chosen = rng.sample(spent, rng.randrange(len(spent) + 1))
        mapping = {p: 100 + i for i, p in enumerate(chosen)}
        variant = rename_positions(chain_b, mapping)
        assert alpha_equiv(chain_b, variant)
        assert alpha_equiv_bruteforce(chain_b, variant)


def test_swap_interchangeable_edges_is_alpha_equiv():
    """Two identical-looking outputs spent by inputs with different redeemers:
    swapping which position carries which redeemer stays in the alpha class."""
    tx1 = Transaction(frozenset(), frozenset({ref_output(A), ref_output(B)}))
    spend_v1 = Transaction(frozenset({Input(A, 3), Input(B, 8)}), frozenset())
    spend_v2 = Transaction(frozenset({Input(A, 8), Input(B, 3)}), frozenset())
    one = Chain((tx1, spend_v1))
    two = Chain((tx1, spend_v2))
    assert alpha_equiv(one, two)
    assert alpha_equiv_bruteforce(one, two)


def test_freshen_spent_clashes(chain_b):
    clash = {B, D}  # spent positions of the chain
    fresh = freshen_spent_clashes(chain_b, clash)
    assert validate_chain(fresh).valid
    assert alpha_equiv(chain_b, fresh)
    for tx in fresh.transactions:
        assert not (positions_of(tx) & clash)


# sha256 of the canonical renaming's pairs and the freshened chain's text
# of 300 chains: 75 draws each unslotted and slotted, as drawn and sparse.
RENAMING_PIN = "748afa45bd85127f0b34f10a4f115734d93b5ba9a210c1701595f4f31cdf789b"


def test_fresh_names_pinned():
    """The names both renamings hand out, not only their verdicts, are fixed
    across versions.  Each generated chain is read as drawn, with positions
    0..n-1, and relabelled into sparse positions; ``avoid`` is some of its
    spent positions plus a few it does not use."""
    digest = hashlib.sha256()
    for setting, slotted in enumerate((False, True)):
        rng = random.Random(60 + setting)
        for _ in range(75):
            chain, alloc = ChainGen(rng, slotted=slotted).chain()
            used = range(alloc.peek())
            sparse = rename_positions(chain, dict(zip(used, rng.sample(range(3 * len(used) + 3), len(used)))))
            for drawn in (chain, sparse):
                spent = sorted({out.position for _, out, _, _ in spent_edges(drawn)})
                outputs = {out.position for tx in drawn for out in tx.outputs}
                unused = [p for p in rng.sample(range(4 * len(used) + 4), 3) if p not in outputs]
                avoid = rng.sample(spent, rng.randrange(len(spent) + 1)) + unused
                digest.update(repr(tuple(sorted(canonical_renaming(drawn).items()))).encode())
                digest.update(chain_to_text(freshen_spent_clashes(drawn, avoid)).encode())
    assert digest.hexdigest() == RENAMING_PIN


def test_check_defer_one_tx_apart_pair(chain_b_prime, figure_txs):
    tx1, tx2, tx3, tx4 = figure_txs
    base = Chain((tx1,))
    assert apart(tx2, tx3)
    report = check_defer(base, (tx2,), tx3)
    assert report.valid_txs_tx and report.valid_tx_txs and report.equiv


def test_check_defer_one_tx_forward_dependency(figure_txs):
    tx1, _, tx3, _ = figure_txs
    consumer = Transaction(frozenset({Input(E, 0)}), frozenset())  # spends tx3's output
    assert not apart(tx3, consumer)
    report = check_defer(Chain((tx1,)), (tx3,), consumer)
    assert report.valid_txs_tx and not report.valid_tx_txs


def test_check_defer_one_tx_matches_figure(figure_txs):
    tx1, tx2, tx3, tx4 = figure_txs
    assert not apart(tx3, tx4)  # tx4 consumes tx3's outputs
    report = check_defer(Chain((tx1, tx2)), (tx3,), tx4)
    assert report.valid_txs_tx and not report.valid_tx_txs


def test_commute_conclusion_holds_on_raw_sequences(figure_txs):
    """The swap conclusion is stated for sequences: even on an invalid base,
    apart extensions commute observationally and are equally valid both
    ways.  Only the appended transactions are judged, so both orders count
    as valid on top of the faulty base."""
    tx1, tx2, tx3, tx4 = figure_txs
    dangling_base = Chain((tx4,))  # not a blockchain: inputs have nothing to point at
    extra1 = Transaction(frozenset(), frozenset({ref_output(20)}))
    extra2 = Transaction(frozenset(), frozenset({ref_output(21)}))
    assert apart(extra1, extra2)
    report = check_defer(dangling_base, (extra1,), extra2)
    assert report.valid_txs_tx == report.valid_tx_txs
    assert report.valid_txs_tx  # the base's own fault is not judged
    assert report.equiv


def test_check_defer_one_tx_rebuilds_only_the_base_index(monkeypatch, figure_txs):
    """Each extended chain is built once, by appends that hand the parent's
    index to the child, so no extended chain builds an index.  The first
    order takes the base's index, and the second, B;tx;txs, rebuilds it
    once."""
    tx1, tx2, tx3, _ = figure_txs
    base = Chain((tx1,))
    base.index()
    builds = []
    build = LedgerIndex.of.__func__

    def counting_build(cls, txs, slots=None):
        builds.append(len(txs))
        return build(cls, txs, slots)

    monkeypatch.setattr(LedgerIndex, "of", classmethod(counting_build))
    report = check_defer(base, (tx2,), tx3)
    assert report.valid_txs_tx and report.valid_tx_txs and report.equiv
    assert builds == [len(base)]


def test_check_defer_empty_batch(chain_b):
    alloc = PositionAllocator(100)
    tx = Transaction(frozenset({Input(C, 0)}), frozenset({Output(alloc.fresh(), ACCEPT_ALL)}))
    report = check_defer(chain_b, (), tx)
    assert report.valid_txs_tx and report.valid_tx and report.valid_tx_txs and report.equiv


def test_check_defer_consuming_batch_output_fails_hyp(chain_b):
    batch_tx = Transaction(frozenset(), frozenset({Output(200, ACCEPT_ALL)}))
    tx = Transaction(frozenset({Input(200, 0)}), frozenset())
    report = check_defer(chain_b, (batch_tx,), tx)
    assert report.valid_txs_tx
    assert not report.valid_tx  # valid(B;tx) fails: dangling input


def test_check_defer_random_instances():
    rng = random.Random(33)
    gen = ChainGen(rng)
    checked = 0
    for _ in range(400):
        base, alloc = gen.chain()
        extended, batch = gen.grow(base, rng.randrange(3), alloc)
        pool_base = {o.position for o in spendable(base)}
        pool = [o for o in spendable(extended) if o.position in pool_base]
        tx = gen.transaction(base, alloc, pool=pool)
        report = check_defer(base, batch, tx)
        if report.valid_txs_tx and report.valid_tx:
            checked += 1
            assert report.valid_tx_txs and report.equiv
    assert checked > 300


def test_check_defer_slotted_remark_shape():
    genesis = Transaction(frozenset(), frozenset({ref_output(A), ref_output(B)}))
    base = append(Chain(), genesis, slot=0)
    from ledgersim.model import SlotRange

    pinned = Transaction(frozenset({Input(A, 0)}), frozenset(), SlotRange(0, 0))
    late = Transaction(frozenset({Input(B, 0)}), frozenset(), SlotRange(5, None))
    report = check_defer(base, (pinned,), late)
    assert report.valid_txs_tx and report.valid_tx
    assert not report.valid_tx_txs  # the deferral direction breaks
    assert report.equiv  # the equivalence half survives


def test_check_defer_empty_base_ranged_batch():
    """On an empty base, a ``tx`` without a slot range and a batch with
    ranges make B;tx;txs slotted, so the batch's ranges bind in both full
    orders: here no slot fits the second batch transaction after the first,
    in either order.  B;tx is the first step of B;tx;txs, which ``tx``
    always takes."""
    from ledgersim.ledger import schedule_extension
    from ledgersim.model import SlotRange

    tx = Transaction(frozenset(), frozenset({ref_output(A)}))
    batch = (
        Transaction(frozenset(), frozenset({ref_output(B)}), SlotRange(5, None)),
        Transaction(frozenset(), frozenset({ref_output(C)}), SlotRange(0, 3)),
    )
    swapped, count = schedule_extension(Chain(), (tx,) + batch)
    assert count == 2 and swapped.slots == (0, 5)
    report = check_defer(Chain(), batch, tx)
    assert (report.valid_txs_tx, report.valid_tx, report.valid_tx_txs, report.equiv) == (False, True, False, True)


def _empty_base_instance(rng: random.Random) -> dict:
    """An empty base, a batch of up to three genesis transactions and a
    ``tx``, each with a slot range two times in three; ``tx`` spends the
    batch's first output one time in four."""

    def transaction(inputs, position):
        slot_range = None
        if rng.random() < 2 / 3:
            lo = rng.randrange(6)
            slot_range = SlotRange(lo, None if rng.random() < 0.3 else lo + rng.randrange(4))
        return Transaction(frozenset(inputs), frozenset({ref_output(position)}), slot_range)

    batch = tuple(transaction((), 100 + i) for i in range(rng.randrange(4)))
    tx = transaction({Input(100, 0)} if batch and rng.random() < 0.25 else (), 200)
    return {"base": Chain(), "txs": batch, "tx": tx}


def _deferred(instance: dict) -> tuple:
    return instance["txs"], instance["tx"]


# sampler -> (the batch and the transaction its instance defers, a
# predicate on the report, bounds on how many of 2,000 instances meet it,
# so that both kinds are drawn, and the oracle: plain validation on unslotted chains, validation at the
# least slots where the orders may be slotted)
ORACLE_SAMPLERS = {
    "theorem17": (_deferred, lambda r: r.valid_txs_tx and r.valid_tx, (1000, 2000), oracles.defer_by_validation),
    "lemma15_1": (
        lambda i: ((i["tx1"],), i["tx2"]),
        lambda r: r.valid_txs_tx and r.valid_tx_txs,
        (1000, 2000),
        oracles.defer_by_validation,
    ),
    "lemma15_2": (lambda i: ((i["tx_prime"],), i["tx"]), lambda r: r.valid_tx, (500, 1500), oracles.defer_by_validation),
    "prop19": (_deferred, lambda r: r.valid_txs_tx and r.valid_tx_txs, (1000, 2000), oracles.defer_by_slots),
    # every instance refutes the deferral
    "remark18": (_deferred, lambda r: r.valid_tx and not r.valid_tx_txs, (1999, 2001), oracles.defer_by_slots),
    "empty-base": (_deferred, lambda r: r.valid_tx and not r.valid_tx_txs, (100, 400), oracles.defer_by_slots),
}


@pytest.mark.parametrize("which", ORACLE_SAMPLERS)
def test_check_defer_matches_validation_oracle(which):
    """Scheduling each order is validating it at the least monotone slots,
    and on unslotted chains it is plain validation: the one reorder check
    agrees with whole-sequence validation on every field, for the deferrals
    of Theorem 17, Proposition 19 and Remark 18, the swaps of Lemmas 15.1
    and 15.2, and empty bases whose transactions carry ranges."""
    from ledgersim.harness import STATEMENTS

    parts, kind, (low, high), oracle = ORACLE_SAMPLERS[which]
    rng = random.Random(17)
    sample = _empty_base_instance if which == "empty-base" else STATEMENTS[which].sample
    drawn = 0
    for _ in range(2000):
        instance = sample(rng)
        base = instance["base"]
        batch, tx = parts(instance)
        report = check_defer(base, batch, tx)
        fields = (report.valid_txs_tx, report.valid_tx, report.valid_tx_txs, report.equiv)
        assert fields == oracle(base, batch, tx)
        drawn += kind(report)
    assert low < drawn < high
