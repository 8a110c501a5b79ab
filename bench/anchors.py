#!/usr/bin/env python3
"""Re-measure the ROADMAP's baseline anchors, each as the ROADMAP states it.

    python3 bench/anchors.py [--seed 1]

Prints one line per anchor with the ROADMAP figure next to the measured one,
then a JSON object with the raw numbers.  Standard library only; takes about
a minute.  BASELINE.md in this directory records a run of it.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import random
import statistics
import sys
import time

import chaintext
import run
import tracer as tracing


def grow_seconds(m, seed: int, length: int) -> float:
    gen = m.gen.ChainGen(random.Random(seed))
    t0 = time.perf_counter()
    gen.grow(m.ledger.Chain(), length, m.model.PositionAllocator())
    return time.perf_counter() - t0


def validate_ms_per_1000(m, seed: int) -> float:
    chain = m.formats.parse_chain(chaintext.generate(random.Random(seed), 10_000).text)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        assert m.ledger.validate_chain(chain).valid
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3 / (len(chain) / 1_000)


def walk_ms_per_step(m, seed: int, steps: int) -> float:
    """Mean cost of one step of a buy/set-price walk of ``steps`` steps."""
    rng = random.Random(seed)
    cfg = m.token_portal.TokenConfig(issuer=1, traded_chip=m.model.Chip(1, 1), state_chip=m.model.Chip(2, 1))
    policies = m.policy.PolicyTable((m.policy.Policy(2, m.policy.AFFINE_ONCE),))
    alloc = m.model.PositionAllocator()
    chain = m.ledger.append(m.ledger.Chain(), m.token_portal.init_portal(cfg, 10 * steps, 1, alloc), policies=policies)
    t0 = time.perf_counter()
    for _ in range(steps):
        if rng.random() < 0.6:
            tx = m.token_portal.build_buy_tx(chain, cfg, 7, 1 + rng.randrange(5), alloc)
        else:
            tx = m.token_portal.build_set_price_tx(chain, cfg, rng.randrange(10), alloc)
        chain = m.ledger.append(chain, tx, policies=policies)
        assert isinstance(chain, m.ledger.Chain)
    return (time.perf_counter() - t0) * 1e3 / steps


def transaction_share_cprofile(m, seed: int) -> float:
    """Share of a 2,000-case theorem17 campaign's time spent inside
    ChainGen.transaction, by cProfile's cumulative times."""
    profile = cProfile.Profile()
    profile.runcall(m.harness.fuzz_theorem, "theorem17", seed=seed, cases=2_000)
    stats = pstats.Stats(profile).stats
    cumulative = {(path.rsplit("/", 1)[-1], name): ct for (path, _, name), (_, _, _, ct, _) in stats.items()}
    return cumulative[("gen.py", "transaction")] / cumulative[("harness.py", "fuzz_theorem")]


def transaction_share_traced(m, seed: int) -> float:
    """The same share from the benchmark's own tracer (inclusive span time)."""
    tracer = tracing.Tracer({layer: getattr(m, layer) for layer in tracing.LAYERS})
    tracer.install()
    try:
        m.harness.fuzz_theorem("theorem17", seed=seed, cases=2_000)
    finally:
        tracer.uninstall()
    incl = {}
    for i, lab in enumerate(tracer.labels):
        label = tracer.label_names[lab]
        if label in ("gen.ChainGen.transaction", "harness.fuzz_theorem"):
            incl[label] = incl.get(label, 0) + tracer.ends[i] - tracer.starts[i]
    return incl["gen.ChainGen.transaction"] / incl["harness.fuzz_theorem"]


def main() -> int:
    parser = argparse.ArgumentParser(description="Re-measure the ROADMAP baseline anchors.")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not (run.ROOT / "src" / "ledgersim" / "__init__.py").is_file():
        print(f"error: no ledgersim sources under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    m = run.import_ledgersim()
    seed = args.seed
    found = {
        "grow_s": {n: grow_seconds(m, seed, n) for n in (500, 1_000, 2_000)},
        "validate_ms_per_1000_tx": validate_ms_per_1000(m, seed),
        "walk_ms_per_step": {n: walk_ms_per_step(m, seed, n) for n in (250, 500, 1_000)},
        "theorem17_transaction_share_cprofile": transaction_share_cprofile(m, seed),
        "theorem17_transaction_share_traced": transaction_share_traced(m, seed),
    }
    grow = found["grow_s"]
    walk = found["walk_ms_per_step"]
    print(f"grow(2000): {grow[2_000]:.2f} s (ROADMAP ~3.5 s); ms per append at 500/1000/2000: "
          + "/".join(f"{grow[n] * 1e3 / n:.2f}" for n in (500, 1_000, 2_000)) + " (ROADMAP 0.51/0.99/1.77, mean over the grow)")
    print(f"validate_chain: {found['validate_ms_per_1000_tx']:.2f} ms per 1000 tx (ROADMAP ~4.3)")
    print("portal walk ms per step at 250/500/1000 steps: " + "/".join(f"{walk[n]:.2f}" for n in (250, 500, 1_000))
          + " (ROADMAP 0.44/0.88/1.85)")
    print(f"ChainGen.transaction share of theorem17: cProfile {found['theorem17_transaction_share_cprofile']:.2f}, "
          f"tracer {found['theorem17_transaction_share_traced']:.2f} (ROADMAP ~0.68 under cProfile)")
    print(json.dumps(found))
    return 0


if __name__ == "__main__":
    sys.exit(main())
