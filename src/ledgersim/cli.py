"""Command-line surface.

Commands: validate, utxo, classify, equiv, scenario, fuzz, demo-race.
Exit codes: 0 success / equivalent / expected finding, 1 semantic negative
(invalid chain, inequivalent pair, counterexample to a proved statement),
2 input error (unreadable or malformed file, bad arguments).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import formats
from .equivalence import _mismatch, canonical_renaming, obs_equiv, rename_positions
from .harness import STATEMENTS, THEOREMS, bundled_race_scenario, fuzz_theorem, run_scenario
from .ledger import Chain, InvalidChainError, classify, utxo, validate_chain


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        message = str(exc)
    except UnicodeDecodeError as exc:
        message = f"{path}: {exc}"
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_chain(path: str):
    try:
        return formats.parse_chain(_read(path))
    except formats.ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_validate(args) -> int:
    chain = _load_chain(args.chain)
    report = validate_chain(chain)
    if args.format == "json":
        payload = {
            "valid": report.valid,
            "violations": [
                {"index": v.index, "condition": v.condition, "detail": v.detail} for v in report.violations
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 0 if report.valid else 1


def cmd_utxo(args) -> int:
    chain = _load_chain(args.chain)
    outs = sorted(utxo(chain), key=lambda o: o.position)
    if args.format == "json":
        payload = [
            {
                "position": o.position,
                "validator": [o.validator.kind, list(o.validator.params)],
                "datum": o.datum,
                "value": {formats.chip_to_text(c): q for c, q in o.value},
            }
            for o in outs
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for out in outs:
            print(formats.output_to_text(out))
    return 0


def cmd_classify(args) -> int:
    chain = _load_chain(args.chain)
    verdict = classify(chain)
    if args.format == "json":
        print(json.dumps({"classification": verdict}))
    else:
        print(verdict)
    return 0


def cmd_equiv(args) -> int:
    left = _load_chain(args.chain_a)
    right = _load_chain(args.chain_b)
    renamings = []  # each chain is validated once, by its canonical renaming
    for path, chain in ((args.chain_a, left), (args.chain_b, right)):
        try:
            renamings.append(canonical_renaming(chain))
        except InvalidChainError as exc:
            print(f"error: {path} is not a valid chain: {exc}", file=sys.stderr)
            return 2
    if args.mode == "obs":
        equivalent = obs_equiv(left, right)
        only_left = sorted(utxo(left) - utxo(right), key=lambda o: o.position)
        only_right = sorted(utxo(right) - utxo(left), key=lambda o: o.position)
        if args.format == "json":
            payload = {
                "mode": "obs",
                "equivalent": equivalent,
                "only_in_a": [formats.output_to_text(o) for o in only_left],
                "only_in_b": [formats.output_to_text(o) for o in only_right],
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0 if equivalent else 1
        if equivalent:
            print("observationally-equivalent")
            return 0
        print("not observationally equivalent")
        for out in only_left:
            print("< " + formats.output_to_text(out))
        for out in only_right:
            print("> " + formats.output_to_text(out))
        return 1
    mismatch_index = _mismatch(left, right, *renamings)
    equivalent = mismatch_index is None
    if args.format == "json":
        payload = {"mode": "alpha", "equivalent": equivalent, "first_mismatch": mismatch_index}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if equivalent else 1
    if equivalent:
        print("alpha-equivalent")
        return 0
    print("not alpha-equivalent")
    print(f"first canonical mismatch at transaction {mismatch_index}:")
    at = slice(mismatch_index, mismatch_index + 1)
    for mark, chain, renaming in (("<", left, renamings[0]), (">", right, renamings[1])):
        slots = None if chain.slots is None else chain.slots[at]
        part = rename_positions(Chain(chain.transactions[at], slots), renaming)  # the canonical form's slice
        text = formats.transactions_to_text(part.transactions, part.slots, mismatch_index)
        print(f"{mark} " + (text.strip() or "(missing)").replace("\n", f"\n{mark} "))
    return 1


def cmd_scenario(args) -> int:
    try:
        schedules = tuple(formats.parse_schedule(raw.split()) for raw in args.schedule or ())
    except formats.ParseError as exc:
        print(f"error: --schedule: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = formats.parse_scenario(_read(args.scenario))
    except formats.ParseError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 2
    scenario = dataclasses.replace(scenario, schedules=schedules or scenario.schedules)  # flags replace the file's
    try:
        report = run_scenario(scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.to_text(), end="")
    return 0


def cmd_fuzz(args) -> int:
    try:  # naturals are spelled as in the file formats
        cases, seed = formats._nat(args.cases, None, "--cases"), formats._nat(args.seed, None, "--seed")
    except formats.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cases < 1:
        print(f"error: --cases must be at least 1, got {cases}", file=sys.stderr)
        return 2
    report = fuzz_theorem(args.theorem, seed, cases)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.to_text(), end="")
    # a refutation hunt expects counterexamples; a proved statement expects none
    refuted = STATEMENTS[args.theorem].expect == "refuted"
    return 0 if bool(report.counterexamples) == refuted else 1


def cmd_demo_race(args) -> int:
    """Run the bundled two-actor race on both ledgers and print the contrast."""
    reports = {ledger: run_scenario(bundled_race_scenario(ledger)) for ledger in ("eutxo", "account")}
    if args.format == "json":
        print(json.dumps({k: v.to_dict() for k, v in reports.items()}, indent=2, sort_keys=True))
        return 0
    for ledger, report in reports.items():
        print(f"=== {ledger} ===")
        print(report.to_text(), end="")
    print(
        "note: on the utxo ledger a reordered buy can only flip to rejected\n"
        "(the buyer never pays a price other than the one read at build time);\n"
        "on the account ledger the same reordering silently changes what the\n"
        "buyer gets for the same payment."
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ledgersim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="check a chain file")
    p.add_argument("chain")
    add_format(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("utxo", help="print the unspent outputs of a chain file")
    p.add_argument("chain")
    add_format(p)
    p.set_defaults(func=cmd_utxo)

    p = sub.add_parser("classify", help="blockchain, chunk, or neither")
    p.add_argument("chain")
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("equiv", help="compare two chain files")
    p.add_argument("chain_a")
    p.add_argument("chain_b")
    p.add_argument("--mode", choices=("obs", "alpha"), default="obs")
    add_format(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("scenario", help="run a scenario file's schedules")
    p.add_argument("scenario")
    p.add_argument("--schedule", action="append", help="override the file's schedules")
    add_format(p)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("fuzz", help="fuzz one of the equivalence statements")
    p.add_argument("--theorem", choices=THEOREMS, required=True)
    p.add_argument("--cases", default="1000")
    p.add_argument("--seed", default="0")
    add_format(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("demo-race", help="run the bundled race on both ledgers")
    add_format(p)
    p.set_defaults(func=cmd_demo_race)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
