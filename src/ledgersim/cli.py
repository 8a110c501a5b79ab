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
import os
import sys
from typing import NoReturn

from . import formats
from .equivalence import alpha_mismatch, canonical_renaming, obs_equiv, rename_positions
from .harness import STATEMENTS, bundled_race_scenario, fuzz_theorem, run_scenario
from .ledger import Chain, classify, utxo, validate_chain


def _refuse(message: str) -> NoReturn:
    """Refuse the input: one ``error:`` line on stderr and exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _emit(args, payload, text: str, code: int = 0) -> int:
    """Print a command's result, ``payload`` as JSON or ``text`` as given,
    and return its exit code, also when the reader closed the pipe early."""
    try:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n" if args.format == "json" else text)
        sys.stdout.flush()
    except BrokenPipeError:  # what is still buffered goes nowhere at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        _refuse(str(exc))
    except UnicodeDecodeError as exc:
        _refuse(f"{path}: {exc}")


def _load(path: str, parse):
    try:
        return parse(_read(path))
    except formats.ParseError as exc:
        _refuse(f"{path}: {exc}")


def cmd_validate(args) -> int:
    report = validate_chain(_load(args.chain, formats.parse_chain))
    violations = [{"index": v.index, "condition": v.condition, "detail": v.detail} for v in report.violations]
    payload = {"valid": report.valid, "violations": violations}
    return _emit(args, payload, report.describe() + "\n", 0 if report.valid else 1)


def cmd_utxo(args) -> int:
    outs = sorted(utxo(_load(args.chain, formats.parse_chain)), key=lambda o: o.position)
    payload = [
        {
            "position": o.position,
            "validator": [o.validator.kind, list(o.validator.params)],
            "datum": o.datum,
            "value": {formats.chip_to_text(c): q for c, q in o.value},
        }
        for o in outs
    ]
    return _emit(args, payload, "".join(formats.output_to_text(o) + "\n" for o in outs))


def cmd_classify(args) -> int:
    verdict = classify(_load(args.chain, formats.parse_chain))
    return _emit(args, {"classification": verdict}, verdict + "\n")


def cmd_equiv(args) -> int:
    left = _load(args.chain_a, formats.parse_chain)
    right = _load(args.chain_b, formats.parse_chain)
    for path, chain in ((args.chain_a, left), (args.chain_b, right)):
        report = validate_chain(chain)  # kept on the chain: nothing after this checks it again
        if not report.valid:
            _refuse(f"{path} is not a valid chain: {report.describe()}")
    if args.mode == "obs":
        equivalent = obs_equiv(left, right)
        only_left = [formats.output_to_text(o) for o in sorted(utxo(left) - utxo(right), key=lambda o: o.position)]
        only_right = [formats.output_to_text(o) for o in sorted(utxo(right) - utxo(left), key=lambda o: o.position)]
        payload = {"mode": "obs", "equivalent": equivalent, "only_in_a": only_left, "only_in_b": only_right}
        lines = ["observationally-equivalent"] if equivalent else ["not observationally equivalent"]
        lines += ["< " + text for text in only_left] + ["> " + text for text in only_right]
        return _emit(args, payload, "\n".join(lines) + "\n", 0 if equivalent else 1)
    mismatch_index = alpha_mismatch(left, right)
    payload = {"mode": "alpha", "equivalent": mismatch_index is None, "first_mismatch": mismatch_index}
    if mismatch_index is None:
        return _emit(args, payload, "alpha-equivalent\n")
    lines = ["not alpha-equivalent", f"first canonical mismatch at transaction {mismatch_index}:"]
    at = slice(mismatch_index, mismatch_index + 1)
    for mark, chain in (("<", left), (">", right)):
        slots = None if chain.slots is None else chain.slots[at]
        # the canonical form's slice
        part = rename_positions(Chain(chain.transactions[at], slots), canonical_renaming(chain))
        text = formats.transactions_to_text(part.transactions, part.slots, mismatch_index)
        lines.append(f"{mark} " + (text.strip() or "(missing)").replace("\n", f"\n{mark} "))
    return _emit(args, payload, "\n".join(lines) + "\n", 1)


def cmd_scenario(args) -> int:
    try:
        schedules = tuple(formats.parse_schedule(raw.split()) for raw in args.schedule or ())
    except formats.ParseError as exc:
        _refuse(f"--schedule: {exc}")
    scenario = _load(args.scenario, formats.parse_scenario)
    scenario = dataclasses.replace(scenario, schedules=schedules or scenario.schedules)  # flags replace the file's
    try:
        report = run_scenario(scenario)
    except ValueError as exc:
        _refuse(str(exc))
    return _emit(args, report.to_dict(), report.to_text())


def cmd_fuzz(args) -> int:
    try:  # naturals are spelled as in the file formats
        cases, seed = formats._nat(args.cases, None, "--cases"), formats._nat(args.seed, None, "--seed")
    except formats.ParseError as exc:
        _refuse(str(exc))
    if cases < 1:
        _refuse(f"--cases must be at least 1, got {cases}")
    report = fuzz_theorem(args.theorem, seed, cases)
    # a refutation hunt expects counterexamples; a proved statement expects none
    refuted = STATEMENTS[args.theorem].expect == "refuted"
    return _emit(args, report.to_dict(), report.to_text(), 0 if bool(report.counterexamples) == refuted else 1)


def cmd_demo_race(args) -> int:
    """Run the bundled two-actor race on both ledgers and print the contrast."""
    reports = {ledger: run_scenario(bundled_race_scenario(ledger)) for ledger in (formats.EUTXO, formats.ACCOUNT)}
    text = "".join(f"=== {ledger} ===\n{report.to_text()}" for ledger, report in reports.items()) + (
        "note: on the utxo ledger a reordered buy can only flip to rejected\n"
        "(the buyer never pays a price other than the one read at build time);\n"
        "on the account ledger the same reordering silently changes what the\n"
        "buyer gets for the same payment.\n"
    )
    return _emit(args, {k: v.to_dict() for k, v in reports.items()}, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ledgersim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *positionals):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for positional in positionals:
            p.add_argument(positional)
        return p

    command("validate", cmd_validate, "check a chain file", "chain")
    command("utxo", cmd_utxo, "print the unspent outputs of a chain file", "chain")
    command("classify", cmd_classify, "blockchain, chunk, or neither", "chain")
    p = command("equiv", cmd_equiv, "compare two chain files", "chain_a", "chain_b")
    p.add_argument("--mode", choices=("obs", "alpha"), default="obs")
    p = command("scenario", cmd_scenario, "run a scenario file's schedules", "scenario")
    p.add_argument("--schedule", action="append", help="override the file's schedules")
    p = command("fuzz", cmd_fuzz, "fuzz one of the equivalence statements")
    p.add_argument("--theorem", choices=STATEMENTS, required=True)
    p.add_argument("--cases", default="1000")
    p.add_argument("--seed", default="0")
    command("demo-race", cmd_demo_race, "run the bundled race on both ledgers")
    for p in sub.choices.values():  # added last, so every usage line ends in it
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
