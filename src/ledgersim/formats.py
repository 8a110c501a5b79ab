"""Line-oriented text formats for chains and scenarios.

Chain files are diff-friendly and hand-editable:

    TX <index> [SLOT <n>] [RANGE <lo> <hi|*>]
    IN <position> <redeemer>
    OUT <position> <kind> <params...> <datum> [<sym>:<tok>=<qty> ...]

Validator kinds have fixed arities (AcceptAll/RejectAll none, PayToPubKey one
key, StateMachine five naturals), so lines parse without separators.  Either
every transaction carries a SLOT or none does, and slots never decrease.
Printing is canonical (inputs and outputs sorted by position), and parse/print
round-trips are identities on canonical text.

Scenario files describe one race or schedule experiment; see parse_scenario.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .accounts import FUNCTIONS, PAYABLE
from .ledger import Chain
from .model import Chip, Input, Output, SlotRange, Transaction, Value
from .policy import RULES, PolicyTable
from .validators import KIND_ARITY, ValidatorRef


class ParseError(Exception):
    """Malformed input; a message about a line of a file carries its number."""


def _fail(lineno: int | None, message: str):
    raise ParseError(message if lineno is None else f"line {lineno}: {message}")


def _nat(token: str, lineno: int | None, what: str) -> int:
    try:
        n = int(token)
    except ValueError:
        n = -1
    if n < 0:
        _fail(lineno, f"{what} must be a natural number, got {token!r}")
    return n


# ---------------------------------------------------------------------------
# Chain format


def chip_to_text(chip: Chip) -> str:
    return f"{chip.symbol}:{chip.token}"


def value_to_text(value: Value) -> str:
    return " ".join(f"{chip_to_text(chip)}={qty}" for chip, qty in value)


def _parse_value_tokens(tokens: Sequence[str], lineno: int) -> Value:
    entries = []
    for token in tokens:
        chip_part, eq, qty_part = token.partition("=")
        sym_part, colon, tok_part = chip_part.partition(":")
        if not eq or not colon:
            _fail(lineno, f"value entry must look like sym:tok=qty, got {token!r}")
        qty = _nat(qty_part, lineno, "quantity")
        if qty < 1:
            _fail(lineno, f"quantity must be >= 1, got {qty}")
        entries.append(
            (Chip(_nat(sym_part, lineno, "currency symbol"), _nat(tok_part, lineno, "token name")), qty)
        )
    try:
        return Value.of(entries)
    except ValueError as exc:
        _fail(lineno, str(exc))


def output_to_text(out: Output) -> str:
    pieces = [f"OUT {out.position} {out.validator.kind}"]
    pieces.extend(str(p) for p in out.validator.params)
    pieces.append(str(out.datum))
    rendered = value_to_text(out.value)
    if rendered:
        pieces.append(rendered)
    return " ".join(pieces)


def _tx_header(index: int, tx: Transaction, slot: int | None) -> str:
    parts = [f"TX {index}"]
    if slot is not None:
        parts.append(f"SLOT {slot}")
    if tx.slot_range is not None:
        hi = "*" if tx.slot_range.hi is None else str(tx.slot_range.hi)
        parts.append(f"RANGE {tx.slot_range.lo} {hi}")
    return " ".join(parts)


def transactions_to_text(txs: Sequence[Transaction], slots: Sequence[int] | None = None) -> str:
    """Canonical text for a transaction sequence (chunk files, payloads)."""
    lines = []
    for index, tx in enumerate(txs):
        lines.append(_tx_header(index, tx, slots[index] if slots is not None else None))
        for inp in tx.sorted_inputs():
            lines.append(f"IN {inp.position} {inp.redeemer}")
        for out in tx.sorted_outputs():
            lines.append(output_to_text(out))
    return "\n".join(lines) + ("\n" if lines else "")


def chain_to_text(chain: Chain) -> str:
    return transactions_to_text(chain.transactions, chain.slots)


def _parse_tx_header(tokens: list[str], lineno: int, expected_index: int) -> tuple[int | None, SlotRange | None]:
    index = _nat(tokens[1], lineno, "transaction index")
    if index != expected_index:
        _fail(lineno, f"transaction index {index} out of order (expected {expected_index})")
    slot: int | None = None
    slot_range: SlotRange | None = None
    rest = tokens[2:]
    while rest:
        if rest[0] == "SLOT" and len(rest) >= 2:
            slot = _nat(rest[1], lineno, "slot")
            rest = rest[2:]
        elif rest[0] == "RANGE" and len(rest) >= 3:
            lo = _nat(rest[1], lineno, "range lower bound")
            hi = None if rest[2] == "*" else _nat(rest[2], lineno, "range upper bound")
            try:
                slot_range = SlotRange(lo, hi)
            except ValueError as exc:
                _fail(lineno, str(exc))
            rest = rest[3:]
        else:
            _fail(lineno, f"unexpected token {rest[0]!r} in TX header")
    return slot, slot_range


def parse_transactions(text: str) -> tuple[tuple[Transaction, ...], tuple[int, ...] | None]:
    """Parse chain-format text into transactions plus slots (None when no
    transaction carries a SLOT)."""
    txs: list[Transaction] = []
    slots: list[int] = []
    current_inputs: list[Input] | None = None
    current_outputs: list[Output] = []
    current_range: SlotRange | None = None
    slotted: bool | None = None

    def flush(lineno: int) -> None:
        nonlocal current_inputs, current_outputs, current_range
        if current_inputs is None:
            return
        try:
            txs.append(Transaction(frozenset(current_inputs), frozenset(current_outputs), current_range))
        except ValueError as exc:
            _fail(lineno, str(exc))
        current_inputs = None
        current_outputs = []
        current_range = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "TX":
            if len(tokens) < 2:
                _fail(lineno, "TX line needs an index")
            flush(lineno)
            slot, slot_range = _parse_tx_header(tokens, lineno, len(txs))
            if slotted is None:
                slotted = slot is not None
            elif slotted != (slot is not None):
                _fail(lineno, "either every transaction has a SLOT or none does")
            if slot is not None:
                if slots and slot < slots[-1]:
                    _fail(lineno, f"slot {slot} below the previous slot {slots[-1]}")
                slots.append(slot)
            current_inputs = []
            current_range = slot_range
        elif keyword == "IN":
            if current_inputs is None:
                _fail(lineno, "IN before any TX line")
            if len(tokens) != 3:
                _fail(lineno, "IN takes a position and a redeemer")
            current_inputs.append(Input(_nat(tokens[1], lineno, "position"), _nat(tokens[2], lineno, "redeemer")))
        elif keyword == "OUT":
            if current_inputs is None:
                _fail(lineno, "OUT before any TX line")
            if len(tokens) < 3:
                _fail(lineno, "OUT takes a position, a validator kind, parameters, and a datum")
            position = _nat(tokens[1], lineno, "position")
            kind = tokens[2]
            arity = KIND_ARITY.get(kind)
            if arity is None:
                _fail(lineno, f"unknown validator kind {kind!r}")
            if len(tokens) < 3 + arity + 1:
                _fail(lineno, f"{kind} needs {arity} parameters and a datum")
            params = tuple(_nat(t, lineno, f"{kind} parameter") for t in tokens[3 : 3 + arity])
            datum = _nat(tokens[3 + arity], lineno, "datum")
            value = _parse_value_tokens(tokens[3 + arity + 1 :], lineno)
            try:
                ref = ValidatorRef(kind, params)
            except ValueError as exc:
                _fail(lineno, str(exc))
            current_outputs.append(Output(position, ref, datum, value))
        else:
            _fail(lineno, f"unknown keyword {keyword!r}")
    flush(len(text.splitlines()) + 1)
    return tuple(txs), (tuple(slots) if slotted else None)


def parse_chain(text: str) -> Chain:
    txs, slots = parse_transactions(text)
    try:
        return Chain(txs, slots)
    except ValueError as exc:
        raise ParseError(str(exc))


# ---------------------------------------------------------------------------
# Scenario format
#
#     LEDGER eutxo|account
#     CONFIG issuer=<key> traded=<sym>:<tok> state=<sym>:<tok>   (eutxo)
#     CONTRACT <name>     DEPLOYER <actor>                       (account)
#     SUPPLY <n>
#     PRICE <n>
#     POLICY <symbol> <rule>                                     (eutxo, repeatable)
#     REBUILD                                                    (eutxo)
#     ACTOR <name> <key>
#     INTENT <actor> buy n=<n> [max_price=<p>]                   (eutxo)
#     INTENT <actor> set_price p=<p>                             (eutxo)
#     INTENT <actor> mint sym=<s> tok=<t> qty=<q>                (eutxo)
#     INTENT <actor> call <function> [k=v ...]                   (account)
#     SCHEDULE all | sample <n> @<seed> | <i,j,...>
#
# A keyword of SINGLE_VALUED, or an ACTOR name, given twice is an error, and
# so is a keyword of LEDGER_ONLY under the other ledger.  REBUILD rebuilds an
# intent whose submit-time transaction no longer attaches against the chain at
# its turn; a mint is a genesis paying the actor's key.

SINGLE_VALUED = ("LEDGER", "CONFIG", "CONTRACT", "DEPLOYER", "SUPPLY", "PRICE", "REBUILD")
LEDGER_ONLY = {"CONFIG": "eutxo", "POLICY": "eutxo", "REBUILD": "eutxo", "CONTRACT": "account", "DEPLOYER": "account"}
CONFIG_KEYS = {"issuer", "traded", "state"}
EUTXO_INTENTS = {"buy": {"n"}, "set_price": {"p"}, "mint": {"sym", "tok", "qty"}}
OPTIONAL_PARAMS = {"buy": {"max_price"}}
#: The parameter that sizes each token-moving intent; it must be at least 1.
SIZE_PARAMS = {"buy": "n", "mint": "qty"}


def _split_kv(tokens: Iterable[str], lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for token in tokens:
        key, eq, val = token.partition("=")
        if not eq:
            _fail(lineno, f"expected key=value, got {token!r}")
        if key in out:
            _fail(lineno, f"{key} given twice")
        out[key] = val
    return out


def _parse_kv(tokens: Iterable[str], lineno: int) -> dict[str, int]:
    return {key: _nat(val, lineno, key) for key, val in _split_kv(tokens, lineno).items()}


def _parse_chip_token(token: str, lineno: int) -> Chip:
    sym, colon, tok = token.partition(":")
    if not colon:
        _fail(lineno, f"chip must look like sym:tok, got {token!r}")
    return Chip(_nat(sym, lineno, "currency symbol"), _nat(tok, lineno, "token name"))


def parse_schedule(tokens: list[str], lineno: int | None = None) -> tuple:
    """One schedule clause, from the words after SCHEDULE or of a --schedule
    flag: ``all``, ``sample <n> @<seed>`` or an explicit order ``<i,j,...>``."""
    if tokens == ["all"]:
        return ("all",)
    if tokens and tokens[0] == "sample":
        if len(tokens) != 3 or not tokens[2].startswith("@"):
            _fail(lineno, "sample schedule looks like: sample <n> @<seed>")
        count = _nat(tokens[1], lineno, "sample count")
        if count < 1:
            _fail(lineno, "sample count must be at least 1")
        return ("sample", count, _nat(tokens[2][1:], lineno, "seed"))
    if len(tokens) == 1:
        try:
            return ("explicit", tuple(int(piece) for piece in tokens[0].split(",")))
        except ValueError:
            _fail(lineno, f"bad explicit schedule {tokens[0]!r}")
    _fail(lineno, "schedule must be 'all', 'sample <n> @<seed>' or '<i,j,...>'")


def parse_scenario(text: str):
    """Parse a scenario file into a harness Scenario."""
    from .harness import ACCOUNT, EUTXO, Intent, Scenario
    from .token_portal import TokenConfig

    ledger: str | None = None
    cfg: TokenConfig | None = None
    contract: int | None = None
    deployer: str | None = None
    supply: int | None = None
    price: int | None = None
    policy_rules: dict[int, str] = {}
    actors: list[tuple[str, int]] = []
    intents: list[Intent] = []
    intent_lines: list[int] = []
    schedules: list[tuple] = []
    schedule_lines: list[int] = []
    seen: dict[str, int] = {}  # each keyword's first line

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword in SINGLE_VALUED and keyword in seen:
            _fail(lineno, f"{keyword} given twice")
        seen.setdefault(keyword, lineno)
        if keyword == "LEDGER":
            if len(tokens) != 2 or tokens[1] not in (EUTXO, ACCOUNT):
                _fail(lineno, "LEDGER must be 'eutxo' or 'account'")
            ledger = tokens[1]
        elif keyword == "CONFIG":
            kv = _split_kv(tokens[1:], lineno)
            missing, unknown = CONFIG_KEYS - set(kv), set(kv) - CONFIG_KEYS
            if missing:
                _fail(lineno, f"CONFIG missing {sorted(missing)}")
            if unknown:
                _fail(lineno, f"CONFIG unknown {sorted(unknown)}")
            try:
                cfg = TokenConfig(
                    _nat(kv["issuer"], lineno, "issuer"),
                    _parse_chip_token(kv["traded"], lineno),
                    _parse_chip_token(kv["state"], lineno),
                )
            except ValueError as exc:
                _fail(lineno, str(exc))
        elif keyword in ("CONTRACT", "DEPLOYER", "SUPPLY", "PRICE") and len(tokens) != 2:
            _fail(lineno, f"{keyword} takes one argument")
        elif keyword == "CONTRACT":
            contract = _nat(tokens[1], lineno, "contract name")
        elif keyword == "DEPLOYER":
            deployer = tokens[1]
        elif keyword == "SUPPLY":
            supply = _nat(tokens[1], lineno, "supply")
        elif keyword == "PRICE":
            price = _nat(tokens[1], lineno, "price")
        elif keyword == "REBUILD":
            if len(tokens) != 1:
                _fail(lineno, "REBUILD takes no arguments")
        elif keyword == "POLICY":
            if len(tokens) != 3 or tokens[2] not in RULES:
                _fail(lineno, f"POLICY takes a symbol and one of {RULES}")
            symbol = _nat(tokens[1], lineno, "symbol")
            if symbol in policy_rules:
                _fail(lineno, f"symbol {symbol} already has a policy")
            policy_rules[symbol] = tokens[2]
        elif keyword == "ACTOR":
            if len(tokens) != 3:
                _fail(lineno, "ACTOR takes a name and a key id")
            if any(name == tokens[1] for name, _ in actors):
                _fail(lineno, f"actor {tokens[1]!r} given twice")
            actors.append((tokens[1], _nat(tokens[2], lineno, "key id")))
        elif keyword == "INTENT":
            if len(tokens) < 3:
                _fail(lineno, "INTENT takes an actor and a kind")
            actor, kind = tokens[1], tokens[2]
            if kind == "call":
                if len(tokens) < 4:
                    _fail(lineno, "call intent needs a function name")
                function = tokens[3]
                if function not in FUNCTIONS:
                    _fail(lineno, f"unknown function {function!r}")
                kv = _parse_kv(tokens[4:], lineno)
                required = set(FUNCTIONS[function]) | ({"value"} if function in PAYABLE else set())
                missing = required - set(kv)
                if missing:
                    _fail(lineno, f"{function} missing {sorted(missing)}")
                unknown = set(kv) - required
                if unknown:
                    _fail(lineno, f"{function} unknown {sorted(unknown)}")
                intents.append(Intent.of(actor, "call", function=function, **kv))
            else:
                if kind not in EUTXO_INTENTS:
                    _fail(lineno, f"unknown intent kind {kind!r}")
                kv = _parse_kv(tokens[3:], lineno)
                allowed = EUTXO_INTENTS[kind] | OPTIONAL_PARAMS.get(kind, set())
                missing = EUTXO_INTENTS[kind] - set(kv)
                unknown = set(kv) - allowed
                if missing or unknown:
                    _fail(lineno, f"{kind} parameters: missing {sorted(missing)}, unknown {sorted(unknown)}")
                size = SIZE_PARAMS.get(kind)
                if size and kv[size] < 1:
                    _fail(lineno, f"{kind} {size} must be at least 1, got {kv[size]}")
                intents.append(Intent.of(actor, kind, **kv))
            intent_lines.append(lineno)
        elif keyword == "SCHEDULE":
            schedules.append(parse_schedule(tokens[1:], lineno))
            schedule_lines.append(lineno)
        else:
            _fail(lineno, f"unknown keyword {keyword!r}")

    if ledger is None:
        raise ParseError("scenario is missing a LEDGER line")
    if supply is None or price is None:
        raise ParseError("scenario is missing SUPPLY or PRICE")
    if not schedules:
        raise ParseError("scenario has no SCHEDULE lines")
    actor_names = [name for name, _ in actors]
    for lineno, intent in zip(intent_lines, intents):
        if intent.actor not in actor_names:
            _fail(lineno, f"intent references unknown actor {intent.actor!r}")
        if (intent.kind == "call") != (ledger == ACCOUNT):
            _fail(lineno, f"{intent.kind} intents need LEDGER {ACCOUNT if intent.kind == 'call' else EUTXO}")
    for lineno, clause in zip(schedule_lines, schedules):
        if clause[0] == "explicit" and sorted(clause[1]) != list(range(len(intents))):
            _fail(lineno, f"schedule {clause[1]} is not a permutation of 0..{len(intents) - 1}")
    for keyword, lineno in seen.items():
        if LEDGER_ONLY.get(keyword, ledger) != ledger:
            _fail(lineno, f"{keyword} needs LEDGER {LEDGER_ONLY[keyword]}")
    if supply == 0 and ledger == EUTXO:  # the portal holds the supply; a contract may start empty
        _fail(seen["SUPPLY"], f"SUPPLY must be at least 1 on LEDGER {EUTXO}")
    head = (ledger, tuple(actors), tuple(intents), tuple(schedules), supply, price)
    if ledger == EUTXO:
        if cfg is None:
            raise ParseError("eutxo scenario is missing a CONFIG line")
        return Scenario(*head, cfg=cfg, policies=PolicyTable.of(policy_rules), rebuild="REBUILD" in seen)
    if contract is None or deployer is None:
        raise ParseError("account scenario is missing CONTRACT or DEPLOYER")
    if deployer not in actor_names:
        _fail(seen["DEPLOYER"], f"deployer {deployer!r} is not an actor")
    return Scenario(*head, contract=contract, deployer=deployer)


def scenario_to_text(scenario) -> str:
    """Canonical text for a scenario; parse(scenario_to_text(s)) == s."""
    lines = [f"LEDGER {scenario.ledger}"]
    if scenario.ledger == "eutxo":
        cfg = scenario.cfg
        traded, state = chip_to_text(cfg.traded_chip), chip_to_text(cfg.state_chip)
        lines.append(f"CONFIG issuer={cfg.issuer} traded={traded} state={state}")
    else:
        lines.append(f"CONTRACT {scenario.contract}")
        lines.append(f"DEPLOYER {scenario.deployer}")
    lines.append(f"SUPPLY {scenario.supply}")
    lines.append(f"PRICE {scenario.price}")
    if scenario.ledger == "eutxo" and scenario.policies is not None:
        for policy in scenario.policies.policies:
            lines.append(f"POLICY {policy.symbol} {policy.rule}")
    if scenario.rebuild:
        lines.append("REBUILD")
    for name, key in sorted(scenario.actors):
        lines.append(f"ACTOR {name} {key}")
    for intent in scenario.intents:
        if intent.kind == "call":
            function = intent.get("function")
            rest = " ".join(f"{k}={v}" for k, v in sorted(intent.params) if k != "function")
            lines.append(f"INTENT {intent.actor} call {function} {rest}".rstrip())
        else:
            rest = " ".join(f"{k}={v}" for k, v in sorted(intent.params))
            lines.append(f"INTENT {intent.actor} {intent.kind} {rest}".rstrip())
    for clause in scenario.schedules:
        if clause[0] == "all":
            lines.append("SCHEDULE all")
        elif clause[0] == "sample":
            lines.append(f"SCHEDULE sample {clause[1]} @{clause[2]}")
        else:
            lines.append("SCHEDULE " + ",".join(str(i) for i in clause[1]))
    return "\n".join(lines) + "\n"
