"""Line-oriented text formats for chains and scenarios.

One line reader serves both: ``#`` starts a comment, blank lines are skipped,
and every other line is a keyword and its arguments.  Errors name their line.

Chain files are diff-friendly and hand-editable:

    TX <index> [SLOT <n>] [RANGE <lo> <hi|*>]
    IN <position> <redeemer>
    OUT <position> <kind> <params...> <datum> [<sym>:<tok>=<qty> ...]

A TX header takes SLOT and RANGE at most once each.  Validator kinds have fixed
arities (AcceptAll/RejectAll none, PayToPubKey one key, StateMachine five
naturals), so lines parse without separators.  The parse is one streaming pass
that builds each transaction when its block ends, so an error of the
transaction itself, such as an input position given twice, is reported at its
TX line.  Either every transaction carries a SLOT or none does, and slots
never decrease.  Naturals, in chains and scenarios alike, are ASCII digits
only: no sign, no underscore and no other script's digits.  Within one parse,
equal validator words and equal value words on OUT lines yield one shared
ValidatorRef and one shared Value; the two tables live only as long as the
call, so memory stays bounded by the input.  Printing is canonical (inputs
and outputs sorted by position), and parse/print round-trips are identities
on canonical text.

Scenario files describe one race or schedule experiment; see parse_scenario.
The types a scenario parses to, ``Scenario`` and its ``Intent`` list, are
defined here beside their grammar (``INTENTS``), and ``harness`` runs them.
The parser checks only what a line spells.  ``scenario_problem`` is the one
judge of what a whole ``Scenario`` means, and ``intent_problem`` the judge
of one intent within it, for the parser and for ``harness`` alike: a
scenario built in code is refused exactly when its text would not parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .accounts import FUNCTIONS, PAYABLE
from .ledger import Chain
from .model import KIND_ARITY, Chip, Input, Output, SlotRange, Transaction, ValidatorRef, Value
from .policy import RULES, PolicyTable
from .token_portal import TokenConfig


class ParseError(Exception):
    """Malformed input; a message about a line of a file carries its number."""


def _fail(lineno: int | None, message: str):
    raise ParseError(message if lineno is None else f"line {lineno}: {message}")


def _nat(token: str, lineno: int | None, what: str) -> int:
    try:
        n = int(token) if token.isascii() and token.isdigit() else -1
    except ValueError:  # more digits than int() reads
        n = -1
    if n < 0:
        _fail(lineno, _not_natural(token, what))
    return n


def _not_natural(value, what: str) -> str | None:
    """The complaint about ``value`` as the natural number ``what``, or None
    when it is one: an ``int``, not a ``bool``, of at least 0."""
    return None if type(value) is int and value >= 0 else f"{what} must be a natural number, got {value!r}"


def _lines(text: str):
    """(line number, keyword, arguments) of every line that holds more than
    blanks and a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if words:
            yield lineno, words[0], words[1:]


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
    return Value.of(entries)


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


def transactions_to_text(txs: Sequence[Transaction], slots: Sequence[int] | None = None, first: int = 0) -> str:
    """Canonical text for a transaction sequence (chunk files, payloads),
    its ``TX`` headers numbered from ``first``."""
    lines = []
    for index, tx in enumerate(txs):
        lines.append(_tx_header(first + index, tx, slots[index] if slots is not None else None))
        for inp in tx.sorted_inputs():
            lines.append(f"IN {inp.position} {inp.redeemer}")
        for out in tx.sorted_outputs():
            lines.append(output_to_text(out))
    return "\n".join(lines) + ("\n" if lines else "")


def chain_to_text(chain: Chain) -> str:
    return transactions_to_text(chain.transactions, chain.slots)


def _parse_tx_header(args: list[str], lineno: int, expected_index: int) -> tuple[int | None, SlotRange | None]:
    """The slot and slot range of a ``TX`` line, each given at most once."""
    if not args:
        _fail(lineno, "TX line needs an index")
    index = _nat(args[0], lineno, "transaction index")
    if index != expected_index:
        _fail(lineno, f"transaction index {index} out of order (expected {expected_index})")
    slot: int | None = None
    slot_range: SlotRange | None = None
    rest = args[1:]
    while rest:
        word = rest[0]
        if word == "SLOT" and len(rest) >= 2:
            if slot is not None:
                _fail(lineno, "SLOT given twice")
            slot = _nat(rest[1], lineno, "slot")
            rest = rest[2:]
        elif word == "RANGE" and len(rest) >= 3:
            if slot_range is not None:
                _fail(lineno, "RANGE given twice")
            lo = _nat(rest[1], lineno, "range lower bound")
            hi = None if rest[2] == "*" else _nat(rest[2], lineno, "range upper bound")
            try:
                slot_range = SlotRange(lo, hi)
            except ValueError as exc:
                _fail(lineno, str(exc))
            rest = rest[3:]
        else:
            _fail(lineno, f"unexpected token {word!r} in TX header")
    return slot, slot_range


def _output(
    args: list[str], lineno: int, validators: dict[tuple, ValidatorRef], values: dict[tuple, Value]
) -> Output:
    """One ``OUT`` line: a position, a validator kind, its parameters, a datum and a value.

    ``validators`` and ``values`` map the validator words and the value words
    of earlier lines of the same parse to what they parsed to; a line whose
    words are there reuses that object, and one whose words are new adds
    them once they have parsed.  The words are read in line order, so the
    first bad word of a line names the error, cached or not.
    """
    if len(args) < 2:
        _fail(lineno, "OUT takes a position, a validator kind, parameters, and a datum")
    position = _nat(args[0], lineno, "position")
    kind = args[1]
    arity = KIND_ARITY.get(kind)
    if arity is None:
        _fail(lineno, f"unknown validator kind {kind!r}")
    if len(args) < arity + 3:
        _fail(lineno, f"{kind} needs {arity} parameters and a datum")
    validator_words = tuple(args[1 : 2 + arity])
    validator = validators.get(validator_words)
    if validator is None:
        params = tuple(_nat(word, lineno, f"{kind} parameter") for word in validator_words[1:])
        validator = validators[validator_words] = ValidatorRef(kind, params)
    datum = _nat(args[2 + arity], lineno, "datum")
    value_words = tuple(args[3 + arity :])
    value = values.get(value_words)
    if value is None:
        value = values[value_words] = _parse_value_tokens(value_words, lineno)
    return Output(position, validator, datum, value)


def _transaction(lineno: int, slot_range: SlotRange | None, inputs: list[Input], outputs: list[Output]) -> Transaction:
    """One block's transaction; its own errors are reported at its ``TX``
    line.  Two identical ``IN`` or ``OUT`` lines, which its sets would merge,
    are one position given twice."""
    try:
        tx = Transaction(frozenset(inputs), frozenset(outputs), slot_range)
    except ValueError as exc:
        _fail(lineno, str(exc))
    if len(tx.inputs) < len(inputs):
        _fail(lineno, "duplicate input positions within one transaction")
    if len(tx.outputs) < len(outputs):
        _fail(lineno, "duplicate output positions within one transaction")
    return tx


def parse_transactions(text: str) -> tuple[tuple[Transaction, ...], tuple[int, ...] | None]:
    """Parse chain-format text into transactions plus slots (None when no
    transaction carries a SLOT)."""
    txs: list[Transaction] = []
    slots: list[int] = []
    block = None  # the TX line, slot range, inputs and outputs of the transaction being read
    validators: dict[tuple, ValidatorRef] = {}  # validator words -> the one object they parse to
    values: dict[tuple, Value] = {}  # value words -> the one object they parse to
    for lineno, keyword, args in _lines(text):
        if keyword == "TX":
            if block is not None:
                txs.append(_transaction(*block))
            slot, slot_range = _parse_tx_header(args, lineno, len(txs))
            if block is not None and (slot is not None) != bool(slots):  # the first TX decides
                _fail(lineno, "either every transaction has a SLOT or none does")
            if slot is not None:
                if slots and slot < slots[-1]:
                    _fail(lineno, f"slot {slot} below the previous slot {slots[-1]}")
                slots.append(slot)
            block = (lineno, slot_range, [], [])
        elif keyword not in ("IN", "OUT"):
            _fail(lineno, f"unknown keyword {keyword!r}")
        elif block is None:
            _fail(lineno, f"{keyword} before any TX line")
        elif keyword == "OUT":
            block[3].append(_output(args, lineno, validators, values))
        elif len(args) != 2:
            _fail(lineno, "IN takes a position and a redeemer")
        else:
            block[2].append(Input(_nat(args[0], lineno, "position"), _nat(args[1], lineno, "redeemer")))
    if block is not None:
        txs.append(_transaction(*block))
    return tuple(txs), (tuple(slots) if slots else None)


def parse_chain(text: str) -> Chain:
    return Chain(*parse_transactions(text))


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
#     INTENT <actor> <kind> [k=v ...]                            (eutxo; see INTENTS)
#     INTENT <actor> call <function> [k=v ...]                   (account; see INTENTS)
#     SCHEDULE all | sample <n> @<seed> | <i,j,...>
#
# A keyword of SINGLE_VALUED, or an ACTOR name, given twice is an error, and
# so is a keyword of LEDGER_ONLY under the other ledger.  REBUILD rebuilds an
# intent whose submit-time transaction no longer attaches against the chain at
# its turn; a mint is a genesis paying the actor's key.

EUTXO = "eutxo"
ACCOUNT = "account"


@dataclass(frozen=True)
class Intent:
    """One actor action: a token-portal builder or a genesis mint to the
    actor's key on the UTxO ledger, or a contract call on the account ledger."""

    actor: str
    kind: str  # "buy" | "set_price" | "mint" (eutxo) | "call" (account)
    params: tuple[tuple[str, int | str], ...] = ()

    def get(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    @classmethod
    def of(cls, actor: str, kind: str, **params) -> Intent:
        return cls(actor, kind, tuple(sorted(params.items())))


@dataclass(frozen=True)
class Scenario:
    """Everything a run reads: the initial ledger configuration and policy
    table (empty for no policy), actors, the intent list, which schedules
    to run, and whether a stale UTxO intent is rebuilt at its turn."""

    ledger: str
    actors: tuple[tuple[str, int], ...]
    intents: tuple[Intent, ...]
    schedules: tuple[tuple, ...]
    supply: int
    price: int
    cfg: TokenConfig | None = None
    policies: PolicyTable = PolicyTable()
    contract: int = 1
    deployer: str = ""
    rebuild: bool = False


SINGLE_VALUED = ("LEDGER", "CONFIG", "CONTRACT", "DEPLOYER", "SUPPLY", "PRICE", "REBUILD")
#: Each keyword of one ledger only: that ledger, the ``Scenario`` field the
#: keyword sets and the field's type.  Under the other ledger the field keeps
#: its default.
LEDGER_ONLY = {
    "CONFIG": (EUTXO, "cfg", TokenConfig),
    "POLICY": (EUTXO, "policies", PolicyTable),
    "REBUILD": (EUTXO, "rebuild", bool),
    "CONTRACT": (ACCOUNT, "contract", int),
    "DEPLOYER": (ACCOUNT, "deployer", str),
}
CONFIG_KEYS = {"issuer", "traded", "state"}
#: Every intent, keyed by its UTxO kind or by ``("call", function)``: its
#: required parameters, its optional ones, and the parameter that sizes it,
#: which must be at least 1.  A call's ``value`` is the payment a ``PAYABLE``
#: function consumes.
INTENTS = {
    "buy": ({"n"}, {"max_price"}, "n"),
    "set_price": ({"p"}, set(), None),
    "mint": ({"sym", "tok", "qty"}, set(), "qty"),
    **{
        ("call", function): (set(args) | ({"value"} if function in PAYABLE else set()), set(), None)
        for function, args in FUNCTIONS.items()
    },
}


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


def _keys_problem(name: str, given: dict, required: set[str], optional: set[str]) -> str | None:
    """Missing keys, else keys neither required nor optional, else None."""
    missing = required - set(given)
    if missing:
        return f"{name} missing {sorted(missing)}"
    unknown = set(given) - required - optional
    if unknown:
        return f"{name} unknown {sorted(unknown)}"
    return None


def intent_problem(ledger: str, actor_names: Sequence[str], intent: Intent) -> str | None:
    """What is wrong with ``intent`` in a scenario on ``ledger`` whose actors
    are ``actor_names``, or None.  This is the one judge of an intent: the
    parser reports its answer at the intent's line, and ``harness`` raises
    it as ``ValueError("intent <i>: <problem>")`` before it builds or runs
    anything.  The first that applies: a kind or function with no
    ``INTENTS`` row; a missing or unknown parameter, a value that is no
    natural number, or a sizing parameter below 1; an actor not among
    ``actor_names``; a kind of the other ledger.  A call's function is its
    first ``function`` parameter, and its row refuses any other."""
    key = (intent.kind, intent.get("function")) if intent.kind == "call" else intent.kind
    row = INTENTS.get(key)
    if row is None:
        return f"unknown function {key[1]!r}" if intent.kind == "call" else f"unknown intent kind {key!r}"
    required, optional, size = row
    name = key[1] if intent.kind == "call" else key
    function_pair = ("function", name) if intent.kind == "call" else None
    given = dict(pair for pair in intent.params if pair != function_pair)
    problems = (_not_natural(value, param) for param, value in sorted(given.items()))
    problem = _keys_problem(name, given, required, optional) or next(filter(None, problems), None)
    if problem is not None:
        return problem
    if size and given[size] < 1:
        return f"{name} {size} must be at least 1, got {given[size]}"
    if intent.actor not in actor_names:
        return f"intent references unknown actor {intent.actor!r}"
    if (intent.kind == "call") != (ledger == ACCOUNT):
        return f"{intent.kind} intents need LEDGER {ACCOUNT if intent.kind == 'call' else EUTXO}"
    return None


def is_permutation(order, count: int) -> bool:
    """True when ``order`` is a tuple of ``int``s, not ``bool``s, holding
    each of 0..count-1 once, as an explicit clause and a run's order must.
    ``count`` is an intent count, so never negative.  The element types are
    tested before the elements are hashed, so an unhashable one gives False."""
    return (
        type(order) is tuple
        and set(map(type, order)) <= {int}
        and len(order) == count
        and set(order) == _indices(count)
    )


@lru_cache(maxsize=16)
def _indices(count: int) -> frozenset[int]:
    return frozenset(range(count))


def _clause_problem(clause, count: int) -> str | None:
    """What is wrong with one schedule clause of a scenario with ``count``
    intents, or None."""
    match clause:
        case ("sample", n, _) if type(n) is not int or n < 1:
            return "sample count must be at least 1" if type(n) is int else f"sample count must be an int, got {n!r}"
        case ("sample", _, seed) if type(seed) is not int or seed < 0:
            return f"sample seed must be a natural int, got {seed!r}"
        case ("explicit", order) if not is_permutation(order, count):
            return f"schedule {order} is not a permutation of 0..{count - 1}"
        case ("all",) | ("sample", _, _) | ("explicit", _):
            return None
    return f"unknown schedule clause {clause!r}"


def _problems(scenario: Scenario):
    """(keyword, which line of that keyword, problem or None) for each
    check of ``scenario_problem``, in its order, made only when asked for."""
    names = [name for name, _ in scenario.actors]
    for at, (name, key) in enumerate(scenario.actors):
        spelt = isinstance(name, str) and name.split("#", 1)[0].split() == [name]  # one word, as ``_lines`` reads it
        yield "ACTOR", at, None if spelt else "ACTOR takes a name and a key id"
        yield "ACTOR", at, f"actor {name!r} given twice" if name in names[:at] else _not_natural(key, "key id")
    for at, intent in enumerate(scenario.intents):
        yield "INTENT", at, intent_problem(scenario.ledger, names, intent)
    yield "SCHEDULE", 0, None if scenario.schedules else "scenario has no SCHEDULE lines"
    for at, clause in enumerate(scenario.schedules):
        yield "SCHEDULE", at, _clause_problem(clause, len(scenario.intents))
    yield "SUPPLY", 0, _not_natural(scenario.supply, "supply")
    yield "PRICE", 0, _not_natural(scenario.price, "price")
    if scenario.ledger == EUTXO:
        yield "CONFIG", 0, "eutxo scenario is missing a CONFIG line" if scenario.cfg is None else None
        # the portal holds the supply; a contract may start empty
        yield "SUPPLY", 0, f"SUPPLY must be at least 1 on LEDGER {EUTXO}" if scenario.supply < 1 else None
    else:
        yield "LEDGER", 0, None if scenario.ledger == ACCOUNT else f"unknown ledger kind {scenario.ledger!r}"
        yield "CONTRACT", 0, _not_natural(scenario.contract, "contract name")
        yield "DEPLOYER", 0, None if scenario.deployer in names else f"deployer {scenario.deployer!r} is not an actor"
    for keyword, (ledger, name, kind) in LEDGER_ONLY.items():
        value = getattr(scenario, name)
        if ledger != scenario.ledger and value != getattr(Scenario, name):
            yield keyword, 0, f"{keyword} needs LEDGER {ledger}"
        elif ledger == scenario.ledger and not isinstance(value, kind):
            yield keyword, 0, f"{name} must be a {kind.__name__}, got {value!r}"


def scenario_problem(scenario: Scenario) -> tuple[str, int, str] | None:
    """The first thing wrong with ``scenario`` as (keyword, which line of
    that keyword, message), or None.  This is the one judge of a scenario:
    the parser reports its answer at that line, and ``harness.build_world``
    and ``harness.expand_schedules`` raise it as
    ``ValueError("<keyword> <i>: <message>")`` before they build or count
    anything.  In order: an actor whose name is no ``str`` the parser reads
    as one word, named twice or whose key is no natural number; an intent
    ``intent_problem`` finds wrong; no schedule clause, or a clause other
    than ``("all",)``,
    ``("sample", <int of at least 1>, <natural int>)`` and
    ``("explicit", <tuple of ints permuting the intent indices>)``; a supply
    or price that is no natural number; an eutxo scenario with no token
    config or a supply below 1; an unknown ledger; an account scenario whose
    contract name is no natural number or whose deployer is no actor; a
    ``LEDGER_ONLY`` field of the scenario's ledger not of its type, or of
    the other ledger not at its default.  A natural number is an ``int``,
    not a ``bool``, of at least 0, as the parser reads one."""
    return next((found for found in _problems(scenario) if found[2] is not None), None)


def _parse_chip_token(token: str, lineno: int) -> Chip:
    sym, colon, tok = token.partition(":")
    if not colon:
        _fail(lineno, f"chip must look like sym:tok, got {token!r}")
    return Chip(_nat(sym, lineno, "currency symbol"), _nat(tok, lineno, "token name"))


def parse_schedule(tokens: list[str], lineno: int | None = None) -> tuple:
    """One schedule clause, from the words after SCHEDULE or of a --schedule
    flag: ``all``, ``sample <n> @<seed>`` or an explicit order ``<i,j,...>``.
    Only the spelling is checked, so ``sample 0 @1`` and ``1,1`` parse;
    ``scenario_problem`` judges the clause in its scenario."""
    if tokens == ["all"]:
        return ("all",)
    if tokens and tokens[0] == "sample":
        if len(tokens) != 3 or not tokens[2].startswith("@"):
            _fail(lineno, "sample schedule looks like: sample <n> @<seed>")
        return ("sample", _nat(tokens[1], lineno, "sample count"), _nat(tokens[2][1:], lineno, "seed"))
    if len(tokens) == 1:
        try:
            return ("explicit", tuple(_nat(piece, lineno, "index") for piece in tokens[0].split(",")))
        except ParseError:
            _fail(lineno, f"bad explicit schedule {tokens[0]!r}")
    _fail(lineno, "schedule must be 'all', 'sample <n> @<seed>' or '<i,j,...>'")


def _single_value(keyword: str, args: list[str], lineno: int):
    """The value of one line of a SINGLE_VALUED keyword."""
    if keyword == "LEDGER":
        if args not in ([EUTXO], [ACCOUNT]):
            _fail(lineno, f"LEDGER must be {EUTXO!r} or {ACCOUNT!r}")
        return args[0]
    if keyword == "REBUILD":
        if args:
            _fail(lineno, "REBUILD takes no arguments")
        return True
    if keyword == "CONFIG":
        kv = _split_kv(args, lineno)
        problem = _keys_problem("CONFIG", kv, CONFIG_KEYS, set())
        if problem is not None:
            _fail(lineno, problem)
        issuer = _nat(kv["issuer"], lineno, "issuer")
        traded, state = _parse_chip_token(kv["traded"], lineno), _parse_chip_token(kv["state"], lineno)
        try:
            return TokenConfig(issuer, traded, state)
        except ValueError as exc:
            _fail(lineno, str(exc))
    if len(args) != 1:
        _fail(lineno, f"{keyword} takes one argument")
    if keyword == "DEPLOYER":
        return args[0]
    return _nat(args[0], lineno, "contract name" if keyword == "CONTRACT" else keyword.lower())


def _parse_intent(args: list[str], lineno: int) -> Intent:
    """One INTENT line as its Intent, read but not judged: ``intent_problem``
    judges it once the file is read.  A call's function word is its first
    ``function`` parameter, so a ``function=`` word on the line is one more."""
    if len(args) < 2:
        _fail(lineno, "INTENT takes an actor and a kind")
    actor, kind, words = args[0], args[1], args[2:]
    head: tuple = ()
    if kind == "call":
        if not words:
            _fail(lineno, "call intent needs a function name")
        head, words = (("function", words[0]),), words[1:]
    params = head + tuple(_parse_kv(words, lineno).items())
    return Intent(actor, kind, tuple(sorted(params, key=lambda pair: pair[0])))


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario file into a Scenario.  The parser checks what the
    lines spell: keywords, arities, naturals, single-valued and ledger-only
    keywords, and missing lines.  ``scenario_problem`` judges the Scenario
    it builds, and its answer is reported at the line it names, or at no
    line for a CONFIG or SCHEDULE line the file lacks."""
    value: dict[str, object] = {}  # each SINGLE_VALUED keyword's value
    where: dict[str, list[int]] = {}  # each keyword's lines, in order
    policy_rules: dict[int, str] = {}
    actors: list[tuple[str, int]] = []
    intents: list[Intent] = []
    schedules: list[tuple] = []
    for lineno, keyword, args in _lines(text):
        if keyword in SINGLE_VALUED:
            if keyword in value:
                _fail(lineno, f"{keyword} given twice")
            value[keyword] = _single_value(keyword, args, lineno)
        elif keyword == "POLICY":
            if len(args) != 2 or args[1] not in RULES:
                _fail(lineno, f"POLICY takes a symbol and one of {RULES}")
            symbol = _nat(args[0], lineno, "symbol")
            if symbol in policy_rules:
                _fail(lineno, f"symbol {symbol} already has a policy")
            policy_rules[symbol] = args[1]
        elif keyword == "ACTOR":
            if len(args) != 2:
                _fail(lineno, "ACTOR takes a name and a key id")
            actors.append((args[0], _nat(args[1], lineno, "key id")))
        elif keyword == "INTENT":
            intents.append(_parse_intent(args, lineno))
        elif keyword == "SCHEDULE":
            schedules.append(parse_schedule(args, lineno))
        else:
            _fail(lineno, f"unknown keyword {keyword!r}")
        where.setdefault(keyword, []).append(lineno)

    ledger = value.get("LEDGER")
    if ledger is None:
        raise ParseError("scenario is missing a LEDGER line")
    if "SUPPLY" not in value or "PRICE" not in value:
        raise ParseError("scenario is missing SUPPLY or PRICE")
    for keyword, lines in where.items():
        owner = LEDGER_ONLY.get(keyword, (ledger,))[0]
        if owner != ledger:
            _fail(lines[0], f"{keyword} needs LEDGER {owner}")
    head = (ledger, tuple(actors), tuple(intents), tuple(schedules), value["SUPPLY"], value["PRICE"])
    if ledger == EUTXO:
        scenario = Scenario(
            *head, cfg=value.get("CONFIG"), policies=PolicyTable.of(policy_rules), rebuild="REBUILD" in value
        )
    elif "CONTRACT" not in value or "DEPLOYER" not in value:
        raise ParseError("account scenario is missing CONTRACT or DEPLOYER")
    else:
        scenario = Scenario(*head, contract=value["CONTRACT"], deployer=value["DEPLOYER"])
    problem = scenario_problem(scenario)
    if problem is not None:
        keyword, at, message = problem
        lines = where.get(keyword, [])
        _fail(lines[at] if at < len(lines) else None, message)
    return scenario


def scenario_to_text(scenario: Scenario) -> str:
    """Canonical text for a scenario; parse(scenario_to_text(s)) == s."""
    lines = [f"LEDGER {scenario.ledger}"]
    if scenario.ledger == EUTXO:
        cfg = scenario.cfg
        traded, state = chip_to_text(cfg.traded_chip), chip_to_text(cfg.state_chip)
        lines.append(f"CONFIG issuer={cfg.issuer} traded={traded} state={state}")
    else:
        lines.append(f"CONTRACT {scenario.contract}")
        lines.append(f"DEPLOYER {scenario.deployer}")
    lines.append(f"SUPPLY {scenario.supply}")
    lines.append(f"PRICE {scenario.price}")
    for policy in scenario.policies.policies:
        lines.append(f"POLICY {policy.symbol} {policy.rule}")
    if scenario.rebuild:
        lines.append("REBUILD")
    for name, key in scenario.actors:
        lines.append(f"ACTOR {name} {key}")
    for intent in scenario.intents:
        words = [intent.actor, intent.kind]
        if intent.kind == "call":
            words.append(intent.get("function"))
        words.extend(f"{k}={v}" for k, v in sorted(intent.params) if k != "function")
        lines.append("INTENT " + " ".join(words))
    for clause in scenario.schedules:
        if clause[0] == "all":
            lines.append("SCHEDULE all")
        elif clause[0] == "sample":
            lines.append(f"SCHEDULE sample {clause[1]} @{clause[2]}")
        else:
            lines.append("SCHEDULE " + ",".join(str(i) for i in clause[1]))
    return "\n".join(lines) + "\n"
