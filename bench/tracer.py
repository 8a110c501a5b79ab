"""Call tracing from outside ledgersim, for the per-layer metrics.

The layers are ledgersim's modules.  ``Tracer.install`` wraps every public
function of each layer (and the public methods of ``gen.ChainGen``) in a
span-recording wrapper.  Modules bind names with ``from .ledger import
append``, so the wrapper replaces the function in *every* ledgersim module
that holds it, not only in the module that defines it.  ``model``'s value
operations take well under a microsecond, where a span would cost more than
the call, so they are only counted; their time share is estimated afterwards
by replaying a sample of the recorded calls untraced.

Spans are kept in memory as four integer columns (parent, label, start ns,
end ns) and summarised when the traced pass ends; a layer's self time is its
span time minus that of its direct child spans.  ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import gzip
import inspect
import math
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYERS = ("model", "validators", "ledger", "policy", "equivalence", "gen", "token_portal", "accounts", "harness", "formats")
VALUE_OPS = ("of", "__add__", "subtract", "get", "symbol_total", "symbols")
VALIDATOR_KINDS = ("AcceptAll", "RejectAll", "PayToPubKey", "StateMachine")
CONDITIONS = (
    "duplicate-position",
    "dangling-or-forward-input",
    "validator-rejected",
    "slot-out-of-range",
    "policy-violation",
)
REFUSALS = ("PriceRefused", "InsufficientSupply", "NoPortalError")
SAMPLE_EVERY = 64
SAMPLE_CAP = 4_096


def _spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    rows = [("model.value_ops.calls", "count", "lower"), ("model.value_ops.share", "ratio", "lower")]
    rows += [(f"validators.run_validator.calls.{k}", "count", "lower") for k in VALIDATOR_KINDS]
    rows += [("validators.run_validator.self_s", "s", "lower")]
    rows += [("ledger.append.calls", "count", "lower"), ("ledger.append.self_s", "s", "lower")]
    rows += [(f"ledger.append.rejected.{c}", "count", "lower") for c in CONDITIONS]
    rows += [(f"ledger.append.us_at_len.{i}", "us", "lower") for i in (1, 2, 3)]
    rows += [("ledger.append.len_exponent", "exponent", "lower")]
    rows += [
        ("ledger.validate_chain.calls", "count", "lower"),
        ("ledger.validate_chain.self_s", "s", "lower"),
        ("ledger.validate_chain.tx_examined", "count", "lower"),
        ("ledger.utxo.calls", "count", "lower"),
        ("ledger.utxo.self_s", "s", "lower"),
        ("ledger.utxo.tx_scanned", "count", "lower"),
        ("ledger.classify.self_s", "s", "lower"),
        ("ledger.resolve_input.calls", "count", "lower"),
        ("ledger.resolve_input.self_s", "s", "lower"),
        ("ledger.schedule_extension.self_s", "s", "lower"),
        ("policy.policy_violation.calls", "count", "lower"),
        ("policy.policy_violation.self_s", "s", "lower"),
        ("policy.circulating.calls", "count", "lower"),
        ("policy.circulating.self_s", "s", "lower"),
        ("policy.forged.calls", "count", "lower"),
        ("equivalence.canonicalize.calls", "count", "lower"),
        ("equivalence.canonicalize.self_s", "s", "lower"),
        ("equivalence.canonical_renaming.self_s", "s", "lower"),
        ("equivalence.rename_positions.self_s", "s", "lower"),
        ("equivalence.obs_equiv.calls", "count", "lower"),
        ("equivalence.obs_equiv.self_s", "s", "lower"),
    ]
    rows += [
        (f"equivalence.{f}.self_s", "s", "lower")
        for f in ("spent_edges", "check_commute", "check_defer", "check_defer_slotted", "freshen_spent_clashes")
    ]
    rows += [
        ("gen.ChainGen.transaction.calls", "count", "lower"),
        ("gen.ChainGen.transaction.self_s", "s", "lower"),
        ("gen.ChainGen.transaction.incl_share", "ratio", "lower"),
        ("gen.spendable.calls", "count", "lower"),
        ("gen.spendable.self_s", "s", "lower"),
        ("gen.ChainGen.grow.self_s", "s", "lower"),
        ("gen.grow.len_exponent", "exponent", "lower"),
        ("token_portal.find_portal.calls", "count", "lower"),
        ("token_portal.find_portal.self_s", "s", "lower"),
        ("token_portal.build_buy_tx.self_s", "s", "lower"),
        ("token_portal.build_set_price_tx.self_s", "s", "lower"),
        ("token_portal.transition_check.calls", "count", "lower"),
        ("token_portal.transition_check.self_s", "s", "lower"),
        ("token_portal.refused", "count", "lower"),
        ("accounts.call.calls", "count", "lower"),
        ("accounts.call.self_s", "s", "lower"),
        ("accounts.call.guard_failed", "count", "lower"),
        ("harness.fuzz_theorem.self_s", "s", "lower"),
        ("harness.fuzz.attempts", "count", "lower"),
        ("harness.fuzz.hyp_accept_ratio", "ratio", "higher"),
        ("harness.minimize_instance.calls", "count", "lower"),
        ("harness.minimize_instance.self_s", "s", "lower"),
        ("harness.run_schedule.calls", "count", "lower"),
        ("harness.run_schedule.self_s", "s", "lower"),
        ("harness.run_schedule.accept_ratio", "ratio", "higher"),
        ("harness.expand_schedules.self_s", "s", "lower"),
        ("formats.parse_chain.self_s", "s", "lower"),
        ("formats.parse_transactions.self_s", "s", "lower"),
        ("formats.chain_to_text.calls", "count", "lower"),
        ("formats.chain_to_text.self_s", "s", "lower"),
        ("formats.transactions_to_text.self_s", "s", "lower"),
        ("runtime.gc.collections", "count", "lower"),
        ("runtime.gc.pause_s", "s", "lower"),
        ("runtime.tracing_overhead", "ratio", "lower"),
    ]
    return rows


PER_LAYER = _spec()


# Observers see (tracer, span index, args, result) after a call returns.
def _seen_validator(t, span, args, result):
    t.counts[f"validators.run_validator.calls.{args[0].kind}"] += 1


def _seen_append(t, span, args, result):
    t.sized["ledger.append"].append((span, len(args[0]), 1))
    violations = getattr(result, "violations", None)
    if violations:
        t.counts[f"ledger.append.rejected.{violations[0].condition}"] += 1


def _seen_validate(t, span, args, result):
    t.counts["ledger.validate_chain.tx_examined"] += len(args[0])


def _seen_utxo(t, span, args, result):
    t.counts["ledger.utxo.tx_scanned"] += len(args[0])


def _seen_grow(t, span, args, result):
    t.sized["gen.ChainGen.grow"].append((span, len(args[1]), args[2]))


def _seen_call(t, span, args, result):
    if not result[1].ok:
        t.counts["accounts.call.guard_failed"] += 1


def _seen_fuzz(t, span, args, result):
    t.counts["harness.fuzz.attempts"] += result.attempts
    t.counts["harness.fuzz.cases"] += result.cases


def _seen_schedule(t, span, args, result):
    t.counts["harness.run_schedule.statuses"] += len(result.statuses)
    t.counts["harness.run_schedule.accepted"] += sum(status == "accepted" for status, _ in result.statuses)


OBSERVERS = {
    "validators.run_validator": _seen_validator,
    "ledger.append": _seen_append,
    "ledger.validate_chain": _seen_validate,
    "ledger.utxo": _seen_utxo,
    "gen.ChainGen.grow": _seen_grow,
    "accounts.call": _seen_call,
    "harness.fuzz_theorem": _seen_fuzz,
    "harness.run_schedule": _seen_schedule,
}
REFUSING = ("token_portal.build_buy_tx", "token_portal.build_set_price_tx")


class Tracer:
    """Spans and counts for the calls into one set of ledgersim modules,
    between ``install`` and ``uninstall``."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules  # layer name -> module
        self.parents = array("q")
        self.labels = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.label_names: list[str] = []
        self.stack = [-1]
        self.active = [True]
        self.counts: Counter = Counter()
        self.sized: dict[str, list] = {"ledger.append": [], "gen.ChainGen.grow": []}
        self.value_calls: dict[str, list[int]] = {}
        self.value_samples: dict[str, list] = {}
        self.value_originals: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        package = [mod for name, mod in sys.modules.items() if name == "ledgersim" or name.startswith("ledgersim.")]
        for layer, mod in self.modules.items():
            if layer == "model":
                continue
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._span(f"{layer}.{name}", fn)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, attr, wrapper)
        chain_gen = self.modules["gen"].ChainGen
        for name, fn in list(vars(chain_gen).items()):
            if not name.startswith("_") and inspect.isfunction(fn):
                self._patch(chain_gen, name, self._span(f"gen.ChainGen.{name}", fn))
        model = self.modules["model"]
        for op in VALUE_OPS:
            raw = vars(model.Value)[op]
            if isinstance(raw, classmethod):
                self._patch(model.Value, op, classmethod(self._counter(op, raw.__func__)))
            else:
                self._patch(model.Value, op, self._counter(op, raw))
        singleton = model.singleton
        wrapper = self._counter("singleton", singleton)
        for holder in package:
            for attr, value in list(vars(holder).items()):
                if value is singleton:
                    self._patch(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch(self, holder, attr: str, replacement) -> None:
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, replacement)

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (used for output checks)."""
        self.active[0] = False
        try:
            yield
        finally:
            self.active[0] = True

    def _span(self, label: str, fn):
        index = len(self.label_names)
        self.label_names.append(label)
        parents, labels, starts, ends = self.parents, self.labels, self.starts, self.ends
        stack, active, now = self.stack, self.active, time.perf_counter_ns
        observe = OBSERVERS.get(label)
        refusing = label in REFUSING
        tracer = self

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            span = len(starts)
            parents.append(stack[-1])
            labels.append(index)
            ends.append(0)
            stack.append(span)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[span] = now()
                stack.pop()
                if refusing and type(exc).__name__ in REFUSALS:
                    tracer.counts["token_portal.refused"] += 1
                raise
            ends[span] = now()
            stack.pop()
            if observe is not None:
                observe(tracer, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, op: str, fn):
        calls = self.value_calls.setdefault(op, [0])
        samples = self.value_samples.setdefault(op, [])
        self.value_originals[op] = fn
        active = self.active

        def counted(*args, **kwargs):
            if active[0]:
                calls[0] += 1
                if not calls[0] % SAMPLE_EVERY and len(samples) < SAMPLE_CAP:
                    samples.append((args, kwargs))
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- summarising --------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans, gzipped, as tab-separated rows: id, parent id
        (-1 for none), label, start ns, end ns."""
        names = self.label_names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tlabel\tstart_ns\tend_ns\n")
            for i, (p, lab, s, e) in enumerate(zip(self.parents, self.labels, self.starts, self.ends)):
                out.write(f"{i}\t{p}\t{names[lab]}\t{s}\t{e}\n")

    def value_op_seconds(self) -> float:
        """Estimated time in the counted value operations: calls times the
        mean cost of replaying the sampled calls untraced."""
        total = 0.0
        for op, (calls,) in self.value_calls.items():
            samples = self.value_samples[op]
            if not calls or not samples:
                continue
            fn = self.value_originals[op]
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                for args, kwargs in samples:
                    fn(*args, **kwargs)
                best = min(best, time.perf_counter() - t0)
            total += calls * best / len(samples)
        return total

    def metrics(
        self, traced_s: float, untraced_s: float, overhead: float, gc_stats: tuple[int, float], scaling: dict | None
    ) -> dict:
        """Every per-layer metric of ``PER_LAYER``, from the recorded spans
        and counts.  ``traced_s``/``untraced_s`` are the timed seconds of the
        same rounds with and without tracing; ``overhead`` is their ratio at
        nominal machine speed."""
        n = len(self.starts)
        durations = array("q", (e - s for s, e in zip(self.starts, self.ends)))
        child = array("q", bytes(8 * n))
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += durations[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        names = self.label_names
        for i, lab in enumerate(self.labels):
            label = names[lab]
            calls[label] += 1
            self_ns[label] += durations[i] - child[i]
            incl_ns[label] += durations[i]

        out: dict[str, float] = {}
        for name, unit, _ in PER_LAYER:
            if name in self.counts:
                out[name] = self.counts[name]
            elif name.endswith(".calls"):
                out[name] = calls[name[: -len(".calls")]]
            elif name.endswith(".self_s"):
                out[name] = self_ns[name[: -len(".self_s")]] / 1e9
            elif unit == "count":
                out[name] = 0
        out["model.value_ops.calls"] = sum(c for (c,) in self.value_calls.values())
        out["model.value_ops.share"] = self.value_op_seconds() / untraced_s
        out["gen.ChainGen.transaction.incl_share"] = incl_ns["gen.ChainGen.transaction"] / 1e9 / traced_s
        attempts = self.counts["harness.fuzz.attempts"]
        out["harness.fuzz.hyp_accept_ratio"] = self.counts["harness.fuzz.cases"] / attempts if attempts else 0.0
        statuses = self.counts["harness.run_schedule.statuses"]
        out["harness.run_schedule.accept_ratio"] = (
            self.counts["harness.run_schedule.accepted"] / statuses if statuses else 0.0
        )
        per_op = self._per_op_us(scaling or {}, durations)
        for i, us in enumerate(per_op.get("ledger.append", (0.0, 0.0, 0.0)), start=1):
            out[f"ledger.append.us_at_len.{i}"] = us
        out["ledger.append.len_exponent"] = _exponent(scaling, "ledger.append", per_op)
        out["gen.grow.len_exponent"] = _exponent(scaling, "gen.ChainGen.grow", per_op)
        out["runtime.gc.collections"], out["runtime.gc.pause_s"] = gc_stats
        out["runtime.tracing_overhead"] = overhead
        return out

    def _per_op_us(self, scaling: dict, durations: array) -> dict[str, list[float]]:
        """Mean microseconds per operation at each scaling length: spans of
        the call whose chain argument has a length inside the window
        [length, length + count)."""
        result = {}
        for label, windows in scaling.items():
            per_length = []
            for length, count in windows:
                ns = ops = 0
                for span, size, steps in self.sized[label]:
                    if length <= size < length + count:
                        ns += durations[span]
                        ops += steps
                per_length.append(ns / ops / 1e3 if ops else 0.0)
            result[label] = per_length
        return result


def _exponent(scaling: dict | None, label: str, per_op: dict) -> float:
    """Least-squares slope of log(cost per operation) on log(chain length):
    0 is flat, 1 is linear per operation (quadratic to build a chain)."""
    if not scaling or label not in scaling:
        return 0.0
    xs = [math.log(length) for length, _ in scaling[label]]
    ys = [math.log(us) for us in per_op[label]]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
