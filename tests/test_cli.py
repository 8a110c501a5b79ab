"""Command-line exit codes and output stability."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ledgersim.cli import main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # input errors raise to carry exit code 2
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_valid_fixture(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "validate", str(corpus_dir / "figure-3-B.chain"))
    assert code == 0
    assert "valid" in out


def test_validate_swapped_fixture(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "validate", str(corpus_dir / "swapped.chain"))
    assert code == 1
    assert "dangling-or-forward-input" in out


def test_validate_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.chain"
    bad.write_text("TX zero\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2 and "line 1" in err


def test_validate_slots_out_of_order_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.chain"
    bad.write_text("TX 0 SLOT 5\nTX 1 SLOT 3\n")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2 and out == ""
    assert err == f"error: {bad}: line 2: slot 3 below the previous slot 5\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("TX 0 SLOT 1 SLOT 7\n", "line 1: SLOT given twice"),
        ("TX 0 SLOT 2 RANGE 0 5 RANGE 9 *\n", "line 1: RANGE given twice"),
        # a transaction's own error names its TX line, not the next one
        (
            "TX 0\nOUT 1 AcceptAll 0\nTX 1\nIN 1 0\nIN 1 3\nTX 2\nOUT 2 AcceptAll 0\n",
            "line 3: duplicate input positions within one transaction",
        ),
        # two identical lines are two claims on one position, not one line
        ("TX 0\nOUT 1 AcceptAll 0\nOUT 1 AcceptAll 0\n", "line 1: duplicate output positions within one transaction"),
        (
            "TX 0\nOUT 1 AcceptAll 0\nTX 1\nIN 1 0\nIN 1 0\n",
            "line 3: duplicate input positions within one transaction",
        ),
        # naturals are ASCII digits only
        ("TX 0\nOUT 1_0 AcceptAll 0\n", "line 2: position must be a natural number, got '1_0'"),
        ("TX 0 SLOT \u0663\nOUT 1 AcceptAll +0\n", "line 1: slot must be a natural number, got '\u0663'"),
    ],
    ids=[
        "second-slot",
        "second-range",
        "duplicate-input-mid-file",
        "identical-output-lines",
        "identical-input-lines",
        "underscore-position",
        "arabic-indic-slot",
    ],
)
def test_validate_refused_chain_exits_2(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.chain"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2 and out == ""
    assert err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("command", ["validate", "utxo", "classify", "scenario"])
def test_non_utf8_file_exits_2(capsys, tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xffTX 0\n")
    code, out, err = run_cli(capsys, command, str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


# A StateMachine output whose parameters name no portal: traded chip equal
# to the state chip, and a state chip that is ada.
@pytest.mark.parametrize("params", ["1 1 1 1 1", "1 1 1 0 0"])
def test_state_machine_without_portal_rejects_every_spend(capsys, tmp_path, params):
    chain = tmp_path / "locked.chain"
    chain.write_text(f"TX 0\nOUT 0 StateMachine {params} 0\nTX 1\nIN 0 2\n")
    code, out, err = run_cli(capsys, "validate", str(chain))
    assert code == 1
    assert out == "tx 1: validator-rejected (validator StateMachine rejected input at 0)\n"
    assert err == ""
    assert run_cli(capsys, "classify", str(chain)) == (0, "neither\n", "")


def test_classify_fixtures(capsys, corpus_dir):
    for name, expected in (
        ("figure-3-B.chain", "blockchain"),
        ("figure-4-chunk.chain", "chunk"),
        ("swapped.chain", "neither"),
    ):
        code, out, _ = run_cli(capsys, "classify", str(corpus_dir / name))
        assert code == 0 and out.strip() == expected


def test_utxo_lists_unspent(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "utxo", str(corpus_dir / "figure-3-B.chain"))
    assert code == 0
    positions = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert positions == [3, 7, 8, 9, 10, 11]


def test_equiv_obs_figures(capsys, corpus_dir):
    code, out, _ = run_cli(
        capsys, "equiv", str(corpus_dir / "figure-3-B.chain"), str(corpus_dir / "figure-6-Bprime.chain"), "--mode", "obs"
    )
    assert code == 0


def test_equiv_alpha_negative(capsys, corpus_dir):
    code, out, _ = run_cli(
        capsys,
        "equiv",
        str(corpus_dir / "figure-3-B.chain"),
        str(corpus_dir / "bprime-unspent-renamed.chain"),
        "--mode",
        "alpha",
    )
    assert code == 1
    assert "mismatch" in out


def test_equiv_self_both_modes(capsys, corpus_dir):
    for mode in ("obs", "alpha"):
        code, _, _ = run_cli(
            capsys, "equiv", str(corpus_dir / "figure-3-B.chain"), str(corpus_dir / "figure-3-B.chain"), "--mode", mode
        )
        assert code == 0


def test_equiv_obs_diff_printed(capsys, corpus_dir, tmp_path):
    shorter = tmp_path / "prefix.chain"
    shorter.write_text((corpus_dir / "figure-4-prefix.chain").read_text())
    code, out, _ = run_cli(capsys, "equiv", str(corpus_dir / "figure-3-B.chain"), str(shorter), "--mode", "obs")
    assert code == 1
    assert "<" in out and ">" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("other, expected", [("figure-3-B.chain", 0), ("figure-6-Bprime.chain", 1)])
def test_equiv_alpha_validates_each_chain_once(capsys, corpus_dir, checks, fmt, other, expected):
    """The checker walks each chain once, whether the pair matches or the
    mismatch is printed: every later validation reads the kept report."""
    from ledgersim import formats

    a, b = corpus_dir / "figure-3-B.chain", corpus_dir / other
    code, _, _ = run_cli(capsys, "equiv", str(a), str(b), "--mode", "alpha", "--format", fmt)
    assert code == expected
    walks = [list(range(len(formats.parse_chain(path.read_text())))) for path in (a, b)]
    assert checks == walks[0] + walks[1]


def test_equiv_json_output(capsys, corpus_dir):
    code, out, _ = run_cli(
        capsys,
        "equiv",
        str(corpus_dir / "figure-3-B.chain"),
        str(corpus_dir / "bprime-unspent-renamed.chain"),
        "--mode",
        "alpha",
        "--format",
        "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["equivalent"] is False and payload["first_mismatch"] is not None


# sha256 of (argv, exit code, stdout, stderr) of ``equiv`` over every
# ordered pair of the ten corpus chains, in both modes and both formats.
EQUIV_PIN = "616d2c42f4680bbc5ec2019e56182a3db879e1516ee232f2ccd1efa2d9a67d61"


def test_equiv_over_the_corpus_pinned(capsys, corpus_dir, monkeypatch):
    """Every verdict, mismatch listing and error of ``equiv`` on the corpus
    chains is fixed across versions.  Paths are read relative to the corpus
    so that the error lines do not depend on where it lies."""
    monkeypatch.chdir(corpus_dir)
    names = sorted(path.name for path in corpus_dir.glob("*.chain"))
    assert len(names) == 10
    digest = hashlib.sha256()
    for a in names:
        for b in names:
            for mode in ("obs", "alpha"):
                for fmt in ("text", "json"):
                    argv = ("equiv", a, b, "--mode", mode, "--format", fmt)
                    digest.update(repr((argv,) + run_cli(capsys, *argv)).encode())
    assert digest.hexdigest() == EQUIV_PIN


SLOTTED_PAIR = "TX 0 SLOT 1\nOUT 1 AcceptAll 0 0:0=1\nTX 1 SLOT {}\nIN 1 0\nOUT 2 AcceptAll 0 0:0=1\n"


@pytest.fixture
def slot_variants(tmp_path):
    """Two chains equal but for the second transaction's slot, and the same
    transactions unslotted."""
    paths = {}
    for name, text in (
        ("slot2", SLOTTED_PAIR.format(2)),
        ("slot3", SLOTTED_PAIR.format(3)),
        ("unslotted", SLOTTED_PAIR.format(2).replace(" SLOT 1", "").replace(" SLOT 2", "")),
    ):
        paths[name] = tmp_path / f"{name}.chain"
        paths[name].write_text(text)
    return paths


def test_equiv_alpha_slot_only_difference(capsys, slot_variants):
    """A difference in slots alone is a mismatch, shown by the SLOT of the
    first transaction whose slot differs."""
    code, out, err = run_cli(capsys, "equiv", str(slot_variants["slot2"]), str(slot_variants["slot3"]), "--mode", "alpha")
    assert (code, err) == (1, "")
    assert out == (
        "not alpha-equivalent\n"
        "first canonical mismatch at transaction 1:\n"
        "< TX 1 SLOT 2\n< IN 0 0\n< OUT 2 AcceptAll 0 0:0=1\n"
        "> TX 1 SLOT 3\n> IN 0 0\n> OUT 2 AcceptAll 0 0:0=1\n"
    )


def test_equiv_alpha_slot_only_difference_json(capsys, slot_variants):
    code, out, _ = run_cli(
        capsys, "equiv", str(slot_variants["slot2"]), str(slot_variants["slot3"]), "--mode", "alpha", "--format", "json"
    )
    assert code == 1
    assert json.loads(out) == {"mode": "alpha", "equivalent": False, "first_mismatch": 1}


def test_equiv_alpha_slotted_against_unslotted(capsys, slot_variants):
    """The same transactions with and without slots differ at the first one."""
    slotted, unslotted = str(slot_variants["slot2"]), str(slot_variants["unslotted"])
    code, out, _ = run_cli(capsys, "equiv", slotted, unslotted, "--mode", "alpha")
    assert code == 1
    assert out.splitlines()[1:4] == ["first canonical mismatch at transaction 0:", "< TX 0 SLOT 1", "< OUT 0 AcceptAll 0 0:0=1"]
    assert "> TX 0" in out.splitlines()
    code, out, _ = run_cli(capsys, "equiv", unslotted, slotted, "--mode", "alpha", "--format", "json")
    assert code == 1
    assert json.loads(out) == {"mode": "alpha", "equivalent": False, "first_mismatch": 0}


def test_validate_json_output(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "validate", str(corpus_dir / "swapped.chain"), "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "valid": False,
        "violations": [
            {"index": 0, "condition": "dangling-or-forward-input", "detail": "input at 2 resolves to no earlier output"}
        ],
    }


def test_utxo_json_output(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "utxo", str(corpus_dir / "figure-3-B.chain"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [entry["position"] for entry in payload] == [3, 7, 8, 9, 10, 11]
    assert payload[0] == {"position": 3, "validator": ["AcceptAll", []], "datum": 0, "value": {"0:0": 1}}


def test_classify_json_output(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "classify", str(corpus_dir / "figure-4-chunk.chain"), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"classification": "chunk"}


def test_equiv_obs_json_output(capsys, corpus_dir):
    figure_3 = str(corpus_dir / "figure-3-B.chain")
    code, out, _ = run_cli(
        capsys, "equiv", figure_3, str(corpus_dir / "figure-6-Bprime.chain"), "--mode", "obs", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"mode": "obs", "equivalent": True, "only_in_a": [], "only_in_b": []}
    code, out, _ = run_cli(
        capsys, "equiv", figure_3, str(corpus_dir / "figure-4-prefix.chain"), "--mode", "obs", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["equivalent"] is False
    assert payload["only_in_a"] == [f"OUT {p} AcceptAll 0 0:0=1" for p in (7, 8, 9, 10, 11)]
    assert payload["only_in_b"] == [f"OUT {p} AcceptAll 0 0:0=1" for p in (1, 4)]


def test_demo_race_json(capsys):
    code, out, _ = run_cli(capsys, "demo-race", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"eutxo", "account"}
    assert payload["eutxo"]["distinct"] == 2


def test_scenario_text_matches_golden(capsys, corpus_dir):
    """Every corpus scenario prints its golden file; race_account has its
    own test below."""
    paths = sorted(path for path in corpus_dir.glob("*.scenario") if path.stem != "race_account")
    assert paths
    for path in paths:
        golden = path.with_name(f"{path.stem}.golden.txt")
        assert golden.exists(), f"{path.name} has no golden file"
        code, out, _ = run_cli(capsys, "scenario", str(path))
        assert code == 0, path.name
        assert out == golden.read_text(), path.name


def test_scenario_account_golden(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "scenario", str(corpus_dir / "race_account.scenario"))
    assert code == 0
    assert out == (corpus_dir / "race_account.golden.txt").read_text()


def test_rebuild_witness_pays_by_order(capsys, corpus_dir):
    """Under REBUILD both intents land in both orders, and the buyer pays 100
    when the buy lands first and 300 when it is rebuilt after the price
    change: a landed intent no longer does what it was built to do."""
    code, out, _ = run_cli(capsys, "scenario", str(corpus_dir / "race_rebuild.scenario"), "--format", "json")
    assert code == 0
    outcomes = json.loads(out)["outcomes"]
    assert [o["statuses"] for o in outcomes] == [
        [["accepted", ""], ["accepted", "rebuilt-at-execute"]],
        [["accepted", "rebuilt-at-execute"], ["accepted", ""]],
    ]
    paid = {tuple(o["order"]): o["holdings"]["buyer"]["ada_paid"] for o in outcomes}
    assert paid == {(0, 1): 100, (1, 0): 300}


def test_scenario_schedule_override(capsys, corpus_dir):
    code, out, _ = run_cli(
        capsys, "scenario", str(corpus_dir / "race_eutxo.scenario"), "--schedule", "1,0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcomes"][0]["order"] == [1, 0]
    assert len(payload["outcomes"]) == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_scenario_schedule_flag_replaces_every_file_clause(capsys, corpus_dir, fmt):
    """race_four.scenario has two SCHEDULE lines; one --schedule flag runs
    its one order instead of both."""
    path = str(corpus_dir / "race_four.scenario")
    code, out, _ = run_cli(capsys, "scenario", path, "--schedule", "3,2,1,0", "--format", fmt)
    assert code == 0
    if fmt == "text":
        assert out.splitlines()[1] == "SCHEDULES 1"
    else:
        assert [o["order"] for o in json.loads(out)["outcomes"]] == [[3, 2, 1, 0]]


@pytest.mark.parametrize(
    "clause, refused_by",
    [
        pytest.param(clause, "--schedule", id=clause)
        for clause in ["sample -1 @5", "sample 2 @-1", "1,,0", "+1,-0", "0_0,1", "sample \u0663 @1"]
    ]
    + [pytest.param("sample 0 @1", "schedule 0", id="sample 0 @1")],
)
def test_scenario_bad_schedule_flag_exits_2(capsys, corpus_dir, clause, refused_by):
    """A flag the parser cannot read is refused as ``--schedule``; one it
    reads but ``formats.scenario_problem`` refuses, as the scenario's first
    schedule clause."""
    code, out, err = run_cli(capsys, "scenario", str(corpus_dir / "race_eutxo.scenario"), "--schedule", clause)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {refused_by}: ") and len(err.strip().splitlines()) == 1
    assert "line" not in err


def test_scenario_non_permutation_flag_exits_2(capsys, corpus_dir):
    code, out, err = run_cli(capsys, "scenario", str(corpus_dir / "race_eutxo.scenario"), "--schedule", "1,1")
    assert code == 2
    assert out == ""
    assert err == "error: schedule 0: schedule (1, 1) is not a permutation of 0..1\n"


def test_scenario_non_permutation_flag_refused_before_any_order(capsys, tmp_path, monkeypatch):
    """A bad override clause is refused up front, not after the orders of
    the clauses before it have run."""
    from ledgersim import harness

    runs = []
    monkeypatch.setattr(harness, "Run", lambda *args: runs.append(args))
    eight = tmp_path / "eight.scenario"
    eight.write_text(
        "LEDGER eutxo\nCONFIG issuer=1 traded=1:1 state=2:1\nSUPPLY 1000\nPRICE 1\nACTOR buyer 7\n"
        + "INTENT buyer buy n=1\n" * 8
        + "SCHEDULE all\n"
    )
    code, out, err = run_cli(capsys, "scenario", str(eight), "--schedule", "sample 20000 @1", "--schedule", "1,1")
    assert code == 2
    assert out == ""
    assert err == "error: schedule 1: schedule (1, 1) is not a permutation of 0..7\n"
    assert runs == []


def test_scenario_unknown_call_parameter_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text(
        "LEDGER account\nCONTRACT 1\nDEPLOYER issuer\nSUPPLY 5\nPRICE 1\nACTOR issuer 1\n"
        "INTENT issuer call setPrice p=3 bogus=4\nSCHEDULE all\n"
    )
    code, out, err = run_cli(capsys, "scenario", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: line 7: setPrice unknown ['bogus']\n"


@pytest.mark.parametrize("line", ["CONTRACT", "DEPLOYER", "SUPPLY", "PRICE", "SUPPLY 5 7"])
def test_scenario_keyword_without_one_argument_exits_2(capsys, tmp_path, line):
    bad = tmp_path / "bad.scenario"
    bad.write_text(f"LEDGER account\n{line}\nSCHEDULE all\n")
    code, out, err = run_cli(capsys, "scenario", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: line 2: {line.split()[0]} takes one argument\n"


EUTXO_HEAD = "LEDGER eutxo\nCONFIG issuer=1 traded=1:1 state=2:1\nSUPPLY 1000\nPRICE 1\nACTOR buyer 7\n"
ACCOUNT_HEAD = "LEDGER account\nCONTRACT 1\nDEPLOYER buyer\nSUPPLY 1000\nPRICE 1\nACTOR buyer 7\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (EUTXO_HEAD + "POLICY 2 AffineOnce\nPOLICY 2 FreeForge\n", "line 7: symbol 2 already has a policy"),
        (EUTXO_HEAD + "INTENT buyer buy n=5 n=7\n", "line 6: n given twice"),
        (ACCOUNT_HEAD + "INTENT buyer buy n=5\n", "line 7: buy intents need LEDGER eutxo"),
        (ACCOUNT_HEAD + "SUPPLY 5\n", "line 7: SUPPLY given twice"),
        (EUTXO_HEAD + "ACTOR buyer 8\n", "line 6: actor 'buyer' given twice"),
        (EUTXO_HEAD + "INTENT ghost buy n=1\n", "line 6: intent references unknown actor 'ghost'"),
        (ACCOUNT_HEAD.replace("DEPLOYER buyer", "DEPLOYER ghost"), "line 3: deployer 'ghost' is not an actor"),
        (ACCOUNT_HEAD + "REBUILD\n", "line 7: REBUILD needs LEDGER eutxo"),
        (ACCOUNT_HEAD + "POLICY 2 AffineOnce\n", "line 7: POLICY needs LEDGER eutxo"),
        (EUTXO_HEAD + "DEPLOYER nobody\n", "line 6: DEPLOYER needs LEDGER account"),
        (EUTXO_HEAD.replace("state=2:1", "state=2:1 isuer=5"), "line 2: CONFIG unknown ['isuer']"),
        (EUTXO_HEAD + "INTENT buyer buy n=1\nSCHEDULE 0,0\n", "line 7: schedule (0, 0) is not a permutation of 0..0"),
        (EUTXO_HEAD + "SCHEDULE sample 0 @1\n", "line 6: sample count must be at least 1"),
        (EUTXO_HEAD.replace("SUPPLY 1000", "SUPPLY 0"), "line 3: SUPPLY must be at least 1 on LEDGER eutxo"),
    ],
    ids=[
        "second-policy",
        "repeated-intent-key",
        "eutxo-intent-on-account",
        "second-supply",
        "second-actor",
        "unknown-actor",
        "unknown-deployer",
        "rebuild-on-account",
        "policy-on-account",
        "deployer-on-eutxo",
        "config-unknown-key",
        "explicit-not-permutation",
        "sample-zero",
        "eutxo-supply-zero",
    ],
)
def test_scenario_contradictory_lines_exit_2(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.scenario"
    bad.write_text(text + "SCHEDULE all\n")
    code, out, err = run_cli(capsys, "scenario", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: {message}\n"


def test_scenario_whose_genesis_breaks_a_policy_exits_2(capsys, tmp_path):
    """ForbidForge on the traded symbol forbids the genesis mint of the
    supply, so the portal cannot be set up."""
    bad = tmp_path / "bad.scenario"
    bad.write_text(EUTXO_HEAD + "POLICY 1 ForbidForge\nINTENT buyer buy n=1\nSCHEDULE all\n")
    code, out, err = run_cli(capsys, "scenario", str(bad))
    assert code == 2
    assert out == ""
    detail = "symbol 1 may not be forged or burned (delta +1000)"
    assert err == f"error: portal initialization rejected: tx 0: policy-violation ({detail})\n"


def test_scenario_all_on_nine_intents_exits_2(capsys, tmp_path):
    nine = tmp_path / "nine.scenario"
    nine.write_text(
        "LEDGER eutxo\nCONFIG issuer=1 traded=1:1 state=2:1\nSUPPLY 1000\nPRICE 1\nACTOR buyer 7\n"
        + "INTENT buyer buy n=1\n" * 9
        + "SCHEDULE all\n"
    )
    code, out, err = run_cli(capsys, "scenario", str(nine))
    assert code == 2
    assert out == ""
    assert err.startswith("error: schedules ask for more than 40320 orders") and len(err.splitlines()) == 1
    assert "sample" in err


def test_scenario_oversized_sample_flag_exits_2(capsys, corpus_dir):
    code, out, err = run_cli(
        capsys, "scenario", str(corpus_dir / "race_eutxo.scenario"), "--schedule", "sample 50000 @1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: schedules ask for more than 40320 orders") and len(err.splitlines()) == 1


def test_fuzz_proved_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--theorem", "lemma15_1", "--cases", "50", "--seed", "3")
    assert code == 0
    assert "counterexamples=0" in out


def test_fuzz_remark18_exit_zero_on_finding(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--theorem", "remark18", "--cases", "5", "--seed", "3")
    assert code == 0
    assert "COUNTEREXAMPLE" in out
    # counterexamples= counts the ones kept (at most 5); cases - passes counts the ones found
    code, out, _ = run_cli(capsys, "fuzz", "--theorem", "remark18", "--cases", "20", "--seed", "3")
    assert code == 0
    assert "cases=20 " in out and " passes=0 " in out and "counterexamples=5" in out


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_fuzz_nonpositive_cases_exits_2(capsys, cases):
    code, out, err = run_cli(capsys, "fuzz", "--theorem", "theorem17", "--cases", cases)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "flag,value", [("--cases", "1_000"), ("--cases", "+1"), ("--cases", "\u0663"), ("--seed", "+1_0"), ("--seed", "-4")]
)
def test_fuzz_reads_naturals_as_the_file_formats_do(capsys, flag, value):
    """``--cases`` and ``--seed`` take ASCII digits only: underscores, signs
    and other scripts' digits exit 2 before any case runs."""
    argv = ["fuzz", "--theorem", "lemma15_1", "--cases", "3", "--seed", "1"]
    argv[argv.index(flag) + 1] = value
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be a natural number, got {value!r}\n"


def test_fuzz_reruns_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "fuzz", "--theorem", "theorem17", "--cases", "60", "--seed", "9")
    _, out2, _ = run_cli(capsys, "fuzz", "--theorem", "theorem17", "--cases", "60", "--seed", "9")
    assert out1 == out2
    _, json1, _ = run_cli(capsys, "fuzz", "--theorem", "theorem17", "--cases", "60", "--seed", "9", "--format", "json")
    _, json2, _ = run_cli(capsys, "fuzz", "--theorem", "theorem17", "--cases", "60", "--seed", "9", "--format", "json")
    assert json1 == json2


def test_scenario_reruns_byte_identical(capsys, corpus_dir):
    _, out1, _ = run_cli(capsys, "scenario", str(corpus_dir / "race_account.scenario"), "--format", "json")
    _, out2, _ = run_cli(capsys, "scenario", str(corpus_dir / "race_account.scenario"), "--format", "json")
    assert out1 == out2


def test_demo_race(capsys):
    code, out, _ = run_cli(capsys, "demo-race")
    assert code == 0
    assert "=== eutxo ===" in out and "=== account ===" in out


# One corpus input per command; each is run in both formats.
EVERY_COMMAND = [
    ("validate", "swapped.chain"),
    ("utxo", "figure-3-B.chain"),
    ("classify", "figure-4-chunk.chain"),
    ("equiv", "figure-3-B.chain", "figure-4-prefix.chain"),
    ("scenario", "race_eutxo.scenario"),
    ("fuzz", "--theorem", "remark18", "--cases", "5"),
    ("demo-race",),
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=[argv[0] for argv in EVERY_COMMAND])
def test_every_command_prints_one_layout(capsys, corpus_dir, monkeypatch, argv):
    """JSON is printed indented by 2 with sorted keys, and text ends its
    last line."""
    monkeypatch.chdir(corpus_dir)
    _, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    _, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert out == "" or out.endswith("\n")


INVALID_SWAPPED = (
    "swapped.chain is not a valid chain: tx 0: dangling-or-forward-input (input at 2 resolves to no earlier output)"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("validate", "nope.chain"), "[Errno 2] No such file or directory: 'nope.chain'", id="missing-chain"
        ),
        pytest.param(
            ("validate", "{tmp}/nope.chain"),
            "[Errno 2] No such file or directory: '{tmp}/nope.chain'",
            id="missing-chain-absolute",
        ),
        pytest.param(
            ("scenario", "nope.scenario"), "[Errno 2] No such file or directory: 'nope.scenario'", id="missing-scenario"
        ),
        pytest.param(
            ("equiv", "figure-3-B.chain", "nope.chain"),
            "[Errno 2] No such file or directory: 'nope.chain'",
            id="missing-second-chain",
        ),
        pytest.param(
            ("equiv", "figure-3-B.chain", "{tmp}/bad.chain"),
            "{tmp}/bad.chain: line 1: transaction index must be a natural number, got 'zero'",
            id="bad-second-chain",
        ),
        pytest.param(("equiv", "swapped.chain", "figure-3-B.chain"), INVALID_SWAPPED, id="invalid-chain"),
        pytest.param(
            ("equiv", "swapped.chain", "figure-3-B.chain", "--mode", "obs"), INVALID_SWAPPED, id="invalid-chain-obs"
        ),
        pytest.param(
            ("equiv", "figure-3-B.chain", "swapped.chain", "--mode", "alpha", "--format", "json"),
            INVALID_SWAPPED,
            id="invalid-chain-alpha",
        ),
        pytest.param(
            ("scenario", "{tmp}/bad.scenario"),
            "{tmp}/bad.scenario: line 1: LEDGER must be 'eutxo' or 'account'",
            id="bad-scenario",
        ),
    ],
)
def test_refused_input_is_one_error_line(capsys, corpus_dir, tmp_path, monkeypatch, argv, message):
    """Every refusal exits 2 with nothing on stdout and one ``error:`` line
    on stderr.  The other refusal sites have tests of their own above:
    chain parse errors, non-UTF-8 files, ``--schedule``, a scenario that
    ``run_scenario`` refuses, and ``--cases``/``--seed``."""
    (tmp_path / "bad.chain").write_text("TX zero\n")
    (tmp_path / "bad.scenario").write_text("LEDGER martian\n")
    monkeypatch.chdir(corpus_dir)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message.format(tmp=tmp_path)}\n")


def test_closed_pipe_keeps_the_exit_code(corpus_dir):
    """A reader that stops early, as ``| head`` does, gets the command's own
    exit code and no traceback."""
    argv = ["scenario", str(corpus_dir / "race_four.scenario"), "--schedule", "sample 2000 @1", "--format", "json"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    run = [sys.executable, "-m", "ledgersim.cli", *argv]
    with subprocess.Popen(run, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b'{\n  "disti'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
    assert err == ""  # no traceback
