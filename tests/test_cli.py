import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hnnkit import calculus, tree
from hnnkit.cli import main

# the CLI calls the benchmark records, with their exit codes and stdout
GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "cli_golden.json"
GOLDEN_CALLS = json.loads(GOLDEN.read_text())["calls"]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_reduce(capsys):
    code, out, _ = run(capsys, "--m", "2", "--n", "3", "reduce", "a^-1 b^3 a")
    assert code == 0
    assert out == "b^2\n"


def test_icc_not_icc_text(capsys):
    code, out, _ = run(capsys, "--m", "2", "--n", "2", "icc")
    assert code == 0
    assert out == "NOT_ICC witness: b^2\n"


def test_domj(capsys):
    code, out, _ = run(capsys, "--m", "2", "--n", "3", "domj", "--j", "2")
    assert code == 0
    assert out == "9\n"


def test_normal_and_len(capsys):
    _, out, _ = run(capsys, "--m", "2", "--n", "3", "normal", "b a b^5")
    assert out == "b^7 a b\n"
    _, out, _ = run(capsys, "--m", "2", "--n", "3", "len", "a^-1 b a")
    assert out == "2\n"


def test_eq(capsys):
    _, out, _ = run(capsys, "--m", "2", "--n", "3", "eq", "a b^2 a^-1", "b^3")
    assert out == "true\n"
    _, out, _ = run(capsys, "--m", "2", "--n", "3", "eq", "b", "b^2")
    assert out == "false\n"


def test_orbit_sorted(capsys):
    _, out, _ = run(capsys, "--m", "2", "--n", "-2", "orbit", "b^2", "--radius", "2")
    assert out == "b^-2\nb^2\n"


def test_folner_with_ratio(capsys):
    _, out, _ = run(capsys, "--m", "2", "--n", "3", "folner", "--k", "10", "--gamma", "a")
    lines = out.strip().splitlines()
    assert lines[0].startswith("exponents: ")
    assert len(lines[0].split()) == 12
    assert lines[1] == "ratio: 2/9"


def test_classify_and_fixed(capsys):
    _, out, _ = run(capsys, "--m", "2", "--n", "3", "classify", "a")
    assert out == "HYPERBOLIC translation_length=1\n"
    _, out, _ = run(capsys, "--m", "2", "--n", "3", "classify", "b^3")
    assert out == "ELLIPTIC fixes 1\n"
    _, out, _ = run(capsys, "--m", "2", "--n", "3", "fixed", "b", "--radius", "1")
    assert out == "1\ntouches_boundary: false\n"


def test_huge_stable_exponent_is_refused(capsys):
    code, out, err = run(capsys, "--m", "2", "--n", "3", "len", "a^10000000000000000000")
    assert (code, out) == (1, "")
    assert err == "error: more than 1000000 stable letters (at position 2)\n"


def test_icc_past_the_dimension_limit_is_refused(capsys, monkeypatch):
    # only the root-of-unity test is refused: the word calculus over the
    # same oracle still answers
    monkeypatch.setitem(calculus._LIMITS, "dimensions", 3)
    matrix = "2,1,0,0;0,2,1,0;0,0,2,1;0,0,0,2"
    assert run(capsys, "--matrix", matrix, "icc") == (
        1, "", "error: the root-of-unity test of a matrix of more than 3 dimensions\n")
    assert run(capsys, "--matrix", matrix, "normal", "t e1^2 t^-1") == (0, "e1\n", "")
    monkeypatch.setitem(calculus._LIMITS, "dimensions", 4)
    assert run(capsys, "--matrix", matrix, "icc") == (0, "ICC\n", "")


@pytest.mark.parametrize(
    "argv",
    [("normal", "a^2200 b a^-2200"), ("domj", "--j", "2200"), ("--json", "domj", "--j", "2200")],
    ids=["normal", "domj", "json domj"],
)
def test_integer_past_the_str_digit_limit_is_refused(argv):
    # b^(2^2200) and the generator of Dom phi^2200 in BS(1,2) have 663
    # digits, more than Python's int-to-str limit of 640 set by -X
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "hnnkit.cli", "--m", "1", "--n", "2", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=30,
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "error: an integer of more than 640 digits\n"


def test_domj_past_the_str_digit_limit_is_refused_before_it_is_built(capsys):
    # 3^(10^9) has 477,121,255 digits; the bound from bit lengths refuses it
    # without building it, in the line str() would have led to
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, "--m", "2", "--n", "3", "domj", "--j", str(10**9))
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (1, "", "error: an integer of more than 4300 digits\n")
        # 3^10000 has 4772 digits: refused by str(), not by the bound
        assert run(capsys, "--m", "2", "--n", "3", "domj", "--j", "10000") == (1, "", err)
        sys.set_int_max_str_digits(0)
        assert run(capsys, "--m", "2", "--n", "3", "domj", "--j", "10000") == (0, f"{3**10000}\n", "")
    finally:
        sys.set_int_max_str_digits(saved)


def test_witness_unbounded(capsys):
    _, out, _ = run(capsys, "--m", "4", "--n", "2", "witness-unbounded")
    lines = out.strip().splitlines()
    assert lines[0] == "gamma: b^2"
    assert lines[1:4] == ["1", "a", "a^2"]


def test_escape(capsys):
    _, out, _ = run(capsys, "--m", "2", "--n", "3", "escape", "b^3", "--max", "10")
    assert out == "2\n"


def test_escape_large_max_returns_at_once():
    # b^3 leaves the base group for good at step 2 and a never enters it, so
    # the scan stops there instead of running to 10^7
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "hnnkit.cli", "--m", "2", "--n", "3",
         "escape", "b^3", "a", "--max", "10000000"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=30,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "2\n", "")


def test_escape_hypothesis_violation_exit_2(capsys):
    code, _, err = run(capsys, "--m", "4", "--n", "2", "escape", "b^2", "--max", "5")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_escape_nonpositive_max_exit_1(capsys):
    code, out, err = run(capsys, "--m", "2", "--n", "3", "escape", "b", "--max", "0")
    assert code == 1 and out == ""
    assert err == "error: n_max must be >= 1\n"


def test_memory_error_exit_1(capsys, monkeypatch):
    # a request that exhausts memory ends with one line on stderr, not a
    # traceback; the subcommand is patched to raise, so nothing large is built
    def exhausted(gamma):
        raise MemoryError

    monkeypatch.setattr(tree, "classify", exhausted)
    code, out, err = run(capsys, "--m", "2", "--n", "3", "classify", "a b")
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "--m", "2", "--n", "3", "reduce", "c")
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_non_ascii_exponent_exit_1(capsys):
    code, out, err = run(capsys, "--m", "2", "--n", "3", "reduce", "b^\u00b2")
    assert code == 1 and out == ""
    assert err == "error: expected an integer exponent after '^' (at position 2)\n"


def test_missing_group_exit_1(capsys):
    code, _, err = run(capsys, "reduce", "b")
    assert code == 1
    assert "group" in err


def test_bad_flag_exit_1(capsys):
    code, _, err = run(capsys, "--m", "x", "--n", "3", "reduce", "b")
    assert code == 1
    assert err.count("\n") == 1


def test_zd_mode(capsys):
    _, out, _ = run(capsys, "--matrix", "2,1;1,1", "reduce", "t^-1 e1 e2 t")
    assert out == "e1^3 e2^2\n"
    code, out, _ = run(capsys, "--matrix", "0,-1;1,1", "icc")
    assert code == 0 and out.startswith("NOT_ICC witness: ")


def test_zd_rejects_bs_only_commands(capsys):
    for argv in [["domj", "--j", "2"], ["witness-unbounded"], ["escape", "e1", "--max", "3"]]:
        code, out, err = run(capsys, "--matrix", "2,1;1,1", *argv)
        assert (code, out, err) == (1, "", f"error: {argv[0]} is available in BS mode only\n")


def test_json_round_trips(capsys):
    # exact stdout, so the key order, part of the output bytes, is pinned
    bs23 = ["--m", "2", "--n", "3", "--json"]
    cases = [
        (bs23 + ["reduce", "a^-1 b^3 a"], '{"word": "b^2"}'),
        (bs23 + ["normal", "b a b^5"], '{"word": "b^7 a b"}'),
        (bs23 + ["eq", "b", "b"], '{"equal": true}'),
        (bs23 + ["len", "a"], '{"length": 1}'),
        (["--m", "2", "--n", "2", "--json", "icc"], '{"status": "NOT_ICC", "witness": ["b^2"], "evidence": null}'),
        (bs23 + ["icc"], '{"status": "ICC", "witness": null, "evidence": null}'),
        (["--m", "2", "--n", "-2", "--json", "orbit", "b^2", "--radius", "2"], '{"radius": 2, "orbit": ["b^-2", "b^2"]}'),
        (
            bs23 + ["fixed", "b^3", "--radius", "1"],
            '{"radius": 1, "fixed": ["1", "a", "b a", "b^2 a"], "touches_boundary": true}',
        ),
        (bs23 + ["classify", "a b a^-1"], '{"kind": "ELLIPTIC", "fixed_vertex": "a"}'),
        (
            ["--m", "4", "--n", "2", "--json", "witness-unbounded"],
            '{"gamma": "b^2", "family": ["1", "a", "a^2", "a^3", "a^4", "a^5"]}',
        ),
        (
            bs23 + ["folner", "--k", "3", "--gamma", "a"],
            '{"k": 3, "exponents": [162, 108, 72, 48], "gamma": "a", "ratio": "1/1"}',
        ),
        (bs23 + ["domj", "--j", "2"], '{"generator": 9}'),
        (bs23 + ["escape", "b", "--max", "6"], '{"exponent": 1}'),
    ]
    for argv, expected in cases:
        assert run(capsys, *argv) == (0, expected + "\n", ""), argv
    # an exponent of 2^2201 has 663 digits: refused under --json too, before
    # anything is printed
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run(capsys, "--m", "1", "--n", "2", "--json", "folner", "--k", "2200") == (
            1, "", "error: an integer of more than 640 digits\n"
        )
    finally:
        sys.set_int_max_str_digits(saved)


def test_json_folner_ratio(capsys):
    code = main(["--m", "2", "--n", "3", "--json", "folner", "--k", "10", "--gamma", "a"])
    out, _ = capsys.readouterr()
    data = json.loads(out)
    assert code == 0
    assert data["k"] == 10
    assert data["ratio"] == "2/9"
    assert data["exponents"][0] == 2 * 3**11


def test_tree_dot_output(capsys):
    code, out, _ = run(capsys, "--m", "2", "--n", "3", "tree-dot", "--radius", "1")
    assert code == 0
    assert out.startswith("digraph")
    assert '"a^-1" -> "1";' in out


def test_byte_identical_repeat_runs(capsys):
    argv = ["--m", "2", "--n", "3", "orbit", "b^3", "--radius", "3"]
    main(argv)
    first, _ = capsys.readouterr()
    main(argv)
    second, _ = capsys.readouterr()
    assert first == second
    argv = ["--m", "2", "--n", "3", "tree-dot", "--radius", "2", "--gamma", "b^3"]
    main(argv)
    first, _ = capsys.readouterr()
    main(argv)
    second, _ = capsys.readouterr()
    assert first == second


@pytest.mark.parametrize("index", range(len(GOLDEN_CALLS)))
def test_recorded_golden_output(capsys, index):
    call = GOLDEN_CALLS[index]
    code, out, _ = run(capsys, *call["args"])
    assert (code, out) == (call["exit"], call["stdout"])
