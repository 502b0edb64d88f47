import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetl import ONE, Q, affine, parse_element, parse_scalar
from affinetl.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariant_values(capsys):
    code, out, _ = run(capsys, "invariant", "--gens", "2", "s1 s1 s1")
    assert code == 0
    assert out.strip() == "-v^8+v^6+v^2"
    code, out, _ = run(capsys, "invariant", "--gens", "2", "")
    assert code == 0
    assert out.strip() == "(-v^2-1)/(v)"
    code, out, _ = run(capsys, "invariant", "--gens", "2", "a a^-1")
    assert out.strip() == "(-v^2-1)/(v)"


def test_invariant_json_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "invariant", "--gens", "2", "--format", "json", "s1 s1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"input": "s1 s1", "gens": 2, "invariant": "-v^5-v"}
    from affinetl import ONE, Q, V

    assert parse_scalar(payload["invariant"]) == -V * (ONE + Q ** 2)
    f = tmp_path / "words.txt"
    f.write_text("s1\na\n")
    code, out, _ = run(capsys, "invariant", "--gens", "2", "--file", str(f))
    assert code == 0
    assert out.splitlines() == ["1", "1"]


def test_invariant_jobs_flag(capsys, tmp_path):
    f = tmp_path / "words.txt"
    f.write_text("s1\ns1 s1\ns1 s1 s1\n")
    code, out, _ = run(capsys, "invariant", "--gens", "2", "--jobs", "2", "--file", str(f))
    assert code == 0
    assert out.splitlines() == ["1", "-v^5-v", "-v^8+v^6+v^2"]


def test_trace_prints_a_coefficient_of_any_size(capsys):
    # (10^4000 - 1)^3 has 12,000 digits; str() refuses more than 4,300
    code, out, _ = run(capsys, "trace", "--gens", "3", "--type", "affine",
                       f"({'9' * 4000}^3)*[s1]")
    assert code == 0
    assert out.strip() == "9" * 3999 + "7" + "0" * 3999 + "2" + "9" * 4000


def test_multiply_example(capsys):
    code, out, _ = run(
        capsys, "multiply", "--gens", "3", "[s2 s1 a][s2 s1 a]", "[s1 s2 a]"
    )
    assert code == 0
    d3 = parse_scalar("(q/(1+q)^2)^3")
    assert out.strip() == f"({d3})*[s2 s1 a]"


def test_multiply_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "multiply",
        "--gens",
        "3",
        "--format",
        "json",
        "(-1/q)*[s1 a s2] + (1/(1+q))*[s1 s2]",
        "[]",
    )
    assert code == 0
    payload = json.loads(out)
    from affinetl import element_from_json

    x = element_from_json(payload["terms"], affine(3))
    assert x == parse_element("(-1/q)*[s1 a s2] + (1/(1+q))*[s1 s2]", affine(3))


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "--gens", "3", "s1 s2 s1")
    assert code == 0
    assert out.strip() == "v^2/(v^4+2*v^2+1) * [s1]"
    code, out, _ = run(capsys, "reduce", "--gens", "3", "s1 a")
    assert code == 0
    assert out.strip() == "[s1 a]"
    code, out, _ = run(capsys, "reduce", "--gens", "3", "--type", "classical", "s3 s1")
    assert code == 0
    assert out.strip() == "[s1 s3]"


def test_enumerate(capsys):
    code, out, _ = run(
        capsys, "enumerate-fc", "--gens", "3", "--type", "affine", "--max-len", "2"
    )
    assert code == 0
    assert len(out.splitlines()) == 10
    code, out, _ = run(
        capsys, "enumerate-fc", "--gens", "3", "--type", "classical",
        "--max-len", "6", "--format", "json",
    )
    assert len(json.loads(out)) == 14


def test_trace_command(capsys):
    code, out, _ = run(capsys, "trace", "--gens", "3", "--type", "affine", "[]")
    assert code == 0
    assert out.strip() == "(v^4+2*v^2+1)/(v^2)"
    code, out, _ = run(capsys, "trace", "--gens", "2", "--type", "classical", "[s1 s2]")
    assert code == 0


def test_printed_zero_reads_back(capsys):
    # multiply prints the zero element as 0, and multiply and trace read it back
    assert run(capsys, "multiply", "--gens", "3", "[s1] - [s1]") == (0, "0\n", "")
    assert run(capsys, "multiply", "--gens", "3", "0", "[s1]") == (0, "0\n", "")
    assert run(capsys, "trace", "--gens", "3", " 0 ") == (0, "0\n", "")


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "invariant", "--gens", "2", "s9")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "trace", "--gens", "3", "[s1 s1]")
    assert code == 2
    code, _, err = run(capsys, "reduce", "--gens", "2", "bogus")
    assert code == 2


def test_internal_fault_exits_3(capsys, monkeypatch):
    # InexactDivision means a bug, not bad input
    from affinetl import cli
    from affinetl.errors import InexactDivision

    def fault(b):
        raise InexactDivision("inexact polynomial division")

    monkeypatch.setattr(cli, "invariant", fault)
    code, out, err = run(capsys, "invariant", "--gens", "3", "s1")
    assert (code, out, err) == (3, "", "internal error: inexact polynomial division\n")

    def bad_input(b):
        raise ValueError("bad input")

    monkeypatch.setattr(cli, "invariant", bad_input)
    assert run(capsys, "invariant", "--gens", "3", "s1")[0] == 2


# tokens of braid and basis words and of elements, and junk to mix in
FUZZ_WORD = ("s1", "s2", "s3", "a", "s1^-1", "a'", "s2'")
FUZZ_ELEMENT = ("+ (1+q)*[s1 a]", "- [s2 s1]", "+ 1/(1+v)*[]", "- v*[s3]", "+ [s1][s2 a]",
                "+ 1+q*[s2]", "- - -[s1]")
FUZZ_JUNK = ("s9", "^-1", "'", "[", "]", "*", "^", "2", "/", "(", ")", "x", "(1+q)", "1/(1+v)",
             "+", "-", "- -", "*[")
FUZZ_COMMANDS = ((("invariant",), FUZZ_WORD), (("reduce",), FUZZ_WORD),
                 (("trace", "--type", "affine"), FUZZ_ELEMENT),
                 (("trace", "--type", "classical"), FUZZ_ELEMENT),
                 (("multiply", "--basis", "f"), FUZZ_ELEMENT),
                 (("multiply", "--basis", "g"), FUZZ_ELEMENT))


@given(st.data())
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_fuzzed_input_exits_0_or_2(data):
    command, grammar = data.draw(st.sampled_from(FUZZ_COMMANDS))
    gens = data.draw(st.integers(2, 4))
    tokens = data.draw(st.lists(st.sampled_from(grammar), max_size=6))
    for junk in data.draw(st.lists(st.sampled_from(FUZZ_JUNK), max_size=2)):
        tokens.insert(data.draw(st.integers(0, len(tokens))), junk)
    # the text follows "--", so a leading "-" is not read as an option
    argv = [*command, "--gens", str(gens), "--", " ".join(tokens)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2), argv


def test_unreadable_file_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "invariant", "--gens", "2", "--file", str(tmp_path / "missing"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "missing" in err


# a 64-letter basis word of affine(3), at the cap, and one letter past it
W64 = "[" + " ".join(["s1 s2 a"] * 21 + ["s1"]) + "]"
W65 = W64[:-1] + " s2]"


def test_multiply_caps_juxtaposed_factors(capsys):
    # the cap holds on each reduced product, the same in both orders
    for argv in ([W64 + "[s2]"], [W64, "[s2]"], ["[a]" + W64], ["[a]", W64]):
        code, out, err = run(capsys, "multiply", "--gens", "3", *argv)
        assert code == 2 and out == ""
        assert "word of length 65 exceeds cap 64" in err
    for argv in ([W64 + "[s1]"], [W64, "[s1]"], ["[s1]" + W64], ["[s1]", W64]):
        assert run(capsys, "multiply", "--gens", "3", *argv) == (0, W64 + "\n", "")


@pytest.mark.parametrize("argv", [
    ["enumerate-fc", "--gens", "3", "--max-len", "-1"],
    ["enumerate-fc", "--max-len=-7", "--gens", "3"],
    ["enumerate-fc", "--gens", "4", "--type", "affine", "--max-len", "-1"],
])
def test_negative_max_len_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --max-len" in capsys.readouterr().err


def test_multiply_caps_input_words(capsys):
    for argv in ([W65, "[]"], [W65], ["[s1] + " + W65], ["[]", W65]):
        code, out, err = run(capsys, "multiply", "--gens", "3", *argv)
        assert code == 2 and out == ""
        assert "word of length 65 exceeds cap 64" in err
    assert run(capsys, "multiply", "--gens", "3", W64, "[]") == (0, W64 + "\n", "")


def test_trace_caps_input_words(capsys):
    # the 600-letter word used to exhaust the recursion of the E image
    long = "[" + " ".join(["s1 s2 a"] * 200) + "]"
    for word, n in ((W65, 65), (long, 600)):
        code, out, err = run(capsys, "trace", "--gens", "3", word)
        assert code == 2 and out == ""
        assert err == f"error: word of length {n} exceeds cap 64\n"
    assert run(capsys, "trace", "--gens", "3", W64) == (
        0, str(-ONE / (ONE + Q) ** 63) + "\n", "")


def test_juxtaposition_binds_tighter_than_sum(capsys):
    for text, want in (("[s1][s2] + [a]", "[a] + [s1 s2]"),
                       ("[s1]-[s1][s2]", "[s1] + (-1)*[s1 s2]"),
                       ("[s1] + -[s2]", "[s1] + (-1)*[s2]")):
        assert run(capsys, "multiply", "--gens", "3", "--", text) == (0, want + "\n", "")
    # so does "*": a sum before "*[" is a parse error, and every position
    # counts from the start of the whole element text
    for text, err in (("1+q*[s1]", "expected '*' (at position 1)"),
                      ("q-1*[s1]", "expected '*' (at position 1)"),
                      ("[s2] - 1+q*[s1]", "expected '*' (at position 8)"),
                      ("2*[s1] + (q+)*[s2]", "expected a value (at position 12)"),
                      ("-(q+)*[s1]", "expected a value (at position 4)")):
        for command in ("multiply", "trace"):
            assert run(capsys, command, "--gens", "3", "--", text) == (2, "", f"error: {err}\n")


def test_multiply_json_follows_the_basis(capsys, monkeypatch):
    from affinetl import TLElement, algebra, element_from_json, from_g_word, multiply

    conversions = []
    to_g_basis = algebra.to_g_basis
    monkeypatch.setattr(algebra, "to_g_basis", lambda x: conversions.append(x) or to_g_basis(x))
    g3 = affine(3)
    factors = ("[s1]", "(1/(1+q))*[s2 a] - q*[s1 s2]")
    for basis in ("f", "g"):
        head = ("multiply", "--gens", "3", "--basis", basis)
        code, text, _ = run(capsys, *head, *factors)
        code_json, out, _ = run(capsys, *head, "--format", "json", *factors)
        assert code == code_json == 0
        payload = json.loads(out)
        assert payload["basis"] == basis
        # the JSON terms are those of the text form, coefficient for coefficient
        parts = ["[" + " ".join(t["word"]) + "]" for t in payload["terms"]]
        assert text == " + ".join(p if t["coeff"] == "1" else f"({t['coeff']})*{p}"
                                  for t, p in zip(payload["terms"], parts)) + "\n"
        # and they give back the product in their basis
        product = multiply(*(parse_element(x, g3) for x in factors))
        if basis == "f":
            assert element_from_json(payload["terms"], g3) == product
        else:
            assert len(payload["terms"]) > 1
            got = sum((from_g_word(g3, tuple(map(g3.parse_letter, t["word"])))
                       .scale(parse_scalar(t["coeff"])) for t in payload["terms"]),
                      TLElement.zero(g3))
            assert got == product
    assert len(conversions) == 2  # one per g-basis command


def test_input_over_the_cap_is_a_usage_error(capsys, monkeypatch, tmp_path):
    from affinetl.cli import MAX_INPUT_CHARS

    pad = " " * (MAX_INPUT_CHARS - 2)  # with "s1" exactly at the cap
    f = tmp_path / "words.txt"
    f.write_text(f"s1\n{pad} s1\n")
    over = (["invariant", "--gens", "2", pad + " s1"],
            ["invariant", "--gens", "2", "--file", str(f)],
            ["trace", "--gens", "3", pad + "[s1]"],
            ["multiply", "--gens", "3", "[s1]", pad + "[s1]"],
            ["reduce", "--gens", "3", pad + " s1"])
    for argv in over:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"is over the cap of {MAX_INPUT_CHARS}" in err, argv
    monkeypatch.setattr(sys, "stdin", io.StringIO(pad + " s1\n"))
    code, out, err = run(capsys, "invariant", "--gens", "2")
    assert code == 2 and "line 1: input of 8193 characters" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO(pad + "s1\n"))
    assert run(capsys, "invariant", "--gens", "2") == (0, "1\n", "")
    code, out, _ = run(capsys, "trace", "--gens", "3", pad[2:] + "[s1]")
    assert code == 0 and out == "1\n"


@pytest.mark.parametrize("unit", ["1/(1+v)^256+1/(2+v)^256", "(1+v)^512", "1/(1+v)^512",
                                  "q^256/(q^255+v)+v/(q^255+v)", "v^512/(v^512+1)"])
def test_costly_element_at_the_cap_exits_2(capsys, unit):
    # each used to parse for 0.8-95 s; the work budget or the degree bound
    # now refuses it within about a second, and 5 s only guards against a hang
    from affinetl.cli import MAX_INPUT_CHARS

    n = (MAX_INPUT_CHARS - len("()*[s1]") + 1) // (len(unit) + 1)
    text = "(" + "+".join([unit] * n) + ")*[s1]"
    assert MAX_INPUT_CHARS - len(unit) <= len(text) <= MAX_INPUT_CHARS
    start = time.perf_counter()
    code, out, err = run(capsys, "trace", "--gens", "3", text)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == "" and err.startswith("error: ")


class UnreadableStdin:
    """A piped stdin that fails the test when it is read."""

    def isatty(self):
        return False

    def __iter__(self):
        raise AssertionError("stdin was read")


@pytest.mark.parametrize("flag, value", [("--gens", "1"), ("--jobs", "0"), ("--jobs", "-4")])
def test_invariant_checks_options_before_reading_input(capsys, monkeypatch, flag, value):
    monkeypatch.setattr(sys, "stdin", UnreadableStdin())
    for words in ([], ["s1"]):
        with pytest.raises(SystemExit) as exc:
            main(["invariant", flag, value, *words])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "line 1" not in err


def test_verify_rejects_meaningless_sizes(capsys):
    for flag, value in (("--kmax", "0"), ("--gens", "1")):
        code, out, err = run(capsys, "verify", "--suite", "all", flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error: ")


def test_verify_rejects_kmax_past_the_solver_bound(capsys):
    # refused before any battery runs, with the bound named
    code, out, err = run(capsys, "verify", "--suite", "paper-identities", "--kmax", "22")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "21" in err


@pytest.mark.parametrize("argv", [["trace", "[s1 a]"], ["verify"], ["invariant", "s1"],
                                  ["multiply", "[s1]"], ["reduce", "s1"]])
def test_trace_and_verify_take_no_max_len(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-len", "1"])
    assert exc.value.code == 2


def test_huge_scalar_power_exits_2(capsys):
    code, out, err = run(capsys, "trace", "--gens", "3", "((1+q)^100000)*[s1]")
    assert code == 2 and out == ""
    assert "exceeds degree 512" in err


def test_verify_exit_codes(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "relations", "--gens", "3", "--seed", "7"
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_deterministic_json(capsys):
    args = ("verify", "--suite", "markov", "--gens", "2", "--seed", "11",
            "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])


def test_invariant_jobs_clamped_to_tasks_and_cpus(capsys, monkeypatch, tmp_path):
    import concurrent.futures
    import os

    started = []

    class RecordingPool:
        """Stands in for the process pool: records its size, runs inline."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    f = tmp_path / "words.txt"
    f.write_text("s1\ns1 s1\ns1 s1 s1\n")
    huge = str(10 ** 9)
    cases = ((4, huge, [3]), (2, huge, [2]), (1, huge, []), (4, "1", []))

    def check(cpus, jobs, expected):
        started.clear()
        code, out, _ = run(capsys, "invariant", "--gens", "2", "--jobs", jobs, "--file", str(f))
        assert code == 0
        assert out.splitlines() == ["1", "-v^5-v", "-v^8+v^6+v^2"]
        assert started == expected, (cpus, jobs)

    # the affinity mask counts, not the machine's CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    for cpus, jobs, expected in cases:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        check(cpus, jobs, expected)
    # without an affinity call, the machine's CPUs
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus, jobs, expected in cases + ((None, huge, []),):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        check(cpus, jobs, expected)


def test_invariant_reads_no_stdin_after_an_empty_file(capsys, monkeypatch, tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("")
    monkeypatch.setattr(sys, "stdin", io.StringIO("s1\n"))
    assert run(capsys, "invariant", "--gens", "2", "--file", str(f)) == (0, "", "")


def test_import_loads_no_pool_or_typing():
    """A cold CLI process pays only for what its command runs: the process
    pool is imported by ``invariant --jobs`` above 1 alone, and no record
    class or scalar pulls in ``dataclasses``, ``inspect`` or ``fractions``."""
    import pathlib
    import subprocess

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    forbidden = ("concurrent", "multiprocessing", "typing", "dataclasses", "inspect",
                 "fractions", "decimal")
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import affinetl, affinetl.cli; "
        "affinetl.cli.main(['invariant', '--gens', '3', 's1 a']); "
        "print(sorted(m for m in sys.modules "
        f"if m.partition('.')[0] in {forbidden!r}))"
    )
    out = subprocess.run([sys.executable, "-S", "-s", "-c", probe],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_cli_options_are_pinned():
    # a new option fails here until this table, README and the option count
    # in ROADMAP change with it
    top = build_parser()
    sub = next(a for a in top._actions if isinstance(a.choices, dict))
    options = {
        name: sorted(s for a in p._actions if a.dest != "help" for s in a.option_strings)
        for name, p in sub.choices.items()
    }
    assert options == {
        "invariant": ["--file", "--format", "--gens", "--jobs"],
        "trace": ["--format", "--gens", "--type"],
        "multiply": ["--basis", "--format", "--gens", "--type"],
        "reduce": ["--format", "--gens", "--type"],
        "enumerate-fc": ["--format", "--gens", "--max-len", "--type"],
        "verify": ["--format", "--gens", "--kmax", "--seed", "--suite"],
    }
    assert sum(map(len, options.values())) == 23
