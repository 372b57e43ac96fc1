import ast
import contextlib
import decimal
import enum
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import types
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import irrgeo
from _lattice import corner_polygon
from conftest import all_figure_families
from test_geometry import _random_arrangements, _reference_figures
from irrgeo.descent import DescentFamily, FamilyKind, descent_chain, range_check
from irrgeo.exact_arith import Surd
from irrgeo.geometry import ORTHOGONAL, TRIANGULAR, DepthExceeded, LatticePolygon, _ratio_str, coverage_census
from irrgeo.number_theory import _square_triangular, convergents
from irrgeo.render_report import (
    MAX_CHAIN_N,
    MAX_CHAIN_STEPS,
    MAX_CONVERGENT,
    MAX_PAIR_BITS,
    MAX_SVG_BITS,
    DEPTH_FILL,
    SQRT3_HALF,
    _BATCH,
    _INT_BITS,
    _svg_num,
    _svg_points,
    build_census_run,
    build_range_run,
    build_verify_run,
    cli_main,
    frac_str,
    render_json,
    render_svg,
    report_envelope,
    surd_str,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_package_all_is_exact():
    # every listed name resolves, the star import binds exactly the list,
    # and every public non-module attribute is listed: no stale entry and
    # no unlisted export
    listed = set(irrgeo.__all__)
    assert len(listed) == len(irrgeo.__all__)
    for name in irrgeo.__all__:
        assert hasattr(irrgeo, name), name
    namespace: dict = {}
    exec("from irrgeo import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == listed
    public = {
        name for name, value in vars(irrgeo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == listed


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so none may guard an invariant:
    # every check in the package raises explicitly
    sources = sorted(Path(SRC, "irrgeo").glob("*.py"))
    assert {path.name for path in sources} >= {"descent.py", "geometry.py", "number_theory.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _readme_command_lines() -> list[list[str]]:
    """The argv of each line of README's "Command line" example block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line.split() for line in block.splitlines() if line.startswith("irrgeo ")]
    assert lines
    return [argv[1:] for argv in lines]


def test_readme_command_lines_call_every_exported_function(tmp_path, monkeypatch, capsys):
    # a function in __all__ that no documented command runs is exported
    # for the tests alone; the profile hook records every Python call
    monkeypatch.chdir(tmp_path)
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [cli_main(argv) for argv in _readme_command_lines()]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(codes)
    functions = {name: getattr(irrgeo, name) for name in irrgeo.__all__}
    never = sorted(
        name for name, value in functions.items()
        if isinstance(value, types.FunctionType) and value.__code__ not in called
    )
    assert never == []


def test_frac_str():
    assert frac_str(3, 2) == "3/2"
    assert frac_str(7) == "7/1"
    assert frac_str(-1, 3) == "-1/3"
    assert frac_str(0) == "0/1"
    assert frac_str(-6, 4) == "-3/2"
    assert frac_str(0, 12) == "0/1"


def test_frac_str_and_ratio_str_write_what_fraction_writes():
    # no Fraction normalizes report text: frac_str writes numerator/denominator
    # of Fraction(num, den) and _ratio_str writes str(Fraction(num, den)), on
    # signed numerators up to 2**4096, denominators up to 2**64, and 0
    rng = random.Random(4096)
    nums = [0, 1, -1, 2**4096, -(2**4096)]
    dens = [1, 2, 2**64, 2**64 - 1]
    for _ in range(300):
        nums.append(rng.choice((1, -1)) * rng.randrange(2 ** rng.randrange(1, 4097)))
        dens.append(rng.randrange(1, 2 ** rng.randrange(1, 65) + 1))
    pairs = list(itertools.product(nums[:5], dens[:4])) + list(zip(nums, dens))
    # a common factor on both sides, so reduction has work to do
    pairs += [(num * g, den * g) for (num, den), g in zip(pairs, itertools.cycle((6, 2**40, 1)))]
    for num, den in pairs:
        x = Fraction(num, den)
        assert frac_str(num, den) == f"{x.numerator}/{x.denominator}", (num, den)
        assert _ratio_str(num, den) == str(x), (num, den)


def test_surd_str():
    assert surd_str(Surd(5, -1, 21)) == "5/1 + -1/1*sqrt(21)"
    assert surd_str(Surd(3, 0, 2)) == "3/1"
    assert surd_str(Surd(0, -2, 6)) == "0/1 + -2/1*sqrt(6)"


def test_build_verify_run_structure():
    run = build_verify_run(DescentFamily(FamilyKind.HEX6), 22, 9)
    assert run["pass"] is True
    assert run["mode"] == "verify"
    assert run["family"] == "hex6"
    assert run["n"] is None
    assert run["radicand"] == 6
    assert run["input_pair"] == [22, 9]
    assert run["window"]["pass"] is True
    assert run["descent"]["output_pair"] == [12, 5]
    assert run["descent"]["defect_in"] == -2
    assert run["descent"]["defect_out"] == -6
    assert run["descent"]["multiplier"] == "3/1"
    assert run["census"]["big_area"] == "1452/1"
    assert run["census"]["blank_area"] == "144/1"
    assert run["census_pair"] == [12, 5]
    names = [c["name"] for c in run["identity_checks"]]
    assert names[-1] == "census_pair_matches_descent"
    assert all(c["pass"] for c in run["identity_checks"])


def test_build_verify_run_window_fail_is_shallow():
    run = build_verify_run(DescentFamily(FamilyKind.SQRT2), 5, 2)
    assert run["pass"] is False
    assert run["window"]["violated"] == "a < 2b"
    assert "descent" not in run
    assert "census" not in run


def _json_text(x) -> str:
    """The text render_json returns for x."""
    return render_json(x)


def test_render_json_round_trip_and_determinism():
    run = build_verify_run(DescentFamily(FamilyKind.SQRT2), 7, 5)
    text1 = _json_text(report_envelope([run]))
    text2 = _json_text(report_envelope([build_verify_run(DescentFamily(FamilyKind.SQRT2), 7, 5)]))
    assert text1 == text2
    assert text1.endswith("\n")
    parsed = json.loads(text1)
    assert parsed["version"] == "1"
    assert parsed["runs"][0]["input_pair"] == [7, 5]


def test_cli_verify_pass(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = cli_main(
        ["verify", "--family", "hex6", "--convergent", "3", "--json", str(out)]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert "pair (22, 9)" in stdout
    assert "verify: PASS" in stdout
    assert "descent: (22, 9) -> (12, 5)" in stdout
    report = json.loads(out.read_text())
    assert report["version"] == "1"
    run = report["runs"][0]
    assert run["input_pair"] == [22, 9]
    assert run["pass"] is True
    assert run["census"]["exactly2_area"] == "150/1"


def test_cli_verify_window_violation(capsys):
    code = cli_main(["verify", "--family", "sqrt2", "--a", "5", "--b", "2"])
    stdout = capsys.readouterr().out
    assert code == 2
    assert "VIOLATED" in stdout
    assert "verify: FAIL" in stdout


def test_cli_verify_forced_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(
        "irrgeo.render_report.census_to_descent", lambda arr, census: (999, 999)
    )
    code = cli_main(["verify", "--family", "sqrt2", "--a", "7", "--b", "5"])
    stdout = capsys.readouterr().out
    assert code == 2
    assert "check census_pair_matches_descent: [999, 999] == [3, 2] FAIL" in stdout
    assert "verify: FAIL" in stdout


# a census one unit of area off, and the lines verify prints for it: a
# wrong blank area also spoils the census-derived pair, a wrong big area
# fails the identities alone
_OFF_BY_ONE = {
    "blank_area": ("check blank_area: 9 == 8 FAIL", "check census_pair_matches_descent: error: "),
    "big_area": ("check big_area: 50 == 49 FAIL", "check census_pair_matches_descent: [3, 2] == [3, 2] ok"),
}


@pytest.mark.parametrize("field", sorted(_OFF_BY_ONE))
def test_cli_verify_identity_failure(field, capsys, monkeypatch, tmp_path):
    def census_off_by_one(arr):
        census = coverage_census(arr)
        return census._replace(**{field: getattr(census, field) + census.area_den})

    monkeypatch.setattr("irrgeo.render_report.coverage_census", census_off_by_one)
    out = tmp_path / "report.json"
    code = cli_main(["verify", "--family", "sqrt2", "--a", "7", "--b", "5", "--json", str(out)])
    stdout = capsys.readouterr().out
    assert code == 2
    for line in _OFF_BY_ONE[field]:
        assert line in stdout, line
    assert "check small_count: 2 == 2 ok" in stdout
    assert stdout.endswith("verify: FAIL\n")
    run = json.loads(out.read_text())["runs"][0]
    assert run["pass"] is False
    failed = {c["name"] for c in run["identity_checks"] if not c["pass"]}
    assert field in failed and "small_count" not in failed
    # a wrong blank area gives no census pair; a wrong big area leaves it right
    if field == "blank_area":
        assert run["census_pair"] is None and "census_pair_matches_descent" in failed
    else:
        assert run["census_pair"] == [3, 2] and "census_pair_matches_descent" not in failed


def test_cli_usage_errors(capsys):
    bad = [
        ["verify", "--family", "pentagon", "--a", "3", "--b", "2"],
        ["verify", "--family", "sqrt2"],
        ["verify", "--family", "sqrt2", "--a", "3"],
        ["verify", "--family", "sqrt2", "--n", "3", "--a", "3", "--b", "2"],
        ["verify", "--family", "triangular", "--a", "7", "--b", "4"],
        ["verify", "--family", "triangular", "--n", "1", "--a", "7", "--b", "4"],
        ["verify", "--family", "sqrt2", "--a", "3", "--b", "2", "--convergent", "2"],
        ["verify", "--family", "sqrt2", "--convergent", "0"],
        ["verify", "--family", "sqrt2", "--a", "0", "--b", "2"],
        ["verify", "--family", "triangular", "--n", "8", "--convergent", "1"],
        ["range", "--family", "triangular", "--n-max", "1"],
        ["range", "--family", "sqrt2", "--n-max", "5"],
        ["density", "--x", "0"],
        ["nonsense"],
    ]
    for argv in bad:
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert "usage error:" in captured.err, argv


def test_cli_write_failure_exits_1(capsys, tmp_path):
    # a file that cannot be opened, and where there is one, a file that
    # opens but takes no byte, so the write or the close fails
    reasons = {str(tmp_path / "missing" / "x"): "No such file or directory"}
    if os.path.exists("/dev/full"):
        reasons["/dev/full"] = "No space left on device"
    pair = ["--family", "sqrt2", "--a", "7", "--b", "5"]
    for path, reason in reasons.items():
        for argv in (
            ["verify", *pair, "--json", path],
            ["range", "--family", "triangular", "--n-max", "10", "--json", path],
            ["svg", *pair, "--out", path],
            # a report larger than the file's buffer, which fills and
            # fails mid-write, before the close
            ["chain", "--family", "triangular", "--n", "4", "--convergent", "700", "--max-steps", "10000", "--json", path],
            ["chain", "--family", "sqrt2", "--a", "17", "--b", "12", "--json", path],
        ):
            code = cli_main(argv)
            captured = capsys.readouterr()
            assert code == 1, argv
            assert captured.err == f"cannot write {path}: {reason}\n", argv
        # chain opens its report before it prints; one that cannot be
        # opened stops it before any stdout, and one that fails later, at
        # the close, after all of it
        if reason == "No such file or directory":
            assert captured.out == ""
        else:
            assert captured.out == _reference_chain_stdout(build_chain_run(DescentFamily(FamilyKind.SQRT2), 17, 12, 32))
            assert captured.out.count("\nstep ") == 3 and captured.out.endswith("stop: nonpositive after 3 steps\n")


def test_cli_out_of_memory_exits_1(capsys, monkeypatch):
    # a MemoryError mid-run gives one stderr line and exit 1, after the
    # stdout lines already printed, not a traceback
    calls = []

    def exhausted(family):
        calls.append(family)
        if len(calls) == 3:
            raise MemoryError
        return range_check(family)

    monkeypatch.setattr("irrgeo.render_report.range_check", exhausted)
    assert cli_main(["range", "--family", "triangular", "--n-max", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "out of memory\n"
    assert "Traceback" not in captured.out + captured.err
    assert captured.out == "n=2: works\nn=3: works\n"


def _run_into(stdout, argv: list[str], unbuffered: bool) -> tuple[int, str]:
    """Exit code and stderr of python -m irrgeo argv writing to stdout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "irrgeo", *argv],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stderr


def test_cli_help_returns_0_in_process(capsys, monkeypatch):
    # help is an answer like any other: cli_main returns 0 (it raises no
    # SystemExit), and prints what python -m irrgeo prints, at the same width
    monkeypatch.setenv("COLUMNS", "80")
    commands = ["verify", "census", "chain", "range", "sequence", "density", "svg"]
    for argv in [["--help"], ["-h", "verify"]] + [[command, "--help"] for command in commands]:
        assert cli_main(argv) == 0, argv
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "irrgeo", *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, captured.out, captured.err), argv
        assert captured.out.startswith("usage: irrgeo") and captured.err == "", argv


# unbuffered, the first print fails; buffered, the final flush does; help
# text goes through argparse, which must not drop the failure either
@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        pytest.param(argv, unbuffered, id=f"{prefix}{unbuffered}")
        for prefix, argv in (("", ["verify", "--family", "sqrt2", "--a", "7", "--b", "5"]), ("help-", ["verify", "--help"]))
        for unbuffered in (False, True)
    ],
)
def test_cli_stdout_to_full_device(argv, unbuffered):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "w") as full:
        code, err = _run_into(full, argv, unbuffered)
    assert (code, err) == (1, "cannot write stdout: No space left on device\n")


# unbuffered, the first print fails; buffered, a print past the buffer does
@pytest.mark.parametrize("unbuffered", [False, True])
def test_cli_stdout_to_closed_pipe(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, err = _run_into(write_end, ["range", "--family", "triangular", "--n-max", "3000"], unbuffered)
    finally:
        os.close(write_end)
    assert (code, err) == (1, "cannot write stdout: Broken pipe\n")


def test_cli_with_stdout_closed():
    # with file descriptor 1 closed, Python sets sys.stdout to None; each
    # command, and help, exits 1 with one line on stderr, no traceback
    for argv in (
        ["verify", "--family", "sqrt2", "--a", "7", "--b", "5"],
        ["chain", "--family", "sqrt2", "--a", "17", "--b", "12"],
        ["range", "--family", "triangular", "--n-max", "10"],
        ["--help"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "irrgeo", *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            preexec_fn=lambda: os.close(1),
        )
        assert (proc.returncode, proc.stderr) == (1, "cannot write stdout: Bad file descriptor\n"), argv


def test_cli_figure_size_limit(capsys, tmp_path):
    # n = 100000 would build about 5e9 smalls; it is refused before anything
    # is built, while chain, which builds no figure, still runs
    svg = ["--out", str(tmp_path / "x.svg")]
    for n in ("65", "100000"):
        for cmd, extra in (("verify", []), ("census", []), ("svg", svg)):
            argv = [cmd, "--family", "triangular", "--n", n, "--convergent", "1", *extra]
            code = cli_main(argv)
            err = capsys.readouterr().err
            assert code == 1, argv
            assert err == f"usage error: figures are limited to n <= 64, got {n}\n"
    # n = 64 is accepted; this pair fails the window, so nothing is built
    for cmd, extra in (("verify", []), ("census", []), ("svg", svg)):
        assert cli_main([cmd, "--family", "triangular", "--n", "64", "--a", "9", "--b", "1", *extra]) == 2
    capsys.readouterr()
    assert cli_main(["chain", "--family", "triangular", "--n", "100000", "--convergent", "1"]) == 0
    assert not (tmp_path / "x.svg").exists()


def test_cli_rejects_oversized_integers(capsys, tmp_path):
    # CPython prints no int of more than 4300 digits; each of these once
    # ended in that ValueError, or in a float overflow for the SVG
    big = ["--a", str(10**4000 + 7), "--b", str(7 * 10**3999 + 1)]
    svg = ["--out", str(tmp_path / "x.svg")]
    refused = {
        "--convergent counts from 1 to 2048, got 12000": [
            ["verify", "--family", "sqrt2", "--convergent", "12000"],
        ],
        "--convergent counts from 1 to 2048, got 6000": [
            ["chain", "--family", "triangular", "--n", "5", "--convergent", "6000", "--max-steps", "20000"],
        ],
        "pairs are limited to 4096 bits, got 13288": [
            ["census", "--family", "sqrt2", *big],
            ["verify", "--family", "sqrt2", *big],
            ["chain", "--family", "sqrt2", *big, "--max-steps", "3"],
        ],
        # convergent 1562 of sqrt(10) is the first with 4097 bits
        "pairs are limited to 4096 bits, got 4097": [
            ["chain", "--family", "triangular", "--n", "4", "--convergent", "1562"],
        ],
        "pairs are limited to 1000 bits, got 1001": [["svg", "--family", "sqrt2", "--convergent", "788", *svg]],
        "chains are limited to n <= 4294967296, got 4294967297": [
            ["chain", "--family", "triangular", "--n", "4294967297", "--a", "3", "--b", "2"],
        ],
        "--max-steps must be in 0..10000, got 10001": [
            ["chain", "--family", "sqrt2", "--a", "3", "--b", "2", "--max-steps", "10001"],
        ],
        # range used to run every n up to any --n-max
        "--n-max must be in 2..10000, got 10001": [
            ["range", "--family", "triangular", "--n-max", "10001"],
        ],
        f"--n-max must be in 2..10000, got {10**40}": [
            ["range", "--family", "triangular", "--n-max", str(10**40)],
        ],
        # range reads the triangular index from --n-max; it refuses --n
        "range --family triangular needs --n-max": [["range", "--family", "triangular"]],
        "range --family sqrt2 takes no --n-max": [["range", "--family", "sqrt2", "--n-max", "5"]],
        "--limit must be nonnegative": [["sequence", "--limit", "-1"]],
    }
    for message, argvs in refused.items():
        for argv in argvs:
            code = cli_main(argv)
            captured = capsys.readouterr()
            assert code == 1, argv
            assert (captured.out, captured.err) == ("", f"usage error: {message}\n"), argv
    assert not (tmp_path / "x.svg").exists()
    # the largest accepted inputs still run
    accepted = [
        ["chain", "--family", "triangular", "--n", "4", "--convergent", "1561", "--max-steps", "10000"],
        ["chain", "--family", "triangular", "--n", "4294967296", "--a", "3", "--b", "2"],
        ["svg", "--family", "sqrt2", "--convergent", "787", *svg],
    ]
    for argv in accepted:
        assert cli_main(argv) == 0, argv
    assert "stop: no_decrease after 2644 steps" in capsys.readouterr().out


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="CPython before 3.10.7 has no int-string limit")
def test_a_lowered_int_string_limit_lowers_the_pair_bound():
    # at the lowest limit CPython accepts, 640 digits, each of these once
    # ended in a traceback from str() of an int; printed integers stay
    # below 2**(2*bits + 256), so pairs are held to 935 bits
    limit = {"PYTHONINTMAXSTRDIGITS": "640"}
    for argv, bits in (
        (["chain", "--family", "triangular", "--n", "4", "--convergent", "1561", "--max-steps", "10"], 4095),
        (["verify", "--family", "triangular", "--n", "4", "--convergent", "1561"], 4095),
        (["census", "--family", "sqrt2", "--convergent", "2048"], 2604),
    ):
        assert _run_alone(argv, env=limit) == (1, "", f"usage error: pairs are limited to 935 bits, got {bits}\n"), argv
    p, q = convergents(10, 350)[-1]  # in triangular n = 4's window, scaled to 935 bits
    a, b = p << (935 - p.bit_length()), q << (935 - p.bit_length())
    pair = ["--family", "triangular", "--n", "4", "--a", str(a), "--b", str(b)]
    for argv in (["verify", *pair], ["census", *pair], ["chain", *pair, "--max-steps", "10000"]):
        code, out, err = _run_alone(argv, env=limit)
        assert (code, err) == (0, ""), argv
        assert out == _run_alone(argv)[1], argv
    past = ["chain", "--family", "triangular", "--n", "4", "--a", str(2 * a), "--b", str(2 * b)]
    assert _run_alone(past, env=limit) == (1, "", "usage error: pairs are limited to 935 bits, got 936\n")


def test_cli_census(capsys):
    code = cli_main(["census", "--family", "hex6", "--a", "5", "--b", "2"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "big_area: 75" in stdout
    assert "blank_area: 9" in stdout
    assert "exactly2_area: 6" in stdout
    assert "regions: 6 pairwise (6 doubly, 0 triply)  max depth 2" in stdout


def test_cli_chain(capsys):
    code = cli_main(["chain", "--family", "sqrt2", "--a", "17", "--b", "12"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "step 1: (17, 12) -> (7, 5)" in stdout
    assert "step 3: (3, 2) -> (1, 1)" in stdout
    assert "stop: nonpositive after 3 steps" in stdout


def test_cli_range_sweep(capsys, tmp_path):
    out = tmp_path / "range.json"
    code = cli_main(
        ["range", "--family", "triangular", "--n-max", "8", "--json", str(out)]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert "works: 2,3,4,5" in stdout
    assert "fails: 6,7,8" in stdout
    report = json.loads(out.read_text())
    assert len(report["runs"]) == 7
    assert report["runs"][0]["works"] is True
    assert report["runs"][4]["works"] is False  # n = 6
    bad = {w["name"] for w in report["runs"][4]["witnesses"] if not w["ok"]}
    assert "b_out_shrinks" in bad


def test_cli_range_single(capsys):
    code = cli_main(["range", "--family", "sqrt2"])
    assert code == 0
    assert "sqrt2: works" in capsys.readouterr().out


def test_cli_sequence(capsys):
    code = cli_main(["sequence", "--limit", "300"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0 1 8 49 288"


def test_cli_sequence_at_its_cap(capsys):
    # 4300 nines is the largest int argparse reads; the terms up to it must
    # print with the stdout digest the CI step "the largest accepted svg and
    # sequence" checks
    assert cli_main(["sequence", "--limit", "9" * 4300]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == "b8534aca48a0f85def5ced766499c59a"


def test_cli_density(capsys):
    code = cli_main(["density", "--x", "1000000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "perfect squares up to 1000000: 1000 (1/10% of all integers)" in out


def test_cli_svg(capsys, tmp_path):
    out = tmp_path / "figure.svg"
    code = cli_main(["svg", "--family", "sqrt2", "--a", "7", "--b", "5", "--out", str(out)])
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    text = out.read_text()
    root = ET.fromstring(text)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.get("version") == "1.1"
    polys = root.findall(".//{http://www.w3.org/2000/svg}polygon")
    assert len(polys) == 4  # big + 2 smalls + 1 overlap
    fills = [p.get("fill") for p in polys]
    assert fills == ["white", "lightblue", "lightblue", "orange"]

    again = tmp_path / "figure2.svg"
    cli_main(["svg", "--family", "sqrt2", "--a", "7", "--b", "5", "--out", str(again)])
    capsys.readouterr()
    assert again.read_bytes() == out.read_bytes()


def test_cli_svg_triangular_has_triples(capsys, tmp_path):
    out = tmp_path / "tri.svg"
    code = cli_main(
        ["svg", "--family", "triangular", "--n", "5", "--a", "27", "--b", "7", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    root = ET.fromstring(out.read_text())
    fills = [
        p.get("fill") for p in root.findall(".//{http://www.w3.org/2000/svg}polygon")
    ]
    assert fills.count("white") == 1
    assert fills.count("lightblue") == 15
    assert fills.count("orange") == 18
    assert fills.count("red") == 6


_SVG_SHAPES = (
    ((0, 0), (1, 0), (1, 1), (0, 1)),
    ((0, 0), (1, 0), (0, 1)),
    ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)),
)


def _ref_scene_points(poly: LatticePolygon) -> tuple[tuple[float, float], ...]:
    """The projection as it was written on Fraction vertices."""
    points = []
    for u, v in poly.vertices:
        u, v = float(u), float(v)
        points.append((u, -v) if poly.basis == ORTHOGONAL else (u + v / 2, -v * SQRT3_HALF))
    return tuple(points)


def test_svg_points_from_ints_match_fraction_projection():
    # the SVG divides each integer corner by den; a correctly rounded
    # int/int division must give float(Fraction) on every corner, for
    # dens up to 2**40 and coordinates up to the bit length svg accepts
    rng = random.Random(1016)
    for _ in range(300):
        basis = rng.choice((ORTHOGONAL, TRIANGULAR))
        den = rng.randrange(1, 2**40 + 1)
        bits = rng.randint(1, MAX_SVG_BITS - 2)
        x, y = (Fraction(rng.randrange(-(2**bits), 2**bits), den) for _ in range(2))
        side = Fraction(rng.randrange(1, 2**bits), den)
        corners = rng.choice(_SVG_SHAPES)
        poly = corner_polygon([(x + side * du, y + side * dv) for du, dv in corners], basis)
        assert _svg_points(poly, basis == ORTHOGONAL) == _ref_scene_points(poly), (basis, poly)


def test_svg_numbers_are_written_as_percent_6f():
    # a float of magnitude 2**53 or more is written through "%d", which
    # must give "%.6f"'s bytes: on both sides of +-2**53, at it, at the
    # largest float, and on random floats of every exponent
    edge = 2.0**53
    xs = [edge, math.nextafter(edge, 0), math.nextafter(edge, math.inf), 2**53 - 1.5, sys.float_info.max]
    rng = random.Random(53)
    xs += [math.ldexp(rng.random(), rng.randint(-30, 1024)) for _ in range(20_000)]
    xs += [0.0, 1e-7, 0.5, 123456.5]
    for x in xs:
        for signed in (x, -x):
            assert _svg_num(signed) == "%.6f" % signed, signed


def test_cli_svg_out_of_window(capsys, tmp_path):
    out = tmp_path / "never.svg"
    code = cli_main(["svg", "--family", "sqrt2", "--a", "4", "--b", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot build figure" in captured.err
    assert not out.exists()


def test_cli_json_byte_determinism(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["census", "--family", "triangular", "--n", "3", "--a", "5", "--b", "2"]
    cli_main(argv + ["--json", str(first)])
    cli_main(argv + ["--json", str(second)])
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    parsed = json.loads(first.read_text())
    assert parsed["runs"][0]["census"]["exactly3_area"] == "1/8"


def _reference_json(x) -> str:
    return json.dumps(x, indent=2) + "\n"


def build_chain_run(family: DescentFamily, a: int, b: int, max_steps: int) -> dict:
    """The chain run as one dict: the reference for chain's streamed report."""
    chain = descent_chain(family, a, b, max_steps)
    return {
        "mode": "chain",
        "family": family.label,
        "n": family.n,
        "radicand": family.radicand,
        "input_pair": [a, b],
        "steps": [
            {
                "pair_in": list(s.pair_in),
                "pair_out": list(s.pair_out),
                "defect_in": s.defect_in,
                "defect_out": s.defect_out,
            }
            for s in chain.steps
        ],
        "stop_reason": chain.stop_reason,
        "final_pair": list(chain.final_pair),
        "pass": True,
    }


def _reference_chain_stdout(run: dict) -> str:
    """chain's stdout for the run, line by line."""
    family = DescentFamily(FamilyKind(run["family"]), run["n"])
    steps = run["steps"]
    a, b = run["input_pair"]
    pair = f"({a}, {b})"
    defect = str(steps[0]["defect_in"]) if steps else ""
    lines = [f"family {family.title}  start {pair}"]
    for i, s in enumerate(steps, start=1):
        a_out, b_out = s["pair_out"]
        pair_out, defect_out = f"({a_out}, {b_out})", str(s["defect_out"])
        lines.append(f"step {i}: {pair} -> {pair_out}  defect {defect} -> {defect_out}")
        pair, defect = pair_out, defect_out
    lines.append(f"stop: {run['stop_reason']} after {len(steps)} steps")
    return "\n".join(lines) + "\n"


def _report_corpus() -> list[dict]:
    """verify and census of every figure family at convergents 1..6,
    chain at convergent 999 of each, and range --n-max 40."""
    reports = []
    for family in all_figure_families():
        for p, q in convergents(family.radicand, 6):
            reports.append(report_envelope([build_verify_run(family, p, q)]))
            reports.append(report_envelope([build_census_run(family, p, q)]))
        p, q = convergents(family.radicand, 999)[-1]
        reports.append(report_envelope([build_chain_run(family, p, q, MAX_CHAIN_STEPS)]))
    ranges = [build_range_run(range_check(DescentFamily.triangular(n))) for n in range(2, 41)]
    reports.append(report_envelope(ranges))
    return reports


def test_render_json_matches_json_module_on_reports():
    for report in _report_corpus():
        assert _json_text(report) == _reference_json(report)


_AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "√", "\u2028", "\U0001f600", "/", " "]


def _random_str(rng: random.Random) -> str:
    alphabet = _AWKWARD + list("abcxyz019 _-:,{}[]")
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))


def _random_tree(rng: random.Random, depth: int):
    roll = rng.randrange(6, 10) if depth == 0 else rng.randrange(10 if depth < 4 else 6)
    if roll == 0:
        return rng.choice([True, False, None])
    if roll == 1:
        return rng.choice([0, 1, -1, True, False])  # 1 and True side by side
    if roll == 2:
        return rng.randrange(-(2 ** 8000), 2 ** 8000) >> rng.randrange(8000)
    if roll == 3:
        return rng.randrange(-1000, 1000)
    if roll in (4, 5):
        return _random_str(rng)
    if roll in (6, 7):
        return [_random_tree(rng, depth + 1) for _ in range(rng.choice([0, 1, 2, 3, 6]))]
    return {_random_str(rng): _random_tree(rng, depth + 1) for _ in range(rng.choice([0, 1, 2, 3, 6]))}


def test_render_json_matches_json_module_on_random_trees():
    rng = random.Random(8)
    nested_empties = big_ints = 0
    for _ in range(600):
        tree = _random_tree(rng, 0)
        expected = _reference_json(tree)
        assert _json_text(tree) == expected
        nested_empties += expected.count(": []") + expected.count(": {}")
        big_ints += any(len(word) > 1000 for word in expected.split())
    assert nested_empties >= 100 and big_ints >= 100


@pytest.mark.parametrize("bad", [1.5, (1, 2), {3}, [1, 2.0], {"x": (1,)}, {"y": [{"z": {4}}]}, {1: 2}])
def test_render_json_refuses_other_types(bad):
    with pytest.raises(TypeError, match="reports hold no|report keys are str"):
        render_json(bad)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 70


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


_WRITER_CONTRACT = [
    [1, True, 0, False],
    [True, False],
    [2, 3, True],
    [_Level.LOW, 1, _Level.HIGH, 2 ** 70],
    {"level": _Level.HIGH, "pair": [_Level.LOW, 7]},
    [_Str("a\"b"), "c", _Str("√")],
    _Dict(z=[1, 2], a=_Dict(b=[])),
    {_Str("key"): [[], [[]], [[], [1, 2]], {}]},
    _List([1, 2]),
    [_List([]), [], [[[]]], [None, 5]],
]


def test_render_json_contract_beyond_plain_types():
    # bools, subclasses and empty nests give the json module's bytes
    for x in _WRITER_CONTRACT:
        assert _json_text(x) == _reference_json(x)
    for bad in ([1, 2.5], [True, 1.0], {1: [1, 2]}, {_Level.LOW: 1}, [[1, 2], (3, 4)], _List([1.0])):
        with pytest.raises(TypeError, match="reports hold no|report keys are str"):
            render_json(bad)


def test_json_report_is_written_as_it_is_made(capsys, tmp_path):
    # --json writes the report to its file piece by piece, so the largest
    # report of a range sweep, over a megabyte, adds only a few kB to the
    # run's peak memory
    argv = ["range", "--family", "triangular", "--n-max", "2000"]
    cli_main(argv[:-1] + ["3"])  # the parser is built outside the measurement
    peaks = []
    for extra in ([], ["--json", str(tmp_path / "range.json")]):
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert cli_main(argv + extra) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "range.json").stat().st_size > 1_000_000
    assert peaks[1] - peaks[0] <= 64 * 1024, peaks


def test_every_json_report_goes_through_render_json(capsys, monkeypatch, tmp_path):
    # render_json is the one JSON writer: it writes each command's --json
    # file, which keeps the json module's bytes of the whole report
    calls = []

    def counting(report):
        calls.append(report)
        return render_json(report)

    monkeypatch.setattr("irrgeo.render_report.render_json", counting)
    sqrt2 = DescentFamily(FamilyKind.SQRT2)
    cases = (
        (["verify", "--family", "sqrt2", "--a", "7", "--b", "5"], [build_verify_run(sqrt2, 7, 5)]),
        (["census", "--family", "sqrt2", "--a", "7", "--b", "5"], [build_census_run(sqrt2, 7, 5)]),
        (
            ["range", "--family", "triangular", "--n-max", "10"],
            [build_range_run(range_check(DescentFamily.triangular(n))) for n in range(2, 11)],
        ),
        (["chain", "--family", "sqrt2", "--a", "17", "--b", "12"], [build_chain_run(sqrt2, 17, 12, 32)]),
    )
    out = tmp_path / "report.json"
    for argv, runs in cases:
        calls.clear()
        assert cli_main(argv + ["--json", str(out)]) == 0, argv
        assert calls, argv
        assert out.read_text() == _reference_json(report_envelope(runs)), argv
    capsys.readouterr()


def test_sequence_is_written_as_it_is_converted(capsys, tmp_path):
    # sequence writes each term as the walk reaches it and keeps no list:
    # its peak memory stays below a quarter of the int walk's list
    limit = int("9" * 1000)
    argv = ["sequence", "--limit", str(limit)]
    cli_main(["sequence", "--limit", "1"])  # the parser is built outside the measurement
    out = tmp_path / "sequence.txt"
    peaks = []
    for run in (lambda: list(_square_triangular(limit, 1)), lambda: cli_main(argv)):
        with open(out, "w") as fh, contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert out.read_text() == " ".join(map(str, _square_triangular(limit, 1))) + "\n"
    assert 4 * peaks[1] < peaks[0], peaks
    capsys.readouterr()


def test_svg_is_written_as_it_is_drawn(capsys, tmp_path):
    # svg writes the drawing to its file polygon by polygon, so its peak
    # memory stays near the census it draws from
    pair = ["--family", "triangular", "--n", "32", "--convergent", "40"]
    cli_main(["census", "--family", "sqrt2", "--a", "7", "--b", "5"])  # the parser is built outside the measurement
    peaks = []
    for argv in (["census", *pair], ["svg", *pair, "--out", str(tmp_path / "x.svg")]):
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert cli_main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "x.svg").stat().st_size > 400_000
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_range_is_written_as_it_is_decided(tmp_path):
    # range prints and writes each run as it decides it, so its peak memory
    # grows with --n-max only by the summary's lists of n (about 60 B per
    # n), not by a list of runs (1.5 kB per n);
    # so does range without --json, whose summary is written one n at a
    # time (a line joined first would grow it by about 67 B per n)
    out = tmp_path / "range.json"
    peaks = {}
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        cli_main(["range", "--family", "triangular", "--n-max", "3"])  # the parser is built outside the measurement
        for report in (["--json", str(out)], []):
            for n_max in (1000, 4000):
                tracemalloc.start()
                try:
                    assert cli_main(["range", "--family", "triangular", "--n-max", str(n_max), *report]) == 0
                    peaks[n_max, bool(report)] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
    assert len(json.loads(out.read_text())["runs"]) == 3999
    for report in (True, False):
        assert peaks[4000, report] - peaks[1000, report] < 10 * 3000, peaks
    # and the report file adds only its few kB of buffers
    for n_max in (1000, 4000):
        assert peaks[n_max, True] - peaks[n_max, False] <= 64 * 1024, peaks


# range and chain print while their report is being written, so a failed
# print happens inside the report's writing; it is still stdout's failure
@pytest.mark.parametrize("unbuffered", [False, True])
def test_range_report_leaves_stdout_failures_to_stdout(unbuffered, tmp_path):
    for argv in (
        ["range", "--family", "triangular", "--n-max", "3000", "--json", str(tmp_path / "range.json")],
        # about 3.5 MB of stdout, many times stdout's buffer
        ["chain", "--family", "triangular", "--n", "4", "--convergent", "700", "--max-steps", "10000", "--json", str(tmp_path / "chain.json")],
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            assert _run_into(write_end, argv, unbuffered) == (1, "cannot write stdout: Broken pipe\n"), argv
        finally:
            os.close(write_end)
        if os.path.exists("/dev/full"):
            with open("/dev/full", "w") as full:
                assert _run_into(full, argv, unbuffered) == (1, "cannot write stdout: No space left on device\n"), argv


def test_chain_keeps_no_step_text(tmp_path):
    # chain prints and writes each step's decimals when it draws them, so
    # its peak memory is about that of the integer chain it prints: the
    # largest accepted pair, 2644 steps and a 17.9 MB report
    family, (a, b) = DescentFamily.triangular(4), convergents(10, 1561)[-1]
    argv = ["chain", "--family", "triangular", "--n", "4", "--convergent", "1561", "--max-steps", str(MAX_CHAIN_STEPS)]
    peaks = []
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        cli_main(["chain", "--family", "sqrt2", "--a", "17", "--b", "12"])  # the parser is built outside the measurement
        for run in (
            lambda: descent_chain(family, a, b, MAX_CHAIN_STEPS),
            lambda: cli_main(argv + ["--json", str(tmp_path / "chain.json")]),
        ):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert (tmp_path / "chain.json").stat().st_size > 17_000_000
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_chain_leaves_the_decimal_context_as_it_was(capsys, monkeypatch, tmp_path):
    # chain walks its digits in an exact Decimal context; the caller's is
    # current again after a chain that completes, after one whose report
    # cannot be written and after one whose walk does not end at its last
    # step
    argv = ["chain", "--family", "triangular", "--n", "4", "--convergent", "700", "--max-steps", "10000", "--json"]
    before = decimal.getcontext()
    assert cli_main(argv + [str(tmp_path / "chain.json")]) == 0
    assert decimal.getcontext() is before
    failing = ["/dev/full"] if os.path.exists("/dev/full") else []
    for path in failing + [str(tmp_path / "missing" / "x")]:
        assert cli_main(argv + [path]) == 1, path
        assert decimal.getcontext() is before, path
    # this walk runs on Decimals for more than a batch, then on ints
    chain = descent_chain(DescentFamily(FamilyKind.SQRT2), *convergents(2, 1500)[-1], MAX_CHAIN_STEPS)
    assert chain.steps[_BATCH].pair_in[1].bit_length() >= _INT_BITS > chain.steps[-1].pair_in[1].bit_length()
    last = chain.steps[-1]
    altered = chain._replace(steps=chain.steps[:-1] + (last._replace(defect_out=2 * last.defect_out),))
    monkeypatch.setattr(irrgeo.render_report, "descent_chain", lambda *args: altered)
    with pytest.raises(AssertionError, match="not at the last step"):
        cli_main(["chain", "--family", "sqrt2", "--convergent", "1500", "--max-steps", "10000"])
    assert decimal.getcontext() is before


def test_an_empty_path_is_refused(capsys):
    # an empty PATH names no file, so every report fails to open it, as
    # svg's drawing does, and the command exits 1
    pair = ["--family", "sqrt2", "--a", "7", "--b", "5"]
    for argv in (
        ["verify", *pair, "--json", ""],
        ["census", *pair, "--json", ""],
        ["chain", *pair, "--json", ""],
        ["range", "--family", "triangular", "--n-max", "10", "--json", ""],
        ["svg", *pair, "--out", ""],
    ):
        assert cli_main(argv) == 1, argv
        assert capsys.readouterr().err == "cannot write : No such file or directory\n", argv


def _reference_svg(arr, census) -> str:
    """The SVG with its viewBox taken from every corner drawn, as render_svg
    drew it before it read the viewBox off the big figure alone."""
    orthogonal = arr.big.basis == ORTHOGONAL
    layers = (arr.big,), arr.smalls, census.distinct_pair_regions, census.distinct_triple_regions
    polys = [(_svg_points(p, orthogonal), DEPTH_FILL[depth]) for depth, layer in enumerate(layers) for p in layer]
    xs = [x for points, _ in polys for x, _ in points]
    ys = [y for points, _ in polys for _, y in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0) or 1.0
    margin = 0.04 * span
    viewbox = (x0 - margin, y0 - margin, (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin)
    lines = ['<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%.6f %.6f %.6f %.6f">\n' % viewbox]
    lines.append('<g stroke="#333333" stroke-width="%.6f" stroke-linejoin="round">\n' % (0.008 * span))
    for points, fill in polys:
        lines.append('<polygon fill="%s" points="%s"/>\n' % (fill, " ".join("%.6f,%.6f" % xy for xy in points)))
    lines.append("</g>\n</svg>\n")
    return "".join(lines)


def test_big_figure_bounds_the_drawing():
    # render_svg reads its viewBox off the big figure alone; every corner
    # drawn lies inside it, so the bytes are those of the all-corner box,
    # on every figure and arrangement the census reference runs on
    drawn = 0
    for arr in itertools.chain(_reference_figures(), _random_arrangements()):
        try:
            census = coverage_census(arr)
        except DepthExceeded:
            continue
        parts: list[str] = []
        render_svg(arr, census, parts.append)
        assert "".join(parts) == _reference_svg(arr, census), (arr.family, arr.a, arr.b)
        drawn += 1
    assert drawn >= 400, drawn  # 98 figures, 348 arrangements under depth 4


def _chain_cases() -> list[tuple[DescentFamily, list[str], int, int, int]]:
    """(family, pair options, a, b, max_steps): each family from several
    convergents, up to the largest it accepts; three steps from the 4095-bit
    triangular n = 4 convergent, so the last pair checked is a large one;
    T_8 = 36, which has no convergents; --max-steps 0; the one step of
    n = MAX_CHAIN_N, whose coefficients have 64 bits; and two chains stopped
    by their first step."""
    cases = []
    for family in [DescentFamily(FamilyKind.SQRT2), DescentFamily(FamilyKind.HEX6)] + [DescentFamily.triangular(n) for n in range(2, 8)]:
        cs = convergents(family.radicand, MAX_CONVERGENT)
        last = MAX_CONVERGENT if cs[-1][0].bit_length() <= MAX_PAIR_BITS else 1561
        for k in (1, 2, 3, 999, last):
            p, q = cs[k - 1]
            cases.append((family, ["--convergent", str(k)], p, q, MAX_CHAIN_STEPS))
    p, q = convergents(10, 1561)[-1]
    assert p.bit_length() == 4095
    cases.append((DescentFamily.triangular(4), ["--convergent", "1561"], p, q, 3))
    for family, a, b, max_steps in (
        (DescentFamily.triangular(8), 37, 6, MAX_CHAIN_STEPS),
        (DescentFamily(FamilyKind.SQRT2), 99, 70, 0),
        (DescentFamily.triangular(MAX_CHAIN_N), 2 * MAX_CHAIN_N - 1, 2, MAX_CHAIN_STEPS),
        (DescentFamily.triangular(6), 9, 2, MAX_CHAIN_STEPS),
        (DescentFamily(FamilyKind.SQRT2), 1, 1, MAX_CHAIN_STEPS),
    ):
        cases.append((family, ["--a", str(a), "--b", str(b)], a, b, max_steps))
    return cases


def test_chain_stdout_matches_json_report(capsys, tmp_path):
    # chain streams its JSON one step object at a time, each made by one
    # f-string; its stdout and its file must be the bytes of the
    # line-by-line reference and of json.dumps on the whole report
    out = tmp_path / "chain.json"
    lengths = []
    for family, pair, a, b, max_steps in _chain_cases():
        argv = ["chain", "--family", family.kind.value, *pair]
        if family.n is not None:
            argv += ["--n", str(family.n)]
        argv += ["--max-steps", str(max_steps), "--json", str(out)]
        assert cli_main(argv) == 0, argv
        run = build_chain_run(family, a, b, max_steps)
        assert capsys.readouterr().out == _reference_chain_stdout(run), argv
        assert out.read_text() == _reference_json(report_envelope([run])), argv
        head = _json_text(report_envelope([run | {"steps": []}]))
        assert head.count('"steps": []') == 1
        lengths.append(len(run["steps"]))
    assert {0, 1} <= set(lengths) and max(lengths) >= 2000


def _run_alone(argv: list[str], *flags: str, env: dict[str, str] | None = None) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "irrgeo", *argv],
        env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reuse_keeps_no_state(capsys):
    # each argv would pass or fail differently if an option of the call
    # before it leaked through the one shared parser
    sequence = [
        ["verify", "--family", "sqrt2", "--a", "7", "--b", "5", "--convergent", "3"],
        ["verify", "--family", "sqrt2", "--a", "7", "--b", "5"],
        ["verify", "--family", "hex6", "--convergent", "3"],
        ["verify", "--family", "sqrt2", "--a", "7"],
        ["verify", "--family", "pentagon", "--convergent", "3"],
    ]
    in_process = []
    for argv in sequence:
        code = cli_main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [r[0] for r in in_process] == [1, 0, 0, 1, 1]
    assert in_process == [_run_alone(argv) for argv in sequence]


def test_cli_runs_under_python_OO():
    # -OO strips docstrings; the CLI must not read one
    for argv in (
        ["sequence", "--limit", "10"],
        ["verify", "--family", "triangular", "--n", "5", "--a", "27", "--b", "7"],
    ):
        code, out, err = _run_alone(argv, "-OO")
        assert (code, err) == (0, ""), argv
        assert out == _run_alone(argv)[1], argv


def test_import_loads_no_argparse_dataclasses_or_fractions():
    # the parser is built on the first command line, every record is a
    # NamedTuple and every program path is on ints; a plain import of the
    # package (all of its modules) leaves argparse, dataclasses, the inspect
    # module dataclasses imports and fractions unloaded
    probe = (
        "import sys, irrgeo, irrgeo.render_report; "
        "print([m for m in ('argparse', 'dataclasses', 'inspect', 'fractions') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
