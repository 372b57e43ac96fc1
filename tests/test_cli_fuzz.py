"""Seeded argv fuzzing of the command line.

Every argv must be answered (exit 0, or 2 for a figure that fails) or
refused with exit 1, without an exception escaping cli_main and within a
bounded time.  The value pools straddle every input bound, so what keeps
each call short is the bound itself, not the choice of values.
"""

import random
import time

from irrgeo import cli_main, render_report

_HUGE = str(2**5000 + 7)  # past every pair bound
_TOO_LONG = "9" * 5000  # more digits than CPython turns into an int

# option -> (values in range, values out of range or not integers)
_VALUES = {
    "--family": (("sqrt2", "hex6", "triangular"), ("pentagon",)),
    "--n": (("2", "3", "5"), ("-3", "0", "1", "65", str(2**32 + 1), "x")),
    "--a": (("3", "7", "17", "22", "27"), ("-3", "0", "x", _HUGE, _TOO_LONG)),
    "--b": (("2", "5", "7", "9", "12"), ("-3", "0", "x", _HUGE)),
    "--convergent": (("1", "3", "5"), ("0", "2049", "1e3")),
    "--max-steps": (("0", "3", "32"), ("-1", "10001", "x")),
    "--n-max": (("2", "12"), ("-3", "1", "10001", "x", _HUGE)),
    "--limit": (("0", "300", _HUGE), ("-1", "x")),
    "--x": (("1", "1000000", _HUGE), ("-1", "0", "x")),
}

# the options each subcommand takes; a figure's pair comes from either
# --a/--b or --convergent
_FIGURE = ("--family", "--n", "--a", "--b", "--convergent")
_OPTIONS = {
    "verify": _FIGURE + ("--json",),
    "census": _FIGURE + ("--json",),
    "chain": _FIGURE + ("--max-steps", "--json"),
    "range": ("--family", "--n-max", "--json"),
    "sequence": ("--limit",),
    "density": ("--x",),
    "svg": _FIGURE + ("--out",),
}
_ALL_OPTIONS = sorted({o for opts in _OPTIONS.values() for o in opts})
_KEEP = {"--n": 0.5}  # the chance that an option is given; 0.9 otherwise


def _value(rng: random.Random, option: str, tmp_path) -> str:
    if option in ("--json", "--out"):
        return str(tmp_path / rng.choice(("f", "missing/f")))
    in_range, out_of_range = _VALUES[option]
    return rng.choice(in_range if rng.random() < 0.85 else out_of_range)


def _argv(rng: random.Random, tmp_path) -> list[str]:
    """A subcommand (now and then none, or an unknown one) with each of its
    options kept or missing, some duplicated, some foreign, and now and
    then an option left without its value."""
    command = rng.choice(sorted(_OPTIONS)) if rng.random() < 0.9 else rng.choice(("nonsense", ""))
    unused = rng.choice((("--convergent",), ("--a", "--b")))
    options = [
        o for o in _OPTIONS.get(command, ()) if o not in unused and rng.random() < _KEEP.get(o, 0.9)
    ]
    if options and rng.random() < 0.25:
        options.append(rng.choice(options))
    if rng.random() < 0.1:
        options.append(rng.choice(_ALL_OPTIONS))
    rng.shuffle(options)
    argv = [command] if rng.random() < 0.97 else []
    for option in options:
        argv += [option, _value(rng, option, tmp_path)]
    if argv and rng.random() < 0.05:
        argv.pop()
    return argv


def test_every_argv_is_answered_or_refused(capsys, tmp_path):
    rng = random.Random(3)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(300):
        argv = _argv(rng, tmp_path)
        start = time.perf_counter()
        code = cli_main(argv)
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code in codes, argv
        assert elapsed < 2.0, (elapsed, argv)
        codes[code] += 1
    # the draw reaches answers, refusals and failed figures alike
    assert min(codes.values()) >= 5, codes


def _outcome(argv, tmp_path, capsys) -> tuple:
    """cli_main's exit code, its stdout and stderr, and the bytes of the
    file the fuzzed argvs name."""
    written = tmp_path / "f"
    written.unlink(missing_ok=True)
    code = cli_main(argv)
    out, err = capsys.readouterr()
    return code, out, err, written.read_bytes() if written.exists() else None


def test_command_parsers_answer_as_the_top_level_parser(capsys, tmp_path, monkeypatch):
    # cli_main parses a line that starts with a command by that command's
    # own parser; with that table emptied, the top-level parser parses
    # every line, and each must give the same exit code, output and file
    rng = random.Random(3)
    argvs = [_argv(rng, tmp_path) for _ in range(300)]
    argvs += [[], ["--help"], ["-h", "verify"], [""], ["nonsense"], ["nonsense", "--help"]]
    argvs += [[command, "--help"] for command in _OPTIONS]
    argvs += [["verify", "-h", "--family"], ["verify", "--", "--family", "sqrt2"], ["census", "--famil", "hex6"]]
    split = [_outcome(argv, tmp_path, capsys) for argv in argvs]
    parser, commands = render_report._build_parser()
    assert sorted(commands) == sorted(_OPTIONS)
    monkeypatch.setattr(render_report, "_build_parser", lambda: (parser, {}))
    for argv, want in zip(argvs, split):
        assert _outcome(argv, tmp_path, capsys) == want, argv
    # the draw reaches help, usage errors, answers and written reports
    codes = {code for code, *_ in split}
    assert {0, 1, 2} <= codes
    assert sum(1 for *_, data in split if data) >= 10
