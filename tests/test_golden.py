"""Golden outputs of the command line.

A fixed argv matrix is replayed through cli_main, and for each argv the
exit code, the sha256 of stdout and the sha256 of the written --json or
--out file are compared with the digests in golden.json.  Any change to
a byte of a report, an SVG or the printed text fails here; stderr is not
compared, so usage-error wording may change.

Regenerate golden.json only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from irrgeo.render_report import cli_main

GOLDEN = Path(__file__).with_name("golden.json")
OUT = "OUT"  # stands for the output path in argv and stdout

FIGURE_FAMILIES = [["--family", "sqrt2"], ["--family", "hex6"]] + [
    ["--family", "triangular", "--n", str(n)] for n in range(2, 9)
]


def argv_matrix() -> list[list[str]]:
    readme = [
        ["verify", "--family", "hex6", "--convergent", "3"],
        ["verify", "--family", "triangular", "--n", "4", "--a", "19", "--b", "6", "--json", OUT],
        ["census", "--family", "sqrt2", "--a", "7", "--b", "5"],
        ["chain", "--family", "sqrt2", "--a", "17", "--b", "12"],
        ["range", "--family", "triangular", "--n-max", "10"],
        ["sequence", "--limit", "1000000"],
        ["density", "--x", "1000000"],
        ["svg", "--family", "triangular", "--n", "5", "--a", "27", "--b", "7", "--out", OUT],
    ]
    # convergent 1 is out of the window for most families; the census and
    # the SVG of the larger triangular figures take most of the run time,
    # so they are taken at one convergent each
    figures = []
    for family in FIGURE_FAMILIES:
        figures += [["verify", *family, "--convergent", k, "--json", OUT] for k in "126"]
        figures += [["chain", *family, "--convergent", k, "--json", OUT] for k in "1236"]
        figures += [
            ["census", *family, "--convergent", "3", "--json", OUT],
            ["svg", *family, "--convergent", "2", "--out", OUT],
        ]
    # T_8 = 36 has no convergents, so n = 8 also gets an explicit pair
    figures += [
        [cmd, "--family", "triangular", "--n", "8", "--a", "7", "--b", "1", *out]
        for cmd, out in (("verify", ["--json", OUT]), ("census", []), ("svg", ["--out", OUT]))
    ]
    # big figures: triangular n = 10, 13, 16 at one mid-window pair with a
    # 40-bit b (55 to 136 smalls), and the census at the highest in-window
    # convergent up to 60, where a has 76 (sqrt2) and 99 (hex6) bits
    big_b = 10**12 + 39
    big = []
    for n in (10, 13, 16):
        pair = ["--family", "triangular", "--n", str(n), "--a", str((3 * n + 1) * big_b // 4)]
        pair += ["--b", str(big_b)]
        big += [["verify", *pair, "--json", OUT], ["svg", *pair, "--out", OUT]]
    big += [["census", *family, "--convergent", "60", "--json", OUT] for family in FIGURE_FAMILIES[:2]]
    ranges = [
        ["range", "--family", "sqrt2", "--json", OUT],
        ["range", "--family", "hex6", "--json", OUT],
        ["range", "--family", "triangular", "--n-max", "40", "--json", OUT],
    ]
    usage_errors = [
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
    return readme + figures + big + ranges + usage_errors


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_matrix(workdir: Path) -> dict[str, list]:
    """argv (joined by spaces) -> [exit code, stdout sha256, file sha256 or None]."""
    out = workdir / "out"
    digests = {}
    for argv in argv_matrix():
        out.unlink(missing_ok=True)
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = cli_main([str(out) if arg == OUT else arg for arg in argv])
        text = stdout.getvalue().replace(str(out), OUT)
        written = _sha(out.read_bytes()) if out.exists() else None
        digests[" ".join(argv)] = [code, _sha(text.encode()), written]
    return digests


def test_cli_outputs_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = run_matrix(tmp_path)
    assert actual.keys() == expected.keys()
    changed = [argv for argv in expected if actual[argv] != expected[argv]]
    assert not changed, changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(run_matrix(Path(tmp)), sys.stdout, indent=1)
        print()
