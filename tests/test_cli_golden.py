"""Replay every verb on every fixture and compare the stdout bytes.

`cli_golden.json` maps "verb fixture" to the sha256 of the stdout of
`flagtutte <verb> fixtures/<fixture>` and to its exit code.  It holds the
pairs that finished within the time budget when it was written; the test
replays each through :func:`flagtutte.cli.main`, from the repository root so
that any path in a message reads the same.

Rewrite it only when an output is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py [BUDGET_S, default 5]
"""

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
VERBS = ("check", "tutte", "ktutte", "charpoly", "qprime", "polytope",
         "yclass", "quotient", "union")

PAIRS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_cli_bytes_match_golden(pair, monkeypatch):
    from flagtutte.cli import main
    want = PAIRS[pair]
    verb, fixture = pair.split()
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([verb, f"fixtures/{fixture}"])
    assert code == want["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() \
        == want["sha256"]


def test_golden_covers_every_verb():
    assert {pair.split()[0] for pair in PAIRS} == set(VERBS)


def write(budget):
    """Run each pair as a child process; keep those done within budget s."""
    golden = {}
    for fixture in sorted(p.name for p in (ROOT / "fixtures").glob("*.json")):
        for verb in VERBS:
            argv = [sys.executable, "-m", "flagtutte.cli", verb,
                    f"fixtures/{fixture}"]
            try:
                done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                      timeout=budget)
            except subprocess.TimeoutExpired:
                print(f"skip {verb} {fixture}: over {budget} s")
                continue
            golden[f"{verb} {fixture}"] = {
                "exit": done.returncode,
                "sha256": hashlib.sha256(done.stdout).hexdigest()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} pairs to {GOLDEN}")


if __name__ == "__main__":
    write(float(sys.argv[1]) if len(sys.argv) > 1 else 5.0)
