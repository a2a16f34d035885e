"""Golden CLI set: fixed ``mathieu`` commands with their recorded stdout.

``golden.json`` lists each command's argv, exit code and stdout text as
recorded at the commit it names. ``changed()`` runs every command in
process through ``mathieu_series.cli.main`` and counts the commands whose
exit code or stdout bytes differ; the benchmark reports that count as
``cli.bytes_changed``.

Re-record after a deliberate output change (run from the repository root):

    PYTHONPATH=src python3 perfbench/golden.py --record <commit>
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def run_command(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one CLI invocation inside this process."""
    from mathieu_series import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on --version and usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def changed() -> int:
    """Number of golden commands whose exit code or stdout bytes changed."""
    return sum(
        run_command(cmd["argv"]) != (cmd["exit"], cmd["stdout"]) for cmd in load()["commands"]
    )


def record(commit: str) -> None:
    golden = load()
    for cmd in golden["commands"]:
        cmd["exit"], cmd["stdout"] = run_command(cmd["argv"])
    golden["recorded_at"] = commit
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", metavar="COMMIT", required=True, help="commit the outputs come from")
    record(ap.parse_args().record)
