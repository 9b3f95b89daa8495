"""The error and verdict corpus: exit code, stdout and stderr of edge-case commands.

Each case is one ``orbcalc`` command line that ends in a one-line error, a
usage error or a verdict.  Every case runs with ``--format text`` and with
``--format json``, through ``cli.main`` in this process, inside an empty
temporary directory (so the ``--out`` target's parent does not exist) and
with ``COLUMNS=80`` (so argparse wraps its usage text the same way on every
terminal).  ``tests/test_golden_output.py`` replays the frozen corpus.

Regenerate ``error_corpus.json`` from the root of a checkout with

    PYTHONPATH=src python3 tests/error_corpus.py

and name each changed entry in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

CORPUS_PATH = Path(__file__).resolve().with_name("error_corpus.json")

CASES = (
    ("unparseable notation", ["check", "--degree", "1", "--sings", "A1, B2"]),
    ("untabulated type", ["check", "--degree", "1", "--sings", "E6, A1"]),
    ("list over MAX_POINTS", ["check", "--degree", "1", "--sings", "1001x A1"]),
    ("dedekind over MAX_WORK", ["dedekind", "--r", "1001", "--weights", "1,1,1"]),
    ("exponent literal", ["bubbles", "--total", "1e5"]),
    ("unwritable --out", ["bubbles", "--total", "3/2", "--out", "missing-dir/out.txt"]),
    ("negative energy verdict", ["check", "--degree", "1", "--sings", "1/5(1,2)"]),
    ("count prefix of 4301 digits",
     ["check", "--degree", "1", "--sings", "9" * 4301 + "x A1"]),
    ("non-ASCII byte offset", ["check", "--degree", "1", "--sings", "A1,\u3000B3"]),
    ("--chi-base over MAX_DIGITS",
     ["double-cover", "--chi-base", "9" * 1001, "--chi-branch", "1"]),
    ("ADE index over MAX_DIGITS", ["chi-orb", "--chi", "3", "--sings", "A" + "9" * 1001]),
    ("group orders over MAX_ORDER_DIGITS",
     ["check", "--degree", "1",
      "--sings", ", ".join(f"A{10**999 + k}" for k in (1, 3, 5, 7))]),
    ("dedekind over MAX_BITS",
     ["dedekind", "--r", "2", "--weights", ",".join(["1"] * 2334)]),
    ("float oracle past its error bound",
     ["dedekind", "--r", "31", "--weights", ",".join(["1"] * 600), "--oracle"]),
)


def corpus_argvs() -> list[list[str]]:
    return [argv + ["--format", fmt] for _, argv in CASES for fmt in ("text", "json")]


def run_case(argv: list[str]) -> dict:
    """Run one command line; returns its exit code, stdout and stderr."""
    from orbcalc import cli

    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as empty:
        os.chdir(empty)
        os.environ["COLUMNS"] = "80"
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    corpus = {json.dumps(argv): run_case(argv) for argv in corpus_argvs()}
    CORPUS_PATH.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} entries to {CORPUS_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
