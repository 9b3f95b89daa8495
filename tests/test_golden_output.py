"""Library and CLI output against the frozen hashes in perfbench/golden/.

``enumerate_all.json`` records, for every (degree, mode), the configuration
count and the SHA-256 of ``to_json()`` and ``to_text()``.
``cli_oneshot.json`` maps each of its argument lists, covering every
subcommand, to the exit code and the SHA-256 of stdout.  Any drift in the
output fails here, not only in the benchmark.  Both files are only read.
``tests/error_corpus.json`` holds the exit code, stdout and stderr of the
error and verdict paths (see ``tests/error_corpus.py``).
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import error_corpus
from orbcalc import cli
from orbcalc.enumerator import enumerate_configurations

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def _load(name: str) -> dict:
    with open(GOLDEN_DIR / name, encoding="utf-8") as handle:
        return json.load(handle)


GOLDEN = _load("enumerate_all.json")
CLI_GOLDEN = _load("cli_oneshot.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_covers_every_degree_and_mode():
    assert sorted(GOLDEN) == sorted(
        f"{degree}:{mode}"
        for degree in (1, 2, 3, 4)
        for mode in ("inequality-only", "with-exclusions")
    )


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_enumeration_matches_golden_bytes(key):
    degree, mode = key.split(":")
    result = enumerate_configurations(int(degree), mode)
    expected = GOLDEN[key]
    assert len(result.reports) == expected["count"]
    assert _sha256(result.to_json()) == expected["json_sha256"]
    assert _sha256(result.to_text()) == expected["text_sha256"]


def test_cli_golden_covers_every_subcommand():
    commands = {json.loads(argv)[0] for argv in CLI_GOLDEN}
    assert commands == {
        "bubbles", "check", "chi-orb", "dedekind", "enumerate", "genus", "mu",
        "verify-examples",
    }


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_matches_golden_bytes(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(json.loads(argv))
    expected = CLI_GOLDEN[argv]
    assert code == expected["exit"]
    assert _sha256(out.getvalue()) == expected["stdout_sha256"]


ERROR_CORPUS = json.loads(error_corpus.CORPUS_PATH.read_text(encoding="utf-8"))


def test_error_corpus_is_the_listed_cases():
    assert sorted(ERROR_CORPUS) == sorted(map(json.dumps, error_corpus.corpus_argvs()))


@pytest.mark.parametrize("argv", sorted(ERROR_CORPUS))
def test_error_and_verdict_paths_match_the_corpus(argv):
    assert error_corpus.run_case(json.loads(argv)) == ERROR_CORPUS[argv]
