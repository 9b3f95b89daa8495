"""Enumeration output against the frozen hashes in perfbench/golden/.

The golden file records, for every (degree, mode), the configuration count
and the SHA-256 of ``to_json()`` and ``to_text()``; any drift in the
enumerate output fails here, not only in the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from orbcalc.enumerator import enumerate_configurations

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "enumerate_all.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


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
