"""Seeded inputs for the three benchmark workloads.

Every generator is a pure function of the seed (and a pass or round index),
built on ``random.Random`` seeded with a string, which hashes the same way
in every interpreter.  Nothing here imports orbcalc: the inputs must not
depend on the program under test.

``enumerate-all``
    Each pass makes the eight ``enumerate_configurations`` calls (degrees
    1-4, both modes) in a seeded order.  The output is fixed; only the call
    order depends on the seed.
``dedekind-sweep``
    Each round is a fresh process answering ``ROUND_QUERIES`` queries
    ``sigma(r, weights, index)`` over the 100 ``ORDERS`` spread evenly over
    ``[2, MAX_ORDER]``.  Every order is queried twice, so exactly half the
    queries reuse an order the round has already built.
``cli-oneshot``
    An endless stream of ``python -m orbcalc`` argument lists.  The first
    ``HEAD_ITEMS`` items hold, in seeded positions, the three heavy items and
    the unwritable ``--out`` item, so each runs once in every run.  After
    that a seeded mix of small subcommands from a fixed pool, with an
    ``ERROR_SHARE`` of other error-path inputs.
"""

from __future__ import annotations

import random
from typing import Iterator

DEFAULT_SEED = 0

MODES = ("inequality-only", "with-exclusions")
ENUMERATE_CALLS = tuple((d, m) for d in (1, 2, 3, 4) for m in MODES)

MAX_ORDER = 300
ORDERS = tuple(range(2, MAX_ORDER + 1, 3))
ROUND_QUERIES = 2 * len(ORDERS)

HEAD_ITEMS = 8
ERROR_SHARE = 0.05
# The parent directory does not exist, so the write fails inside the checkout.
UNWRITABLE_OUT = "perfbench-missing-dir/out.txt"
TRACE_ITEMS = 40


def enumerate_order(seed: int, pass_index: int) -> list[tuple[int, str]]:
    """The eight (degree, mode) calls of one pass, in seeded order."""
    calls = list(ENUMERATE_CALLS)
    random.Random(f"enumerate-all:{seed}:{pass_index}").shuffle(calls)
    return calls


def dedekind_round(seed: int, round_index: int) -> list[tuple[int, tuple[int, ...], int]]:
    """The (r, weights, index) queries of one round, in seeded order.

    Weights are drawn from ``[1, r)``, so some share a factor with r; the
    index is drawn from ``[-2r, 2r]``, so it can be negative or exceed r.
    The orders and the weight counts (cycling 1, 2, 3 along the sorted
    orders) are the same for every seed: phi(r) jumps between neighbouring
    orders, and seeded orders made a round's speed vary by 40% between seeds.
    """
    rng = random.Random(f"dedekind-sweep:{seed}:{round_index}")
    queries = []
    for i, r in enumerate(sorted(ORDERS * (ROUND_QUERIES // len(ORDERS)))):
        weights = tuple(rng.randrange(1, r) for _ in range(1 + i % 3))
        queries.append((r, weights, rng.randint(-2 * r, 2 * r)))
    rng.shuffle(queries)
    return queries


# --- cli-oneshot -------------------------------------------------------------

_ALLOWED_TYPES = {
    4: ("A1",),
    3: ("A1", "A2"),
    2: ("A1", "A2", "A3", "A4", "1/4(1,1)"),
    1: ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "D4",
        "1/4(1,1)", "1/8(1,3)", "1/9(1,2)"),
}
_MU_TYPES = _ALLOWED_TYPES[1] + ("1/2(1,1)", "1/3(1,2)", "1/5(1,4)", "1/7(1,6)")
_K2_TYPES = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "D4", "D5", "E6", "E7", "E8")
_CURVE_WEIGHTS = ("1,1,1", "1,1,2", "1,1,4", "1,2,2", "1,2,3", "1,3,5", "2,3,5")
_BUBBLE_QUANTA = ("1/2", "3/4", "2/3")

HEAVY_ITEMS = (
    ("enumerate", ["enumerate", "--degree", "1", "--format", "json"]),
    ("enumerate", ["enumerate", "--degree", "2", "--workers", "2"]),
    ("verify-examples", ["verify-examples"]),
)
OUT_ERROR_ITEM = ["bubbles", "--total", "3/2", "--out", UNWRITABLE_OUT]
# unparseable notation, an untabulated type, non-coprime cyclic weights
ERROR_ITEMS = (
    ["mu", "--sing", "B3"],
    ["check", "--degree", "1", "--sings", "A8,, 2yA1"],
    ["chi-orb", "--chi", "3", "--sings", "1/9(1,2"],
    ["mu", "--sing", "E6"],
    ["check", "--degree", "1", "--sings", "E6, A1"],
    ["mu", "--sing", "1/6(2,3)"],
    ["chi-orb", "--chi", "5", "--sings", "A1, 1/4(2,1)"],
)


def _multiset(rng: random.Random, types: tuple[str, ...]) -> str:
    chosen = rng.sample(types, rng.randint(1, min(3, len(types))))
    parts = []
    for name in chosen:
        n = rng.randint(1, 3)
        parts.append(name if n == 1 else f"{n}x {name}")
    return ", ".join(parts)


def cli_pool() -> dict[str, list[list[str]]]:
    """Success-path argument lists per subcommand; the same for every seed."""
    rng = random.Random("cli-oneshot:pool")
    pool: dict[str, list[list[str]]] = {
        "mu": [["mu", "--sing", s] for s in _MU_TYPES]
        + [["mu", "--sing", s, "--bundle", "canonical-square"] for s in _K2_TYPES],
        "dedekind": [],
        "check": [],
        "bubbles": [],
        "genus": [],
        "chi-orb": [],
    }
    for _ in range(40):
        r = rng.randint(2, 12)
        weights = ",".join(str(rng.randrange(1, r)) for _ in range(rng.randint(1, 3)))
        index = rng.randint(-2 * r, 2 * r)
        pool["dedekind"].append(["dedekind", "--r", str(r), "--weights", weights, f"--index={index}"])
    for _ in range(40):
        degree = rng.randint(1, 4)
        argv = ["check", "--degree", str(degree), "--sings", _multiset(rng, _ALLOWED_TYPES[degree])]
        if rng.random() < 0.35:
            argv += ["--chi", str(rng.randint(3, 12))]
        pool["check"].append(argv)
    for _ in range(30):
        argv = ["bubbles", "--total", f"{rng.randint(1, 48)}/4"]
        if rng.random() < 0.3:
            argv += ["--quantum", rng.choice(_BUBBLE_QUANTA)]
        pool["bubbles"].append(argv)
    for _ in range(30):
        pool["genus"].append(
            ["genus", "--weights", rng.choice(_CURVE_WEIGHTS), "--degree", str(rng.randint(1, 15))]
        )
    for _ in range(30):
        pool["chi-orb"].append(
            ["chi-orb", "--chi", str(rng.randint(1, 12)), "--sings", _multiset(rng, _ALLOWED_TYPES[1])]
        )
    return pool


def cli_items(seed: int) -> Iterator[tuple[str, list[str], bool]]:
    """Endless (kind, argv, is_error_path) stream for one seed."""
    rng = random.Random(f"cli-oneshot:{seed}")
    pool = cli_pool()
    kinds = sorted(pool)

    def small() -> tuple[str, list[str], bool]:
        if rng.random() < ERROR_SHARE:
            return "error", list(rng.choice(ERROR_ITEMS)), True
        kind = rng.choice(kinds)
        return kind, list(rng.choice(pool[kind])), False

    head = [(kind, list(argv), False) for kind, argv in HEAVY_ITEMS]
    head.append(("error", list(OUT_ERROR_ITEM), True))
    head += [small() for _ in range(HEAD_ITEMS - len(head))]
    rng.shuffle(head)
    yield from head
    while True:
        yield small()


def cli_trace_items(seed: int) -> list[tuple[str, list[str], bool]]:
    """The first cli-oneshot items, at least TRACE_ITEMS and until every kind has 3."""
    items = []
    counts = dict.fromkeys(cli_pool(), 0)
    for item in cli_items(seed):
        items.append(item)
        if item[0] in counts:
            counts[item[0]] += 1
        if len(items) >= TRACE_ITEMS and min(counts.values()) >= 3:
            return items
