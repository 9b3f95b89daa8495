"""orbcalc benchmark: three seeded workloads, six end-to-end metrics, one traced run.

Run from the root of a checkout (no build step; ``src`` goes on PYTHONPATH):

    python3 perfbench/run.py --workload enumerate-all --seed 0 --seconds 30 --trace 0

Workloads (see README.md for why each exists and what it bypasses):

``enumerate-all``   every degree 1-4 enumeration in both modes, plus
                    ``to_json``/``to_text``, in one worker process.
``dedekind-sweep``  seeded ``sigma(r, weights, index)`` queries, one fresh
                    worker process per round of queries.
``cli-oneshot``     closed loop, one client: each item is a fresh
                    ``python -m orbcalc ...`` process.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.  The
line before it is ``{"meta": ...}``: interpreter, numpy, cores, commit, seed,
workload sizes, input-property shares and the tail percentile used.  Every
output is checked against goldens frozen by ``freeze.py``; a mismatch makes
``correct`` false and counts the item as failed.  An item in ``KNOWN_DEFECTS``
that breaks its contract is counted apart, in ``ok_ratio`` and ``meta``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from math import gcd
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
WORKER = BENCH / "worker.py"

SETUP_REPS = 7
PROBE_REPS = 5
CHILD_TIMEOUT_S = 60
SETUP_CODE = "import time; t = time.perf_counter(); import orbcalc; print(time.perf_counter() - t)"
# Latency is taken over this many first items of a run, which a 30-second run
# at the reference commit exceeds even with the machine at half speed, so every
# commit is judged on the same inputs and the tail at the same percentile.
LATENCY_ITEMS = {"enumerate-all": 24, "dedekind-sweep": 800, "cli-oneshot": 100}
# cli-oneshot items whose per-subcommand latency the traced run reports
CLI_SUBCOMMANDS = ("dedekind", "mu", "check", "bubbles", "genus", "chi-orb", "enumerate", "verify-examples")
# Items that already break their contract at the reference commit.  They run in
# every cli-oneshot run and lower ok_ratio while the defect lasts, but only a
# failure that is new since the reference commit counts as failed.
KNOWN_DEFECTS = {
    json.dumps(workloads.OUT_ERROR_ITEM): "bubbles --out to a missing directory prints a traceback",
}


# --- children -----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        capture_output=True, timeout=CHILD_TIMEOUT_S,
    )


def run_worker(spec: dict) -> dict:
    proc = run_python([str(WORKER), json.dumps(spec)])
    if proc.returncode != 0:
        raise RuntimeError(f"worker {spec} failed:\n{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def run_cli(argv: list[str]) -> tuple[float, int, bytes, str]:
    """One ``python -m orbcalc`` process: (wall seconds, exit code, stdout, stderr)."""
    start = time.perf_counter()
    proc = run_python(["-m", "orbcalc", *argv])
    seconds = time.perf_counter() - start
    return seconds, proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace")


def measure_setup() -> list[float]:
    """Seconds for ``import orbcalc`` in a fresh interpreter, SETUP_REPS times."""
    return [float(run_python(["-c", SETUP_CODE]).stdout) for _ in range(SETUP_REPS)]


# --- checks and statistics ----------------------------------------------------

def load_golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def error_path_ok(returncode: int, stderr: str) -> bool:
    """An error-path item keeps the CLI contract: exit 0/1/2, no traceback, one stderr line."""
    return returncode in (0, 1, 2) and "Traceback" not in stderr and len(stderr.splitlines()) <= 1


def cli_item_ok(argv: list[str], is_error: bool, returncode: int, stdout_sha256: str,
                stderr: str, golden: dict) -> bool:
    if is_error:
        return error_path_ok(returncode, stderr)
    expected = golden.get(json.dumps(argv))
    return expected is not None and expected == {"exit": returncode, "stdout_sha256": stdout_sha256}


def cli_outcome(argv: list[str], ok: bool) -> str:
    """``ok``, ``defect`` (a known defect of the reference commit, reproduced) or ``failed``."""
    if ok:
        return "ok"
    return "defect" if json.dumps(argv) in KNOWN_DEFECTS else "failed"


def enumerate_golden(call: dict, golden: dict) -> dict:
    return golden[f"{call['degree']}:{call['mode']}"]


def enumerate_call_ok(call: dict, golden: dict) -> bool:
    expected = enumerate_golden(call, golden)
    return all(call[k] == expected[k] for k in ("count", "json_sha256", "text_sha256"))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with at least 10 samples beyond it.

    That is the 11th-largest sample, at percentile 100*(n-10)/n.  With fewer than
    11 samples no percentile qualifies and the maximum is returned at 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def shares(values: list) -> dict:
    return {str(v): values.count(v) / len(values) for v in sorted(set(values))}


# --- workloads ----------------------------------------------------------------

def run_enumerate_all(seed: int, seconds: float) -> dict:
    golden = load_golden("enumerate_all.json")
    reply = run_worker({"job": "enumerate-all", "seed": seed, "seconds": seconds})
    passes = reply["passes"]
    # a call whose output differs fails every configuration it should have emitted
    checked = [c for p in [reply["warmup"]] + passes for c in p]
    attempted = sum(enumerate_golden(c, golden)["count"] for c in checked)
    failed = sum(enumerate_golden(c, golden)["count"] for c in checked if not enumerate_call_ok(c, golden))
    pass_seconds = [sum(c["seconds"] for c in p) for p in passes]
    rates = [sum(c["count"] for c in p) / secs for p, secs in zip(passes, pass_seconds)]
    return {
        "items_per_s": statistics.median(rates),
        "latencies": pass_seconds,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "sizes": {"timed_passes": len(passes), "calls_per_pass": len(workloads.ENUMERATE_CALLS),
                  "configurations_per_pass": sum(c["count"] for c in passes[0])},
        "latency_item": "one pass: eight enumerate_configurations calls with to_json and to_text",
    }


def _dedekind_round_failures(seed: int, round_index: int, reply: dict, golden: dict) -> int:
    expected = None
    if seed == golden["seed"] and round_index < len(golden["rounds"]):
        expected = golden["rounds"][round_index]
    failed = 0
    for i, query in enumerate(reply["queries"]):
        wrong = expected is not None and query["value"] != expected[i]
        failed += wrong or not query["oracle_ok"]
    return failed


def run_dedekind_sweep(seed: int, seconds: float) -> dict:
    golden = load_golden("dedekind_sweep.json")
    replies = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        replies.append(run_worker({"job": "dedekind-sweep", "seed": seed, "round": len(replies)}))
    failed = sum(_dedekind_round_failures(seed, k, rep, golden) for k, rep in enumerate(replies))
    queries = [q for k in range(len(replies)) for q in workloads.dedekind_round(seed, k)]
    answered = [q for rep in replies for q in rep["queries"]]
    rates = [len(rep["queries"]) / sum(q["seconds"] for q in rep["queries"]) for rep in replies]
    return {
        "items_per_s": statistics.median(rates),
        "latencies": [q["seconds"] for q in answered],
        "attempted": len(answered),
        "failed": failed,
        "correct": failed == 0,
        "sizes": {"rounds": len(replies), "queries_per_round": workloads.ROUND_QUERIES,
                  "orders": len(workloads.ORDERS), "max_order": workloads.MAX_ORDER,
                  "golden_checked": seed == golden["seed"]},
        "shares": {
            "reused_order": sum(not q["new_order"] for q in answered) / len(answered),
            "non_coprime_weight": sum(any(gcd(b, r) > 1 for b in w) for r, w, _ in queries) / len(queries),
            "weight_count": shares([len(w) for _, w, _ in queries]),
        },
        "latency_item": "one sigma query",
    }


def run_cli_oneshot(seed: int, seconds: float) -> dict:
    golden = load_golden("cli_oneshot.json")
    stream = workloads.cli_items(seed)
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        kind, argv, is_error = next(stream)
        secs, code, out, err = run_cli(argv)
        outcome = cli_outcome(argv, cli_item_ok(argv, is_error, code, sha256(out), err, golden))
        records.append({"kind": kind, "argv": argv, "seconds": secs, "outcome": outcome,
                        "error_path": is_error})
    failed = sum(r["outcome"] == "failed" for r in records)
    return {
        "items_per_s": len(records) / sum(r["seconds"] for r in records),
        "latencies": [r["seconds"] for r in records],
        "attempted": len(records),
        "failed": failed,
        "defects": sum(r["outcome"] == "defect" for r in records),
        "correct": failed == 0,
        "sizes": {"items": len(records), "clients": 1},
        "shares": {
            "error_path": sum(r["error_path"] for r in records) / len(records),
            "subcommand": shares([r["kind"] for r in records]),
        },
        "failed_items": sorted({r["kind"] for r in records if r["outcome"] == "failed"}),
        "known_defects": sorted({KNOWN_DEFECTS[json.dumps(r["argv"])]
                                 for r in records if r["outcome"] == "defect"}),
        "latency_item": "one python -m orbcalc process",
    }


RUNNERS = {
    "enumerate-all": run_enumerate_all,
    "dedekind-sweep": run_dedekind_sweep,
    "cli-oneshot": run_cli_oneshot,
}


# --- traced run -----------------------------------------------------------------

def _importtime_ms() -> tuple[float, float]:
    """Median cumulative import time of orbcalc and of numpy, from ``-X importtime``."""
    orbcalc_us, numpy_us = [], []
    for _ in range(PROBE_REPS):
        cumulative = {}
        for line in run_python(["-X", "importtime", "-c", "import orbcalc"]).stderr.decode().splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum)
        orbcalc_us.append(cumulative.get("orbcalc", 0))
        numpy_us.append(cumulative.get("numpy", 0))
    return statistics.median(orbcalc_us) / 1e3, statistics.median(numpy_us) / 1e3


def _interpreter_ms() -> float:
    samples = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        run_python(["-c", "pass"])
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def _section_rate(job: str, reply: dict) -> float:
    if job == "enumerate-all":
        calls = reply["passes"][0]
        return sum(c["count"] for c in calls) / sum(c["seconds"] for c in calls)
    records = reply["queries"] if job == "dedekind-sweep" else reply["items"]
    return len(records) / sum(r["seconds"] for r in records)


def traced_run(workload: str, seed: int) -> dict:
    """Per-layer metrics from traced sections of all three workloads' inputs.

    dedekind.* and cyclotomic.* come from one traced dedekind-sweep round;
    catalog.*, invariants.*, enumerator.* and rationals.* from one cold traced
    enumerate-all pass, except the chi_orb figures, which only cli items
    exercise; cli.* from the first cli-oneshot items run as processes and
    replayed in-process under the tracer.  The named workload's section is also
    run untraced, for the tracing overhead.
    """
    jobs = {
        "enumerate-all": {"job": "enumerate-all", "seed": seed, "seconds": 0},
        "dedekind-sweep": {"job": "dedekind-sweep", "seed": seed, "round": 0},
        "cli-oneshot": {"job": "cli-replay", "seed": seed},
    }
    traced = {name: run_worker({**spec, "trace": True}) for name, spec in jobs.items()}
    untraced = run_worker(jobs[workload])
    job = jobs[workload]["job"]
    untraced_rate, traced_rate = _section_rate(job, untraced), _section_rate(job, traced[workload])

    enum_golden = load_golden("enumerate_all.json")
    cli_golden = load_golden("cli_oneshot.json")
    items = workloads.cli_trace_items(seed)
    by_kind: dict[str, list[float]] = {}
    cli_outcomes = []  # one per cli item, run as a process and replayed
    for kind, argv, is_error in items:
        secs, code, out, err = run_cli(argv)
        ok = cli_item_ok(argv, is_error, code, sha256(out), err, cli_golden)
        cli_outcomes.append(cli_outcome(argv, ok))
        by_kind.setdefault(kind, []).append(1e3 * secs)
    for rec in traced["cli-oneshot"]["items"]:
        ok = cli_item_ok(rec["argv"], rec["error_path"], rec["exit"], rec["stdout_sha256"],
                         rec["stderr"], cli_golden)
        cli_outcomes.append(cli_outcome(rec["argv"], ok))
    calls = traced["enumerate-all"]["passes"][0]
    failed = sum(not enumerate_call_ok(c, enum_golden) for c in calls)
    failed += _dedekind_round_failures(seed, 0, traced["dedekind-sweep"], load_golden("dedekind_sweep.json"))
    failed += cli_outcomes.count("failed")
    attempted = len(cli_outcomes) + len(calls) + len(traced["dedekind-sweep"]["queries"])

    import_ms, numpy_ms = _importtime_ms()
    layers = {}
    for reply in traced.values():
        layers.update(reply["layers"])
    layers.update({
        "cli.interpreter_ms": _interpreter_ms(),
        "cli.import_ms": import_ms,
        "cli.import_numpy_ms": numpy_ms,
        **{f"cli.{k.replace('-', '_')}_ms": statistics.median(by_kind[k]) for k in CLI_SUBCOMMANDS},
        "cli.error_path_ms": statistics.median(by_kind["error"]),
        "trace.overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0),
    })
    return {
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "known_defects": cli_outcomes.count("defect"),
        "sizes": {"cli_items": len(items), "dedekind_queries": len(traced["dedekind-sweep"]["queries"]),
                  "enumerate_passes": 1},
        "overhead": {"section": workload, "untraced_items_per_s": untraced_rate,
                     "traced_items_per_s": traced_rate},
    }


# --- entry point ----------------------------------------------------------------

def run_metadata(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "orbcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy_version,
        "usable_cores": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbcalc" / "__init__.py").is_file():
        print(f"perfbench: no orbcalc sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    meta = run_metadata(args)
    if args.trace:
        run = traced_run(args.workload, args.seed)
        values = run["layers"]
        correct = run["correct"]
        meta.update(sizes=run["sizes"], overhead=run["overhead"], known_defect_items=run["known_defects"])
    else:
        setup = measure_setup()
        run = RUNNERS[args.workload](args.seed, args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        latencies = run["latencies"][: LATENCY_ITEMS[args.workload]]
        tail_s, tail_pct, n = tail(latencies)
        values = {
            "setup_s": statistics.median(setup),
            "items_per_s": run["items_per_s"],
            "item_p50_ms": 1e3 * statistics.median(latencies),
            "item_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": peak_kb / 1024,
            "ok_ratio": 1 - (run["failed"] + run.get("defects", 0)) / run["attempted"],
        }
        correct = run["correct"]
        meta.update(
            sizes=run["sizes"], shares=run.get("shares"), setup_samples_s=setup,
            latency_item=run["latency_item"], tail_percentile=tail_pct, latency_samples=n,
        )
        for key in ("failed_items", "known_defects"):
            if key in run:
                meta[key] = run[key]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
