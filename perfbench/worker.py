"""Child process of the benchmark: runs orbcalc in-process and prints one JSON line.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with ``src`` on
``PYTHONPATH``.  The spec's ``job`` is one of

``enumerate-all``
    ``seconds > 0``: one warm-up pass, then timed passes until the time is
    used.  ``seconds == 0``: a single pass from a cold process.
``dedekind-sweep``
    One round of queries from a fresh process; the float-oracle check runs
    after the timed loop.
``cli-replay``
    The traced run's cli-oneshot items (``workloads.cli_trace_items``), run
    through ``orbcalc.cli.main`` in this process with stdout and stderr
    captured.

With ``trace`` true the work runs with every trace point wrapped, and the
reply carries the spans summarised into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from fractions import Fraction

import tracing
import workloads


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _enumerate_pass(seed: int, pass_index: int) -> list[dict]:
    from orbcalc import enumerator

    calls = []
    for degree, mode in workloads.enumerate_order(seed, pass_index):
        start = time.perf_counter()
        result = enumerator.enumerate_configurations(degree, mode)
        as_json = result.to_json()
        as_text = result.to_text()
        seconds = time.perf_counter() - start
        calls.append({
            "degree": degree,
            "mode": mode,
            "seconds": seconds,
            "count": len(result.reports),
            "json_sha256": _sha256(as_json),
            "text_sha256": _sha256(as_text),
            "json_bytes": len(as_json.encode("utf-8")),
            "text_bytes": len(as_text.encode("utf-8")),
        })
    return calls


def run_enumerate_all(spec: dict, tracer) -> dict:
    seed, seconds = spec["seed"], spec["seconds"]
    if seconds == 0:
        return {"passes": [_enumerate_pass(seed, 0)]}
    warmup = _enumerate_pass(seed, 0)
    passes = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        passes.append(_enumerate_pass(seed, len(passes) + 1))
    return {"warmup": warmup, "passes": passes}


def _admissible_roots(r: int, weights) -> int:
    return sum(1 for j in range(1, r) if all((j * b) % r for b in weights))


def run_dedekind_sweep(spec: dict, tracer) -> dict:
    from orbcalc import dedekind

    queries = workloads.dedekind_round(spec["seed"], spec["round"])
    seen: set[int] = set()
    records = []
    for r, weights, index in queries:
        start = time.perf_counter()
        value = dedekind.sigma(r, weights, index)
        seconds = time.perf_counter() - start
        records.append({"seconds": seconds, "value": str(value), "new_order": r not in seen})
        seen.add(r)
    for (r, weights, index), rec in zip(queries, records):
        exact = float(Fraction(rec["value"]))
        approx = dedekind.dedekind_sum_float_oracle(dedekind.DedekindInput(r, weights, index))
        rec["oracle_ok"] = abs(approx - exact) <= 1e-7 * max(1.0, abs(exact))
    root_terms = sum(_admissible_roots(r, w) * len(w) for r, w, _ in queries)
    return {"queries": records, "root_terms": root_terms}


def _replay_item(argv: list[str]) -> dict:
    from orbcalc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return {"exit": code, "stdout_sha256": _sha256(out.getvalue()), "stderr": err.getvalue()}


def run_cli_replay(spec: dict, tracer) -> dict:
    records = []
    for kind, argv, is_error in workloads.cli_trace_items(spec["seed"]):
        start = time.perf_counter()
        if tracer is None:
            rec = _replay_item(argv)
        else:
            rec = tracer.call(f"cli.{kind}", _replay_item, argv)
        rec.update(seconds=time.perf_counter() - start, kind=kind, argv=argv, error_path=is_error)
        records.append(rec)
    return {"items": records}


def layer_metrics(job: str, summary: tracing.SpanSummary, reply: dict) -> dict:
    """Per-layer metrics of one traced section, by the layer the section stresses."""
    calls, total, self_s = summary.calls, summary.total_s, summary.self_s
    if job == "enumerate-all":
        checks = calls["enumerator.check_config"]
        calls_made = [c for p in reply["passes"] for c in p]
        return {
            "catalog.mu_calls": calls["catalog.mu_anticanonical"],
            "catalog.mu_s": total["catalog.mu_anticanonical"],
            "catalog.sigma_calls": calls["catalog.sigma"],
            "invariants.hrr_milnor_check_calls": calls["invariants.hrr_milnor_check"],
            "invariants.hrr_milnor_check_self_s": self_s["invariants.hrr_milnor_check"],
            "invariants.bubble_energy_calls": calls["invariants.bubble_energy_from_mu"],
            "invariants.bubble_energy_per_config": calls["invariants.bubble_energy_from_mu"] / checks,
            "invariants.bubble_count_bounds_self_s": self_s["invariants.bubble_count_bounds"],
            "enumerator.enumerate_calls": calls["enumerator.enumerate_configurations"],
            "enumerator.enumerate_self_s": self_s["enumerator.enumerate_configurations"],
            "enumerator.check_config_calls": checks,
            "enumerator.check_config_self_s": self_s["enumerator.check_config"],
            "enumerator.configs_emitted": sum(c["count"] for c in calls_made),
            "enumerator.to_json_dict_s": total["enumerator.to_json_dict"],
            "enumerator.to_json_s": self_s["enumerator.to_json"],
            "enumerator.to_text_s": total["enumerator.to_text"],
            "enumerator.json_bytes": sum(c["json_bytes"] for c in calls_made),
            "enumerator.text_bytes": sum(c["text_bytes"] for c in calls_made),
            "rationals.rational_to_json_calls": calls["rationals.rational_to_json"],
            "rationals.format_rational_calls": calls["rationals.format_rational"],
        }
    if job == "dedekind-sweep":
        durations = summary.durations["dedekind.sigma"]
        first = [d for d, q in zip(durations, reply["queries"]) if q["new_order"]]
        repeat = [d for d, q in zip(durations, reply["queries"]) if not q["new_order"]]
        first_ms = 1e3 * statistics.median(first)
        repeat_ms = 1e3 * statistics.median(repeat)
        return {
            "dedekind.sigma_calls": calls["dedekind.sigma"],
            "dedekind.sigma_s": total["dedekind.sigma"],
            "dedekind.first_order_ms": first_ms,
            "dedekind.repeat_order_ms": repeat_ms,
            "dedekind.root_terms": reply["root_terms"],
            "dedekind.ns_per_root_term": 1e9 * total["dedekind.sigma"] / reply["root_terms"],
            "cyclotomic.table_gap_ms": first_ms - repeat_ms,
        }
    return {
        "invariants.chi_orb_calls": calls["invariants.chi_orb_from_chi"],
        "invariants.chi_orb_self_s": self_s["invariants.chi_orb_from_chi"],
        "cli.verify_examples.enumerate_calls": summary.children_named(
            "cli.verify-examples", "enumerator.enumerate_configurations"
        ),
    }


JOBS = {
    "enumerate-all": run_enumerate_all,
    "dedekind-sweep": run_dedekind_sweep,
    "cli-replay": run_cli_replay,
}


def main() -> None:
    spec = json.loads(sys.argv[1])
    job = JOBS[spec["job"]]
    import orbcalc  # noqa: F401  (import cost stays outside every timed region)

    if spec.get("trace"):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            reply = job(spec, tracer)
        reply["layers"] = layer_metrics(spec["job"], tracer.summary(), reply)
    else:
        reply = job(spec, None)
    print(json.dumps(reply))


if __name__ == "__main__":
    main()
