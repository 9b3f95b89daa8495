"""Freeze the golden outputs that every benchmark run is checked against.

Run from the root of a checkout, at the commit whose outputs are the
reference (the goldens in this directory come from the first commit that
carried the benchmark):

    python3 perfbench/freeze.py

It writes three files under ``golden/``:

``enumerate_all.json``   count and SHA-256 of ``to_json()``/``to_text()`` per
                         (degree, mode);
``dedekind_sweep.json``  the exact ``sigma`` values of the first
                         ``GOLDEN_ROUNDS`` rounds of the default seed;
``cli_oneshot.json``     exit code and stdout SHA-256 of every success-path
                         cli-oneshot argument list.

It refuses to freeze output that fails the float oracle or a CLI call that
does not exit 0.
"""

from __future__ import annotations

import json

import run
import workloads

GOLDEN_ROUNDS = 8


def freeze_enumerate_all() -> dict:
    reply = run.run_worker({"job": "enumerate-all", "seed": workloads.DEFAULT_SEED, "seconds": 0})
    return {
        f"{c['degree']}:{c['mode']}": {k: c[k] for k in ("count", "json_sha256", "text_sha256")}
        for c in reply["passes"][0]
    }


def freeze_dedekind_sweep() -> dict:
    rounds = []
    for k in range(GOLDEN_ROUNDS):
        queries = run.run_worker({"job": "dedekind-sweep", "seed": workloads.DEFAULT_SEED, "round": k})["queries"]
        if not all(q["oracle_ok"] for q in queries):
            raise SystemExit(f"round {k}: exact values disagree with the float oracle")
        rounds.append([q["value"] for q in queries])
    return {"seed": workloads.DEFAULT_SEED, "rounds": rounds}


def freeze_cli_oneshot() -> dict:
    argvs = [argv for kind_argvs in workloads.cli_pool().values() for argv in kind_argvs]
    argvs += [argv for _, argv in workloads.HEAVY_ITEMS]
    golden = {}
    for argv in argvs:
        _, code, out, err = run.run_cli(argv)
        if code != 0:
            raise SystemExit(f"{argv} exited {code}: {err}")
        golden[json.dumps(argv)] = {"exit": code, "stdout_sha256": run.sha256(out)}
    return golden


def main() -> None:
    run.GOLDEN.mkdir(exist_ok=True)
    for name, freeze in (
        ("enumerate_all.json", freeze_enumerate_all),
        ("dedekind_sweep.json", freeze_dedekind_sweep),
        ("cli_oneshot.json", freeze_cli_oneshot),
    ):
        (run.GOLDEN / name).write_text(json.dumps(freeze(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {run.GOLDEN / name}")


if __name__ == "__main__":
    main()
