import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbcalc import cli, enumerator
from orbcalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_dedekind_text(capsys):
    code, out, _ = run(capsys, "dedekind", "--r", "4", "--weights", "1,1", "--index", "2")
    assert code == 0
    assert out.strip() == "sigma_2(1/4(1,1)) = 1/16"


def test_dedekind_json_payload(capsys):
    code, blob, _ = run_json(
        capsys, "dedekind", "--r", "9", "--weights", "1,2", "--index", "6"
    )
    assert code == 0
    assert blob == {
        "input": {"r": 9, "weights": [1, 2], "index": 6},
        "value": {"num": 2, "den": 27},
    }


def test_dedekind_oracle_flag(capsys):
    code, out, _ = run(
        capsys, "dedekind", "--r", "8", "--weights", "1,3", "--index", "4", "--oracle"
    )
    assert code == 0
    assert "float oracle" in out
    code, blob, _ = run_json(
        capsys, "dedekind", "--r", "8", "--weights", "1,3", "--index", "4", "--oracle"
    )
    assert abs(blob["oracle"]["float"] - 5 / 32) < 1e-9
    assert blob["oracle"]["abs_diff"] < 1e-9


def test_no_floats_without_oracle_flag(capsys):
    _, blob, _ = run_json(capsys, "dedekind", "--r", "8", "--weights", "1,3")
    assert "oracle" not in blob

    def no_floats(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for value in node.values():
                no_floats(value)
        elif isinstance(node, list):
            for value in node:
                no_floats(value)

    no_floats(blob)


def test_mu_text_and_bundles(capsys):
    code, out, _ = run(capsys, "mu", "--sing", "1/8(1,3)")
    assert code == 0
    assert "mu(anticanonical) at 1/8(1,3) = 5/32" in out
    assert "12*mu = 15/8" in out
    code, out, _ = run(capsys, "mu", "--sing", "E8", "--bundle", "canonical-square")
    assert code == 0
    assert "12*mu = 1079/120" in out


def test_mu_untabulated_is_domain_error(capsys):
    code, out, err = run(capsys, "mu", "--sing", "E6")
    assert code == 1
    assert out == ""
    assert "not tabulated" in err


def test_chi_orb_published_example(capsys):
    code, out, _ = run(capsys, "chi-orb", "--chi", "10", "--sings", "2x 1/4(1,1)")
    assert code == 0
    assert out.splitlines()[-1] == "chi_orb = 17/2"


def test_genus_and_double_cover(capsys):
    code, out, _ = run(capsys, "genus", "--weights", "1,1,4", "--degree", "8")
    assert code == 0
    assert out.strip().endswith("= 3")
    code, out, _ = run(capsys, "double-cover", "--chi-base", "3", "--chi-branch", "-4")
    assert code == 0
    assert out.splitlines()[-1] == "chi(double cover) = 10"


def test_check_reports_rejection_with_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "--degree", "1", "--sings", "2x D4, A1")
    assert code == 0
    assert "verdict: rejected" in out
    assert "budget: need 0 < 45/4 < 11 -> VIOLATED" in out
    mismatch = ("check", "--degree", "1", "--sings", "A8, 2x 1/9(1,2)", "--chi", "4")
    code, out, _ = run(capsys, *mismatch)
    assert code == 0
    assert "chi_limit_equals_12_minus_d: 12 != 11" in out
    assert "chi_limit = 12" in out
    assert "verdict: rejected" in out
    code, blob, _ = run_json(capsys, *mismatch)
    assert code == 0
    assert blob["chi_limit"] == {"num": 12, "den": 1}
    assert blob["verdicts"]["chi_limit_matches_degree"] is False


def test_check_negative_energy_is_a_verdict(capsys):
    code, out, err = run(capsys, "check", "--degree", "1", "--sings", "1/5(1,2)")
    assert code == 0 and err == ""
    assert "verdict: rejected" in out
    assert "budget: need 0 < -12/5 < 11 -> VIOLATED" in out
    code, blob, _ = run_json(capsys, "check", "--degree", "1", "--sings", "1/5(1,2)")
    assert code == 0
    assert blob["verdicts"]["budget_ok"] is False
    assert blob["bubble_bounds"] == {
        "min": 0,
        "max": 0,
        "exact_fit": False,
        "violation": "negative total energy",
    }


def test_check_over_point_limit_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--degree", "1", "--sings", "1000000000x A1")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "more than 1000 points" in err
    assert len(err.splitlines()) == 1


def test_check_admissible_example(capsys):
    code, blob, _ = run_json(
        capsys,
        "check",
        "--degree", "1",
        "--sings", "A8, 2x 1/9(1,2)",
        "--chi", "3",
    )
    assert code == 0
    assert blob["verdicts"]["admissible"] is True
    assert blob["derived_picard_rank"] == {"num": 1, "den": 1}
    assert blob["chi_orb_if_chi_known"] == {"num": 1, "den": 3}
    assert blob["chi_limit"] == {"num": 11, "den": 1}


def test_check_untabulated_type_is_domain_error(capsys):
    code, _, err = run(capsys, "check", "--degree", "1", "--sings", "E6")
    assert code == 1
    assert "type not admissible for this analysis" in err


def test_parse_error_is_usage_error(capsys):
    code, out, err = run(capsys, "chi-orb", "--chi", "3", "--sings", "A8, bogus!")
    assert code == 2
    assert "bogus!" in err and "offset 4" in err


def test_domain_error_from_bad_weights(capsys):
    code, _, err = run(capsys, "dedekind", "--r", "0", "--weights", "1", "--index", "0")
    assert code == 1
    assert "must be >= 1" in err


def test_usage_error_from_argparse_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["dedekind", "--r", "not-a-number", "--weights", "1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_enumerate_json_schema_and_values(capsys):
    code, blob, _ = run_json(capsys, "enumerate", "--degree", "3")
    assert code == 0
    assert list(blob) == ["degree", "mode", "configurations", "max_multiplicity"]
    assert blob["degree"] == 3 and blob["mode"] == "with-exclusions"
    assert blob["max_multiplicity"]["A1"] == 5
    assert all(
        entry["chi_orb_if_chi_known"] is None for entry in blob["configurations"]
    )


def test_enumerate_workers_identical_bytes(capsys):
    _, serial, _ = run(capsys, "enumerate", "--degree", "2", "--format", "json")
    _, parallel, _ = run(
        capsys, "enumerate", "--degree", "2", "--workers", "3", "--format", "json"
    )
    assert serial == parallel


def test_enumerate_text_summary(capsys):
    code, out, _ = run(capsys, "enumerate", "--degree", "4", "--mode", "inequality-only")
    assert code == 0
    assert "5 configurations" in out
    assert "A1: 5" in out
    assert "smooth case" in out


@pytest.mark.parametrize("mode", enumerator.MODES)
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_enumerate_json_is_the_library_writer(capsys, degree, mode):
    code, out, _ = run(
        capsys, "enumerate", "--degree", str(degree), "--mode", mode, "--format", "json"
    )
    assert code == 0
    assert out == enumerator.enumerate_configurations(degree, mode).to_json() + "\n"


def test_out_of_memory_is_one_line_error(capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_mu", out_of_memory)
    code, out, err = run(capsys, "mu", "--sing", "A1")
    assert code == 1
    assert out == ""
    assert err == "orbcalc: out of memory\n"


def test_bubbles_reports_violation(capsys):
    code, out, _ = run(capsys, "bubbles", "--total", "3/2")
    assert code == 0
    assert out.strip().endswith("min=1 max=2 exact_fit=true")
    code, out, _ = run(capsys, "bubbles", "--total", "1/2")
    assert code == 0
    assert "violation: energy below one quantum" in out
    code, blob, _ = run_json(capsys, "bubbles", "--total", "9/4", "--quantum", "3/4")
    assert blob["min"] == 1 and blob["max"] == 3 and blob["exact_fit"] is True


def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "mu", "--sing", "A3", "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    blob = json.loads(target.read_text())
    assert blob["twelve_mu"] == {"num": 15, "den": 4}


def test_out_to_unwritable_path_is_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.txt"
    code, out, err = run(capsys, "bubbles", "--total", "3/2", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"orbcalc: cannot write {target}: ")
    assert len(err.splitlines()) == 1
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_write_failure_is_one_line_error(capsys):
    code, out, err = run(capsys, "bubbles", "--total", "3/2", "--out", "/dev/full")
    assert code == 1
    assert out == ""
    assert err.startswith("orbcalc: cannot write /dev/full: ")
    assert len(err.splitlines()) == 1


def test_dedekind_over_work_limit_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "dedekind", "--r", "1000000000", "--weights", "1,2,3")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "over the limit" in err
    assert len(err.splitlines()) == 1


def test_verify_examples_all_green(capsys):
    code, out, _ = run(capsys, "verify-examples")
    assert code == 0
    summary = out.strip().splitlines()[-1]
    assert summary.endswith("0 failed")
    assert "FAIL" not in out


def test_verify_examples_runs_each_enumeration_once(capsys, monkeypatch):
    calls = []
    original = enumerator.enumerate_configurations

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(enumerator, "enumerate_configurations", counted)
    code, out, _ = run(capsys, "verify-examples")
    assert code == 0
    assert out.strip().splitlines()[-1] == "54 checks: 54 ok, 0 failed"
    assert len(calls) == 4


def test_verify_examples_json(capsys):
    code, blob, _ = run_json(capsys, "verify-examples")
    assert code == 0
    assert blob["failed"] == 0
    assert blob["total"] >= 50
    assert all(check["ok"] for check in blob["checks"])


def test_cli_import_leaves_out_the_cyclotomic_oracle():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import orbcalc.cli, sys; print('orbcalc.cyclotomic' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


# argv fuzzing: every generated command line must end in a result, a verdict
# or a one-line error.  Orders and multiplicities stay small, far below
# dedekind.MAX_WORK and catalog.MAX_POINTS, so each call stays cheap.
# --out is left out (it writes files; its failures have tests above), and so
# is verify-examples, which takes no input and costs half a second a run.

_SMALL_INTS = st.integers(min_value=-3, max_value=60).map(str)
_TYPE_NAMES = st.sampled_from(
    ["A1", "A4", "A8", "A0", "D4", "D5", "E6", "E9", "B2",
     "1/4(1,1)", "1/8(1,3)", "1/9(1,2)", "1/5(1,2)", "1/6(2,3)", "1/1(1,1)"]
)
_SINGS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12), _TYPE_NAMES).map(
        lambda item: item[1] if item[0] == 1 else f"{item[0]}x {item[1]}"
    ),
    max_size=4,
).map(", ".join)
_RATIONAL_TEXT = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=50).map(str),
    st.sampled_from(["0", "3/4", "1/0", "1e3", "2.5", "-", "x/y", ""]),
)
_JUNK = st.text(alphabet="-/,.()x0123456789Aae ", max_size=8)
_INT_LISTS = st.lists(st.integers(min_value=-5, max_value=60), min_size=1, max_size=4).map(
    lambda xs: ",".join(map(str, xs))
)
_FLAG_VALUES = {
    "dedekind": {"--r": _SMALL_INTS, "--weights": _INT_LISTS, "--index": _SMALL_INTS},
    "mu": {"--sing": _TYPE_NAMES, "--bundle": st.sampled_from(
        ["anticanonical", "canonical-square", "adjoint"])},
    "chi-orb": {"--chi": _SMALL_INTS, "--sings": _SINGS},
    "genus": {"--weights": _INT_LISTS, "--degree": _SMALL_INTS},
    "double-cover": {"--chi-base": _SMALL_INTS, "--chi-branch": _SMALL_INTS},
    "check": {"--degree": _SMALL_INTS, "--sings": _SINGS, "--chi": _SMALL_INTS,
              "--picard": _SMALL_INTS, "--mode": st.sampled_from(enumerator.MODES)},
    "enumerate": {"--degree": st.sampled_from(["0", "1", "2", "3", "4", "5", "-1"]),
                  "--mode": st.sampled_from(enumerator.MODES + ("loose",)),
                  "--workers": _SMALL_INTS},
    "bubbles": {"--total": _RATIONAL_TEXT, "--quantum": _RATIONAL_TEXT},
}
_COMMON_FLAGS = {"--format": st.sampled_from(["text", "json", "yaml"])}
_NINE_IN_TEN = st.sampled_from([True] * 9 + [False])
_REQUIRED = {
    "dedekind": ("--r", "--weights"),
    "mu": ("--sing",),
    "chi-orb": ("--chi",),
    "genus": ("--weights", "--degree"),
    "double-cover": ("--chi-base", "--chi-branch"),
    "check": ("--degree",),
    "enumerate": ("--degree",),
    "bubbles": ("--total",),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAG_VALUES) + ["--help"]))
    flags = {**_FLAG_VALUES.get(command, {}), **_COMMON_FLAGS}
    chosen = list(_REQUIRED.get(command, ())) if draw(_NINE_IN_TEN) else []
    chosen += draw(st.lists(st.sampled_from(sorted(flags)), max_size=3))
    argv = [command]
    for flag in chosen:
        if not draw(_NINE_IN_TEN):  # a few flags lack a value
            argv.append(flag)
        else:
            # "--flag=value" lets a value that starts with "-" through argparse
            value = draw(flags[flag])
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if not draw(_NINE_IN_TEN):
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), draw(_JUNK))
    return argv


@given(_argv())
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_ends_in_result_verdict_or_one_line_error(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
    assert elapsed < 5.0, argv
