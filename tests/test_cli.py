import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from klpoly.cli import build_parser, main
from klpoly.families import _FAMILIES, closed_form_inverse, closed_form_regular
from klpoly.verify import (
    verify_inverse_closed_forms,
    verify_inversion_identity_batch,
    verify_regular_closed_forms,
    verify_smoothness_equivalence,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kl_text(capsys):
    code, out, err = run(capsys, "kl", "2,1,4,3", "4,2,3,1")
    assert code == 0
    assert out == "1 + q\n"
    assert err == ""


def test_kl_json(capsys):
    code, out, _ = run(capsys, "kl", "1,2,3,4", "4,2,3,1", "--json")
    assert code == 0
    assert json.loads(out) == [1, 1]


def test_digit_string_form(capsys):
    code, out, _ = run(capsys, "kl", "2143", "4231")
    assert code == 0
    assert out == "1 + q\n"


def test_inv_kl(capsys):
    code, out, _ = run(capsys, "inv-kl", "2,1,5,4,3", "5,2,4,3,1")
    assert code == 0
    assert out == "1 + 2q\n"


def test_mu(capsys):
    code, out, _ = run(capsys, "mu", "2,1,4,3", "4,2,3,1")
    assert code == 0
    assert out == "1\n"
    code, out, _ = run(capsys, "mu", "1,2,3,4", "2,1,3,4")
    assert out == "1\n"
    code, out, _ = run(capsys, "mu", "1,2,3,4", "4,2,3,1")
    assert out == "0\n"


def test_leq(capsys):
    code, out, _ = run(capsys, "leq", "3,4,1,2", "4,2,3,1")
    assert code == 0
    assert out == "false\n"
    code, out, _ = run(capsys, "leq", "2,1,3,4", "4,2,3,1", "--json")
    assert out == "true\n"


def test_interval_sorted(capsys):
    code, out, _ = run(capsys, "interval", "1,2,3", "3,2,1", "--json")
    assert code == 0
    elements = json.loads(out)
    assert len(elements) == 6
    assert elements[0] == "1,2,3"
    assert elements[-1] == "3,2,1"
    code, out, _ = run(capsys, "interval", "123", "321")
    assert out.splitlines() == elements


def test_smooth(capsys):
    code, out, _ = run(capsys, "smooth", "3,4,1,2")
    assert code == 0
    assert out == "false\n"
    code, out, _ = run(capsys, "smooth", "4,1,2,3", "--json")
    assert out == "true\n"


def test_picture_golden(capsys):
    code, out, _ = run(capsys, "picture", "1,2", "2,1")
    assert code == 0
    assert out == "●▒\n○●\n"
    code, out, _ = run(capsys, "picture", "1,2", "2,1", "--json")
    assert json.loads(out) == ["●▒", "○●"]


def test_family(capsys):
    code, out, _ = run(capsys, "family", "v:1,1")
    assert code == 0
    assert out == "3,4,1,2\n"
    code, out, _ = run(capsys, "family", "x:2,2", "--json")
    assert json.loads(out) == "2,1,4,3"


def test_closed_form(capsys):
    code, out, _ = run(capsys, "closed-form", "w:2,2")
    assert code == 0
    assert out == "1 + q\n"
    code, out, _ = run(capsys, "closed-form", "x:3,3", "--inverse")
    assert out == "1 + 4q + q^2\n"
    code, out, _ = run(capsys, "closed-form", "y:2,3", "--inverse", "--json")
    assert json.loads(out) == [1, 4]


def test_lemma_exit_codes(capsys):
    code, out, _ = run(capsys, "lemma", "1", "5", "5")
    assert code == 0
    assert "equal: true" in out
    code, out, _ = run(capsys, "lemma", "2", "1", "1")
    assert code == 1
    assert "lhs: 1 - q" in out
    assert "rhs: 1 + q" in out
    assert "equal: false" in out


def test_lemma_json(capsys):
    code, out, _ = run(capsys, "lemma", "2", "2", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"lhs", "rhs", "equal"}
    assert data["equal"] is True
    assert data["lhs"] == data["rhs"] == [1, 1]
    code, out, _ = run(capsys, "lemma", "2", "3", "4", "--json")
    assert code == 0
    assert json.loads(out)["lhs"] == [-1, -1]


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "regular", "--n", "4")
    assert code == 0
    assert "result: PASS" in out
    assert "check: regular-closed-forms" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "smoothness", "--n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["check", "range", "cases", "failures", "seed", "millis"]
    assert data["cases"] == 2
    assert data["failures"] == []


def test_verify_inversion_sampled(capsys):
    code, out, _ = run(
        capsys, "verify", "inversion", "--n", "7", "--cases", "5", "--seed", "3"
    )
    assert code == 0
    assert "seed: 3" in out
    assert "5 sampled pairs" in out


@pytest.mark.parametrize(
    "argv, out",
    [
        (("inv-kl", "2,1,5,4,3", "5,2,4,3,1"), "[1, 2]\n"),
        (("mu", "2143", "4231"), "1\n"),
        (("interval", "123", "321"),
         '["1,2,3", "1,3,2", "2,1,3", "2,3,1", "3,1,2", "3,2,1"]\n'),
        (("smooth", "3412"), "false\n"),
        (("picture", "132", "321"),
         r'["\u25cf\u2592\u2592", "\u00b7\u2592\u25cf", "\u25cb\u25cf\u00b7"]'
         "\n"),
        (("family", "v:1,1"), '"3,4,1,2"\n'),
        (("closed-form", "x:3,3", "--inverse"), "[1, 4, 1]\n"),
    ],
    ids=["inv-kl", "mu", "interval", "smooth", "picture", "family", "closed-form"],
)
def test_json_output_bytes(capsys, argv, out):
    assert run(capsys, *argv, "--json") == (0, out, "")


def _zero_millis(out):
    """The output with its time field zeroed, the one field that varies
    between runs."""
    return re.sub(r'(millis"?: )\d+', r"\g<1>0", out)


def test_verify_text_bytes(capsys):
    code, out, err = run(capsys, "verify", "inversion", "--n", "3")
    assert (code, err) == (0, "")
    assert _zero_millis(out) == (
        "check: inversion-identity\n"
        "range: S_3 exhaustive\n"
        "cases: 19\n"
        "millis: 0\n"
        "result: PASS\n"
    )


def test_verify_json_bytes(capsys):
    # Indented, unlike every other command's one-line JSON.
    code, out, err = run(capsys, "verify", "inversion", "--n", "3", "--json")
    assert (code, err) == (0, "")
    assert _zero_millis(out) == (
        '{\n  "check": "inversion-identity",\n  "range": "S_3 exhaustive",\n'
        '  "cases": 19,\n  "failures": [],\n  "seed": null,\n  "millis": 0\n}\n'
    )


def test_lemma_text_bytes(capsys):
    assert run(capsys, "lemma", "2", "1", "1") == (
        1, "lhs: 1 - q\nrhs: 1 + q\nequal: false\n", ""
    )
    assert run(capsys, "lemma", "2", "1", "1", "--json") == (
        1, '{"lhs": [1, -1], "rhs": [1, 1], "equal": false}\n', ""
    )


@pytest.mark.parametrize("inverse", [False, True], ids=["regular", "inverse"])
def test_closed_form_agrees_for_both_members_of_a_pair(capsys, inverse):
    flags = ["--inverse"] if inverse else []
    closed_form = closed_form_inverse if inverse else closed_form_regular
    for pair, row in _FAMILIES.items():
        bottom, top = row["members"]
        for k in range(1, 7):
            for m in range(1, 7):
                outputs = [
                    run(capsys, "closed-form", f"{member}:{k},{m}", *flags)
                    for member in (bottom, top)
                ]
                assert outputs[0] == outputs[1], (bottom, top, k, m)
                assert outputs[0] == (0, f"{closed_form(pair, k, m)}\n", "")


_BATCHES = [
    ("regular", verify_regular_closed_forms),
    ("inverse", verify_inverse_closed_forms),
    ("inversion", verify_inversion_identity_batch),
    ("smoothness", verify_smoothness_equivalence),
]


@pytest.mark.parametrize("name, batch", _BATCHES, ids=[n for n, _ in _BATCHES])
def test_verify_defaults_match_the_library(capsys, name, batch):
    code, out, _ = run(capsys, "verify", name, "--json")
    assert code == 0
    data = json.loads(out)
    expected = batch().to_json_dict()
    for key in ("check", "range", "cases", "seed"):
        assert data[key] == expected[key]


def test_verify_inversion_exhaustive_at_benchmark_size(capsys):
    code, out, _ = run(capsys, "verify", "inversion", "--n", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["check", "range", "cases", "failures", "seed", "millis"]
    assert data["cases"] == 3781
    assert data["failures"] == []
    assert data["seed"] is None


_UNREAD = (
    "error: --cases and --seed are read only by a sampled inversion run "
    "(inversion with --n above 6)\n"
)


@pytest.mark.parametrize(
    "argv, error",
    [
        (("smoothness", "--n", "4", "--cases", "-1"), _UNREAD),
        (("regular", "--cases", "0"), _UNREAD),
        (("inversion", "--n", "5", "--cases", "0"), _UNREAD),
        (("inversion", "--n", "7", "--cases", "0"),
         "error: --cases must be >= 1, got 0\n"),
    ],
    ids=["smoothness-negative", "regular-zero", "inversion-exhaustive-zero",
         "inversion-sampled-zero"],
)
def test_verify_rejects_a_case_count_below_one(capsys, argv, error):
    # Only a sampled run reads --cases, and there it must be at least 1;
    # any other run rejects it whatever its value.  The message names the
    # flag, not the batch's parameter.
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == error


@pytest.mark.parametrize(
    "argv",
    [
        ("regular", "--cases", "5"),
        ("inverse", "--n", "6", "--cases", "5"),
        ("smoothness", "--n", "4", "--cases", "5"),
        ("inversion", "--n", "5", "--cases", "7"),
    ],
    ids=["regular", "inverse", "smoothness", "inversion-exhaustive"],
)
def test_verify_rejects_cases_the_batch_does_not_read(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == _UNREAD


@pytest.mark.parametrize(
    "argv",
    [
        ("regular", "--n", "1"),
        ("inverse", "--n", "0"),
        ("inversion", "--n", "1"),
        ("smoothness", "--n", "-3"),
    ],
    ids=["regular", "inverse", "inversion", "smoothness"],
)
def test_verify_rejects_a_size_below_two(capsys, argv):
    # Every batch's floor is 2; the message names the flag.
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --n must be >= 2, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("kl", "12", "21", "--max-cache-entries", "0"),
        ("inv-kl", "12", "21", "--max-cache-entries", "-1"),
        ("mu", "12", "21", "--max-cache-entries", "0"),
        ("verify", "regular", "--n", "4", "--max-cache-entries", "0"),
    ],
    ids=["kl", "inv-kl", "mu", "verify"],
)
def test_cache_bound_below_one_names_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --max-cache-entries must be >= 1, got {argv[-1]}\n"


@pytest.mark.parametrize("size", ["7", "12"])
def test_verify_smoothness_rejects_a_size_above_its_ceiling(capsys, size):
    # The exhaustive ceiling is the library's; the message names the flag.
    code, out, err = run(capsys, "verify", "smoothness", "--n", size)
    assert code == 2
    assert out == ""
    assert err == f"error: --n must be between 2 and 6, got {size}\n"


def test_verify_inversion_above_six_asks_for_cases(capsys):
    code, out, err = run(capsys, "verify", "inversion", "--n", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "pass --cases" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("regular", "--n", "4", "--seed", "3"),
        ("inversion", "--n", "4", "--seed", "5"),
        ("inversion", "--n", "6", "--cases", "5", "--seed", "5"),
    ],
    ids=["family", "inversion-exhaustive", "inversion-exhaustive-capped"],
)
def test_verify_rejects_a_seed_the_batch_does_not_read(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == _UNREAD


def _subprocess_env():
    """The environment with src first on PYTHONPATH, for ``python -m``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    return env


def test_python_dash_m_runs_the_cli():
    env = _subprocess_env()
    for argv, code, out in ((["kl", "2143", "4231"], 0, "1 + q\n"),
                            (["kl", "21", "321"], 2, "")):
        proc = subprocess.run(
            [sys.executable, "-m", "klpoly", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_pipe_exits_quietly(unbuffered):
    # A reader that closes the pipe before the output is written stops
    # the writer as SIGPIPE would (128 + 13), with no traceback.
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "klpoly", "kl", "12", "21"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141, err
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


def test_size_mismatch_is_a_usage_error(capsys):
    # leq and interval reach functions that do not check sizes.
    for command in ("kl", "leq", "interval"):
        code, out, err = run(capsys, command, "2,1", "3,2,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "size mismatch" in err


def test_bad_permutation_is_a_usage_error(capsys):
    code, _, err = run(capsys, "leq", "1,1,2", "3,2,1")
    assert code == 2
    assert "error:" in err


def test_bad_family_spec(capsys):
    code, _, err = run(capsys, "family", "q:2,2")
    assert code == 2
    assert "error:" in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_output_is_stable_across_runs(capsys):
    a = run(capsys, "closed-form", "y:4,4", "--inverse")
    b = run(capsys, "closed-form", "y:4,4", "--inverse")
    assert a == b
    assert a[1] == "1 + 7q\n"


def test_parser_lists_every_command():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "kl",
        "inv-kl",
        "mu",
        "interval",
        "leq",
        "smooth",
        "picture",
        "family",
        "closed-form",
        "verify",
        "lemma",
    ):
        assert name in text
