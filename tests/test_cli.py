import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilcoh import cli
from nilcoh.cli import COMMANDS, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_kostant_example(capsys):
    data = run_json(capsys, "kostant", "--type", "A2", "--p", "5",
                    "--J", "", "--lambda", "0,0")
    assert data["dims"] == [1, 2, 2, 1]
    assert data["config"]["type"] == "A2"
    degrees = [e["degree"] for e in data["entries"]]
    assert sorted(degrees) == [0, 1, 1, 2, 2, 3]


def test_verify_sum_dot_b2(capsys):
    data = run_json(capsys, "verify", "sum-dot", "--type", "B2", "--p", "5")
    assert data["violations"]
    witnesses = [tuple(map(tuple, v["witnesses"])) for v in data["violations"]]
    assert ((2, 1), (2, 1), (1, 2)) in witnesses


def test_ext_with_square_check(capsys):
    data = run_json(capsys, "ext", "--type", "B2", "--p", "5",
                    "--max-degree", "4", "--check-square")
    assert data["dims"] == [1, 2, 6, 10, 19]
    assert data["example_product"]["nonzero"] is True


def test_ext_above_degree_6(capsys):
    """`ext` used to refuse any --max-degree above 6."""
    data = run_json(capsys, "ext", "--type", "B2", "--p", "5",
                    "--max-degree", "8")
    assert data["dims"] == [1, 2, 6, 10, 19, 28, 44, 60, 85]


def test_exit_code_2_on_gate_failure(capsys):
    code, out, err = run_cli(capsys, "ring-table", "--type", "A2", "--l", "9")
    assert code == 2
    assert "coprime" in err
    assert out == ""
    code, out, err = run_cli(capsys, "character", "--type", "A2", "--p", "3")
    assert code == 2
    assert "modular mode requires p > h = 3" in err
    assert out == ""


def test_exit_code_2_on_bad_lambda(capsys):
    code, _, err = run_cli(capsys, "alcove", "--type", "A2", "--p", "5",
                           "--lambda", "1")
    assert code == 2
    assert "fundamental coordinates" in err


def test_exit_code_2_on_missing_modulus(capsys):
    code, _, err = run_cli(capsys, "ext", "--type", "A2")
    assert code == 2


def test_rootsys_payload(capsys):
    data = run_json(capsys, "rootsys", "--type", "G2")
    assert data["coxeter_number"] == 6
    assert len(data["positive_roots"]) == 6


def test_weyl_payload(capsys):
    data = run_json(capsys, "weyl", "--type", "B2", "--J", "0")
    assert data["order"] == 8
    assert data["length_polynomial"] == [1, 2, 2, 2, 1]
    assert len(data["min_coset_reps"]) == 4


def test_linkage(capsys):
    data = run_json(capsys, "linkage", "--type", "B2", "--p", "5",
                    "--lambda", "0,1")
    assert data["linked"] is True and data["sigma"] == [0, 1]


def test_oracle_and_character_agree(capsys):
    oracle = run_json(capsys, "oracle-koszul", "--type", "A2", "--p", "5")
    kostant = run_json(capsys, "kostant", "--type", "A2", "--p", "5",
                       "--lambda", "0,0")
    assert oracle["dims"] == kostant["dims"]


def test_character_frobenius(capsys):
    data = run_json(capsys, "character", "--type", "B2", "--p", "5",
                    "--lambda", "0,0")
    assert data["dims"] == [1, 2, 6, 10, 19]


# the whole `quantum` payload: no key that no input can make false
QUANTUM_KEYS = {"admissibility", "config", "l", "square_free_basis_count"}


def test_quantum_subcommand(capsys):
    data = run_json(capsys, "quantum", "--type", "A2", "--l", "5")
    assert set(data) == QUANTUM_KEYS
    assert data["square_free_basis_count"] == 8


def test_quantum_f4_counts_without_listing(capsys):
    """2^24 square-free monomials: counted, not straightened one by one."""
    data = run_json(capsys, "quantum", "--type", "F4", "--l", "13")
    assert set(data) == QUANTUM_KEYS
    assert data["square_free_basis_count"] == 16777216


def test_quantum_exits_2_naming_odd(capsys):
    """`quantum` gates --l through `require_regime` in the base context."""
    _assert_input_error(capsys, ("quantum", "--type", "A2", "--l", "4"),
                        "(violated flags: odd)")


def test_ring_table_csv_and_tex(capsys):
    code, out, _ = run_cli(capsys, "ring-table", "--type", "A2", "--p", "7",
                           "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0].split(",")[:3] == ["w", "w_prime", "result"]
    assert len(lines) == 1 + 36
    code, out, _ = run_cli(capsys, "ring-table", "--type", "A2", "--p", "7",
                           "--format", "tex")
    assert code == 0 and out.splitlines()[0].endswith(r"\\")


def test_json_round_trip_determinism(capsys):
    a = run_json(capsys, "verify", "sum-dot", "--type", "A2", "--p", "5")
    b = run_json(capsys, "verify", "sum-dot", "--type", "A2", "--p", "5")
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_exit_code_2_on_composite_modulus(capsys):
    for argv in (("oracle-koszul", "--type", "B2", "--p", "4"),
                 ("ext", "--type", "A1", "--p", "4")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "needs a prime p, got 4" in err
    # every command that reads --p, so a new one cannot skip the gate
    reading_p = [name for name, (_, flags) in COMMANDS.items()
                 if flags and "p" in flags]
    assert len(reading_p) == 12
    for name in reading_p:
        argv = (*name.split(), "--type", "A2", "--p", "9")
        if "lambda" in COMMANDS[name][1]:
            argv += ("--lambda", "0,0")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", name
        assert "needs a prime p, got 9" in err, name


def test_exit_code_2_on_check_square_rank_1(capsys):
    code, out, err = run_cli(capsys, "ext", "--type", "A1", "--p", "5",
                             "--check-square")
    assert code == 2 and out == ""
    assert "--check-square needs rank >= 2" in err


def test_verify_suite(capsys):
    data = run_json(capsys, "verify", "suite", "--type", "A2", "--p", "5")
    assert data["pass"] is True


def _assert_input_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err and "internal error" not in err


def test_exit_code_2_on_type_without_rank(capsys):
    _assert_input_error(capsys, ("kostant", "--type", "B", "--p", "5"),
                        "--type needs a Cartan letter and a rank")


def test_exit_code_2_on_unknown_type(capsys):
    _assert_input_error(capsys, ("kostant", "--type", "Z9", "--p", "5"),
                        "unsupported Cartan type Z9")


def test_exit_code_2_on_non_integer_lambda(capsys):
    _assert_input_error(capsys, ("kostant", "--type", "A2", "--p", "5",
                                 "--lambda", "1,x"),
                        "--lambda needs comma-separated integers")


@pytest.mark.parametrize("command", ("alcove", "linkage"))
def test_exit_code_2_on_missing_lambda(capsys, command):
    _assert_input_error(capsys, (command, "--type", "A2", "--p", "5"),
                        "--lambda")


def test_lambda_defaults_to_zero_weight(capsys):
    for argv in (("kostant", "--type", "A2", "--p", "5"),
                 ("character", "--type", "B2", "--p", "5"),
                 ("verify", "dot-collisions", "--type", "B2", "--p", "5")):
        implicit = run_json(capsys, *argv)
        explicit = run_json(capsys, *argv, "--lambda", "0,0")
        for payload in (implicit, explicit):
            payload.pop("config")
            payload.pop("elapsed_ms", None)
        assert implicit == explicit, argv


def test_commands_that_read_no_weyl_group_build_none(capsys, monkeypatch):
    """`oracle-koszul`, `quantum` and `ext` without --check-square never
    read W, so they give the same payloads when building W fails."""
    argvs = (("oracle-koszul", "--type", "A2", "--p", "5"),
             ("quantum", "--type", "A2", "--l", "5"),
             ("ext", "--type", "A2", "--p", "5", "--max-degree", "2"))
    expected = [run_json(capsys, *argv) for argv in argvs]

    def refuse(rs):
        raise AssertionError(f"W({rs.label}) was built")

    monkeypatch.setattr(cli, "enumerate_group", refuse)
    assert [run_json(capsys, *argv) for argv in argvs] == expected
    code, _, err = run_cli(capsys, "ext", "--type", "A2", "--p", "5",
                           "--check-square")
    assert code == 1 and "W(A2) was built" in err


def test_exit_code_2_on_weyl_group_too_large(capsys):
    _assert_input_error(capsys, ("weyl", "--type", "E8"),
                        "|W(E8)| = 696729600 exceeds bound")


def test_exit_code_2_on_weyl_group_e7(capsys):
    _assert_input_error(capsys, ("weyl", "--type", "E7"),
                        "|W(E7)| = 2903040 exceeds bound 1000000")


@pytest.mark.parametrize("argv", (("--lambda=-1,0",),
                                  ("--lambda=-1,0", "--p", "5"),
                                  ("--lambda=-1,0", "--l", "7"),
                                  ("--J", "0", "--lambda=-3,0"),
                                  ("--J", "0", "--lambda=0,-3")))
def test_exit_code_2_on_kostant_non_dominant_lambda(capsys, argv):
    _assert_input_error(capsys, ("kostant", "--type", "A2") + argv,
                        "lambda must be dominant")


def test_exit_code_2_on_kostant_group_too_large(capsys):
    _assert_input_error(capsys, ("kostant", "--type", "E8", "--p", "31",
                                 "--lambda", "0,0,0,0,0,0,0,0"),
                        "|W(E8)| = 696729600 exceeds bound")


def test_exit_code_2_on_negative_max_degree(capsys):
    _assert_input_error(capsys, ("ext", "--type", "A2", "--p", "5",
                                 "--max-degree", "-1"),
                        "max_degree must be >= 0, got -1")
    for which, modulus in (("frobenius", ("--l", "7")),
                           ("parabolic", ("--p", "7"))):
        _assert_input_error(capsys, ("character", "--type", "A2", "--which",
                                     which, *modulus, "--max-degree", "-2"),
                            "max_degree must be >= 0, got -2")


@pytest.mark.parametrize("command", (
    "alcove", "linkage", "kostant", "character", "t1-invariants",
    "ring-table", "verify sum-dot", "verify levi-weights",
    "verify dot-collisions"))
def test_exit_code_2_on_p_with_l(capsys, command):
    """--p asks for the modular mode and --l for the quantum one: a
    command that declares both refuses them together rather than pick
    one."""
    flags = COMMANDS[command][1]
    assert "p" in flags and "l" in flags
    lam = ("--lambda", "0,0") if "lambda" in flags else ()
    code, out, err = run_cli(capsys, *command.split(), "--type", "A2",
                             "--p", "5", "--l", "7", *lam)
    assert code == 2 and out == ""
    assert "--p" in err and "--l" in err and "internal error" not in err


@pytest.mark.parametrize("search", ("sum-dot", "levi-weights",
                                    "dot-collisions"))
@pytest.mark.parametrize("flag,value", (("--p", "0"), ("--l", "0"),
                                        ("--p", "-5"), ("--p", "1")))
def test_exit_code_2_on_modulus_below_2(capsys, search, flag, value):
    _assert_input_error(capsys, ("verify", search, "--type", "A2",
                                 flag, value),
                        f"{flag} must be at least 2, got {value}")


@pytest.mark.parametrize("degree", ("1", "2", "3"))
def test_exit_code_2_on_check_square_below_degree_4(capsys, degree):
    _assert_input_error(capsys, ("ext", "--type", "B2", "--p", "5",
                                 "--max-degree", degree, "--check-square"),
                        "--check-square needs --max-degree >= 4")


def test_exit_code_2_on_check_square_without_one_class(capsys):
    # the nilradical of J = {0, 1} is zero, so Ext^2 is zero everywhere
    _assert_input_error(capsys, ("ext", "--type", "B2", "--p", "5",
                                 "--J", "0,1", "--max-degree", "4",
                                 "--check-square"),
                        "--check-square needs the Ext^2 weight space at"
                        " s2 s1 . 0 = [1, -4] to be one-dimensional, found"
                        " 0 classes")


def _subprocess_env(tmp_path):
    env = dict(os.environ, NILCOH_CACHE=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("value", ("0", "1"))
def test_quantum_exits_2_on_l_below_2(tmp_path, value):
    """`quantum` gates --l like every other command that reads it."""
    proc = subprocess.run([sys.executable, "-m", "nilcoh.cli", "quantum",
                           "--type", "A2", "--l", value],
                          env=_subprocess_env(tmp_path), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"--l must be at least 2, got {value}" in proc.stderr


@pytest.mark.parametrize("check", ("check_minimal", "check_complex"))
def test_failed_resolution_check_exits_1_under_optimize(tmp_path, check):
    """`ext_dims` checks its resolution with an explicit raise, which
    `python -O` keeps where it strips an assert: a failing check exits 1
    and prints no dims."""
    script = ("import sys\n"
              "assert sys.flags.optimize == 0  # stripped under -O\n"
              "from nilcoh import restricted\n"
              f"setattr(restricted.MinimalResolution, {check!r},"
              " lambda self: False)\n"
              "from nilcoh.cli import main\n"
              "sys.exit(main(['ext', '--type', 'A2', '--p', '3',"
              " '--max-degree', '2']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=_subprocess_env(tmp_path), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "internal error: RuntimeError: the resolution is not" \
        in proc.stderr


def test_ext_does_not_load_openssl(tmp_path):
    """`ext` hashes nothing, so it never imports hashlib, whose `_hashlib`
    loads OpenSSL's libcrypto into the process."""
    script = ("import sys\n"
              "from nilcoh.cli import main\n"
              "code = main(['ext', '--type', 'A2', '--p', '3',"
              " '--max-degree', '2'])\n"
              "sys.stderr.write(repr((code, '_hashlib' in sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=_subprocess_env(tmp_path),
                          capture_output=True, timeout=120)
    assert proc.stderr.decode().splitlines()[-1] == "(0, False)"


def _loaded_by(statement, tmp_path) -> set:
    """The modules `statement` adds to those the interpreter starts with."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              f"{statement}\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=_subprocess_env(tmp_path), capture_output=True,
                          text=True, timeout=120, check=True)
    return set(proc.stdout.split())


def test_import_footprint(tmp_path):
    """The package init loads no submodule, so a caller that needs only
    root systems and Weyl groups pays for those (and `linalg`, which
    inverts the Cartan matrix); the CLI loads every module it dispatches
    to, but not `dataclasses` or `csv`."""
    weyl_only = _loaded_by("import nilcoh.rootsystem, nilcoh.weyl", tmp_path)
    assert {m for m in weyl_only if m.startswith("nilcoh")} == {
        "nilcoh", "nilcoh.linalg", "nilcoh.rootsystem", "nilcoh.weyl"}
    cli = _loaded_by("import nilcoh.cli", tmp_path)
    assert not {"dataclasses", "csv"} & cli
    assert {f"nilcoh.{m}" for m in (
        "weyl", "verify", "koszul", "linalg", "restricted", "ring",
        "characters", "kostant")} <= cli


def test_closed_stdout_prints_no_traceback(tmp_path):
    """A reader that stops early (`| head -c 100`) closes the pipe while the
    payload, 160 kB here, is still being written."""
    proc = subprocess.Popen([sys.executable, "-m", "nilcoh.cli", "ring-table",
                             "--type", "B3", "--p", "11"],
                            env=_subprocess_env(tmp_path),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_kostant_recovers_from_damaged_cache(capsys, tmp_path, monkeypatch):
    from nilcoh import weyl
    monkeypatch.setenv("NILCOH_CACHE", str(tmp_path))
    monkeypatch.setattr(weyl, "_GROUPS", {})
    argv = ("kostant", "--type", "A2", "--p", "5", "--lambda", "0,0")
    assert run_json(capsys, *argv)["dims"] == [1, 2, 2, 1]
    path = tmp_path / "weyl-A2.json"
    data = json.loads(path.read_text())
    data["elements"] = [e for e in data["elements"] if len(e["word"]) != 3]
    path.write_text(json.dumps(data))
    weyl._GROUPS.clear()
    assert run_json(capsys, *argv)["dims"] == [1, 2, 2, 1]
