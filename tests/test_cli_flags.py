"""Each subcommand accepts exactly the flags it reads.

READS lists, independently of `nilcoh.cli.COMMANDS`, the flags each command
reads (each `verify` search counted as its own command); every command
also takes --type and --format.  IGNORED lists the 49 flags that the
commands used to accept without reading them (for `t1-invariants`, those
`character --which t1` took): each must now exit 2 with the flag named on
stderr and nothing on stdout.  The parser drift guard
parses every benchmark job and every README CLI example, so that a flag
removed by mistake fails here rather than in the benchmark; it also runs
each README example and checks the values its comment states.
"""

import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from nilcoh.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent

READS = {
    "rootsys": (),
    "weyl": ("--J",),
    "alcove": ("--p", "--l", "--lambda"),
    "linkage": ("--p", "--l", "--lambda"),
    "kostant": ("--p", "--l", "--J", "--lambda"),
    "character": ("--p", "--l", "--J", "--lambda", "--max-degree",
                  "--which"),
    "t1-invariants": ("--p", "--l", "--lambda"),
    "ring-table": ("--p", "--l", "--J", "--unsafe"),
    "quantum": ("--l",),
    "oracle-koszul": ("--p", "--J", "--field"),
    "ext": ("--p", "--J", "--max-degree", "--check-square"),
    "verify sum-dot": ("--p", "--l"),
    "verify levi-weights": ("--p", "--l", "--J"),
    "verify dot-collisions": ("--p", "--l", "--lambda", "--domain"),
    "verify suite": ("--p",),
}

IGNORED = {
    "rootsys": ("--p", "--l", "--J", "--max-degree", "--unsafe"),
    "weyl": ("--p", "--l", "--max-degree", "--unsafe"),
    "alcove": ("--J", "--max-degree", "--unsafe"),
    "linkage": ("--J", "--max-degree", "--unsafe"),
    "kostant": ("--max-degree", "--unsafe"),
    "character": ("--unsafe",),
    "t1-invariants": ("--J", "--max-degree", "--which"),
    "ring-table": ("--max-degree",),
    "quantum": ("--p", "--J", "--max-degree", "--unsafe"),
    "oracle-koszul": ("--l", "--max-degree", "--unsafe"),
    "ext": ("--l", "--unsafe"),
    "verify sum-dot": ("--J", "--lambda", "--max-degree", "--unsafe",
                       "--domain"),
    "verify levi-weights": ("--lambda", "--max-degree", "--unsafe",
                            "--domain"),
    "verify dot-collisions": ("--J", "--max-degree", "--unsafe"),
    "verify suite": ("--l", "--J", "--lambda", "--max-degree", "--unsafe",
                     "--domain"),
}

# flag: (argument on the command line or None, parsed value, default)
VALUES = {
    "--p": ("7", 7, None),
    "--l": ("7", 7, None),
    "--J": ("0", "0", ""),
    "--lambda": ("0,1", "0,1", None),
    "--max-degree": ("3", 3, 4),
    "--unsafe": (None, True, False),
    "--which": ("parabolic", "parabolic", "frobenius"),
    "--field": ("Q", "Q", "Fp"),
    "--check-square": (None, True, False),
    "--domain": ("X", "X", "ZPhi"),
    "--format": ("csv", "csv", "json"),
}
DEST = {"--lambda": "lam", "--max-degree": "max_degree",
        "--check-square": "check_square"}


def _argv(command, flag=None):
    argv = [*command.split(), "--type", "B2"]
    if flag is not None:
        argv.append(flag)
        if VALUES[flag][0] is not None:
            argv.append(VALUES[flag][0])
    return argv


def _dest(flag):
    return DEST.get(flag, flag[2:])


def test_pair_counts():
    # --type and --format on all 15 commands, plus the flags read
    read = 2 * len(READS) + sum(len(flags) for flags in READS.values())
    ignored = sum(len(flags) for flags in IGNORED.values())
    assert (read, ignored) == (72, 49)
    for command, flags in IGNORED.items():
        assert not set(flags) & set(READS[command]), command


@pytest.mark.parametrize("command", sorted(READS))
def test_command_declares_exactly_the_flags_it_reads(command):
    parser = build_parser(_argv(command))
    args = parser.parse_args(_argv(command))
    assert args.type == "B2"
    for flag, (_, value, default) in VALUES.items():
        if flag == "--format" or flag in READS[command]:
            assert getattr(args, _dest(flag)) == default, flag
            parsed = parser.parse_args(_argv(command, flag))
            assert getattr(parsed, _dest(flag)) == value, flag
        else:
            assert not hasattr(args, _dest(flag)), flag
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(_argv(command, flag))
            assert exc.value.code == 2, flag


@pytest.mark.parametrize("spelling", ("--lambda", "--lam"))
@pytest.mark.parametrize("command", sorted(
    command for command, flags in READS.items() if "--lambda" in flags))
def test_lambda_takes_a_value_with_a_leading_minus(command, spelling):
    """argparse takes `-1,0` for a flag; `--lambda -1,0` used to exit 2 with
    `expected one argument`."""
    argv = [*_argv(command), spelling, "-1,0"]
    assert build_parser(argv).parse_args(argv).lam == "-1,0"


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in IGNORED.items() for flag in flags])
def test_ignored_flag_exits_2(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(_argv(command, flag))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


def test_verify_suite_rejects_l(capsys):
    """`--l` used to run the modular suite as if p = l and exit 0."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "suite", "--type", "G2", "--l", "7"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --l 7" in captured.err


def test_verify_suite_without_p_names_p(capsys):
    assert main(["verify", "suite", "--type", "G2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verify suite needs --p" in captured.err


def test_flags_before_the_search_are_rejected(capsys):
    """The message says where the flags go; it used to be only
    `argument search: invalid choice: 'B2'`."""
    for argv, hint in [
        (["verify", "--type", "B2", "sum-dot"], "flags go after the search"
         " name, e.g. 'nilcoh verify sum-dot --type B2'"),
        (["verify", "--type", "B2", "--p", "5"], "flags go after the search"
         " name, e.g. 'nilcoh verify SEARCH --type B2 --p 5'"),
        (["--type", "B2", "ext", "--p", "5"], "flags go after the command"
         " name, e.g. 'nilcoh ext --type B2 --p 5'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert hint in captured.err
        assert "invalid choice" not in captured.err


@pytest.mark.parametrize("argv,config", (
    (("verify", "sum-dot", "--type", "A2", "--p", "5"),
     {"command": "verify", "search": "sum-dot", "type": "A2", "p": 5,
      "l": None, "format": "json"}),
    (("character", "--type", "B2", "--p", "5", "--which", "parabolic"),
     {"command": "character", "type": "B2", "p": 5, "l": None, "J": "",
      "lam": None, "max_degree": 4, "which": "parabolic", "format": "json"}),
    (("oracle-koszul", "--type", "A2", "--p", "5", "--field", "Q"),
     {"command": "oracle-koszul", "type": "A2", "p": 5, "J": "",
      "field": "Q", "format": "json"})), ids=("sum-dot", "character",
                                              "oracle-koszul"))
def test_config_echoes_every_parsed_flag(capsys, argv, config):
    """The payload's `config` is the whole parsed command line: the search
    name, `--which` and `--field` included."""
    assert main(list(argv)) == 0
    assert json.loads(capsys.readouterr().out)["config"] == config


# -- parser drift guard ------------------------------------------------


def _benchmark_jobs():
    spec = importlib.util.spec_from_file_location(
        "nilbench_workloads", ROOT / "nilbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return [job for jobs in module.LADDERS.values() for job in jobs]


def _readme_examples():
    """(argv, comment) of each `nilcoh` line in the README's CLI block."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [(shlex.split(line, comments=True)[1:], line.partition("#")[2])
            for line in block.splitlines() if line.startswith("nilcoh ")]


# a value a README comment states -> how the JSON payload shows it
README_CLAIMS = (
    (r"dims ([\d,]+)", lambda m, out: out["dims"] == json.loads(f"[{m}]")),
    (r"(\d+) violations", lambda m, out: len(out["violations"]) == int(m)),
    (r"(\d+) monomials",
     lambda m, out: out["square_free_basis_count"] == int(m)),
)


@pytest.mark.parametrize("job", _benchmark_jobs(), ids=lambda job: job.id)
def test_benchmark_job_parses(job):
    args = build_parser(list(job.argv)).parse_args(list(job.argv))
    assert args.type == job.cartan_type


def test_readme_cli_examples_parse(capsys):
    examples = _readme_examples()
    assert len(examples) >= 8
    claims = 0
    for argv, comment in examples:
        build_parser(argv).parse_args(argv)
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        for pattern, holds in README_CLAIMS:
            for value in re.findall(pattern, comment):
                assert holds(value, json.loads(out)), (argv, comment)
                claims += 1
    assert claims == 4
