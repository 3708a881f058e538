"""Command-line front end.

Every subcommand prints a payload to stdout (JSON by default) whose header
echoes every parsed flag.  Each subcommand (each `verify` search on
its own) declares only the flags it reads, listed in COMMANDS; any
other flag is a usage error.  `_run` parses every declared input once,
before any command-specific work: --J, --lambda, and --p/--l through
`_mode_modulus`, the one reader of a modulus.  Exit codes: 0 success,
2 usage error or a refused input, 1 internal error or a stdout closed
early by its reader.
A refused input is a `nilcoh.PreconditionError` and nothing else: a
failed precondition or gate, or a `BudgetError` (the violated condition
or flag is named on stderr); any other exception is a bug.

`python -m nilcoh.cli` and the `nilcoh` script enter through `run`, which
ends the process as soon as the payload is flushed and skips interpreter
teardown: nilcoh registers no atexit handler, starts no thread and holds
no open file once `main` returns, so teardown would only free memory.
In-process callers use `main`, which returns the exit code.

Importing this module executes only the modules that every command reads
(`alcoves`, `rootsystem`, `weyl`).  The others are registered in
sys.modules by `_lazy` and executed on a command's first use of them, so
`ring-table` never compiles the Ext resolution, `ext` and `oracle-koszul`
never execute `ring`, and the `verify` searches never execute `koszul` or
`restricted`.  `_run` calls them through the module
(`restricted.ext_dims(...)`), so a rebinding of the module attribute is
what gets called.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import re
import sys

from . import PreconditionError
from .alcoves import (in_alcove, require_admissible, require_regime,
                      weak_linkage)
from .rootsystem import build
from .weyl import enumerate_group


def _lazy(name: str):
    """nilcoh.<name>, registered in sys.modules (and as an attribute of the
    package) at once, but executed on its first attribute access.  An entry
    already in sys.modules is returned as it is, so each class exists once."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# the modules that only some commands read
characters, kostant, koszul, restricted, ring, verify = map(_lazy, (
    "characters", "kostant", "koszul", "restricted", "ring", "verify"))

FORMATS = ("json", "csv", "tex", "text")


def _parse_type(text: str):
    if not re.fullmatch(r"[A-Za-z][0-9]+", text):
        raise PreconditionError(
            f"--type needs a Cartan letter and a rank, e.g. B2; got {text!r}")
    return build(text)


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise PreconditionError(
            f"{flag} needs comma-separated integers, got {text!r}") from None


def _parse_J(text: str) -> tuple:
    text = (text or "").strip()
    if not text:
        return ()
    return tuple(sorted(set(_parse_ints(text, "--J"))))


def _parse_lambda(args, rank: int, required: bool = False) -> tuple:
    """--lambda as fundamental coordinates; without it, the zero weight,
    or a precondition failure when the command needs an explicit weight."""
    if not args.lam:
        if required:
            raise PreconditionError(f"{args.command} needs --lambda")
        return (0,) * rank
    coords = tuple(_parse_ints(args.lam, "--lambda"))
    if len(coords) != rank:
        raise PreconditionError(
            f"lambda needs {rank} fundamental coordinates, got {len(coords)}")
    return coords


def _emit(payload: dict, args):
    payload = {"config": dict(vars(args)), **payload}
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        _emit_csv(payload)
    elif args.format == "tex":
        _emit_tex(payload)
    else:
        _emit_text(payload)


def _flatten_rows(payload):
    rows = payload.get("rows")
    if rows is not None:
        return payload.get("columns"), rows
    return None, None


def _emit_csv(payload):
    import csv  # here, so that the other formats do not load it
    buf = io.StringIO()
    writer = csv.writer(buf)
    for key, val in sorted(payload.get("config", {}).items()):
        writer.writerow([f"# {key}", val])
    for key, val in payload.items():
        if key in ("config", "rows", "columns"):
            continue
        writer.writerow([f"# {key}", json.dumps(val, sort_keys=True)])
    cols, rows = _flatten_rows(payload)
    if rows is not None:
        if cols:
            writer.writerow(cols)
        for row in rows:
            writer.writerow(row)
    sys.stdout.write(buf.getvalue())


def _emit_tex(payload):
    cols, rows = _flatten_rows(payload)
    if rows is None:
        rows = [[k, json.dumps(v, sort_keys=True)]
                for k, v in sorted(payload.items()) if k != "config"]
    for row in rows:
        print(" & ".join(str(c) for c in row) + r" \\")


def _emit_text(payload):
    for key, val in sorted(payload.items()):
        print(f"{key}: {json.dumps(val, sort_keys=True)}")


# add_argument keywords of each optional flag
FLAG_SPECS = {
    "p": dict(type=int, help="prime modulus"),
    "l": dict(type=int, help="quantum root-of-unity order"),
    "J": dict(default="", help="comma-separated 0-based simple root indices"),
    "lambda": dict(dest="lam", help="weight in fundamental coordinates,"
                   " comma-separated, e.g. -1,0; alcove and linkage require"
                   " it, the other commands default to the zero weight"),
    "max-degree": dict(type=int, default=4, help="top cohomological degree"),
    "unsafe": dict(action="store_true",
                   help="compute formal models below the stated bounds"),
    "which": dict(choices=("frobenius", "parabolic"), default="frobenius"),
    "field": dict(choices=("Q", "Fp"), default="Fp"),
    "check-square": dict(action="store_true", help="certify the square of"
                         " the distinguished H^2 class"),
    "domain": dict(choices=("ZPhi", "X"), default="ZPhi"),
}

# Each command's help and the flags it reads besides --type and --format
# (None for `verify`, which only groups the searches); argparse rejects any
# other flag with exit 2.  A command that declares --lambda also declares
# --l, so --l is never taken as an abbreviation of --lambda.
COMMANDS = {
    "rootsys": ("root system data", ()),
    "weyl": ("Weyl group data", ("J",)),
    "alcove": ("bottom-alcove membership", ("p", "l", "lambda")),
    "linkage": ("weak linkage datum", ("p", "l", "lambda")),
    "kostant": ("nilradical cohomology decomposition",
                ("p", "l", "J", "lambda")),
    "character": ("Frobenius-kernel / parabolic characters",
                  ("p", "l", "J", "lambda", "max-degree", "which")),
    "t1-invariants": ("T_1-invariants of H^j(u, L(lambda))",
                      ("p", "l", "lambda")),
    "ring-table": ("exterior multiplication table", ("p", "l", "J", "unsafe")),
    "quantum": ("admissibility flags and the square-free basis count",
                ("l",)),
    "oracle-koszul": ("brute-force cohomology oracle", ("p", "J", "field")),
    "ext": ("restricted Ext via minimal resolution",
            ("p", "J", "max-degree", "check-square")),
    "verify": ("exhaustive lemma searches", None),
    "verify sum-dot": ("w1.0 + w2.0 = w3.0 + modulus*sigma over W^3",
                       ("p", "l")),
    "verify levi-weights": ("mu1 + mu2 = mu3 + modulus*sigma on Levi"
                            " support weights", ("p", "l", "J")),
    "verify dot-collisions": ("w1.lam = w2.lam + modulus*sigma over W^2",
                              ("p", "l", "lambda", "domain")),
    "verify suite": ("cross-module consistency checks at a prime p", ("p",)),
}


def _add_common(sp, flags):
    sp.add_argument("--type", required=True, help="Cartan type, e.g. B2")
    for name in flags:
        sp.add_argument(f"--{name}", **FLAG_SPECS[name])
    sp.add_argument("--format", choices=FORMATS, default="json")


def _mode_modulus(args, rs, name, flags):
    """(mode, modulus) from the --p or --l that the command declares: the
    only reader of either flag.  It refuses both given, neither given
    (but `kostant` then takes the classical mode), a value below 2 and a
    composite p.  A command that declares neither, or `oracle-koszul
    --field Q`, gets ("classical", None)."""
    declared = [f for f in ("p", "l") if f in flags]
    if not declared or "field" in flags and args.field == "Q":
        return "classical", None
    options = " or ".join(f"--{f}" for f in declared)
    given = [f for f in declared if getattr(args, f) is not None]
    if len(given) > 1:
        raise PreconditionError(f"{name} takes {options}, not both")
    if not given:
        if name == "kostant":
            return "classical", None
        raise PreconditionError(f"{name} needs {options}")
    flag = given[0]
    modulus = getattr(args, flag)
    if modulus < 2:
        raise PreconditionError(f"--{flag} must be at least 2, got {modulus}")
    mode = "modular" if flag == "p" else "quantum"
    require_regime(mode, modulus, rs)
    return mode, modulus


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that, on a command that only groups subcommands
    (`nilcoh` itself and `verify`), rejects a flag given before the
    subcommand name with a message saying that flags go after it, and that
    reads `--lambda -1,0` as `--lambda=-1,0`."""

    subcommands = None

    def add_subparsers(self, **kwargs):
        self.subcommands = super().add_subparsers(**kwargs)
        return self.subcommands

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        # argparse takes a value such as -1,0 for a flag, not for the value
        # of --lambda (or of an abbreviation such as --lam); joined as
        # --lambda=-1,0 it is read as the value
        for i in range(len(args) - 1, 0, -1):
            flag = args[i - 1]
            if (len(flag) > 3 and "--lambda".startswith(flag)
                    and re.match(r"-\d", args[i])):
                args[i - 1:i + 1] = [f"{flag}={args[i]}"]
        sub = self.subcommands
        if (sub is not None and args and args[0].startswith("-")
                and args[0] not in ("-h", "--help")):
            name = next((a for a in args if a in sub.choices), None)
            rest = " ".join(a for a in args if a != name)
            self.error(f"flags go after the {sub.dest} name, e.g. "
                       f"'{self.prog} {name or sub.dest.upper()} {rest}'")
        return super().parse_known_args(args, namespace)


def build_parser(argv):
    """The parser for the command line `argv`.  Every command and search is
    registered, so that help and usage errors list them all, but only the
    one that `argv` names declares its flags."""
    invoked = " ".join(argv[:2] if "verify" in argv[:1] else argv[:1])
    ap = _Parser(
        prog="nilcoh",
        description="Exact cohomology computations for nilpotent radicals,"
                    " their Frobenius kernels, and quantum analogs.")
    groups = {"": ap.add_subparsers(dest="command", required=True)}
    for command, (text, flags) in COMMANDS.items():
        group, _, name = command.rpartition(" ")
        sp = groups[group].add_parser(name, help=text)
        if flags is None:
            groups[command] = sp.add_subparsers(dest="search", required=True)
        elif command == invoked:
            _add_common(sp, flags)
    return ap


def _s2_s1_dot_0(rs) -> tuple:
    """s2 s1 . 0 = s2 s1 rho - rho, by two simple reflections, without W."""
    return tuple(a - r for a, r in zip(rs.reflect(rs.reflect(rs.rho, 0), 1),
                                       rs.rho))


def _run(args) -> dict:
    rs = _parse_type(args.type)
    cmd = args.command
    name = f"verify {args.search}" if cmd == "verify" else cmd
    flags = COMMANDS[name][1]
    if "max-degree" in flags and args.max_degree < 0:
        raise PreconditionError(
            f"max_degree must be >= 0, got {args.max_degree}")
    J = _parse_J(args.J) if "J" in flags else ()
    for i in J:
        if not 0 <= i < rs.rank:
            raise PreconditionError(f"J index {i} out of range for {rs.label}")
    mode, modulus = _mode_modulus(args, rs, name, flags)
    lam = (_parse_lambda(args, rs.rank, cmd in ("alcove", "linkage"))
           if "lambda" in flags else None)

    if cmd == "rootsys":
        return rs.to_json()

    if cmd == "weyl":
        group = enumerate_group(rs)
        return {
            "order": len(group.elements),
            "length_polynomial": group.length_polynomial(),
            "longest_word": [i + 1 for i in group.longest.word],
            "min_coset_reps": [[i + 1 for i in w.word]
                               for w in group.min_coset_reps(J)],
        }

    if cmd == "alcove":
        return {
            "lambda": list(lam),
            "interior": in_alcove(lam, modulus, rs, closed=False),
            "closure": in_alcove(lam, modulus, rs, closed=True),
        }

    if cmd == "linkage":
        datum = weak_linkage(lam, modulus, rs, enumerate_group(rs))
        if datum is None:
            return {"lambda": list(lam), "linked": False}
        return {"lambda": list(lam), "linked": True,
                "w": [i + 1 for i in datum.w.word],
                "sigma": list(datum.sigma), "modulus": modulus}

    if cmd == "kostant":
        kd = kostant.kostant_decomposition(lam, J, rs, enumerate_group(rs),
                                           mode, modulus)
        out = kd.to_json()
        out["dims"] = kd.poincare()
        out["poincare"] = characters.format_poincare(out["dims"])
        return out

    if cmd in ("character", "t1-invariants"):
        group = enumerate_group(rs)
        if cmd == "t1-invariants":
            gc = kostant.t1_invariants(lam, modulus, rs, group)
            return {"lambda": list(lam), "degrees": gc.to_json(),
                    "dims": gc.dims()}
        if args.which == "frobenius":
            bg = kostant.frobenius_kernel_character(lam, J, rs, group, mode,
                                                    modulus, args.max_degree)
            out = bg.to_json()
            out["collapsed"] = bg.collapse().to_json()
            return out
        gc = kostant.parabolic_character(lam, J, rs, group, mode, modulus,
                                         args.max_degree)
        return {"lambda": list(lam), "J": list(J),
                "degrees": gc.to_json(), "dims": gc.dims()}

    if cmd == "ring-table":
        cr = ring.CohomologyRing(rs, enumerate_group(rs), J, "classical"
                                 if mode == "modular" else mode, modulus,
                                 unsafe=args.unsafe)
        return {
            "metadata": cr.metadata(),
            "laws": ring.check_ring_laws(cr),
            "columns": ["w", "w_prime", "result", "sign", "zeta_exponent"],
            "rows": [list(r) for r in cr.table_rows()],
        }

    if cmd == "quantum":
        return {
            "l": modulus,
            "admissibility": require_admissible(modulus, rs, "base").flags(),
            "square_free_basis_count": 2 ** rs.num_positive,
        }

    if cmd == "oracle-koszul":
        gc = koszul.oracle_cohomology(J, rs, field=args.field, p=modulus)
        return {"J": list(J), "field": args.field, "p": modulus,
                "dims": gc.dims(), "degrees": gc.to_json()}

    if cmd == "ext":
        if args.check_square and rs.rank < 2:
            raise PreconditionError("--check-square needs rank >= 2")
        if args.check_square and args.max_degree < 4:
            raise PreconditionError(
                "--check-square needs --max-degree >= 4 (the square of a"
                " degree-2 class lies in degree 4)")
        alg = restricted.build_algebra(J, modulus, rs)
        gc, res = restricted.ext_dims(alg, args.max_degree)
        example = None
        if args.check_square:
            wt = _s2_s1_dot_0(rs)
            found = len(restricted.find_class_by_weight(res, 2, wt))
            if found != 1:
                raise PreconditionError(
                    "--check-square needs the Ext^2 weight space at"
                    f" s2 s1 . 0 = {list(wt)} to be one-dimensional, found"
                    f" {found} classes")
            example = restricted.square_certificate(res, 2, wt)
        return restricted.certificate(res, example)

    if cmd == "verify":
        group = enumerate_group(rs)
        if args.search == "sum-dot":
            _, cert = verify.search_sum_dot(rs, group, modulus)
            return cert
        if args.search == "levi-weights":
            _, cert = verify.search_levi_weights(rs, group, J, modulus)
            return cert
        if args.search == "dot-collisions":
            _, cert = verify.search_dot_collisions(
                rs, group, lam, modulus, args.domain,
                quantum=mode == "quantum")
            return cert
        return verify.consistency_suite(rs, group, modulus)

    raise RuntimeError(f"unhandled command {cmd!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        payload = _run(args)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(payload, args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; the flush at exit must not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def run():
    """Process entry point: run `main` on sys.argv, flush the payload and
    exit at once, without interpreter teardown.  An exception that leaves
    `main` (a usage error's SystemExit, an interrupt) or a failed flush
    takes the interpreter's usual exit path."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
