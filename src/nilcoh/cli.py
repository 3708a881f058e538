"""Command-line front end.

Every subcommand prints a payload to stdout (JSON by default) whose header
echoes every parsed flag.  Each subcommand (each `verify` search on
its own) declares only the flags it reads, listed in COMMANDS; any
other flag is a usage error.  Exit codes: 0 success, 2 usage error,
precondition or gate failure (the violated condition or flag is named on
stderr), 1 internal error or a stdout closed early by its reader.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys

from .alcoves import (PreconditionError, admissibility, in_alcove,
                      require_regime, weak_linkage)
from .characters import format_poincare
from .kostant import (frobenius_kernel_character, kostant_decomposition,
                      parabolic_character, t1_invariants)
from .koszul import OracleBudgetError, oracle_cohomology
from .restricted import (BudgetError, build_algebra, certificate, ext_dims,
                         find_class_by_weight, square_certificate)
from .ring import CohomologyRing, check_ring_laws
from .rootsystem import UnsupportedTypeError, build
from .verify import (consistency_suite, search_dot_collisions,
                     search_levi_weights, search_sum_dot)
from .weyl import GroupTooLargeError, enumerate_group

FORMATS = ("json", "csv", "tex", "text")


def _parse_type(text: str):
    if not re.fullmatch(r"[A-Za-z][0-9]+", text):
        raise PreconditionError(
            f"--type needs a Cartan letter and a rank, e.g. B2; got {text!r}")
    try:
        return build(text)
    except UnsupportedTypeError as exc:
        raise PreconditionError(str(exc)) from None


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
                   " comma-separated; alcove and linkage require it, the"
                   " other commands default to the zero weight; write a"
                   " weight that starts with a minus sign as"
                   " --lambda=-1,0"),
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


def _mode_modulus(args, rs):
    l = getattr(args, "l", None)  # `verify suite` has no --l
    if l is not None and getattr(args, "p", None) is not None:
        raise PreconditionError(
            "give --p (modular) or --l (quantum), not both")
    if l is not None:
        mode, flag, modulus = "quantum", "--l", l
    elif args.p is not None:
        mode, flag, modulus = "modular", "--p", args.p
    elif hasattr(args, "l"):
        raise PreconditionError("specify --p (modular) or --l (quantum)")
    else:
        raise PreconditionError("verify suite needs --p")
    if modulus < 2:
        raise PreconditionError(f"{flag} must be at least 2, got {modulus}")
    if hasattr(args, "l"):  # consistency_suite gates its p under its own name
        require_regime(mode, modulus, rs)
    return mode, modulus


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that, on a command that only groups subcommands
    (`nilcoh` itself and `verify`), rejects a flag given before the
    subcommand name with a message saying that flags go after it."""

    subcommands = None

    def add_subparsers(self, **kwargs):
        self.subcommands = super().add_subparsers(**kwargs)
        return self.subcommands

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        sub = self.subcommands
        if (sub is not None and args and args[0].startswith("-")
                and args[0] not in ("-h", "--help")):
            name = next((a for a in args if a in sub.choices), None)
            rest = " ".join(a for a in args if a != name)
            self.error(f"flags go after the {sub.dest} name, e.g. "
                       f"'{self.prog} {name or sub.dest.upper()} {rest}'")
        return super().parse_known_args(args, namespace)


def build_parser():
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
        else:
            _add_common(sp, flags)
    return ap


def _run(args) -> dict:
    rs = _parse_type(args.type)
    cmd = args.command
    if getattr(args, "max_degree", 0) < 0:
        raise PreconditionError(
            f"max_degree must be >= 0, got {args.max_degree}")

    if cmd == "rootsys":
        return rs.to_json()

    J = _parse_J(args.J) if hasattr(args, "J") else ()
    for i in J:
        if not 0 <= i < rs.rank:
            raise PreconditionError(f"J index {i} out of range for {rs.label}")

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
        mode, modulus = _mode_modulus(args, rs)
        lam = _parse_lambda(args, rs.rank, required=True)
        return {
            "lambda": list(lam),
            "interior": in_alcove(lam, modulus, rs, closed=False),
            "closure": in_alcove(lam, modulus, rs, closed=True),
        }

    if cmd == "linkage":
        mode, modulus = _mode_modulus(args, rs)
        lam = _parse_lambda(args, rs.rank, required=True)
        datum = weak_linkage(lam, modulus, rs, enumerate_group(rs))
        if datum is None:
            return {"lambda": list(lam), "linked": False}
        return {"lambda": list(lam), "linked": True,
                "w": [i + 1 for i in datum.w.word],
                "sigma": list(datum.sigma), "modulus": modulus}

    if cmd == "kostant":
        if args.p is None and args.l is None:
            mode, modulus = "classical", None
        else:
            mode, modulus = _mode_modulus(args, rs)
        lam = _parse_lambda(args, rs.rank)
        kd = kostant_decomposition(lam, J, rs, enumerate_group(rs), mode,
                                   modulus)
        out = kd.to_json()
        out["dims"] = kd.poincare()
        out["poincare"] = format_poincare(out["dims"])
        return out

    if cmd in ("character", "t1-invariants"):
        mode, modulus = _mode_modulus(args, rs)
        lam = _parse_lambda(args, rs.rank)
        group = enumerate_group(rs)
        if cmd == "t1-invariants":
            gc = t1_invariants(lam, modulus, rs, group)
            return {"lambda": list(lam), "degrees": gc.to_json(),
                    "dims": gc.dims()}
        if args.which == "frobenius":
            bg = frobenius_kernel_character(lam, J, rs, group, mode, modulus,
                                            args.max_degree)
            out = bg.to_json()
            out["collapsed"] = bg.collapse().to_json()
            return out
        gc = parabolic_character(lam, J, rs, group, mode, modulus,
                                 args.max_degree)
        return {"lambda": list(lam), "J": list(J),
                "degrees": gc.to_json(), "dims": gc.dims()}

    if cmd == "ring-table":
        mode, modulus = _mode_modulus(args, rs)
        ring = CohomologyRing(rs, enumerate_group(rs), J, "classical"
                              if mode == "modular" else mode, modulus,
                              unsafe=args.unsafe)
        return {
            "metadata": ring.metadata(),
            "laws": check_ring_laws(ring),
            "columns": ["w", "w_prime", "result", "sign", "zeta_exponent"],
            "rows": [list(r) for r in ring.table_rows()],
        }

    if cmd == "quantum":
        if args.l is None:
            raise PreconditionError("quantum needs --l")
        _, l = _mode_modulus(args, rs)
        require_regime("quantum", l, rs, "base")
        return {
            "l": l,
            "admissibility": admissibility(l, rs, "base")[0].flags(),
            "square_free_basis_count": 2 ** rs.num_positive,
        }

    if cmd == "oracle-koszul":
        p = args.p if args.field == "Fp" else None
        gc = oracle_cohomology(J, rs, field=args.field, p=p)
        return {"J": list(J), "field": args.field, "p": p,
                "dims": gc.dims(), "degrees": gc.to_json()}

    if cmd == "ext":
        if args.p is None:
            raise PreconditionError("ext needs --p")
        if args.check_square and rs.rank < 2:
            raise PreconditionError("--check-square needs rank >= 2")
        if args.check_square and args.max_degree < 4:
            raise PreconditionError(
                "--check-square needs --max-degree >= 4 (the square of a"
                " degree-2 class lies in degree 4)")
        alg = build_algebra(J, args.p, rs)
        gc, res = ext_dims(alg, args.max_degree)
        example = None
        if args.check_square:
            group = enumerate_group(rs)
            sb_sa = group.multiply(group.simple[1], group.simple[0])
            wt = sb_sa.dot((0,) * rs.rank, rs)
            found = len(find_class_by_weight(res, 2, wt))
            if found != 1:
                raise PreconditionError(
                    "--check-square needs the Ext^2 weight space at"
                    f" s2 s1 . 0 = {list(wt)} to be one-dimensional, found"
                    f" {found} classes")
            example = square_certificate(res, 2, wt)
        return certificate(res, example)

    if cmd == "verify":
        mode, modulus = _mode_modulus(args, rs)
        group = enumerate_group(rs)
        if args.search == "sum-dot":
            _, cert = search_sum_dot(rs, group, modulus)
            return cert
        if args.search == "levi-weights":
            _, cert = search_levi_weights(rs, group, J, modulus)
            return cert
        if args.search == "dot-collisions":
            lam = _parse_lambda(args, rs.rank)
            _, cert = search_dot_collisions(rs, group, lam, modulus,
                                            args.domain,
                                            quantum=args.l is not None)
            return cert
        return consistency_suite(rs, group, modulus)

    raise RuntimeError(f"unhandled command {cmd!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = _run(args)
    except (PreconditionError, OracleBudgetError, BudgetError,
            GroupTooLargeError) as exc:
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


if __name__ == "__main__":
    sys.exit(main())
