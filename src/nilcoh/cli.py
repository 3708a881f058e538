"""Command-line front end.

Every subcommand prints a payload to stdout (JSON by default) whose header
echoes the parsed configuration.  Exit codes: 0 success, 2 precondition or
gate failure (the violated condition is named on stderr), 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from .alcoves import (PreconditionError, admissibility, in_alcove,
                      weak_linkage)
from .characters import format_poincare
from .kostant import (frobenius_kernel_character, kostant_decomposition,
                      parabolic_character, t1_invariants)
from .koszul import OracleBudgetError, oracle_cohomology
from .restricted import (BudgetError, build_algebra, certificate, ext_dims,
                         square_certificate)
from .ring import CohomologyRing, check_ring_laws, square_free_basis
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


def _config_dict(args) -> dict:
    keys = ("command", "type", "p", "l", "J", "lam", "max_degree", "format",
            "unsafe", "mode", "domain", "check_square")
    out = {}
    for k in keys:
        if hasattr(args, k):
            out[k] = getattr(args, k)
    return out


def _emit(payload: dict, args):
    fmt = getattr(args, "format", "json")
    payload = {"config": _config_dict(args), **payload}
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        _emit_csv(payload)
    elif fmt == "tex":
        _emit_tex(payload)
    else:
        _emit_text(payload)


def _flatten_rows(payload):
    rows = payload.get("rows")
    if rows is not None:
        return payload.get("columns"), rows
    return None, None


def _emit_csv(payload):
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


def _add_common(sp, need_lambda=False):
    sp.add_argument("--type", required=True, help="Cartan type, e.g. B2")
    sp.add_argument("--p", type=int, default=None, help="prime modulus")
    sp.add_argument("--l", type=int, default=None,
                    help="quantum root-of-unity order")
    sp.add_argument("--J", default="",
                    help="comma-separated 0-based simple root indices")
    if need_lambda:
        sp.add_argument("--lambda", dest="lam", default=None,
                        help="fundamental coordinates, comma-separated"
                             " (alcove, linkage: required; else default 0)")
    sp.add_argument("--max-degree", dest="max_degree", type=int, default=4)
    sp.add_argument("--format", choices=FORMATS, default="json")
    sp.add_argument("--unsafe", action="store_true",
                    help="compute formal models below the stated bounds")


def _mode_modulus(args):
    if args.l is not None:
        mode, flag, modulus = "quantum", "--l", args.l
    elif args.p is not None:
        mode, flag, modulus = "modular", "--p", args.p
    else:
        raise PreconditionError("specify --p (modular) or --l (quantum)")
    if modulus < 2:
        raise PreconditionError(f"{flag} must be at least 2, got {modulus}")
    return mode, modulus


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nilcoh",
        description="Exact cohomology computations for nilpotent radicals,"
                    " their Frobenius kernels, and quantum analogs.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rootsys", help="root system data")
    _add_common(sp)

    sp = sub.add_parser("weyl", help="Weyl group data")
    _add_common(sp)

    sp = sub.add_parser("alcove", help="bottom-alcove membership")
    _add_common(sp, need_lambda=True)

    sp = sub.add_parser("linkage", help="weak linkage datum")
    _add_common(sp, need_lambda=True)

    sp = sub.add_parser("kostant", help="nilradical cohomology decomposition")
    _add_common(sp, need_lambda=True)

    sp = sub.add_parser("character",
                        help="Frobenius-kernel / parabolic / torus characters")
    _add_common(sp, need_lambda=True)
    sp.add_argument("--which", choices=("frobenius", "parabolic", "t1"),
                    default="frobenius")

    sp = sub.add_parser("ring-table", help="exterior multiplication table")
    _add_common(sp)

    sp = sub.add_parser("quantum", help="quantum exterior algebra checks")
    _add_common(sp)

    sp = sub.add_parser("oracle-koszul", help="brute-force cohomology oracle")
    _add_common(sp)
    sp.add_argument("--field", choices=("Q", "Fp"), default="Fp")

    sp = sub.add_parser("ext", help="restricted Ext via minimal resolution")
    _add_common(sp)
    sp.add_argument("--check-square", dest="check_square", action="store_true",
                    help="certify the square of the distinguished H^2 class")

    sp = sub.add_parser("verify", help="exhaustive lemma searches")
    sp.add_argument("search", choices=("sum-dot", "levi-weights",
                                       "dot-collisions", "suite"))
    _add_common(sp, need_lambda=True)
    sp.add_argument("--domain", choices=("ZPhi", "X"), default="ZPhi")
    return ap


def _run(args) -> dict:
    rs = _parse_type(args.type)
    cmd = args.command

    if cmd == "rootsys":
        return rs.to_json()

    group = enumerate_group(rs)
    J = _parse_J(args.J) if hasattr(args, "J") else ()
    for i in J:
        if not 0 <= i < rs.rank:
            raise PreconditionError(f"J index {i} out of range for {rs.label}")

    if cmd == "weyl":
        return {
            "order": len(group.elements),
            "length_polynomial": group.length_polynomial(),
            "longest_word": [i + 1 for i in group.longest.word],
            "min_coset_reps": [[i + 1 for i in w.word]
                               for w in group.min_coset_reps(J)],
        }

    if cmd == "alcove":
        mode, modulus = _mode_modulus(args)
        lam = _parse_lambda(args, rs.rank, required=True)
        return {
            "lambda": list(lam),
            "interior": in_alcove(lam, modulus, rs, closed=False),
            "closure": in_alcove(lam, modulus, rs, closed=True),
        }

    if cmd == "linkage":
        mode, modulus = _mode_modulus(args)
        lam = _parse_lambda(args, rs.rank, required=True)
        datum = weak_linkage(lam, modulus, rs, group)
        if datum is None:
            return {"lambda": list(lam), "linked": False}
        return {"lambda": list(lam), "linked": True,
                "w": [i + 1 for i in datum.w.word],
                "sigma": list(datum.sigma), "modulus": modulus}

    if cmd == "kostant":
        if args.p is None and args.l is None:
            mode, modulus = "classical", None
        else:
            mode, modulus = _mode_modulus(args)
        lam = _parse_lambda(args, rs.rank)
        kd = kostant_decomposition(lam, J, rs, group, mode, modulus)
        out = kd.to_json()
        out["dims"] = kd.poincare()
        out["poincare"] = format_poincare(kd.poincare())
        return out

    if cmd == "character":
        mode, modulus = _mode_modulus(args)
        lam = _parse_lambda(args, rs.rank)
        if args.which == "frobenius":
            bg = frobenius_kernel_character(lam, J, rs, group, mode, modulus,
                                            args.max_degree)
            out = bg.to_json()
            out["collapsed"] = bg.collapse().to_json()
            return out
        if args.which == "parabolic":
            gc = parabolic_character(lam, J, rs, group, mode, modulus,
                                     args.max_degree)
            return {"lambda": list(lam), "J": list(J),
                    "degrees": gc.to_json(), "dims": gc.dims()}
        gc = t1_invariants(lam, modulus, rs, group)
        return {"lambda": list(lam), "degrees": gc.to_json(),
                "dims": gc.dims()}

    if cmd == "ring-table":
        mode, modulus = _mode_modulus(args)
        mode = "classical" if args.l is None else "quantum"
        ring = CohomologyRing(rs, group, J, mode, modulus, unsafe=args.unsafe)
        return {
            "metadata": ring.metadata(),
            "laws": check_ring_laws(ring),
            "columns": ["w", "w_prime", "result", "sign", "zeta_exponent"],
            "rows": [list(r) for r in ring.table_rows()],
        }

    if cmd == "quantum":
        if args.l is None:
            raise PreconditionError("quantum checks need --l")
        from .ring import defining_relations_hold, straightening_confluent
        profile, passed = admissibility(args.l, rs, "base")
        if not passed:
            raise PreconditionError(
                f"l={args.l} fails the base admissibility gate on {rs.label}"
                f" ({profile.flags()})")
        basis = square_free_basis(rs, args.l)
        return {
            "l": args.l,
            "admissibility": profile.flags(),
            "defining_relations": defining_relations_hold(rs, args.l),
            "confluent": straightening_confluent(rs, args.l),
            "square_free_basis_count": len(basis),
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
            sb_sa = group.multiply(group.simple[1], group.simple[0])
            wt = sb_sa.dot((0,) * rs.rank, rs)
            example = square_certificate(res, 2, wt)
        return certificate(alg, res, example)

    if cmd == "verify":
        mode, modulus = _mode_modulus(args)
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
    except BrokenPipeError:
        raise
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
