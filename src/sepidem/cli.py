"""Command-line front end.

Subcommands: verify, derive, decompose, construct.  One instance per
file; batch work is shell composition.  Exit codes for verify are a
function of the certificate mode only: 0 separability idempotent,
3 nilpotent variant, 1 rejected, 2 input error.  derive and decompose
reuse the same mapping, with refusals (wrong mode for the request,
cross-block leakage) reported as exit 1.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import constructions, star
from .algebra import element_as_matrix
from .documents import (
    certificate_from_result,
    matrix_literal,
    parse_instance,
    vector_literal,
)
from .duality import Duality
from .engine import certify
from .errors import (
    CrossBlockLeakage,
    DocumentError,
    RefusedForMode,
    SepidemError,
)
from .integrals import derive_all
from .scalars import EXACT

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2
EXIT_NILPOTENT = 3

_MODE_EXIT = {
    "separability_idempotent": EXIT_OK,
    "nilpotent_variant": EXIT_NILPOTENT,
    "rejected": EXIT_REJECTED,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RefusedForMode as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except CrossBlockLeakage as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except SepidemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sepidem",
        description="verify separability idempotents and derive their attached data",
    )
    sub = parser.add_subparsers(required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=["exact", "float"], default=None,
                        help="override the document scalar mode")
    common.add_argument("--tol", type=float, default=None,
                        help="comparison tolerance (float mode)")

    p = sub.add_parser("verify", parents=[common],
                       help="certify an instance file; prints a certificate document")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive", parents=[common],
                       help="emit derived data for a certified instance")
    p.add_argument("file")
    p.add_argument("--what", required=True,
                   choices=["integrals", "antipodes", "modular", "dual"])
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("decompose", parents=[common],
                       help="split a multi-matrix instance into per-block twists")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("construct", parents=[common],
                       help="write an instance document for a standard family")
    p.add_argument("--kind", required=True,
                   choices=["E0", "twisted", "involutive_twisted", "nonfull", "direct_sum"])
    p.add_argument("--n", type=int, default=None, help="matrix size")
    p.add_argument("--r", default=None, help="matrix literal (JSON)")
    p.add_argument("--s", default=None, help="matrix literal (JSON)")
    p.add_argument("--normalize", action="store_true",
                   help="rescale s so the twisted element is idempotent")
    p.add_argument("--components", default=None,
                   help="JSON list of component element specs (direct_sum)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for random twist data when no matrices are given")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_construct)
    return parser


def _load(args):
    with open(args.file) as fh:
        doc = json.load(fh)
    override = {"exact": "exact", "float": "float64", None: None}[args.mode]
    return parse_instance(doc, override_mode=override, override_tol=args.tol)


def _emit(desc, cert, extra=None, t0=None) -> int:
    """Print the certificate document; return the exit code of its mode."""
    timing = None if t0 is None else round(time.perf_counter() - t0, 6)
    print(certificate_from_result(desc, cert, derived_extra=extra, timing=timing).to_json())
    return _MODE_EXIT[cert.mode]


def cmd_verify(args) -> int:
    desc = _load(args)
    t0 = time.perf_counter()
    return _emit(desc, certify(desc.element), t0=t0)


def cmd_derive(args) -> int:
    desc = _load(args)
    e = desc.element
    fld = e.field
    t0 = time.perf_counter()
    cert = certify(e)
    if cert.mode == "rejected":
        return _emit(desc, cert)
    if args.what == "antipodes":
        extra = {}  # S and S_prime are already part of the certificate payload
    elif cert.mode != "separability_idempotent":
        raise RefusedForMode(
            f"--what={args.what} needs a separability idempotent; certificate mode "
            f"is {cert.mode!r} (antipodes remain available)"
        )
    else:
        data = derive_all(e, cert.mode)
        if args.what == "integrals":
            extra = {"phi": vector_literal(data.left_integral.covector, fld),
                     "psi": vector_literal(data.right_integral.covector, fld)}
        elif args.what == "modular":
            extra = {"sigma": matrix_literal(data.modular.rows, fld),
                     "sigma_prime": matrix_literal(data.reverse_modular.rows, fld)}
        else:  # dual
            dual = Duality(data)
            bhats = [dual.fourier(e.left.basis_element(i), "B") for i in range(e.left.dim)]
            chats = [dual.fourier(e.right.basis_element(j), "C") for j in range(e.right.dim)]
            pairing = [[dual.pairing(bh, ch) for ch in chats] for bh in bhats]
            extra = {"dual_pairing": matrix_literal(pairing, fld)}
            if e.left.star_matrix is not None and e.right.star_matrix is not None:
                gram = [[dual.plancherel_form(c1, c2) for c1 in chats] for c2 in chats]
                extra["plancherel_gram"] = matrix_literal(gram, fld)
    return _emit(desc, cert, extra, t0)


def cmd_decompose(args) -> int:
    desc = _load(args)
    e = desc.element
    fld = e.field
    t0 = time.perf_counter()
    cert = certify(e)
    if cert.mode != "separability_idempotent":
        return _emit(desc, cert)
    blocks = star.decompose_blocks(e)
    extra = {
        "blocks": [
            {
                "size": b.size,
                "r": matrix_literal(element_as_matrix(b.twist.r), fld),
                "s": matrix_literal(element_as_matrix(b.twist.s), fld),
            }
            for b in blocks
        ]
    }
    return _emit(desc, cert, extra, t0)


def cmd_construct(args) -> int:
    mode = {"exact": "exact", "float": "float64", None: "exact"}[args.mode]
    spec = {"scalar_mode": mode}
    if mode == "float64" and args.tol:
        spec["tolerance"] = args.tol
    if args.seed is not None:
        spec["seed"] = args.seed
    kind = args.kind
    if kind in ("E0", "nonfull"):
        if args.n is None:
            raise DocumentError("--n is required", f"--kind={kind}")
        spec["E"] = {"kind": kind, "n": args.n}
    elif kind == "twisted":
        if args.r and args.s:
            spec["E"] = {"kind": "twisted", "r": json.loads(args.r), "s": json.loads(args.s),
                         "normalize": bool(args.normalize)}
        else:
            if args.n is None or args.seed is None:
                raise DocumentError("random twist needs --n and --seed", "--kind=twisted")
            rng = random.Random(args.seed)
            r, s = constructions.random_twisted_pair(args.n, rng, field=EXACT)
            spec["E"] = {
                "kind": "twisted",
                "r": matrix_literal(element_as_matrix(r), EXACT),
                "s": matrix_literal(element_as_matrix(s), EXACT),
                "normalize": False,
            }
    elif kind == "involutive_twisted":
        if args.r:
            spec["E"] = {"kind": "involutive_twisted", "r": json.loads(args.r)}
        else:
            if args.n is None or args.seed is None:
                raise DocumentError("random involutive twist needs --n and --seed",
                                    "--kind=involutive_twisted")
            rng = random.Random(args.seed)
            r = constructions.random_involutive_diagonal(args.n, rng, field=EXACT)
            spec["E"] = {"kind": "involutive_twisted",
                         "r": matrix_literal(element_as_matrix(r), EXACT)}
    else:  # direct_sum
        if not args.components:
            raise DocumentError("--components is required", "--kind=direct_sum")
        spec["E"] = {"kind": "direct_sum", "components": json.loads(args.components)}
    parse_instance(spec)  # fail fast on anything malformed
    payload = json.dumps(spec, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
