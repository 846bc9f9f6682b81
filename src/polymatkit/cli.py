"""Command-line interface.

Every solver verb verifies its result (product / residual checks) before
printing anything, so the Las Vegas contract is visible at the process
boundary; ``rowreduce`` checks the certificate T A = R, W R = A that
``row_reduce`` returns. The brute-force oracles run only under --oracle,
apart from ``det``'s interpolation fallback: on GenericityFailure from
``generic_det``, ``det`` prints the reason on stderr and interpolates.
Exit codes: 0 success and verified, 2 verification failure (the CLI's
checks or the library's own, SelfCheckFailure), 3 precondition error (an
out-of-range size, --rank, --reps or --shift too, or a size argument whose
series or output would exceed io.MAX_COEFFS coefficients), 4 parse error
(bad arguments too, a --shift token that is no integer among them).

Setting the environment variable POLYMATKIT_CORRUPT to a non-empty value
corrupts each computed result before its verification step; this exists so
the verification path itself can be tested end to end.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import io as pmio
from .approxbasis import pmbasis, series_product
from .bench import BENCH_OPS, bench
from .errors import (GenericityFailure, ParseError, PolymatError, RequestTooLarge,
                     SelfCheckFailure)
from .field import get_field
from .fraction import expansion_slice
from .instances import PROFILES, rand_instance
from .linalg import det as const_det, mod_matmul, rank as const_rank
from .nullspace import general_nullspace, minimal_vectors_up_to, rank
from .oracle import (
    det_by_interpolation,
    minimal_basis_bruteforce,
    naive_mul,
    nullspace_bruteforce,
    unimodular_equiv_check,
)
from .poly import Polynomial, poly_eval
from .polymat import (
    PolyMatrix,
    int_degree,
    is_row_reduced,
    pm_eval,
    pm_mul,
    pm_truncate,
)
from .reconstruct import matfrac_rec
from .solvers import generic_det, generic_inverse, left_factorization, row_reduce

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_PRECONDITION = 3
EXIT_PARSE = 4

CORRUPT_ENV = "POLYMATKIT_CORRUPT"


def _maybe_corrupt(mat: PolyMatrix) -> PolyMatrix:
    if not os.environ.get(CORRUPT_ENV):
        return mat
    c = mat.coeffs.copy()
    if c.size:
        c[0, 0, 0] = (c[0, 0, 0] + 1) % mat.field.p
    return PolyMatrix(mat.field, c)


def _corrupt_poly(f: Polynomial) -> Polynomial:
    if not os.environ.get(CORRUPT_ENV):
        return f
    cs = list(f.coeffs) or [0]
    cs[0] = (cs[0] + 1) % f.field.p
    return Polynomial(f.field, cs)


def _emit(mat: PolyMatrix, path=None):
    if path:
        pmio.save(path, mat)
    else:
        sys.stdout.write(pmio.serialize(mat))


def _check(cond: bool, message: str):
    if not cond:
        raise SelfCheckFailure(message)


def _bound_request(args: dict, coeffs: int):
    """Refuse negative size arguments, and a series or output of more than
    io.MAX_COEFFS coefficients, before anything is allocated."""
    given = " ".join(f"{name} {value}" for name, value in args.items())
    if min(args.values()) < 0:
        raise PolymatError(f"{' and '.join(args)} must be non-negative, got {given}")
    if coeffs > pmio.MAX_COEFFS:
        raise RequestTooLarge(f"{given} asks for {coeffs} coefficients, "
                              f"more than {pmio.MAX_COEFFS}")


# -- verbs -------------------------------------------------------------------

def _cmd_mul(args, rng):
    a = pmio.load(args.a)
    b = pmio.load(args.b)
    pmio.check_same_field(a, b)
    c = _maybe_corrupt(pm_mul(a, b))
    p = a.field.p
    x0 = int(rng.integers(0, p))
    lhs = pm_eval(c, x0)
    rhs = mod_matmul(pm_eval(a, x0), pm_eval(b, x0), p)
    _check(np.array_equal(lhs, rhs), "product disagrees with evaluation check")
    if args.oracle:
        _check(c == naive_mul(a, b), "product disagrees with the naive oracle")
        print("oracle: agreement (naive_mul)", file=sys.stderr)
    _emit(c, args.output)


def _cmd_mbasis(args, rng):
    f_mat = pmio.load(args.f)
    sigma = args.order
    n, m = f_mat.rows, f_mat.cols
    _bound_request({"--order": sigma}, max(sigma * n * m, (sigma + 1) * n * n))
    f = f_mat.to_series(sigma)
    basis = pmbasis(f, sigma, args.shift)
    n_mat = _maybe_corrupt(basis.basis)
    _check(not series_product(n_mat, f, sigma).coeffs.any(), "basis residual is nonzero")
    x0 = int(rng.integers(1, f.field.p))
    _check(
        const_rank(pm_eval(n_mat, x0), f.field.p) == f.rows,
        "basis singular at a random point",
    )
    if args.oracle:
        ref = minimal_basis_bruteforce(f, sigma)
        _check(
            sorted(basis.row_degrees) == sorted(ref.row_degrees),
            "minimal indices disagree with the brute-force oracle",
        )
        print("oracle: agreement (minimal_basis_bruteforce)", file=sys.stderr)
    print(f"# order {sigma} row_degrees {basis.row_degrees}", file=sys.stderr)
    _emit(n_mat, args.output)


def _cmd_nullspace(args, rng):
    a = pmio.load(args.a)
    if args.delta is not None:
        basis = minimal_vectors_up_to(a, args.delta)
    else:
        basis = general_nullspace(a, rng)
    v = _maybe_corrupt(basis.matrix)
    _check(pm_mul(v, a).is_zero(), "nullspace rows do not annihilate the input")
    if args.oracle:
        cap = args.delta if args.delta is not None else a.rows * int_degree(a)
        ref = nullspace_bruteforce(a, max(cap, 1))
        _check(
            sorted(basis.kronecker_degrees) == sorted(ref.kronecker_degrees),
            "Kronecker degrees disagree with the brute-force oracle",
        )
        print("oracle: agreement (nullspace_bruteforce)", file=sys.stderr)
    print(f"# rows {v.rows} degrees {basis.kronecker_degrees}", file=sys.stderr)
    _emit(v, args.output)


def _print_poly(f: Polynomial):
    cs = " ".join(str(int(c)) for c in f.coeffs) or "0"
    print(f"det p={f.field.p} coeffs {cs}")


def _cmd_det(args, rng):
    a = pmio.load(args.a)
    try:
        result = generic_det(a, int(rng.integers(0, 2**31)))
    except GenericityFailure as exc:
        print(f"# generic_det failed ({exc}); interpolating instead", file=sys.stderr)
        result = det_by_interpolation(a)
    result = _corrupt_poly(result)
    p = a.field.p
    x0 = int(rng.integers(0, p))
    _check(
        int(poly_eval(result, x0)) == const_det(pm_eval(a, x0), p),
        "determinant disagrees with a random evaluation",
    )
    if args.oracle:
        _check(result == det_by_interpolation(a), "determinant disagrees with the oracle")
        print("oracle: agreement (det_by_interpolation)", file=sys.stderr)
    _print_poly(result)


def _cmd_inverse(args, rng):
    a = pmio.load(args.a)
    rep = generic_inverse(a, int(rng.integers(0, 2**31)))
    u = _maybe_corrupt(rep.transform)
    b = rep.diagonal
    _check(pm_mul(u, a) == b, "U A = B check failed")
    off = b.coeffs.copy()
    for i in range(b.rows):
        off[:, i, i] = 0
    _check(not off.any(), "B is not diagonal")
    _emit(u, args.output)
    if args.diag_output:
        _emit(b, args.diag_output)


def _cmd_rowreduce(args, rng):
    a = pmio.load(args.a)
    reduced, cert = row_reduce(a, int(rng.integers(0, 2**31)))
    r = _maybe_corrupt(reduced)
    _check(is_row_reduced(r), "result is not row-reduced")
    _check(pm_mul(cert["transform"], a) == r, "T A = R check failed")
    _check(pm_mul(cert["inverse"], r) == a, "W R = A check failed")
    if args.oracle:
        _check(
            unimodular_equiv_check(a, r, seed=int(rng.integers(0, 2**31))),
            "result is not unimodularly equivalent to the input",
        )
        print("oracle: agreement (unimodular_equiv_check)", file=sys.stderr)
    _emit(r, args.output)


def _cmd_reconstruct(args, rng):
    f_mat = pmio.load(args.f)
    sigma = args.dl + args.dr + 1
    # the order basis of the stacked [-I; F] is (2 rows) x (2 rows) of length sigma + 1
    _bound_request({"--dl": args.dl, "--dr": args.dr},
                   max(sigma * f_mat.rows * f_mat.cols, (sigma + 1) * 4 * f_mat.rows ** 2))
    f = f_mat.to_series(max(sigma, f_mat.coeffs.shape[0]))
    fact = matfrac_rec(f, args.dl, args.dr)
    numer = _maybe_corrupt(fact.numerator)
    denom = fact.denominator
    approx = pm_truncate(pm_mul(denom, f.to_polymat()), sigma)
    _check(
        approx == pm_truncate(numer, sigma),
        "V F != U mod x^sigma",
    )
    _emit(numer, args.output)
    if args.denom_output:
        _emit(denom, args.denom_output)


def _cmd_expand(args, rng):
    a = pmio.load(args.a)
    if args.b:
        b = pmio.load(args.b)
        pmio.check_same_field(a, b)
    else:
        b = PolyMatrix.identity(a.field, a.rows)
    h, delta = args.h, args.delta
    d = int_degree(a)
    h0 = max(0, h - d)
    _bound_request({"--h": h, "--delta": delta}, (h - h0 + delta) * a.rows * b.cols)
    ext = expansion_slice(a, b, h0, (h - h0) + delta)
    coeffs = ext.coeffs.copy()
    if os.environ.get(CORRUPT_ENV) and coeffs.size:
        coeffs[-1, 0, 0] = (coeffs[-1, 0, 0] + 1) % a.field.p
    # recurrence check: (A G)_k = B_{h0+k} for G = sum_k F_{h0+k} x^k; below
    # order d the product lacks the terms A_j F_t with t < h0, all zero iff h0 = 0
    start, length = (0 if h0 == 0 else d), coeffs.shape[0]
    got = pm_mul(a, PolyMatrix(a.field, coeffs)).to_series(length).coeffs[start:]
    want = np.zeros_like(got)  # B's orders [h0 + start, h0 + length), not all h of them
    tail = b.coeffs[h0 + start:h0 + length]
    want[:tail.shape[0]] = tail
    _check(np.array_equal(got, want), f"expansion recurrence fails at orders >= {h0 + start}")
    window = coeffs[h - h0:]
    out = PolyMatrix(a.field, window) if window.shape[0] else PolyMatrix.zero(
        a.field, a.rows, b.cols
    )
    print(f"# slice start {h} length {delta}", file=sys.stderr)
    _emit(out, args.output)


def _cmd_factor(args, rng):
    b = pmio.load(args.b)
    a = pmio.load(args.a)
    pmio.check_same_field(a, b)
    fact = left_factorization(b, a, int(rng.integers(0, 2**31)))
    numer = _maybe_corrupt(fact.numerator)
    denom = fact.denominator
    _check(pm_mul(numer, a) == pm_mul(denom, b), "U A != V B")
    _check(rank(denom, int(rng.integers(0, 2**31))) == denom.rows, "V is singular")
    _emit(numer, args.output)
    if args.denom_output:
        _emit(denom, args.denom_output)


def _cmd_rand(args, rng):
    if min(args.n, args.m, args.d) < 0:
        raise PolymatError("--n, --m and --d must be non-negative")
    field = get_field(args.prime)
    try:
        mat = rand_instance(args.n, args.m, args.d, args.seed or 0, profile=args.profile,
                            field=field, rank=args.rank)
    except ValueError as exc:  # a --rank or --n the profile cannot take
        raise PolymatError(str(exc)) from None
    _emit(mat, args.output)


def _parse_grid(text: str):
    try:
        points = [tuple(int(v) for v in token.split("x")) for token in text.split(",")]
    except ValueError:
        points = []
    if points and all(len(pt) == 2 for pt in points):
        return points
    if points and all(len(pt) == 1 for pt in points):
        return [(n, d) for (n,) in points for (d,) in points]
    raise ParseError(f"--grid {text!r} is neither '16,32' nor '16x8,32x8'")


def _cmd_bench(args, rng):
    field = get_field(args.prime)
    grid = _parse_grid(args.grid)
    if args.reps < 1 or min(min(pt) for pt in grid) < 0:
        raise PolymatError(f"need --reps >= 1 and --grid sizes >= 0: {args.reps}, {args.grid!r}")
    report = bench(args.op, grid, args.reps, seed=args.seed, field=field)
    print(report.table())
    for record in report.records():
        print(json.dumps(record))


# -- argument parsing --------------------------------------------------------

def _int_list(text: str) -> list:
    """Comma-separated integers; argparse reports a bad token as a usage error."""
    return [int(s) for s in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_PARSE, not 2 (a verification failure); subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args fills a fresh Namespace on every call
    parser = _Parser(
        prog="polymatkit",
        description="Exact polynomial matrix toolkit over a prime field.",
    )
    parser.add_argument("--prime", type=int, default=2013265921,
                        help="field modulus for verbs that build matrices")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for all randomness (reproducible runs)")
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check against the brute-force oracles")
    sub = parser.add_subparsers(dest="verb", required=True)

    def out_opt(sp):
        sp.add_argument("-o", "--output", default=None, help="write result here")

    sp = sub.add_parser("mul", help="polynomial matrix product")
    sp.add_argument("a")
    sp.add_argument("b")
    out_opt(sp)
    sp.set_defaults(func=_cmd_mul)

    sp = sub.add_parser("mbasis", help="minimal approximant basis")
    sp.add_argument("f")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--shift", type=_int_list, default=None, help="comma-separated row shift")
    out_opt(sp)
    sp.set_defaults(func=_cmd_mbasis)

    sp = sub.add_parser("nullspace", help="minimal left nullspace vectors")
    sp.add_argument("a")
    sp.add_argument("--delta", type=int, default=None,
                    help="degree cap; omit for the full nullspace")
    out_opt(sp)
    sp.set_defaults(func=_cmd_nullspace)

    sp = sub.add_parser("det", help="determinant")
    sp.add_argument("a")
    sp.set_defaults(func=_cmd_det)

    sp = sub.add_parser("inverse", help="generic inverse representation U A = B")
    sp.add_argument("a")
    out_opt(sp)
    sp.add_argument("-O", "--diag-output", default=None, help="write B here")
    sp.set_defaults(func=_cmd_inverse)

    sp = sub.add_parser("rowreduce", help="row-reduced left-equivalent form")
    sp.add_argument("a")
    out_opt(sp)
    sp.set_defaults(func=_cmd_rowreduce)

    sp = sub.add_parser("reconstruct", help="matrix fraction reconstruction")
    sp.add_argument("f")
    sp.add_argument("--dl", type=int, required=True)
    sp.add_argument("--dr", type=int, required=True)
    out_opt(sp)
    sp.add_argument("-D", "--denom-output", default=None, help="write V here")
    sp.set_defaults(func=_cmd_reconstruct)

    sp = sub.add_parser("expand", help="expansion slice of A^{-1} B")
    sp.add_argument("a")
    sp.add_argument("b", nargs="?", default=None)
    sp.add_argument("--h", type=int, required=True, dest="h")
    sp.add_argument("--delta", type=int, required=True)
    sp.add_argument("--fast", action="store_true", help="accepted, no effect")
    out_opt(sp)
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("factor", help="left factorization from a right one")
    sp.add_argument("b")
    sp.add_argument("a")
    out_opt(sp)
    sp.add_argument("-D", "--denom-output", default=None, help="write V here")
    sp.set_defaults(func=_cmd_factor)

    sp = sub.add_parser("rand", help="random instance")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--profile", choices=PROFILES, default="dense-uniform")
    sp.add_argument("--rank", type=int, default=None)
    # also accepted after the verb; absent means "use the global --seed"
    sp.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    out_opt(sp)
    sp.set_defaults(func=_cmd_rand)

    sp = sub.add_parser("bench", help="scaling smoke benchmark")
    sp.add_argument("--op", choices=BENCH_OPS, required=True)
    sp.add_argument("--grid", required=True,
                    help="'16,32,64' (cartesian) or '16x16,32x16' (pairs)")
    sp.add_argument("--reps", type=int, default=5)
    sp.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    try:
        args.func(args, rng)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SelfCheckFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except PolymatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
