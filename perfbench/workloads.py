"""The benchmark's workloads: fixed op lists over inputs made from a seed.

A workload is one closed loop with a single caller: a pass sends each op
only after the previous one returned. Inputs are built once per run from
the workload seed (set-up); each op's own randomness (Las Vegas seeds) is
drawn per pass from the same seed, so a run is reproducible pass by pass.

Every op has three parts:
  call(op_seed)      the public-API call that is timed;
  extract(raw)       untimed: the output as named coefficient arrays;
  check(arrays, rng) untimed: an independent check (see checks.py) that
                     raises CheckFailed when the output is wrong.
"""

from __future__ import annotations

import contextlib
import io as _io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import checks

DEFAULT_PRIME = 2013265921  # 15 * 2**27 + 1: NTT lengths up to 2**27
MERSENNE_31 = 2**31 - 1     # two-adicity 1: every product takes the block path


class OpFailed(Exception):
    """The op returned no answer (a nonzero CLI exit)."""


@dataclass
class Op:
    name: str
    call: Callable[[int], object]
    extract: Callable[[object], dict]
    check: Callable[[dict, np.random.Generator], None]


@dataclass
class Workload:
    name: str
    prime: int
    ops: list


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _arr(rng, p, shape):
    return rng.integers(0, p, size=shape).astype(np.int64)


def _planted_fraction(rng, p: int, n: int, dl: int):
    """Expansion (2 dl + 1 terms) of V0^-1 U0, V0 of degree dl, U0 of degree dl - 1."""
    v0 = _arr(rng, p, (dl + 1, n, n))
    u0 = _arr(rng, p, (dl, n, n))
    return checks.series_solve(v0, u0, 2 * dl + 1, p)


def _singular_at_zero(pk, fld, n: int, d: int, seed: int):
    """A random n x n degree-d matrix whose constant coefficient is singular."""
    c = pk.rand_instance(n, n, d, seed, field=fld).coeffs.copy()
    c[0, n - 1, :] = 0
    return pk.PolyMatrix(fld, c)


# -- op factories ----------------------------------------------------------------

def _mul_op(pk, name, a, b):
    p = a.field.p
    return Op(name, lambda s: pk.pm_mul(a, b), lambda r: {"c": r.coeffs},
              lambda o, rng: checks.check_product(a.coeffs, b.coeffs, o["c"], p, rng))


def _pmbasis_op(pk, name, f, sigma, shift=None):
    p = f.field.p
    return Op(name, lambda s: pk.pmbasis(f, sigma, shift), lambda r: {"basis": r.basis.coeffs},
              lambda o, rng: checks.check_order_basis(f.coeffs, sigma, shift, o["basis"], p, rng))


def _nullspace_check(a, count, degree_sum):
    p = a.field.p
    return lambda o, rng: checks.check_nullspace(a.coeffs, o["rows"], count, degree_sum, p, rng)


def _row_reduce_op(pk, name, a):
    p = a.field.p
    return Op(name, lambda s: pk.row_reduce(a, seed=s), lambda r: {"r": r[0].coeffs},
              lambda o, rng: checks.check_row_reduced_equiv(a.coeffs, o["r"], p, rng))


def _slice_op(pk, name, a, b, ref, h, delta, fast):
    return Op(name, lambda s: pk.expansion_slice(a, b, h, delta, fast=fast),
              lambda r: {"window": r.coeffs}, lambda o, rng: ref.check(h, o["window"]))


# -- workloads ------------------------------------------------------------------

def order_basis(pk, seed: int, crng) -> Workload:
    fld = pk.get_field(DEFAULT_PRIME)
    p = fld.p
    rng = np.random.default_rng(seed)
    ops = [
        _mul_op(pk, "pm_mul.n16.d31", pk.rand_instance(16, 16, 31, _seed(rng), field=fld),
                pk.rand_instance(16, 16, 31, _seed(rng), field=fld)),
        _mul_op(pk, "pm_mul.n16.d32", pk.rand_instance(16, 16, 32, _seed(rng), field=fld),
                pk.rand_instance(16, 16, 32, _seed(rng), field=fld)),
        _pmbasis_op(pk, "pmbasis.n16.m8.s64", pk.SeriesMatrix(fld, 64, _arr(rng, p, (64, 16, 8))), 64),
        _pmbasis_op(pk, "pmbasis.shifted.n16.m8.s32",
                    pk.SeriesMatrix(fld, 32, _arr(rng, p, (32, 16, 8))), 32, list(range(16))),
    ]
    tall = pk.rand_instance(12, 8, 4, _seed(rng), field=fld)
    # minimal indices of a generic 12 x 8 degree-4 matrix: 4 vectors of degree 8 * 4 / 4
    ops.append(Op("partial_nullspace.12x8.d4", lambda sd: pk.partial_nullspace(tall, 8, seed=sd),
                  lambda r: {"rows": r.matrix.coeffs}, _nullspace_check(tall, 4, 32)))
    # planted rank 6 = (8 x 6, degree 2)(6 x 8, degree 2): 2 kernel vectors, degree sum 6 * 2
    planted = pk.rand_instance(8, 8, 4, _seed(rng), profile="planted-rank", rank=6, field=fld)
    ops.append(Op("general_nullspace.n8.d4.r6", lambda sd: pk.general_nullspace(planted, seed=sd),
                  lambda r: {"rows": r.matrix.coeffs}, _nullspace_check(planted, 2, 12)))
    sq = pk.rand_instance(8, 8, 4, _seed(rng), field=fld)
    ops.append(Op("generic_det.n8.d4", lambda sd: pk.generic_det(sq, seed=sd),
                  lambda r: {"det": np.asarray(r.coeffs, dtype=np.int64)},
                  lambda o, r: checks.check_det(sq.coeffs, o["det"], p, r)))
    ops.append(Op("generic_inverse.n8.d4", lambda sd: pk.generic_inverse(sq, seed=sd),
                  lambda r: {"u": r.transform.coeffs, "b": r.diagonal.coeffs},
                  lambda o, r: checks.check_inverse_rep(sq.coeffs, o["u"], o["b"], p, r)))
    tail = _planted_fraction(rng, p, 8, 8)
    series = pk.SeriesMatrix(fld, tail.shape[0], tail)
    ops.append(Op("matfrac_rec.n8.dl8", lambda sd: pk.matfrac_rec(series, 8, 8),
                  lambda r: {"u": r.numerator.coeffs, "v": r.denominator.coeffs},
                  lambda o, r: checks.check_fraction(tail, 17, 8, o["u"], o["v"], p, r)))
    b = pk.rand_instance(4, 8, 4, _seed(rng), field=fld)
    a = pk.rand_instance(8, 8, 4, _seed(rng), field=fld)
    ops.append(Op("left_factorization.b4x8.a8x8.d4", lambda sd: pk.left_factorization(b, a, seed=sd),
                  lambda r: {"u": r.numerator.coeffs, "v": r.denominator.coeffs},
                  lambda o, r: checks.check_left_factorization(
                      b.coeffs, a.coeffs, o["u"], o["v"], p, r)))
    return Workload("order-basis", p, ops)


def expansion(pk, seed: int, crng) -> Workload:
    fld = pk.get_field(DEFAULT_PRIME)
    p = fld.p
    rng = np.random.default_rng(seed)
    a = pk.rand_instance(8, 8, 8, _seed(rng), field=fld)
    b = pk.rand_instance(8, 8, 7, _seed(rng), field=fld)
    ref = checks.ExpansionReference(a.coeffs, b.coeffs, p, crng)
    ops = [
        _slice_op(pk, "expansion_slice.fast.n8.d8.h1000", a, b, ref, 1000, 8, True),
        # h < 8 deg(A): the fast flag silently runs the baseline
        _slice_op(pk, "expansion_slice.fast.n8.d8.h40", a, b, ref, 40, 8, True),
        _slice_op(pk, "expansion_slice.newton.n8.d8.h300", a, b, ref, 300, 8, False),
        Op("truncated_inverse.n8.d8.k256", lambda sd: pk.truncated_inverse(a, 256),
           lambda r: {"s": r.coeffs},
           lambda o, r: checks.check_truncated_inverse(a.coeffs, o["s"], 256, p, r)),
        _row_reduce_op(pk, "row_reduce.n8.d8", pk.rand_instance(8, 8, 8, _seed(rng), field=fld)),
        _row_reduce_op(pk, "row_reduce.singular0.n4.d4", _singular_at_zero(pk, fld, 4, 4, _seed(rng))),
    ]
    return Workload("expansion", p, ops)


def arbitrary_prime(pk, seed: int, crng) -> Workload:
    fld = pk.get_field(MERSENNE_31)
    p = fld.p
    rng = np.random.default_rng(seed)
    ops = [
        _mul_op(pk, "pm_mul.n16.d64", pk.rand_instance(16, 16, 64, _seed(rng), field=fld),
                pk.rand_instance(16, 16, 64, _seed(rng), field=fld)),
        _pmbasis_op(pk, "pmbasis.n16.m8.s64", pk.SeriesMatrix(fld, 64, _arr(rng, p, (64, 16, 8))), 64),
    ]
    planted = pk.rand_instance(8, 8, 8, _seed(rng), profile="planted-rank", rank=6, field=fld)
    ops.append(Op("general_nullspace.n8.d8.r6", lambda sd: pk.general_nullspace(planted, seed=sd),
                  lambda r: {"rows": r.matrix.coeffs}, _nullspace_check(planted, 2, 24)))
    ops.append(_row_reduce_op(pk, "row_reduce.n8.d8", pk.rand_instance(8, 8, 8, _seed(rng), field=fld)))
    a = pk.rand_instance(8, 8, 8, _seed(rng), field=fld)
    b = pk.rand_instance(8, 8, 7, _seed(rng), field=fld)
    ref = checks.ExpansionReference(a.coeffs, b.coeffs, p, crng)
    ops.append(_slice_op(pk, "expansion_slice.fast.n8.d8.h1000", a, b, ref, 1000, 8, True))
    return Workload("arbitrary-prime", p, ops)


# -- cli ------------------------------------------------------------------------

def _write_pm(path: str, c: np.ndarray, p: int):
    """The polymatkit text format, written without the library."""
    lines = ["polymat 1", f"p {p}", f"dims {c.shape[1]} {c.shape[2]}"]
    degs = checks.entry_degrees(c)
    for i in range(c.shape[1]):
        for j in range(c.shape[2]):
            if degs[i, j] >= 0:
                lines.append(f"e {i} {j} " + " ".join(str(int(x)) for x in c[: degs[i, j] + 1, i, j]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_pm(path: str) -> np.ndarray:
    """Parse the text format (entries only) into a coefficient array."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#")[0].split() for ln in fh]
    lines = [ln for ln in lines if ln]
    rows, cols = int(lines[2][1]), int(lines[2][2])
    entries = [(int(t[1]), int(t[2]), [int(x) for x in t[3:]]) for t in lines[3:]]
    out = np.zeros((max([len(e[2]) for e in entries], default=1), rows, cols), dtype=np.int64)
    for i, j, cs in entries:
        out[: len(cs), i, j] = cs
    return out


class _Cli:
    """Runs polymatkit.cli.main in-process on files in a work directory."""

    def __init__(self, workdir: str, p: int):
        from polymatkit import cli

        self.cli, self.dir, self.p = cli, workdir, p  # cli.main is looked up per call

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def write(self, name: str, c: np.ndarray) -> str:
        _write_pm(self.path(name), c, self.p)
        return self.path(name)

    def op(self, name, argv, outputs, check, parse_stdout=None):
        """``outputs`` maps array names to output files; ``parse_stdout`` reads printed results."""
        paths = {k: self.path(v) for k, v in outputs.items()}

        def call(seed):
            out, err = _io.StringIO(), _io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(["--seed", str(seed), *argv])
            return code, out.getvalue()

        def extract(raw):
            code, text = raw
            if code != 0:
                raise OpFailed(f"exit code {code}")
            arrays = parse_stdout(text) if parse_stdout else {}
            for k, path in paths.items():
                arrays[k] = _read_pm(path)
                os.remove(path)
            return arrays

        return Op(name, call, extract, check)


def _parse_det(text: str) -> dict:
    line = [ln for ln in text.splitlines() if ln.startswith("det p=")][-1]
    return {"det": np.asarray([int(x) for x in line.split("coeffs")[1].split()], dtype=np.int64)}


def cli(pk, seed: int, crng, workdir: str) -> Workload:
    fld = pk.get_field(DEFAULT_PRIME)
    p = fld.p
    rng = np.random.default_rng(seed)
    run = _Cli(workdir, p)
    ops = []

    a = pk.rand_instance(16, 16, 31, _seed(rng), field=fld).coeffs
    b = pk.rand_instance(16, 16, 31, _seed(rng), field=fld).coeffs
    argv = ["mul", run.write("mul_a.pm", a), run.write("mul_b.pm", b), "-o", run.path("mul_c.pm")]
    ops.append(run.op("mul.n16.d31", argv, {"c": "mul_c.pm"},
                      lambda o, r: checks.check_product(a, b, o["c"], p, r)))

    f = _arr(rng, p, (64, 8, 4))
    argv = ["mbasis", run.write("mbasis_f.pm", f), "--order", "64", "-o", run.path("mbasis_n.pm")]
    ops.append(run.op("mbasis.n8.m4.s64", argv, {"basis": "mbasis_n.pm"},
                      lambda o, r: checks.check_order_basis(f, 64, None, o["basis"], p, r)))

    planted = pk.rand_instance(8, 8, 4, _seed(rng), profile="planted-rank", rank=6, field=fld).coeffs
    argv = ["nullspace", run.write("null_a.pm", planted), "-o", run.path("null_v.pm")]
    ops.append(run.op("nullspace.n8.d4.r6", argv, {"rows": "null_v.pm"},
                      lambda o, r: checks.check_nullspace(planted, o["rows"], 2, 12, p, r)))

    for n in (8, 6):  # 8 takes generic_det; 6 is not a power of two and interpolates
        m = pk.rand_instance(n, n, 4, _seed(rng), field=fld).coeffs
        argv = ["det", run.write(f"det{n}.pm", m)]
        ops.append(run.op(f"det.n{n}.d4", argv, {},
                          lambda o, r, m=m: checks.check_det(m, o["det"], p, r), _parse_det))

    rr = pk.rand_instance(6, 6, 6, _seed(rng), field=fld).coeffs
    argv = ["rowreduce", run.write("rr_a.pm", rr), "-o", run.path("rr_r.pm")]
    ops.append(run.op("rowreduce.n6.d6", argv, {"r": "rr_r.pm"},
                      lambda o, r: checks.check_row_reduced_equiv(rr, o["r"], p, r)))

    ea = pk.rand_instance(8, 8, 4, _seed(rng), field=fld).coeffs
    ref = checks.ExpansionReference(ea, np.eye(8, dtype=np.int64)[None], p, crng)
    argv = ["expand", run.write("exp_a.pm", ea), "--h", "400", "--delta", "4", "--fast",
            "-o", run.path("exp_s.pm")]

    def check_expand(o, r):
        window = np.zeros((4, 8, 8), dtype=np.int64)
        window[: o["window"].shape[0]] = o["window"]
        ref.check(400, window)

    ops.append(run.op("expand.fast.n8.d4.h400", argv, {"window": "exp_s.pm"}, check_expand))

    tail = _planted_fraction(rng, p, 8, 4)
    argv = ["reconstruct", run.write("rec_f.pm", tail), "--dl", "4", "--dr", "4",
            "-o", run.path("rec_u.pm"), "-D", run.path("rec_v.pm")]
    ops.append(run.op("reconstruct.n8.dl4", argv, {"u": "rec_u.pm", "v": "rec_v.pm"},
                      lambda o, r: checks.check_fraction(tail, 9, 4, o["u"], o["v"], p, r)))

    fb = pk.rand_instance(4, 8, 4, _seed(rng), field=fld).coeffs
    fa = pk.rand_instance(8, 8, 4, _seed(rng), field=fld).coeffs
    argv = ["factor", run.write("fac_b.pm", fb), run.write("fac_a.pm", fa),
            "-o", run.path("fac_u.pm"), "-D", run.path("fac_v.pm")]
    ops.append(run.op("factor.b4x8.a8x8.d4", argv, {"u": "fac_u.pm", "v": "fac_v.pm"},
                      lambda o, r: checks.check_left_factorization(fb, fa, o["u"], o["v"], p, r)))
    return Workload("cli", p, ops)


WORKLOADS = {
    "order-basis": order_basis,
    "expansion": expansion,
    "arbitrary-prime": arbitrary_prime,
    "cli": cli,
}


def build(name: str, pk, seed: int, crng, workdir: str) -> Workload:
    """Inputs and op list of one workload; ``workdir`` holds the cli files."""
    if name == "cli":
        return cli(pk, seed, crng, workdir)
    return WORKLOADS[name](pk, seed, crng)
