"""A pinned digest of seeded outputs of every public verb at six primes.

Each call's result, or the class name of the typed error it raises, is fed
into one sha256 per prime. A change that moves any output bit fails here;
one that changes outputs on purpose updates the pins and says why.
"""

import hashlib
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import polymatkit as pk
from polymatkit import PolymatError

PRIMES = (2, 3, 97, 65537, 2**31 - 1, 2013265921)
SEEDS = 3

PINNED = {
    2: "bfc6e47676ae837f42118586d3a9c7e05ad075f404ae7b21e37916e034bbe51a",
    3: "8b7bfbe30592b2e8bfad91f144d46b134eb94e2489841a20efd40dad9ff73e24",
    97: "e03add9254f8420428a84878e4c9080eabc9118909077a159e7bec1dc1751f83",
    65537: "6249b4392989400bd0394262ca9c2b344d81d12fa2a50013619e4a3a4d25b642",
    2**31 - 1: "46555b3c5c5847ebe7ffbf236409fc90be95f36c640d624470e410a201cb4aa6",
    2013265921: "122b53dafde2edb8b3d729ece4484f2d6cbe804aeec8f3668e3b401494df6596",
}


def _feed(h, obj):
    """Feed a canonical encoding of a verb's result into the hash h."""
    if isinstance(obj, (pk.PolyMatrix, pk.SeriesMatrix)):
        h.update(f"M{obj.field.p}:{obj.coeffs.shape}:".encode())
        h.update(np.ascontiguousarray(obj.coeffs, dtype=np.int64).tobytes())
    elif isinstance(obj, pk.Polynomial):
        h.update(f"P{obj.field.p}:".encode())
        h.update(np.ascontiguousarray(obj.coeffs, dtype=np.int64).tobytes())
    elif isinstance(obj, np.ndarray):
        h.update(f"A{obj.shape}:".encode())
        h.update(np.ascontiguousarray(obj, dtype=np.int64).tobytes())
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(f"K{key}".encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"L{len(obj)}[".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(f"V{obj!r};".encode())


def _calls(fld, seed):
    """The seeded calls of one prime and seed, as (name, thunk) pairs."""
    def rand(n, m, d, salt, **kw):
        return pk.rand_instance(n, m, d, 100 * seed + salt, field=fld, **kw)

    series = rand(4, 2, 69, 1).to_series(70)
    a4, a6 = rand(4, 4, 3, 2), rand(6, 6, 2, 3)
    a8 = rand(8, 8, 7, 4).shift(1) + pk.PolyMatrix.identity(fld, 8)  # A(0) = I, degree 8
    b4 = rand(4, 3, 2, 5)
    planted = rand(6, 4, 2, 6, profile="planted-rank", rank=2)
    return [
        ("pm_mul.blocks", lambda: pk.pm_mul(rand(3, 4, 5, 7), rand(4, 2, 20, 8))),
        ("pm_mul.ntt", lambda: pk.pm_mul(rand(3, 4, 20, 9), rand(4, 2, 30, 10))),
        ("mbasis", lambda: pk.mbasis(series, 20)),
        ("pmbasis", lambda: pk.pmbasis(series, 70)),
        ("pmbasis.shift", lambda: pk.pmbasis(series, 70, [0, 3, 1, 2])),
        ("minimal_vectors_up_to", lambda: pk.minimal_vectors_up_to(rand(5, 3, 2, 11), 2)),
        ("minimal_vectors_up_to.tall", lambda: pk.minimal_vectors_up_to(rand(24, 3, 1, 12), 1)),
        ("general_nullspace", lambda: pk.general_nullspace(planted, seed)),
        ("rank", lambda: pk.rank(planted, seed)),
        ("generic_det", lambda: pk.generic_det(a6, seed)),
        ("generic_det.n8", lambda: pk.generic_det(rand(8, 8, 4, 13), seed)),
        ("generic_inverse", lambda: pk.generic_inverse(a6)),
        ("generic_inverse.n8", lambda: pk.generic_inverse(rand(8, 8, 4, 14))),
        ("row_reduce", lambda: pk.row_reduce(a4, seed)),
        ("row_reduce.n8", lambda: pk.row_reduce(a8, seed)),
        ("matfrac_rec", lambda: pk.matfrac_rec(pk.proper_tail(a4, 10, 7).tail, 3, 3)),
        ("matfrac_rec.n8", lambda: pk.matfrac_rec(pk.proper_tail(a8, 57, 17).tail, 8, 8)),
        ("matfrac_rec.random", lambda: pk.matfrac_rec(rand(3, 3, 6, 15).to_series(7), 3, 3)),
        ("left_factorization", lambda: pk.left_factorization(b4.transpose(), a4, seed)),
        ("expansion_slice.newton", lambda: pk.expansion_slice(a4, b4, 20, 5)),
        ("expansion_slice.lifting", lambda: pk.expansion_slice(a8, a8, 300, 4)),
        ("proper_tail", lambda: pk.proper_tail(a6, 11, 5)),
        ("truncated_inverse", lambda: pk.truncated_inverse(a6, 40)),
    ]


def digest(p: int) -> str:
    h = hashlib.sha256()
    for seed in range(SEEDS):
        for name, call in _calls(pk.get_field(p), seed):
            h.update(f"{name}.{seed}".encode())
            try:
                _feed(h, call())
            except PolymatError as exc:
                h.update(f"E{type(exc).__name__}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("p", PRIMES)
def test_outputs_match_the_pinned_digest(p):
    assert digest(p) == PINNED[p]
