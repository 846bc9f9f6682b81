"""End-to-end acceptance suite.

One test per contract-level property, each printing a single PASS/FAIL
line (visible live thanks to ``capsys.disabled``). These intentionally
re-verify what the library already checks internally, against the
independent brute-force oracles where one exists.
"""

import functools
import os

import numpy as np
import pytest

import polymatkit as pk
from polymatkit import io as pmio
from polymatkit.approxbasis import series_product
from polymatkit.cli import main as cli_main
from polymatkit.errors import GenericityFailure
from polymatkit.fraction import exact_x_power_divide, truncated_inverse
from polymatkit.linalg import det as const_det, rank as const_rank
from polymatkit.oracle import (
    det_by_interpolation,
    minimal_basis_bruteforce,
    nullspace_bruteforce,
    true_rank,
    unimodular_equiv_check,
)
from polymatkit.polymat import PolyMatrix, SeriesMatrix, pm_eval, pm_mul


def reported(label):
    """Print one PASS/FAIL line per acceptance property, bypassing capture."""

    def deco(fn):
        @functools.wraps(fn)
        def run(capsys, *args, **kwargs):
            try:
                fn(capsys, *args, **kwargs)
            except BaseException:
                with capsys.disabled():
                    print(f"[FAIL] {label}")
                raise
            with capsys.disabled():
                print(f"[PASS] {label}")

        return run

    return deco


def _nonsingular_at_zero(n, d, seed, fld):
    rng = np.random.default_rng(seed)
    while True:
        a = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)), field=fld)
        if const_det(pm_eval(a, 0), fld.p) != 0:
            return a


@reported("order-basis minimality vs brute force (n<=3, m<=2, sigma<=5, 50 each)")
def test_acceptance_order_basis_minimality(capsys, f97):
    rng = np.random.default_rng(101)
    for n in range(1, 4):
        for m in range(1, 3):
            for sigma in range(1, 6):
                for _ in range(50):
                    arr = rng.integers(0, f97.p, size=(sigma, n, m)).astype(np.int64)
                    f = SeriesMatrix(f97, sigma, arr)
                    want = minimal_basis_bruteforce(f, sigma).minimal_indices
                    for algo in (pk.mbasis, pk.pmbasis):
                        basis = algo(f, sigma)
                        assert basis.minimal_indices == want, (n, m, sigma, algo)
                        assert not series_product(basis.basis, f, sigma).coeffs.any()
                        assert pk.is_row_reduced(basis.basis)


@reported("nullspace dimension and minimal degrees on 100 planted-rank instances")
def test_acceptance_planted_rank_nullspace(capsys, fd):
    rng = np.random.default_rng(202)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        r = int(rng.integers(1, n))
        a = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)),
                             profile="planted-rank", field=fd, rank=r)
        r_true = true_rank(a)
        cap = n * d  # minimal indices cannot exceed the degree sum bound
        oracle = nullspace_bruteforce(a, cap)
        assert oracle.row_count == n - r_true
        top = max(oracle.kronecker_degrees, default=0)
        # sweeping the degree bound upward finds nothing extra beyond the
        # largest minimal index, and everything exactly at it
        delta = 0
        while True:
            got = pk.minimal_vectors_up_to(a, delta)
            if delta >= top:
                break
            assert got.row_count < n - r_true or delta >= top
            delta = max(1, 2 * delta)
        assert got.row_count == n - r_true
        assert sorted(got.kronecker_degrees) == oracle.kronecker_degrees
        assert pm_mul(got.matrix, a).is_zero()


@reported("expansion slice equals the truncated-inverse window (100 random, both paths)")
def test_acceptance_expansion_slice(capsys, fd):
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        a = _nonsingular_at_zero(n, d, int(rng.integers(0, 2**31)), fd)
        b = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)), field=fd)
        h = int(rng.integers(0, 4 * n * d + 1))
        delta = int(rng.integers(1, 33))
        s = truncated_inverse(a, h + delta)
        full = pm_mul(s.to_polymat(), b).to_series(h + delta).coeffs
        want = np.zeros((delta, n, n), dtype=np.int64)
        want[: max(0, min(h + delta, full.shape[0]) - h)] = full[h: h + delta]
        for fast in (False, True):
            got = pk.expansion_slice(a, b, h, delta, fast=fast)
            assert got.start_order == h
            assert np.array_equal(got.coeffs, want), (n, d, h, delta, fast)
    # worked instance: [[1, x], [x, 1]] has inverse (1 + x^2 + ...) [[1,-x],[-x,1]]
    anchor = PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1]]])
    ident = PolyMatrix.identity(fd, 2)
    got = pk.expansion_slice(anchor, ident, 2, 2)
    assert np.array_equal(got.coeffs[0], np.eye(2, dtype=np.int64))
    m1 = fd.p - 1
    assert np.array_equal(got.coeffs[1], np.array([[0, m1], [m1, 0]]))


@reported("proper tail: exact power division, numerator degree, denominator det degree")
def test_acceptance_proper_tail_reconstruction(capsys, fd):
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        a = _nonsingular_at_zero(n, d, int(rng.integers(0, 2**31)), fd)
        h = (n - 1) * d + 1
        s = truncated_inverse(a, h).to_polymat()
        residue = PolyMatrix.identity(fd, n) - pm_mul(a, s)
        b = exact_x_power_divide(residue, h)  # raises if x^h does not divide
        assert b.is_zero() or b.degree < d
        data = pk.proper_tail(a, h, 2 * d + 1)
        assert b == data.numerator
        fact = pk.matfrac_rec(data.tail, d, d)
        assert det_by_interpolation(fact.denominator).degree == \
            det_by_interpolation(a).degree


@reported("row reduction: reduced form, det degree, unimodular equivalence (100 random)")
def test_acceptance_row_reduction(capsys, fd):
    rng = np.random.default_rng(505)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        a = _nonsingular_at_zero(n, d, int(rng.integers(0, 2**31)), fd)
        reduced, _cert = pk.row_reduce(a, seed=int(rng.integers(0, 2**31)))
        assert pk.is_row_reduced(reduced)
        assert det_by_interpolation(reduced).degree == det_by_interpolation(a).degree
        assert unimodular_equiv_check(a, reduced, seed=7)
    # [[1, x], [x, 1 + x^2]] is unimodular, so its reduced form is constant
    anchor = PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1, 0, 1]]])
    reduced, _ = pk.row_reduce(anchor, seed=9)
    assert reduced.degree <= 0
    assert const_det(pm_eval(reduced, 0), fd.p) != 0


@reported("generic inverse and determinant: diagonal shape, degrees, det oracle, <5% aborts")
def test_acceptance_generic_inverse_det(capsys, fd):
    rng = np.random.default_rng(606)
    attempts = failures = 0
    for n in (2, 4, 8):
        for d in (1, 2, 4):
            for _ in range(20):
                a = _nonsingular_at_zero(n, d, int(rng.integers(0, 2**31)), fd)
                attempts += 1  # the inverse never aborts; only the determinant may
                rep = pk.generic_inverse(a, seed=int(rng.integers(0, 2**31)))
                prod = pm_mul(rep.transform, a)
                assert prod == rep.diagonal
                off = prod.coeffs.copy()
                for i in range(n):
                    off[:, i, i] = 0
                assert not off.any()
                for i in range(n):
                    assert prod.entry(i, i).degree == n * d
                try:
                    got = pk.generic_det(a, seed=int(rng.integers(0, 2**31)))
                except GenericityFailure:
                    failures += 1
                else:
                    assert got == det_by_interpolation(a)
    assert failures / attempts < 0.05, f"{failures}/{attempts} genericity aborts"
    # worked instance: [[1, x], [x, 1]] diagonalizes to scalar multiples of 1 - x^2
    anchor = PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1]]])
    rep = pk.generic_inverse(anchor, seed=1)
    ref = pk.Polynomial(fd, [1, 0, fd.p - 1])  # 1 - x^2
    for i in range(2):
        e = rep.diagonal.entry(i, i)
        c = e.coeff(0)
        assert c != 0 and e * pow(c, -1, fd.p) == ref
    assert pk.generic_det(anchor, seed=1) == ref


@reported("left factorization: U A = V B with nonsingular V (50 random pairs)")
def test_acceptance_left_factorization(capsys, fd):
    rng = np.random.default_rng(707)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 5))
        d = int(rng.integers(0, 4))
        a = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)), field=fd)
        if det_by_interpolation(a).is_zero():
            continue
        b = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)), field=fd)
        fact = pk.left_factorization(b, a, seed=int(rng.integers(0, 2**31)))
        assert pm_mul(fact.numerator, a) == pm_mul(fact.denominator, b)
        x0 = int(rng.integers(0, fd.p))
        assert const_rank(pm_eval(fact.denominator, x0), fd.p) == n
        done += 1


@reported("empirical scaling: d-doubling ratio in [1.5, 3.5], n-doubling ratio <= 9")
def test_acceptance_scaling(capsys):
    import statistics

    grid = [(n, d) for n in (16, 32, 64) for d in (16, 32, 64)]
    for op in ("mul", "mbasis"):
        report = pk.bench(op, grid, reps=5, seed=42)
        d_med = statistics.median(r["ratio"] for r in report.d_ratios)
        n_med = statistics.median(r["ratio"] for r in report.n_ratios)
        assert 1.5 <= d_med <= 3.5, f"{op}: d-doubling median {d_med:.2f}"
        assert n_med <= 9, f"{op}: n-doubling median {n_med:.2f}"


@reported("randomized CLI is seed-reproducible and exits 2 on corrupted results")
def test_acceptance_randomized_surface(capsys, tmp_path, monkeypatch, fd):
    a = _nonsingular_at_zero(2, 2, 11, fd)
    b = pk.rand_instance(2, 2, 2, 12, field=fd)
    pa, pb = tmp_path / "a.pm", tmp_path / "b.pm"
    pmio.save(pa, a)
    pmio.save(pb, b)

    def run(args):
        code = cli_main(args)
        return code, capsys.readouterr().out

    reproducible = [
        ["--seed", "3", "det", str(pa)],
        ["--seed", "3", "rowreduce", str(pa), "-o", str(tmp_path / "r.pm")],
        ["--seed", "3", "nullspace", str(pa)],
        ["rand", "--n", "3", "--m", "3", "--d", "2", "--seed", "3",
         "-o", str(tmp_path / "g.pm")],
    ]
    for args in reproducible:
        code1, out1 = run(args)
        extra1 = (tmp_path / "g.pm").read_text() if "rand" in args else ""
        code2, out2 = run(args)
        extra2 = (tmp_path / "g.pm").read_text() if "rand" in args else ""
        assert code1 == code2 == 0
        assert out1 == out2 and extra1 == extra2

    monkeypatch.setenv("POLYMATKIT_CORRUPT", "1")
    corruptible = [
        ["--seed", "3", "mul", str(pa), str(pb), "-o", str(tmp_path / "c.pm")],
        ["--seed", "3", "det", str(pa)],
        ["--seed", "3", "mbasis", str(pa), "--order", "3",
         "-o", str(tmp_path / "n.pm")],
        ["--seed", "3", "rowreduce", str(pa), "-o", str(tmp_path / "r.pm")],
    ]
    for args in corruptible:
        code, _ = run(args)
        assert code == 2, f"corrupted {args[3]} exited {code}, expected 2"
