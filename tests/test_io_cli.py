import importlib
import itertools

import numpy as np
import pytest

import polymatkit as pk
from polymatkit import cli, io as pmio
from polymatkit.cli import main
from polymatkit.errors import ParseError, PrimeMismatch
from polymatkit.oracle import naive_mul
from polymatkit.polymat import PolyMatrix


def test_serialize_identity_round_trip(fd):
    i2 = PolyMatrix.identity(fd, 2)
    text = pmio.serialize(i2)
    assert text.splitlines()[0] == "polymat 1"
    assert pmio.parse(text) == i2


def test_serialize_matches_fixture_byte_for_byte(f97):
    # zero entries are omitted; each entry stops at its own degree, inner zeros kept
    a = PolyMatrix.from_lists(f97, [[[1, 2, 0, 3], [0], [5]],
                                    [[0, 0], [0, 0, 96], [7, 8]]])
    assert pmio.serialize(a) == (
        "polymat 1\n"
        "p 97\n"
        "dims 2 3\n"
        "e 0 0 1 2 0 3\n"
        "e 0 2 5\n"
        "e 1 1 0 0 96\n"
        "e 1 2 7 8\n"
    )
    assert pmio.serialize(PolyMatrix.zero(f97, 2, 2)) == "polymat 1\np 97\ndims 2 2\n"
    assert pmio.serialize(PolyMatrix.zero(f97, 0, 3)) == "polymat 1\np 97\ndims 0 3\n"


def test_omitted_entries_are_zero(fd):
    text = f"polymat 1\np {fd.p}\ndims 2 2\ne 0 0 1\n"
    got = pmio.parse(text)
    assert got.entry(0, 0) == pk.Polynomial(fd, [1])
    assert got.entry(1, 1).is_zero()


def test_comments_and_blank_lines(fd):
    text = f"# header comment\npolymat 1\np {fd.p}  # prime\n\ndims 1 1\ne 0 0 7\n"
    assert int(pmio.parse(text).coeffs[0, 0, 0]) == 7


def test_random_round_trip(fd, rng):
    for _ in range(20):
        a = pk.rand_instance(
            int(rng.integers(1, 5)), int(rng.integers(1, 5)),
            int(rng.integers(0, 5)), int(rng.integers(0, 2**31)), field=fd,
        )
        assert pmio.parse(pmio.serialize(a)) == a


@pytest.mark.parametrize("bad, line", [
    ("polymat 2\np 97\ndims 1 1\n", 1),
    ("polymat 1\nq 97\ndims 1 1\n", 2),
    ("polymat 1\np 97\ndims 1\n", 3),
    ("polymat 1\np 97\ndims 1 1\nz 0 0 1\n", 4),
    ("polymat 1\np 97\ndims 1 1\ne 0 5 1\n", 4),
    ("polymat 1\np 97\ndims 1 1\ne 0 0 1 0\n", 4),
    ("polymat 1\np 97\ndims 1 1\ne 0 0 98\n", 4),
    ("polymat 1\np 97\ndims 1 1\ne 0 0 1\ne 0 0 2\n", 5),
    # above io.MAX_COEFFS = 2^24 coefficients, refused before allocating
    ("polymat 1\np 97\ndims 100000 100000\n", 3),
    ("polymat 1\np 97\ndims 0 100000000\n", 3),
    pytest.param("polymat 1\np 97\ndims 1 " + "9" * 5000 + "\n", 3, id="dims-of-5000-digits"),
    ("polymat 1\np 97\ndims 4096 4096\ne 0 0 1 1\n", 4),
])
def test_parse_errors_carry_line(bad, line):
    with pytest.raises(ParseError) as info:
        pmio.parse(bad)
    assert info.value.line == line


def test_prime_mismatch(fd, f97):
    a = PolyMatrix.identity(fd, 1)
    b = PolyMatrix.identity(f97, 1)
    with pytest.raises(PrimeMismatch):
        pmio.check_same_field(a, b)


# -- CLI ---------------------------------------------------------------------

@pytest.fixture
def files(tmp_path, fd):
    a = pk.rand_instance(2, 2, 1, 5, field=fd)
    b = pk.rand_instance(2, 2, 1, 6, field=fd)
    pa, pb = tmp_path / "a.pm", tmp_path / "b.pm"
    pmio.save(pa, a)
    pmio.save(pb, b)
    return tmp_path, pa, pb, a, b


def test_cli_mul(files):
    tmp, pa, pb, a, b = files
    out = tmp / "c.pm"
    assert main(["--seed", "1", "mul", str(pa), str(pb), "-o", str(out)]) == 0
    assert pmio.load(out) == pk.pm_mul(a, b)


def test_cli_mul_corrupted_exits_2(files, monkeypatch):
    tmp, pa, pb, *_ = files
    monkeypatch.setenv("POLYMATKIT_CORRUPT", "1")
    assert main(["--seed", "1", "mul", str(pa), str(pb), "-o", str(tmp / "c.pm")]) == 2


def test_cli_parse_error_exits_4(tmp_path):
    bad = tmp_path / "bad.pm"
    bad.write_text("garbage\n")
    assert main(["det", str(bad)]) == 4


def test_cli_oversized_input_exits_4(tmp_path, capsys):
    big = tmp_path / "big.pm"
    big.write_text("polymat 1\np 97\ndims 100000 100000\n")
    assert main(["--seed", "1", "mul", str(big), str(big), "-o", str(tmp_path / "c.pm")]) == 4
    assert "exceeds" in capsys.readouterr().err


def test_cli_precondition_exits_3(tmp_path, fd, capsys):
    a = pk.rand_instance(3, 3, 1, 9, profile="planted-rank", rank=2, field=fd)
    p = tmp_path / "a.pm"
    pmio.save(p, a)
    assert main(["--seed", "1", "inverse", str(p)]) == 3
    assert "singular" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["bench", "--op", "mul", "--grid", "8xq"], 4),
    (["bench", "--op", "mul", "--grid", "8x4,2"], 4),
    (["bench", "--op", "mul", "--grid", "8x4", "--reps", "0"], 3),
    (["bench", "--op", "mul", "--grid=-1x4"], 3),
    (["rand", "--n", "-1", "--m", "2", "--d", "1"], 3),
    (["rand", "--n", "2", "--m", "2", "--d", "-1"], 3),
    (["rand", "--n", "2", "--m", "2", "--d", "1", "--profile", "planted-rank", "--rank", "5"], 3),
])
def test_cli_bad_numeric_argument_exits_without_traceback(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("parse error" if code == 4 else "error")


@pytest.mark.parametrize("verb, shape, argv", [
    ("mbasis", (4, 2), ["--order", "10"]),
    ("reconstruct", (3, 3), ["--dl", "10", "--dr", "1"]),
    ("expand", (3, 3), ["--h", "5", "--delta", "10"]),
])
def test_cli_size_argument_beyond_max_coeffs_exits_3(tmp_path, f97, monkeypatch, capsys,
                                                    verb, shape, argv):
    # with the bound at 64 coefficients, each request needs more than 64 of them: refused
    # before allocating, as io.MAX_COEFFS = 2^24 refuses --order 10^12 and the like
    path = tmp_path / "a.pm"
    pmio.save(path, pk.rand_instance(*shape, 2, 1, field=f97))
    monkeypatch.setattr(pmio, "MAX_COEFFS", 64)
    assert main(["--seed", "1", verb, str(path), *argv, "-o", str(tmp_path / "o.pm")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "more than 64" in err


@pytest.mark.parametrize("verb, argv", [
    ("mbasis", ["--order", "1000000000000"]),
    ("reconstruct", ["--dl", "1000000000000", "--dr", "1"]),
    ("mbasis", ["--order", "-1"]),
    ("reconstruct", ["--dl", "-5", "--dr", "1"]),
    ("expand", ["--h", "5", "--delta", "-3"]),
    ("expand", ["--h", "-5", "--delta", "3"]),
])
def test_cli_bad_size_argument_exits_3(tmp_path, f97, capsys, verb, argv):
    path = tmp_path / "a.pm"
    pmio.save(path, pk.rand_instance(3, 3, 2, 1, field=f97))
    assert main(["--seed", "1", verb, str(path), *argv]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_cli_expand_at_a_huge_order_reads_b_only_where_it_checks(tmp_path, f97, capsys):
    # the recurrence check takes B's orders [h0, h0 + length), not a series of order h
    path = tmp_path / "a.pm"
    a = pk.rand_instance(3, 3, 2, 1, field=f97)
    pmio.save(path, a)
    out = tmp_path / "s.pm"
    h = 10**14
    assert main(["--seed", "1", "expand", str(path), "--h", str(h), "--delta", "3",
                 "-o", str(out)]) == 0
    want = pk.expansion_slice(a, PolyMatrix.identity(f97, 3), h, 3)
    assert np.array_equal(pmio.load(out).coeffs, want.coeffs)


@pytest.mark.parametrize("argv", [["rand", "--n", "x", "--m", "2", "--d", "1"],
                                  ["bench", "--op", "det", "--grid", "-1x2"]])
def test_cli_usage_error_exits_4(argv, capsys):
    # argparse's own exit code, 2, is the CLI's code for a verification failure
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 4
    assert capsys.readouterr().err.startswith("usage: polymatkit")


@pytest.mark.parametrize("verb", ["det", "rowreduce", "inverse"])
def test_cli_non_square_exits_3(tmp_path, fd, verb, capsys):
    p = tmp_path / "a.pm"
    pmio.save(p, pk.rand_instance(2, 3, 1, 9, field=fd))
    assert main(["--seed", "1", verb, str(p)]) == 3
    assert "square" in capsys.readouterr().err


def test_cli_library_self_check_exits_2(tmp_path, fd, monkeypatch, capsys):
    # row_reduce's certificate rejects R times diag(x + 1, 1): a fault in the
    # computation reads as a verification failure, not as bad input
    from polymatkit import solvers
    from polymatkit.reconstruct import LeftFactorization, matfrac_rec

    def perturbed(f, dl, dr):
        fact = matfrac_rec(f, dl, dr)
        m = PolyMatrix.from_lists(f.field, [[[1, 1], [0]], [[0], [1]]])
        return LeftFactorization(fact.numerator, pk.pm_mul(m, fact.denominator))

    monkeypatch.setattr(solvers, "matfrac_rec", perturbed)
    p = tmp_path / "a.pm"
    pmio.save(p, PolyMatrix.from_lists(fd, [[[1], [2]], [[0, 1, 0, 1], [1, 0, 1]]]))
    assert main(["--seed", "1", "rowreduce", str(p), "-o", str(tmp_path / "r.pm")]) == 2
    assert "verification failed" in capsys.readouterr().err


def test_cli_inverse_self_check_exits_2(tmp_path, fd, monkeypatch, capsys):
    from polymatkit import solvers

    def wrong_product(a, b):
        c = pk.pm_mul(a, b)
        return c + PolyMatrix.identity(c.field, c.rows)

    monkeypatch.setattr(solvers, "pm_mul", wrong_product)
    p = tmp_path / "a.pm"
    pmio.save(p, PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1]]]))
    assert main(["--seed", "1", "inverse", str(p), "-o", str(tmp_path / "u.pm")]) == 2
    assert "diagonalization product check failed" in capsys.readouterr().err


def test_cli_non_polynomial_quotient_exits_2(tmp_path, fd, monkeypatch, capsys):
    # a wrong truncated inverse leaves a residue that x^h does not divide: a fault, not bad input
    from polymatkit import fraction
    from polymatkit.polymat import SeriesMatrix

    truncated_inverse = fraction.truncated_inverse

    def wrong_inverse(a, k):
        coeffs = truncated_inverse(a, k).coeffs.copy()
        coeffs[0, 0, 0] += 1
        return SeriesMatrix(a.field, k, coeffs)

    monkeypatch.setattr(fraction, "truncated_inverse", wrong_inverse)
    p = tmp_path / "a.pm"
    pmio.save(p, pk.rand_instance(3, 3, 2, 4, field=fd))
    assert main(["--seed", "1", "expand", str(p), "--h", "5", "--delta", "2"]) == 2
    assert "not divisible by x^" in capsys.readouterr().err


def test_cli_nullspace_self_check_exits_2(tmp_path, fd, monkeypatch, capsys):
    from polymatkit import nullspace

    def identity_basis(f, sigma, shifts, field):
        batch, n = shifts.shape
        return (np.broadcast_to(np.eye(n, dtype=np.int64), (1, batch, n, n)),
                np.zeros((batch, n), dtype=np.int64))

    monkeypatch.setattr(nullspace, "_pmbasis", identity_basis)
    p = tmp_path / "a.pm"
    pmio.save(p, PolyMatrix.from_lists(fd, [[[0, 1], [0, 0, 1]], [[1], [0, 1]]]))
    assert main(["--seed", "1", "nullspace", str(p), "--delta", "1"]) == 2
    assert "do not annihilate" in capsys.readouterr().err


def test_cli_prime_too_large_exits_3(tmp_path):
    path = tmp_path / "big.pm"
    path.write_text("polymat 1\np 1099511627791\ndims 1 1\ne 0 0 3 1\n")
    assert main(["--seed", "1", "mul", str(path), str(path), "-o", str(tmp_path / "c.pm")]) == 3


def test_cli_huge_composite_prime_exits_3_at_once(tmp_path, capsys):
    path = tmp_path / "huge.pm"
    path.write_text(f"polymat 1\np {10**3999 + 1}\ndims 1 1\ne 0 0 3 1\n")
    assert main(["--seed", "1", "mul", str(path), str(path), "-o", str(tmp_path / "c.pm")]) == 3
    assert "not below 2**31" in capsys.readouterr().err


@pytest.mark.parametrize("prime", ["91", "0", "1", "-7"])
def test_cli_invalid_prime_exits_3(tmp_path, prime, capsys):
    out = tmp_path / "a.pm"
    assert main([f"--prime={prime}", "rand", "--n", "2", "--m", "2", "--d", "1", "-o", str(out)]) == 3
    assert "not prime" in capsys.readouterr().err
    assert not out.exists()


def test_composite_header_prime_is_a_parse_error():
    with pytest.raises(ParseError, match="not prime") as info:
        pmio.parse("polymat 1\np 91\ndims 1 1\n")
    assert info.value.line == 2


def test_cli_det_and_oracle(files, capsys):
    _, pa, *_ = files
    assert main(["--seed", "2", "--oracle", "det", str(pa)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("det p=")


def test_cli_det_reproducible(files, capsys):
    _, pa, *_ = files
    assert main(["--seed", "2", "det", str(pa)]) == 0
    first = capsys.readouterr().out
    assert main(["--seed", "2", "det", str(pa)]) == 0
    assert capsys.readouterr().out == first


def right_half_times_x(fd, seed):
    """An 8 x 8 A whose right four columns are multiplied by x: the right half's maximal
    minors share x^4, so its kernel degrees sum below their bound (GenericityFailure)."""
    a = pk.rand_instance(8, 8, 2, seed, field=fd)
    return PolyMatrix.hstack([a.take_cols(range(4)), a.take_cols(range(4, 8)).shift(1)])


def test_cli_det_falls_back_with_reason(tmp_path, fd, capsys):
    from polymatkit.oracle import det_by_interpolation

    a = right_half_times_x(fd, 21)
    pa = tmp_path / "a.pm"
    pmio.save(pa, a)
    assert main(["--seed", "2", "det", str(pa)]) == 0
    captured = capsys.readouterr()
    coeffs = " ".join(str(int(c)) for c in det_by_interpolation(a).coeffs)
    assert captured.out == f"det p={fd.p} coeffs {coeffs}\n"
    assert captured.err.startswith("# generic_det failed (at size 8 the right half's kernel ")
    assert captured.err.endswith("; interpolating instead\n")


def test_cli_det_not_power_of_two_needs_no_fallback(tmp_path, fd, capsys):
    from polymatkit.oracle import det_by_interpolation

    xi2 = PolyMatrix.from_lists(fd, [[[0, 1], [0]], [[0], [0, 1]]])  # x I_2: det A(0) = 0
    a6 = pk.rand_instance(6, 6, 2, 21, field=fd)
    a6_det = " ".join(str(int(c)) for c in det_by_interpolation(a6).coeffs)
    for a, want in ((xi2, "0 0 1"), (a6, a6_det)):
        pa = tmp_path / "a.pm"
        pmio.save(pa, a)
        assert main(["--seed", "2", "det", str(pa)]) == 0
        assert capsys.readouterr() == (f"det p={fd.p} coeffs {want}\n", "")


def test_cli_det_2x2_over_gf3_needs_no_fallback(tmp_path, capsys):
    f3 = pk.get_field(3)
    a = pk.rand_instance(2, 2, 2, 5, field=f3)  # its right column's minimal kernel row has degree 1
    pa = tmp_path / "a.pm"
    pmio.save(pa, a)
    assert main(["--prime", "3", "--seed", "2", "det", str(pa)]) == 0
    captured = capsys.readouterr()

    def e(i, j):
        return a.take_rows([i]).take_cols([j])

    det = naive_mul(e(0, 0), e(1, 1)) - naive_mul(e(0, 1), e(1, 0))
    coeffs = " ".join(str(int(c)) for c in det.entry(0, 0).coeffs)
    assert captured.out == f"det p=3 coeffs {coeffs}\n"
    assert "interpolating instead" not in captured.err


def test_cli_det_4x4_over_gf3_needs_no_fallback(tmp_path, capsys):
    f3 = pk.get_field(3)
    a = pk.rand_instance(4, 4, 2, 1, field=f3)  # its right column half's kernel degrees are 1, 3
    pa = tmp_path / "a.pm"
    pmio.save(pa, a)
    assert main(["--prime", "3", "--seed", "2", "det", str(pa)]) == 0
    captured = capsys.readouterr()
    det = PolyMatrix.zero(f3, 1, 1)  # by the Leibniz formula
    for perm in itertools.permutations(range(4)):
        term = PolyMatrix.identity(f3, 1)
        for i, j in enumerate(perm):
            term = naive_mul(term, a.take_rows([i]).take_cols([j]))
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(4), 2))
        det = det - term if inversions % 2 else det + term
    coeffs = " ".join(str(int(c)) for c in det.entry(0, 0).coeffs)
    assert captured.out == f"det p=3 coeffs {coeffs}\n"
    assert "interpolating instead" not in captured.err


@pytest.mark.parametrize("delta, guard", [([], "nullspace limited"), (["--delta", "2"], "rank")])
def test_cli_oracle_size_guard_exits_3(tmp_path, capsys, delta, guard):
    pa = tmp_path / "a.pm"
    assert main(["--prime", "97", "rand", "--n", "8", "--m", "8", "--d", "16",
                 "--profile", "planted-rank", "--rank", "7", "-o", str(pa)]) == 0
    assert main(["--oracle", "nullspace", str(pa), *delta]) == 3
    assert f"error: brute-force {guard}" in capsys.readouterr().err


def test_cli_rand_deterministic(tmp_path):
    o1, o2 = tmp_path / "r1.pm", tmp_path / "r2.pm"
    args = ["rand", "--n", "3", "--m", "2", "--d", "2", "--seed", "7"]
    assert main(args + ["-o", str(o1)]) == 0
    assert main(args + ["-o", str(o2)]) == 0
    assert o1.read_text() == o2.read_text()


def test_cli_rand_planted_rank(tmp_path):
    out = tmp_path / "r.pm"
    assert main(["rand", "--n", "2", "--m", "2", "--d", "2", "--seed", "3",
                 "--profile", "planted-rank", "--rank", "1", "-o", str(out)]) == 0
    from polymatkit.oracle import true_rank
    assert true_rank(pmio.load(out)) == 1


@pytest.mark.parametrize("shift, code", [("1", 3), ("99999999999999999999,0", 3),
                                         ("1,x", 4), ("0.5,0", 4), ("1,,2", 4)])
def test_cli_mbasis_bad_shift_exits_by_the_contract(tmp_path, f97, capsys, shift, code):
    # a token that is no integer is a usage error; a wrong length or a shift too large
    # for the engine's counters is one the library refuses (InvalidArgument)
    p = tmp_path / "f.pm"
    pmio.save(p, pk.rand_instance(2, 1, 2, 13, field=f97))
    argv = ["--seed", "1", "mbasis", str(p), "--order", "3", "--shift", shift]
    if code == 4:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4
        assert "argument --shift: invalid" in capsys.readouterr().err
    else:
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert main(["--seed", "1", "mbasis", str(p), "--order", "3", "--shift", "2,0"]) == 0


def test_cli_mbasis_with_oracle(tmp_path, f97):
    f = pk.rand_instance(2, 1, 2, 13, field=f97)
    p = tmp_path / "f.pm"
    pmio.save(p, f)
    assert main(["--seed", "1", "--oracle", "mbasis", str(p), "--order", "3",
                 "-o", str(tmp_path / "n.pm")]) == 0


def test_cli_nullspace(tmp_path, fd):
    a = pk.rand_instance(3, 3, 2, 17, profile="planted-rank", field=fd, rank=2)
    p = tmp_path / "a.pm"
    pmio.save(p, a)
    out = tmp_path / "n.pm"
    assert main(["--seed", "1", "nullspace", str(p), "-o", str(out)]) == 0
    n = pmio.load(out)
    assert pk.pm_mul(n, a).is_zero()


def test_cli_nullspace_negative_delta_gives_no_rows(tmp_path, f97, capsys):
    # every delta < 0 selects no row, also below -deg(A) - 1 (an order basis of negative order)
    a = pk.rand_instance(3, 2, 0, 5, field=f97)
    p = tmp_path / "a.pm"
    pmio.save(p, a)
    for delta in ("-1", "-3", "-100"):
        out = tmp_path / f"n{delta}.pm"
        assert main(["--seed", "1", "nullspace", str(p), "--delta", delta, "-o", str(out)]) == 0
        n = pmio.load(out)
        assert (n.rows, n.cols) == (0, 3)
    assert capsys.readouterr().err.count("# rows 0 degrees []") == 3


def test_cli_inverse_and_rowreduce(tmp_path, fd):
    a = pk.rand_instance(2, 2, 1, 23, field=fd)
    p = tmp_path / "a.pm"
    pmio.save(p, a)
    u, b = tmp_path / "u.pm", tmp_path / "b.pm"
    assert main(["--seed", "4", "inverse", str(p), "-o", str(u), "-O", str(b)]) == 0
    assert pk.pm_mul(pmio.load(u), a) == pmio.load(b)
    r = tmp_path / "r.pm"
    assert main(["--seed", "4", "rowreduce", str(p), "-o", str(r)]) == 0
    assert pk.is_row_reduced(pmio.load(r))


def test_cli_rowreduce_oracle_agreement(tmp_path, fd, capsys):
    p = tmp_path / "a.pm"
    pmio.save(p, pk.rand_instance(3, 3, 2, 19, field=fd))
    argv = ["--seed", "4", "--oracle", "rowreduce", str(p), "-o", str(tmp_path / "r.pm")]
    assert main(argv) == 0
    assert "oracle: agreement (unimodular_equiv_check)" in capsys.readouterr().err


def test_cli_expand_checks_short_windows(tmp_path, fd, monkeypatch):
    # h <= deg A: the slice starts at order 0, where the recurrence also holds
    p = tmp_path / "a.pm"
    pmio.save(p, pk.rand_instance(3, 3, 3, 4, field=fd))
    argv = ["--seed", "1", "expand", str(p), "--h", "1", "--delta", "2",
            "-o", str(tmp_path / "s.pm")]
    assert main(argv) == 0
    monkeypatch.setenv("POLYMATKIT_CORRUPT", "1")
    assert main(argv) == 2


def test_cli_expand_fast(tmp_path, fd):
    a = pk.rand_instance(2, 2, 1, 29, field=fd)
    from polymatkit.linalg import det as cdet
    if cdet(pk.pm_eval(a, 0), fd.p) == 0:
        pytest.skip("singular at zero")
    p = tmp_path / "a.pm"
    pmio.save(p, a)
    o1, o2 = tmp_path / "s1.pm", tmp_path / "s2.pm"
    assert main(["--seed", "1", "expand", str(p), "--h", "20", "--delta", "3",
                 "-o", str(o1)]) == 0
    assert main(["--seed", "1", "expand", str(p), "--h", "20", "--delta", "3",
                 "--fast", "-o", str(o2)]) == 0
    assert o1.read_text() == o2.read_text()


def test_cli_factor(tmp_path, fd):
    a = pk.rand_instance(2, 2, 1, 31, field=fd)
    b = pk.rand_instance(2, 2, 1, 37, field=fd)
    from polymatkit.oracle import det_by_interpolation
    if det_by_interpolation(a).is_zero():
        pytest.skip("singular A")
    pa, pb = tmp_path / "a.pm", tmp_path / "b.pm"
    pmio.save(pa, a)
    pmio.save(pb, b)
    u, v = tmp_path / "u.pm", tmp_path / "v.pm"
    assert main(["--seed", "2", "factor", str(pb), str(pa),
                 "-o", str(u), "-D", str(v)]) == 0
    assert pk.pm_mul(pmio.load(u), a) == pk.pm_mul(pmio.load(v), b)


def test_cli_factor_accepts_v_singular_at_a_point(tmp_path):
    # a correct V that is singular at the point a one-point check drew at --seed 1
    pa, pb = tmp_path / "a.pm", tmp_path / "b.pm"
    assert main(["--prime", "97", "rand", "--n", "4", "--m", "4", "--d", "2",
                 "--seed", "30", "-o", str(pa)]) == 0
    assert main(["--prime", "97", "rand", "--n", "2", "--m", "4", "--d", "2",
                 "--seed", "1030", "-o", str(pb)]) == 0
    u, v = tmp_path / "u.pm", tmp_path / "v.pm"
    assert main(["--seed", "1", "factor", str(pb), str(pa), "-o", str(u), "-D", str(v)]) == 0
    a, b = pmio.load(pa), pmio.load(pb)
    assert pk.pm_mul(pmio.load(u), a) == pk.pm_mul(pmio.load(v), b)


def test_cli_reconstruct(tmp_path, fd):
    from polymatkit.fraction import proper_tail
    a = pk.PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1]]])
    data = proper_tail(a, 2, 3)
    p = tmp_path / "f.pm"
    pmio.save(p, data.tail.to_polymat())
    assert main(["--seed", "1", "reconstruct", str(p), "--dl", "1", "--dr", "1",
                 "-o", str(tmp_path / "u.pm"), "-D", str(tmp_path / "v.pm")]) == 0


def test_cli_bench_single_point(capsys):
    assert main(["bench", "--op", "mul", "--grid", "8x4", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "bench mul" in out
    assert "ratio" not in out  # single point: no doubling ratios


def test_bench_det_at_any_n(capsys):
    assert [pt["n"] for pt in pk.bench("det", [(3, 2), (6, 2)], reps=1, seed=1).points] == [3, 6]
    assert main(["bench", "--op", "det", "--grid", "3x2", "--reps", "1"]) == 0
    assert "bench det" in capsys.readouterr().out


def test_bench_inverse_times_generic_inverse(capsys, monkeypatch):
    assert main(["bench", "--op", "inverse", "--grid", "3x2", "--reps", "1"]) == 0
    assert "bench inverse" in capsys.readouterr().out
    bench_mod = importlib.import_module("polymatkit.bench")  # pk.bench is the function
    timed = []
    real = bench_mod.generic_inverse
    monkeypatch.setattr(bench_mod, "generic_inverse", lambda a, seed: timed.append(a.rows) or real(a, seed))
    pk.bench("inverse", [(3, 2)], reps=2, seed=1)
    assert timed == [3, 3, 3]  # the warm-up call and two timed ones


class OracleCalled(Exception):
    pass


def test_cli_default_paths_call_no_oracle(tmp_path, fd, monkeypatch):
    names = [k for k, v in vars(cli).items()
             if getattr(v, "__module__", "") == "polymatkit.oracle"]
    assert {"det_by_interpolation", "unimodular_equiv_check"} <= set(names)

    def refuse(*args, **kwargs):
        raise OracleCalled

    for name in names:
        monkeypatch.setattr(cli, name, refuse)

    def write(name, mat):
        path = tmp_path / name
        pmio.save(path, mat)
        return str(path)

    a = write("a.pm", pk.rand_instance(4, 4, 2, 51, field=fd))
    a6 = write("a6.pm", pk.rand_instance(6, 6, 2, 56, field=fd))
    b = write("b.pm", pk.rand_instance(2, 4, 2, 52, field=fd))
    planted = write("pl.pm", pk.rand_instance(4, 4, 2, 53, profile="planted-rank", rank=3,
                                              field=fd))
    f = write("f.pm", pk.rand_instance(4, 2, 7, 54, field=fd))
    anchor = PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1]]])
    tail = write("t.pm", pk.proper_tail(anchor, 2, 3).tail.to_polymat())
    out = str(tmp_path / "o.pm")
    runs = [
        ["mul", a, a, "-o", out],
        ["mbasis", f, "--order", "8", "-o", out],
        ["nullspace", planted, "-o", out],
        ["nullspace", planted, "--delta", "4", "-o", out],
        ["det", a],
        ["det", a6],
        ["inverse", a, "-o", out],
        ["inverse", a6, "-o", out],
        ["rowreduce", a, "-o", out],
        ["reconstruct", tail, "--dl", "1", "--dr", "1", "-o", out],
        ["expand", a, "--h", "30", "--delta", "3", "-o", out],
        ["factor", b, a, "-o", out],
        ["rand", "--n", "2", "--m", "2", "--d", "1", "-o", out],
        ["bench", "--op", "rowreduce", "--grid", "2x1", "--reps", "1"],
    ]
    for argv in runs:
        assert main(["--seed", "5", *argv]) == 0, argv
    # the documented fallback: det interpolates when generic_det fails its degree check
    with pytest.raises(OracleCalled):
        main(["--seed", "5", "det", write("x.pm", right_half_times_x(fd, 55))])


def test_cli_calls_share_no_state(tmp_path, fd, files, capsys):
    assert cli.build_parser() is cli.build_parser()  # built once per process
    _, pa, *_ = files
    assert main(["--seed", "2", "--oracle", "det", str(pa)]) == 0
    assert "oracle: agreement" in capsys.readouterr().err
    assert main(["--seed", "2", "det", str(pa)]) == 0
    assert "oracle" not in capsys.readouterr().err
    dims = ["--n", "2", "--m", "3", "--d", "1"]
    first, second = tmp_path / "r5.pm", tmp_path / "r7.pm"
    assert main(["rand", *dims, "--seed", "5", "-o", str(first)]) == 0
    assert main(["--seed", "7", "rand", *dims, "-o", str(second)]) == 0
    assert pmio.load(first) == pk.rand_instance(2, 3, 1, 5, field=fd)
    assert pmio.load(second) == pk.rand_instance(2, 3, 1, 7, field=fd)


def test_bench_nullspace_times_the_sweep_on_planted_rank(capsys, monkeypatch):
    bench_mod = importlib.import_module("polymatkit.bench")
    timed = []
    real = bench_mod.general_nullspace

    def spy(a, seed):
        found = real(a, seed)
        timed.append((a.rows, a.cols, found.input_rank))
        return found

    monkeypatch.setattr(bench_mod, "general_nullspace", spy)
    report = pk.bench("nullspace", [(4, 2), (8, 2)], reps=1, seed=1)
    assert timed == [(4, 4, 3)] * 2 + [(8, 8, 7)] * 2
    assert [r["n"] for r in report.n_ratios] == [4]
    assert main(["bench", "--op", "nullspace", "--grid", "1x2,2x1", "--reps", "1"]) == 0
    assert "bench nullspace" in capsys.readouterr().out
