import numpy as np
import pytest

import polymatkit as pk
from polymatkit import approxbasis, nullspace
from polymatkit.errors import NullspaceCheckFailure, RankDeficient
from polymatkit.nullspace import (
    NullspaceBasis,
    _cap_step,
    _kernel_bases,
    general_nullspace,
    minimal_vectors_up_to,
    partial_nullspace,
    rank,
)
from polymatkit.oracle import nullspace_bruteforce, true_rank
from polymatkit.polymat import PolyMatrix, SeriesMatrix, _stack, int_degree


def unstacked(field, rows, found):
    """Per matrix, the NullspaceBasis of the sweep's zero-padded (L, B, k, r) rows and
    the B lists of their degrees; the padding rows must be zero."""
    out = []
    for b, degs in enumerate(found):
        assert not rows[:, b, len(degs):].any()
        out.append(NullspaceBasis(PolyMatrix._canonical(field, rows[:, b, :len(degs)]), degs))
    return out


def singular_2x2(fd):
    """[[x, x^2], [1, x]] — identically singular, rank 1."""
    return PolyMatrix.from_lists(fd, [[[0, 1], [0, 0, 1]], [[1], [0, 1]]])


def test_rank_identity_and_zero(fd):
    assert rank(PolyMatrix.identity(fd, 4), 1) == 4
    assert rank(PolyMatrix.zero(fd, 3, 3), 1) == 0


def test_rank_singular(fd):
    assert rank(singular_2x2(fd), 1) == 1


@pytest.mark.parametrize("p", [2, 3, 97])
def test_rank_is_exact_over_any_field(p):
    # square, wide, tall, 0-row and 0-column inputs, dense and planted rank;
    # at p = 2, 3 no point test can see the rank of most of them
    fld = pk.get_field(p)
    shapes = [(3, 3), (2, 4), (4, 2), (0, 3), (3, 0), (1, 1)]
    for i, (n, m) in enumerate(shapes * 3):
        d = i % 3 + 1
        if i % 2 and min(n, m) > 1:
            a = pk.rand_instance(n, m, d, 40 + i, profile="planted-rank", field=fld,
                                 rank=min(n, m) - 1)
        else:
            a = pk.rand_instance(n, m, d, 40 + i, field=fld)
        for seed in (0, 1):
            assert rank(a, seed) == true_rank(a)
    x2x = PolyMatrix.from_lists(fld, [[[0, 1, 1], [0]], [[0], [1]]])  # diag(x^2 + x, 1)
    assert rank(x2x, 0) == 2 and rank(singular_2x2(fld), 0) == 1


def test_minimal_vectors_identity_empty(fd):
    basis = minimal_vectors_up_to(PolyMatrix.identity(fd, 3), 5)
    assert basis.row_count == 0
    assert basis.kronecker_degrees == []


def test_minimal_vectors_failed_product_check_raises(fd, monkeypatch):
    # an identity "basis": its degree-0 rows get selected but do not annihilate A
    def identity_basis(f, sigma, shifts, field):
        batch, n = shifts.shape
        return (np.broadcast_to(np.eye(n, dtype=np.int64), (1, batch, n, n)),
                np.zeros((batch, n), dtype=np.int64))

    monkeypatch.setattr(nullspace, "_pmbasis", identity_basis)
    with pytest.raises(NullspaceCheckFailure, match="do not annihilate"):
        minimal_vectors_up_to(singular_2x2(fd), 1)


def test_minimal_vectors_singular_2x2(fd):
    a = singular_2x2(fd)
    basis = minimal_vectors_up_to(a, 1)
    assert basis.row_count == 1
    assert basis.kronecker_degrees == [1]
    assert pk.pm_mul(basis.matrix, a).is_zero()


def test_minimal_vectors_column(fd):
    # A = [x, 1]^T: left nullspace spanned by (1, -x)
    a = PolyMatrix.from_lists(fd, [[[0, 1]], [[1]]])
    basis = minimal_vectors_up_to(a, 1)
    assert basis.row_count == 1
    assert basis.kronecker_degrees == [1]
    assert pk.pm_mul(basis.matrix, a).is_zero()


def test_count_sweep_matches_kronecker_indices(fd, rng):
    # degree-<=delta rows appear exactly when delta reaches the Kronecker index
    for trial in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        r = int(rng.integers(1, n))
        a = pk.rand_instance(
            n, n, d, int(rng.integers(0, 2**31)), profile="planted-rank",
            field=fd, rank=r,
        )
        tr = true_rank(a)
        ref = nullspace_bruteforce(a, n * d)
        kmax = max(ref.kronecker_degrees) if ref.kronecker_degrees else 0
        got = minimal_vectors_up_to(a, kmax)
        assert got.row_count == n - tr
        assert sorted(got.kronecker_degrees) == sorted(ref.kronecker_degrees)
        if kmax > 0:
            below = minimal_vectors_up_to(a, kmax - 1)
            assert below.row_count < n - tr


def test_partial_nullspace_planted_constant(fd, rng):
    # A = [C; D C] with C nonsingular: nullspace rows are [-D | I], degree 0
    n, m = 4, 2
    c = pk.rand_instance(n, n, 2, 91, field=fd)
    dmat = rng.integers(0, fd.p, size=(m, n))
    bottom = pk.pm_mul(PolyMatrix.constant(fd, dmat), c)
    a = PolyMatrix.vstack([c, bottom])
    basis = partial_nullspace(a, 0, seed=3)
    assert basis.row_count == m
    assert all(deg == 0 for deg in basis.kronecker_degrees)
    assert pk.pm_mul(basis.matrix, a).is_zero()


def test_partial_nullspace_stacked_identity(fd):
    a = PolyMatrix.vstack([PolyMatrix.identity(fd, 3), PolyMatrix.zero(fd, 2, 3)])
    basis = partial_nullspace(a, 0, seed=5)
    assert basis.row_count == 2
    assert pk.pm_mul(basis.matrix, a).is_zero()


def test_partial_nullspace_column(fd):
    a = PolyMatrix.from_lists(fd, [[[0, 1]], [[1]]])
    basis = partial_nullspace(a, 1, seed=7)
    assert basis.row_count == 1
    assert pk.pm_mul(basis.matrix, a).is_zero()


def test_minimal_vectors_batch_equals_separate_calls(fd, rng):
    # one cap on a stacked batch per shape, three degrees in one: one order-basis call
    # per (old order, new order) group
    batches = [[pk.rand_instance(6, 3, int(d), int(rng.integers(0, 2**31)), field=fd)
                for d in (2, 2, 3, 0, 2)],
               [pk.rand_instance(4, 2, 2, 5, field=fd), PolyMatrix.zero(fd, 4, 2)],
               [singular_2x2(fd)]]
    for mats in batches:
        for delta in (0, 2, 5):
            _, _, rows, found = _cap_step(_stack([a.coeffs for a in mats]), None, delta, fd)
            assert unstacked(fd, rows, found) == [minimal_vectors_up_to(a, delta) for a in mats]


@pytest.mark.parametrize("p", [97, 65537, 2**31 - 1, 2013265921])
def test_minimal_vectors_single_equals_one_element_batch(p):
    fld = pk.get_field(p)
    mats = [pk.rand_instance(6, 3, 2, 11, field=fld),
            pk.rand_instance(5, 5, 2, 12, profile="planted-rank", field=fld, rank=3)]
    for a in mats:
        for delta in (0, 2, 6):
            single = minimal_vectors_up_to(a, delta)
            assert isinstance(single, nullspace.NullspaceBasis)
            _, _, rows, found = _cap_step(a.coeffs[:, None], None, delta, fld)
            assert single == unstacked(fld, rows, found)[0]


@pytest.mark.parametrize("rows, cols, d, delta", [(12, 8, 4, 8), (6, 4, 3, 10), (6, 3, 2, 4)])
def test_partial_nullspace_matches_minimal_vectors(fd, rows, cols, d, delta):
    a = pk.rand_instance(rows, cols, d, 17 * rows + d, field=fd)
    assert partial_nullspace(a, delta, seed=3) == minimal_vectors_up_to(a, delta)


def test_partial_nullspace_full_rank_column_over_gf2():
    # [x^2 + x; x^2 + x] vanishes at both points of GF(2) but has column rank 1
    f2 = pk.get_field(2)
    a = PolyMatrix.from_lists(f2, [[[0, 1, 1]], [[0, 1, 1]]])
    for seed in range(4):
        basis = partial_nullspace(a, 0, seed=seed)
        assert basis.row_count == 1
        assert pk.pm_mul(basis.matrix, a).is_zero()


def test_partial_nullspace_rank_deficient_rejected(fd):
    a = PolyMatrix.zero(fd, 3, 2)
    with pytest.raises(RankDeficient):
        partial_nullspace(a, 1, seed=1)


def test_general_nullspace_nonsingular(fd):
    a = pk.rand_instance(3, 3, 2, 101, field=fd)
    basis = general_nullspace(a, 1)
    assert basis.row_count == 0
    assert basis.input_rank == 3


def test_general_nullspace_singular_2x2(fd):
    a = singular_2x2(fd)
    basis = general_nullspace(a, 1)
    assert basis.input_rank == 1
    assert basis.row_count == 1
    assert pk.pm_mul(basis.matrix, a).is_zero()


def test_general_nullspace_outer_product(fd, rng):
    # rank-1 outer product u v^T with degree-1 factors, n = 4
    u = pk.rand_instance(4, 1, 1, 111, field=fd)
    v = pk.rand_instance(1, 4, 1, 112, field=fd)
    a = pk.pm_mul(u, v)
    basis = general_nullspace(a, 2)
    assert basis.input_rank == 1
    assert basis.row_count == 3
    assert pk.pm_mul(basis.matrix, a).is_zero()
    x0 = int(rng.integers(0, fd.p))
    from polymatkit.linalg import rank as crank
    assert crank(pk.pm_eval(basis.matrix, x0), fd.p) == 3
    assert max(basis.kronecker_degrees) <= 4 * 1  # n*d bound


def _dependent_basis(monkeypatch):
    """Make the sweep's row selection return each basis's first row repeated: it still
    annihilates A, but it is dependent at every point, which no minimal basis is."""
    real = nullspace._select

    def doubled(a, bases, degrees, cap, field):
        rows, found = real(a, bases, degrees, cap, field)
        return rows[:, :, [0] * rows.shape[2]], [degs[:1] * len(degs) for degs in found]

    monkeypatch.setattr(nullspace, "_select", doubled)


def _rank_one_3x3(fd):
    u, v = pk.rand_instance(3, 1, 1, 141, field=fd), pk.rand_instance(1, 3, 1, 142, field=fd)
    return pk.pm_mul(u, v)


def test_general_nullspace_dependent_rows_fail_the_self_check(fd, monkeypatch):
    _dependent_basis(monkeypatch)
    with pytest.raises(NullspaceCheckFailure, match="dependent"):
        general_nullspace(_rank_one_3x3(fd), 1)


def test_cli_nullspace_dependent_rows_exit_2(fd, monkeypatch, tmp_path, capsys):
    from polymatkit import io as pmio
    from polymatkit.cli import main

    _dependent_basis(monkeypatch)
    path = tmp_path / "a.pm"
    pmio.save(path, _rank_one_3x3(fd))
    assert main(["--seed", "1", "nullspace", str(path)]) == 2
    assert "dependent" in capsys.readouterr().err


def test_general_nullspace_unbalanced_profile(fd):
    a = pk.rand_instance(
        4, 4, 2, 121, profile="planted-unbalanced-nullspace", field=fd
    )
    basis = general_nullspace(a, 3)
    assert basis.row_count == 4 - basis.input_rank
    assert basis.row_count >= 1
    assert pk.pm_mul(basis.matrix, a).is_zero()


@pytest.mark.parametrize("p", [2, 3, 97])
def test_general_nullspace_small_fields_match_bruteforce(p):
    fld = pk.get_field(p)
    for seed in range(4):
        n, d, r = 4, 1 + seed % 2, 1 + seed % 3
        a = pk.rand_instance(n, n, d, 300 + seed, profile="planted-rank", rank=r, field=fld)
        basis = general_nullspace(a, seed)
        assert pk.pm_mul(basis.matrix, a).is_zero()
        assert basis.input_rank == true_rank(a)
        assert basis.kronecker_degrees == nullspace_bruteforce(a, n * d).kronecker_degrees


def test_general_nullspace_sweep_starts_at_d_and_doubles(fd, monkeypatch):
    deltas = []
    real = nullspace._select

    def spy(a, bases, degrees, cap, field):
        deltas.append(cap)
        return real(a, bases, degrees, cap, field)

    monkeypatch.setattr(nullspace, "_select", spy)
    a = pk.rand_instance(8, 8, 4, 17, profile="planted-rank", rank=6, field=fd)
    assert general_nullspace(a, 1).row_count == 2
    assert deltas == [4, 8]


def test_minimal_vectors_delta_clamped_at_the_kronecker_bound(f97, tmp_path, capsys):
    # no Kronecker index exceeds rows * deg = 8, so a huge delta selects the delta = 8 rows
    a = pk.rand_instance(4, 2, 2, 1, field=f97)
    at_bound = minimal_vectors_up_to(a, 8)
    assert at_bound.row_count == 2
    assert minimal_vectors_up_to(a, 10**12) == minimal_vectors_up_to(a, 9) == at_bound
    b = pk.rand_instance(4, 2, 1, 2, field=f97)
    complete, _, rows, found = _cap_step(_stack([a.coeffs, b.coeffs]), None, 10**12, f97)
    assert complete.all()
    assert unstacked(f97, rows, found) == [at_bound, minimal_vectors_up_to(b, 8)]
    from polymatkit import io as pmio
    from polymatkit.cli import main

    path = tmp_path / "a.pm"
    pmio.save(path, a)
    outs = []
    for delta in ("8", "1000000000000"):
        out = tmp_path / f"v{delta}.pm"
        assert main(["--seed", "1", "nullspace", str(path), "--delta", delta, "-o", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1] and capsys.readouterr().err.count("# rows 2") == 2


@pytest.mark.parametrize("d", [0, 1, 3])
def test_minimal_vectors_negative_delta_gives_no_rows(f97, d):
    # a delta below -deg(A) - 1 would ask for an order basis of negative order
    a = pk.rand_instance(4, 2, d, 3, field=f97)
    for delta in (-1, -d - 2, -d - 5, -10**6):
        got = minimal_vectors_up_to(a, delta)
        assert got.row_count == 0 and got.kronecker_degrees == [] and got.matrix.cols == 4


def _sweep_reference(mats, counts, delta):
    """Per matrix, (minimal_vectors_up_to at its last cap, its caps): the sweep's caps
    delta, 2 delta, ..., at most the largest bound, each from its own order-0 basis."""
    out, todo = [None] * len(mats), list(range(len(mats)))
    bounds = [max(a.rows * int_degree(a), 1) for a in mats]
    while todo:
        cap = min(delta, max(bounds[i] for i in todo))
        for i in todo:
            out[i] = (minimal_vectors_up_to(mats[i], cap), (out[i] or (None, []))[1] + [cap])
        todo = [i for i in todo if out[i][0].row_count < counts[i] and cap < bounds[i]]
        delta = max(2 * delta, 1)
    return out


@pytest.mark.parametrize("p", [3, 97, 2013265921])
def test_sweep_equals_one_call_at_the_final_cap(p):
    # the sweep raises each cap's order basis to the next; one order-0 call at the
    # last cap must give the same rows, on inputs that need two caps or more
    fld = pk.get_field(p)
    mats = [pk.rand_instance(8, 8, 4, 17, profile="planted-rank", rank=6, field=fld),
            pk.rand_instance(6, 6, 2, 4, profile="planted-rank", rank=5, field=fld),
            pk.rand_instance(7, 4, 1, 9, field=fld),
            pk.rand_instance(6, 3, 2, 5, field=fld)]
    counts = [2, 1, 3, 3]
    caps_seen = []
    for a, count in zip(mats, counts):
        [(want, caps)] = _sweep_reference([a], [count], int_degree(a))
        caps_seen.append(len(caps))
        got = _kernel_bases(a.coeffs[:, None], [count], int_degree(a), fld)
        assert unstacked(fld, *got) == [want]
    assert caps_seen == [2, 3, 2, 1]
    # a batch of one shape, whose matrices finish at different caps
    batch = [pk.rand_instance(6, 6, 2, seed, profile="planted-rank", rank=rank, field=fld)
             for seed, rank in ((4, 5), (5, 3), (6, 4))]
    want = _sweep_reference(batch, [1, 3, 2], 2)
    got = unstacked(fld, *_kernel_bases(_stack([a.coeffs for a in batch]), [1, 3, 2], 2, fld))
    assert got == [found for found, _ in want]
    assert [len(caps) for _, caps in want] == [3, 1, 1]
    # one shape, two degrees: both raises split the batch by (old order, new order)
    batch = [pk.rand_instance(6, 6, d, seed, profile="planted-rank", rank=rank, field=fld)
             for d, seed, rank in ((2, 4, 5), (3, 4, 5), (2, 5, 3))]
    want = _sweep_reference(batch, [1, 1, 3], 2)
    got = unstacked(fld, *_kernel_bases(_stack([a.coeffs for a in batch]), [1, 1, 3], 2, fld))
    assert got == [found for found, _ in want]
    assert [len(caps) for _, caps in want] == [3, 3, 1]


def _orders(monkeypatch):
    """Record the order of every _mbasis call: the sweep's total M-Basis orders."""
    sigmas = []
    real = approxbasis._mbasis

    def spy(f, sigma, shifts, field):
        sigmas.append(sigma)
        return real(f, sigma, shifts, field)

    monkeypatch.setattr(approxbasis, "_mbasis", spy)
    return sigmas


def test_sweep_runs_each_order_once(fd, monkeypatch):
    # caps 4 and 8 need orders 9 and 13: raising the first basis runs 9 + 4 orders,
    # where a basis from order 0 at each cap would run 9 + 13
    sigmas = _orders(monkeypatch)
    a = pk.rand_instance(8, 8, 4, 17, profile="planted-rank", rank=6, field=fd)
    assert general_nullspace(a, 1).row_count == 2
    assert sum(sigmas) == 13
    sigmas.clear()
    b, a = pk.rand_instance(4, 8, 4, 3, field=fd), pk.rand_instance(8, 8, 4, 4, field=fd)
    assert pk.left_factorization(b, a, 1).denominator.rows == 4
    assert sum(sigmas) == 13


def test_planted_rank_nullspace_builds_no_series(fd, monkeypatch):
    # the sweep runs on residue arrays from the matrix to its kernel rows
    built = []
    real = SeriesMatrix._adopt

    def counted(self, *args):
        built.append(1)
        return real(self, *args)

    monkeypatch.setattr(SeriesMatrix, "_adopt", counted)
    for n in (8, 16):
        a = pk.rand_instance(n, n, 4, n, profile="planted-rank", rank=n - 1, field=fd)
        assert general_nullspace(a, 1).row_count == 1
    assert built == []


def test_monotonicity_of_thresholds(fd, rng):
    a = pk.rand_instance(4, 4, 2, 131, profile="planted-rank", field=fd, rank=2)
    counts = []
    for delta in (0, 2, 4, 8):
        counts.append(minimal_vectors_up_to(a, delta).row_count)
    assert counts == sorted(counts)
