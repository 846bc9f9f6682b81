"""The product kernels' per-thread workspace: results never alias it, it stays
within its byte bound, threads do not share it, and a repeated product
allocates little beyond its result."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

import polymatkit as pk
from polymatkit import linalg, ntt, polymat


def _held():
    return sum(buf.nbytes for buf in vars(linalg._slots).values())


def _operands(fld, n, la, lb, batch, seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, fld.p, size=(la, batch, n, n + 1)),
            rng.integers(0, fld.p, size=(lb, batch, n + 1, n - 1)))


@pytest.mark.parametrize("d", [8, 31, 32])  # the block product, then NTT lengths 64 and 80
def test_result_survives_the_next_product_and_is_read_only(fd, d):
    a, b = pk.rand_instance(16, 16, d, 1, field=fd), pk.rand_instance(16, 16, d, 2, field=fd)
    first = pk.pm_mul(a, b)
    kept = first.coeffs.copy()
    pk.pm_mul(pk.rand_instance(16, 16, d, 3, field=fd), pk.rand_instance(16, 16, d, 4, field=fd))
    assert np.array_equal(first.coeffs, kept)
    assert not first.coeffs.flags.writeable
    assert not any(np.shares_memory(first.coeffs, buf) for buf in vars(linalg._slots).values())


@pytest.mark.parametrize("c", [1, 3, 5, 15])
def test_ntt_products_equal_block_products_at_every_length(fd, c):
    # out_len picks the transform length c 2**k; each length runs twice on
    # different operands, after products of other shapes have grown the buffers
    for out_len in {1: (63, 128), 3: (48, 90), 5: (80, 40), 15: (120, 113)}[c]:
        length = ntt.transform_length(fd, out_len)
        assert length // (length & -length) == c
        for seed in range(2):
            la = out_len // 2 + seed
            a, b = _operands(fd, 3, la, out_len + 1 - la, 2, 10 * c + seed)
            got = polymat._mul_ntt(a, b, fd, length, out_len)
            assert np.array_equal(got, polymat._mul_blocks(a, b, fd.p, out_len)), (out_len, seed)


@pytest.mark.parametrize("bound", [0, 300 << 10])
def test_workspace_stays_within_its_bound(fd, monkeypatch, bound):
    # with the bound below a product's buffers, the kernels allocate as they
    # would without a workspace and give the same product
    monkeypatch.setattr(linalg, "WORKSPACE_BYTES", bound)
    linalg._workspace.cache_clear()
    try:
        a, b = pk.rand_instance(16, 16, 32, 5, field=fd), pk.rand_instance(16, 16, 32, 6, field=fd)
        for _ in range(2):
            got = pk.pm_mul(a, b)
            sa, sb = a.coeffs[:, None], b.coeffs[:, None]
            want = polymat._mul_blocks(sa, sb, fd.p, sa.shape[0] + sb.shape[0] - 1)[:, 0]
            assert np.array_equal(got.coeffs, want)
            assert _held() <= bound
    finally:
        linalg._workspace.cache_clear()


def test_threads_multiply_with_their_own_buffers(fd):
    # more threads than cores, switching often: a buffer shared between two
    # threads would give one of them the other's product
    pairs = [tuple(pk.rand_instance(16, 16, 31, 20 + 10 * i + t, field=fd) for i in range(2))
             for t in range(4)]
    want = [pk.pm_mul(a, b) for a, b in pairs]
    start, wrong = threading.Barrier(len(pairs)), []

    def run(t):
        start.wait(timeout=30)
        for _ in range(10):
            if pk.pm_mul(*pairs[t]) != want[t]:
                wrong.append(t)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(len(pairs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def _traced_peak(call):
    """Peak traced bytes of the second of two identical calls, and its result's bytes."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result.coeffs.nbytes


def test_repeated_calls_allocate_little_beyond_their_result(fd):
    # a count, not a timing: the temporaries of a warmed product and Newton
    # run live in the workspace. The peaks measure 2.6x the result here: the
    # result and numpy's iterator buffers (up to 8192 cells per operand) on
    # the butterflies' strided views, which the workspace does not hold. The
    # bound of 3x leaves 0.3-0.4x; without the workspace the peaks are 8-11x.
    a, b = pk.rand_instance(16, 16, 31, 1, field=fd), pk.rand_instance(16, 16, 31, 2, field=fd)
    rng = np.random.default_rng(5)
    coeffs = rng.integers(0, fd.p, size=(9, 8, 8))
    coeffs[0] = np.eye(8, dtype=np.int64)
    a_inv = pk.PolyMatrix(fd, coeffs)
    for call in (lambda: pk.pm_mul(a, b), lambda: pk.truncated_inverse(a_inv, 256)):
        peak, result = _traced_peak(call)
        assert peak <= 3 * result, (peak, result)
