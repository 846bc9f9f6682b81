"""ntt.ntt and ntt.transform_length against O(L**2) references in Python integers."""

import numpy as np
import pytest

import polymatkit as pk
from polymatkit import ntt
from polymatkit.field import DEFAULT_PRIME


def _dft(x: np.ndarray, p: int, w: int) -> np.ndarray:
    """sum_t x[t] w**(t j) mod p along the last axis, by a Vandermonde product."""
    length = x.shape[-1]
    vander = np.array([[pow(w, t * j, p) for j in range(length)] for t in range(length)],
                      dtype=object)
    return (x.astype(object) @ vander % p).astype(np.int64)


def _supported(p: int, limit: int) -> list[int]:
    return [n for n in range(1, limit + 1)
            if (p - 1) % n == 0 and n // (n & -n) in (1, 3, 5, 15)]


CASES = (
    [(DEFAULT_PRIME, n) for n in _supported(DEFAULT_PRIME, 240)]
    + [(97, n) for n in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 96)]
    + [(65537, 2**k) for k in range(9)]
)


@pytest.mark.parametrize("p, length", CASES)
def test_ntt_matches_vandermonde(p, length):
    fld = pk.get_field(p)
    rng = np.random.default_rng(length)
    x = rng.integers(0, p, size=(2, 3, length))
    x[0, 0] = p - 1  # the largest canonical residue everywhere in one row
    y = rng.integers(0, p, size=(2, 3, length))
    w = int(fld.root_of_unity(length))
    before = x.copy()
    fwd = ntt.ntt(x, fld)
    assert np.array_equal(x, before)  # the input is not modified
    assert np.array_equal(fwd, _dft(x, p, w))
    assert np.array_equal(ntt.ntt(fwd, fld, inverse=True), x)
    inv = _dft(y, p, pow(w, -1, p)) * pow(length, -1, p) % p
    assert np.array_equal(ntt.ntt(y, fld, inverse=True), inv)


def test_ntt_reads_a_transposed_input(fd):
    # pm_mul passes (L, n, m) coefficient arrays as (n, m, L) views
    x = np.random.default_rng(3).integers(0, fd.p, size=(40, 3, 2))
    out = ntt.ntt(x.transpose(1, 2, 0), fd)
    assert np.array_equal(out, ntt.ntt(np.ascontiguousarray(x.transpose(1, 2, 0)), fd))


def test_transform_length():
    fd = pk.get_field(DEFAULT_PRIME)
    assert [ntt.transform_length(fd, n) for n in (1, 2, 3, 33, 41, 49, 61, 65, 97, 129, 257)] == \
        [1, 2, 3, 40, 48, 60, 64, 80, 120, 160, 320]
    f97 = pk.get_field(97)
    assert [ntt.transform_length(f97, n) for n in (5, 33, 49, 96, 97)] == [6, 48, 96, 96, None]
    mersenne = pk.get_field(2**31 - 1)  # p - 1 = 2 * 3**2 * 7 * 11 * 31 * 151 * 331
    assert [ntt.transform_length(mersenne, n) for n in (1, 2, 3, 4, 6, 7)] == [1, 2, 3, 6, 6, None]
    assert ntt.transform_length(pk.get_field(65537), 3) == 4
    # at most 25 % padding wherever 15 divides p - 1
    for n in range(1, 3000):
        assert n <= ntt.transform_length(fd, n) <= max(1.25 * n, 4)
