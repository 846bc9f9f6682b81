import numpy as np
import pytest

from polymatkit.field import DEFAULT_PRIME
from polymatkit.linalg import rref


def _rref_ref(rows, p):
    """Gauss-Jordan on Python ints, the reference for the numpy version."""
    m = [[int(v) % p for v in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0])):
        if r == len(m):
            break
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


@pytest.mark.parametrize("p", [2, 97, 2**31 - 1, DEFAULT_PRIME])
def test_rref_matches_exact_reference(p, rng):
    for rows, cols in ((8, 16), (16, 8), (5, 5), (1, 4)):
        a = rng.integers(0, p, size=(rows, cols))
        a[rng.random((rows, cols)) < 0.2] = p - 1  # largest residues stress int64
        a[:, 1] = 0                                # a zero column
        if rows > 2:
            a[2] = a[0]                            # a repeated row
        got, piv = rref(a, p)
        want, want_piv = _rref_ref(a.tolist(), p)
        assert piv == want_piv
        assert got.tolist() == want
