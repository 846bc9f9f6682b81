"""Every op's check accepts the library's output and rejects it with one
coefficient changed, like POLYMATKIT_CORRUPT does for the CLI's own checks."""

import numpy as np
import pytest

import polymatkit as pk
from perfbench import checks, workloads


def _outputs(name, workdir):
    wl = workloads.build(name, pk, 3, np.random.default_rng([3, 2]), workdir)
    for i, op in enumerate(wl.ops):
        yield wl, op, op.extract(op.call(100 + i))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_accept_and_reject_one_changed_coefficient(name, workdir):
    rng = np.random.default_rng(11)
    for wl, op, arrays in _outputs(name, workdir):
        op.check(arrays, np.random.default_rng(5))
        for key, arr in arrays.items():
            for _ in range(3):
                bad = {k: v.copy() for k, v in arrays.items()}
                idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
                bad[key][idx] = (bad[key][idx] + int(rng.integers(1, wl.prime))) % wl.prime
                with pytest.raises(checks.CheckFailed):
                    op.check(bad, np.random.default_rng(5))
