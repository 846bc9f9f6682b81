"""compare.verdict follows the pair-win, spread and bound rules; runs pair by seed."""

import pytest

from perfbench.compare import SeedMismatch, pairs, verdict


def _pairs(par, chg):
    return list(zip(par, chg))


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.3 for x in parent]
    same = [x * 1.01 for x in parent]
    noisy = [1.0, 1.4, 0.7, 1.2, 0.8, 1.3, 0.9, 1.5, 0.6, 1.1]
    assert verdict(parent, faster, _pairs(parent, faster), 0.1, "lower")[0] == "improved"
    assert verdict(parent, slower, _pairs(parent, slower), 0.1, "lower")[0] == "worse"
    assert verdict(parent, same, _pairs(parent, same), 0.1, "lower")[0] == "no worse"
    assert verdict(parent, noisy, _pairs(parent, noisy), 0.1, "lower")[0] == "unresolved"
    # a noisy side does not hide a change that is worse by more than the bound
    noisy_slower = [x * 1.5 for x in noisy]
    assert verdict(parent, noisy_slower, _pairs(parent, noisy_slower), 0.1, "lower")[0] == "worse"
    # fewer than ten pairs never count as an improvement
    assert verdict(parent[:5], faster[:5], _pairs(parent[:5], faster[:5]), 0.1, "lower")[0] == "no worse"
    # "higher is better" flips the direction
    assert verdict(parent, slower, _pairs(parent, slower), 0.1, "higher")[0] == "improved"


def test_pairs_by_seed_only():
    parent = [{"seed": s, "v": "p"} for s in (3, 1, 2)]
    change = [{"seed": s, "v": "c"} for s in (2, 3, 1)]
    assert [(a["seed"], b["seed"]) for a, b in pairs(parent, change)] == [(1, 1), (2, 2), (3, 3)]
    with pytest.raises(SeedMismatch, match=r"only in change: \[4\]"):
        pairs(parent, change + [{"seed": 4}])
    with pytest.raises(SeedMismatch, match="more than one run"):
        pairs(parent + [{"seed": 1}], change)
