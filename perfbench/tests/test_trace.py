"""Traced runs: counts repeat exactly for a seed, and the split bears out
each workload's rationale."""

import pytest

from perfbench import run, tracing

COUNTS = [name for name, (unit, _) in tracing.PER_LAYER.items() if unit == "count"] + [
    "polymat.pm_mul.pad_ratio", "approxbasis.series_product.kept_ratio"]


@pytest.fixture(scope="module")
def traced():
    return {w: [run.measure(w, 7, 120.0, trace=True, passes=2)["metrics"] for _ in range(2)]
            for w in run.WORKLOADS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_for_a_seed(traced, workload):
    first, second = traced[workload]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert set(first) == set(tracing.PER_LAYER)


def test_split_matches_rationale(traced):
    ob, ex, ap, cli = (traced[w][0] for w in run.WORKLOADS)
    assert ap["ntt.ntt.calls"] == 0 and ob["ntt.ntt.calls"] > 0
    assert ob["fraction.total_share"] == 0 and ex["fraction.total_share"] > 0.5
    assert ex["fraction.expansion_slice.fast_fallbacks"] == 1
    assert cli["oracle.calls"] > 0 and cli["io.parse.calls"] > 0
    assert ob["io.parse.calls"] == ex["io.parse.calls"] == ap["io.parse.calls"] == 0
