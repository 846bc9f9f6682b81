"""Timing harness for the scaling smoke tests.

Each grid point (n, d) is timed over ``reps`` repetitions and reported by
its median wall time; the report also carries the doubling ratios
time(2n, d) / time(n, d) and time(n, 2d) / time(n, d) wherever both grid
points exist. Ratios are an empirical echo of the cost model only.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .approxbasis import pmbasis
from .field import PrimeField, default_field
from .instances import rand_instance
from .nullspace import general_nullspace
from .polymat import SeriesMatrix, pm_mul
from .solvers import generic_det, generic_inverse, row_reduce

BENCH_OPS = ("mul", "mbasis", "nullspace", "det", "inverse", "rowreduce")


@dataclass
class BenchReport:
    operation: str
    points: list = dc_field(default_factory=list)   # dicts: n, d, median, times
    n_ratios: list = dc_field(default_factory=list)  # dicts: n, d, ratio
    d_ratios: list = dc_field(default_factory=list)

    def median_at(self, n: int, d: int):
        for pt in self.points:
            if pt["n"] == n and pt["d"] == d:
                return pt["median"]
        return None

    def table(self) -> str:
        lines = [f"# bench {self.operation}", f"{'n':>6} {'d':>6} {'median_s':>12}"]
        for pt in self.points:
            lines.append(f"{pt['n']:>6} {pt['d']:>6} {pt['median']:>12.6f}")
        for r in self.d_ratios:
            lines.append(
                f"ratio d-doubling n={r['n']} d={r['d']}->{2 * r['d']}: {r['ratio']:.3f}"
            )
        for r in self.n_ratios:
            lines.append(
                f"ratio n-doubling d={r['d']} n={r['n']}->{2 * r['n']}: {r['ratio']:.3f}"
            )
        return "\n".join(lines)

    def records(self) -> list:
        out = [
            {"kind": "point", "op": self.operation, **pt} for pt in self.points
        ]
        out += [{"kind": "d-ratio", "op": self.operation, **r} for r in self.d_ratios]
        out += [{"kind": "n-ratio", "op": self.operation, **r} for r in self.n_ratios]
        return out


def _setup(op: str, n: int, d: int, rng, fld: PrimeField):
    seed = int(rng.integers(0, 2**63 - 1))
    if op == "mul":
        a = rand_instance(n, n, d, seed, field=fld)
        b = rand_instance(n, n, d, seed + 1, field=fld)
        return lambda: pm_mul(a, b)
    if op == "mbasis":
        m = max(1, n // 2)
        arr = np.random.default_rng(seed).integers(0, fld.p, size=(d, n, m)).astype(np.int64)
        f = SeriesMatrix(fld, d, arr)
        return lambda: pmbasis(f, d)
    if op == "nullspace":
        # the whole kernel sweep on planted rank n - 1, whose one kernel row has a degree
        # of order n d: the input of the nullspace's n-doubling ratio
        a = rand_instance(n, n, d, seed, field=fld, profile="planted-rank", rank=max(n - 1, 0))
        return lambda: general_nullspace(a, seed)
    if op == "det":
        a = rand_instance(n, n, d, seed, field=fld)
        return lambda: generic_det(a)
    if op == "inverse":
        a = rand_instance(n, n, d, seed, field=fld)
        return lambda: generic_inverse(a, seed)
    if op == "rowreduce":
        a = rand_instance(n, n, d, seed, field=fld)
        return lambda: row_reduce(a, seed)
    raise ValueError(f"unknown bench op {op!r}; choose from {BENCH_OPS}")


def bench(op: str, grid, reps: int = 5, seed=None, field: PrimeField | None = None) -> BenchReport:
    """Time ``op`` at every (n, d) grid point; grid is a list of pairs."""
    fld = field or default_field()
    rng = np.random.default_rng(seed)
    report = BenchReport(op)
    for n, d in grid:
        run = _setup(op, n, d, rng, fld)
        run()  # warm caches (twiddles, numpy buffers) outside the timing
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        report.points.append(
            {"n": n, "d": d, "median": statistics.median(times), "times": times}
        )
    for pt in report.points:
        n, d, med = pt["n"], pt["d"], pt["median"]
        up_d = report.median_at(n, 2 * d)
        if up_d is not None and med > 0:
            report.d_ratios.append({"n": n, "d": d, "ratio": up_d / med})
        up_n = report.median_at(2 * n, d)
        if up_n is not None and med > 0:
            report.n_ratios.append({"n": n, "d": d, "ratio": up_n / med})
    return report
