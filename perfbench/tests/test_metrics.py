"""op_slowdown.tail takes each op sample against the other ops of its pass."""

from perfbench import run


def _tail(pass_ops):
    return run.end_to_end([1.0], pass_ops, [1.0], [1.0], 1.0)["op_slowdown.tail"]


def test_a_slow_pass_cancels_out():
    steady = [{"a": 1.0, "b": 2.0, "c": 3.0}] * 8
    slow = [{k: 2 * t for k, t in steady[0].items()}] * 4  # the whole machine at half speed
    assert _tail(steady + slow) == 1.0


def test_an_op_slow_in_its_pass_stands_out():
    passes = [{"a": 1.0, "b": 2.0, "c": 3.0} for _ in range(12)]
    for i, ops in enumerate(passes):
        retried = "a" if i % 2 else "b"  # half of a's and half of b's calls retry
        ops[retried] *= 3
    assert _tail(passes) > 1.4
