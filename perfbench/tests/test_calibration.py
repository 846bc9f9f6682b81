"""Scaler turns wall times into reference seconds with the probes around them."""

from perfbench import calibration


def test_factors_use_the_median_of_nearby_probes(monkeypatch):
    probes = iter([0.002, 0.002, 0.002, 0.001, 0.002, 0.004, 0.004, 0.004, 0.004])
    monkeypatch.setattr(calibration, "probe", lambda: next(probes))
    monkeypatch.setattr(calibration.Scaler, "WINDOW", 2)
    scaler = calibration.Scaler()
    for wall in (1.0, 1.0, 1.0):
        scaler.add(wall)
    scaler.restart()
    for wall in (1.0, 1.0, 1.0, 1.0):
        scaler.add(wall)
    ref = calibration.REFERENCE_S
    # stretch 0 sits between probes 0 and 1: window probes 0..2; the lone
    # fast probe (index 3) moves no factor on its own
    assert scaler.factors() == [ref / 0.002, ref / 0.002, ref / 0.002,
                                ref / 0.003, ref / 0.004, ref / 0.004, ref / 0.004]


def test_probe_is_a_positive_time():
    assert 0 < calibration.probe() < 1.0
