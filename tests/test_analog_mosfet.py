"""Tests for the level-1 MOSFET model."""

import pytest

from repro.analog.mosfet import MOSFET, MOSFETParameters, NMOS_65NM, PMOS_65NM


def make_nmos(width="1u", length="100n"):
    return MOSFET("MN", "d", "g", "s", NMOS_65NM, width=width, length=length)


def make_pmos(width="1u", length="100n"):
    return MOSFET("MP", "d", "g", "s", PMOS_65NM, width=width, length=length)


def test_parameters_reject_bad_polarity():
    with pytest.raises(ValueError):
        MOSFETParameters(polarity="cmos", vth0=0.4, kp=1e-4)


def test_nmos_off_below_threshold():
    nmos = make_nmos()
    current = nmos.drain_current(vd=1.0, vg=0.1, vs=0.0)
    assert abs(current) < 1e-9  # only the subthreshold tail remains


def test_nmos_on_above_threshold():
    nmos = make_nmos()
    current = nmos.drain_current(vd=1.0, vg=1.0, vs=0.0)
    assert current > 1e-5


def test_nmos_current_increases_with_gate_voltage():
    nmos = make_nmos()
    currents = [nmos.drain_current(1.0, vg, 0.0) for vg in (0.5, 0.7, 0.9)]
    assert currents[0] < currents[1] < currents[2]


def test_nmos_saturation_weakly_depends_on_vds():
    nmos = make_nmos()
    i_sat1 = nmos.drain_current(0.6, 0.8, 0.0)
    i_sat2 = nmos.drain_current(1.0, 0.8, 0.0)
    # Channel-length modulation only: a few percent per 100 mV.
    assert i_sat2 > i_sat1
    assert (i_sat2 - i_sat1) / i_sat1 < 0.1


def test_nmos_triode_scales_with_vds():
    nmos = make_nmos()
    i_small = nmos.drain_current(0.02, 1.0, 0.0)
    i_double = nmos.drain_current(0.04, 1.0, 0.0)
    assert i_double == pytest.approx(2 * i_small, rel=0.1)


def test_nmos_symmetric_under_terminal_swap():
    nmos = make_nmos()
    forward = nmos.drain_current(0.5, 1.0, 0.0)
    reverse = nmos.drain_current(0.0, 1.0, 0.5)
    assert reverse == pytest.approx(-forward, rel=1e-6)


def test_pmos_conducts_with_low_gate():
    pmos = make_pmos()
    # Source at VDD, drain low, gate low -> PMOS on, current flows source->drain
    current = pmos.drain_current(vd=0.0, vg=0.0, vs=1.0)
    assert current < -1e-5  # drain-to-source current is negative


def test_pmos_off_with_high_gate():
    pmos = make_pmos()
    current = pmos.drain_current(vd=0.0, vg=1.0, vs=1.0)
    assert abs(current) < 1e-9


def test_channel_current_partials_match_finite_differences():
    nmos = make_nmos()
    vd, vg, vs = 0.6, 0.7, 0.1
    i0, d_vd, d_vg, d_vs = nmos.channel_current(vd, vg, vs)
    eps = 1e-6
    fd_vd = (nmos.drain_current(vd + eps, vg, vs) - i0) / eps
    fd_vg = (nmos.drain_current(vd, vg + eps, vs) - i0) / eps
    fd_vs = (nmos.drain_current(vd, vg, vs + eps) - i0) / eps
    assert d_vd == pytest.approx(fd_vd, rel=1e-2, abs=1e-9)
    assert d_vg == pytest.approx(fd_vg, rel=1e-2, abs=1e-9)
    assert d_vs == pytest.approx(fd_vs, rel=1e-2, abs=1e-9)


def test_beta_scales_with_aspect_ratio():
    narrow = make_nmos(width="1u")
    wide = make_nmos(width="2u")
    assert wide.beta == pytest.approx(2 * narrow.beta)
    assert wide.aspect_ratio == pytest.approx(2 * narrow.aspect_ratio)


def test_current_scales_with_width():
    narrow = make_nmos(width="1u")
    wide = make_nmos(width="4u")
    assert wide.drain_current(1.0, 0.8, 0.0) == pytest.approx(
        4 * narrow.drain_current(1.0, 0.8, 0.0), rel=1e-6
    )
