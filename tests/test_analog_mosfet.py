"""Tests for the level-1 MOSFET model."""

import numpy as np
import pytest

from repro.analog.devices import GMIN
from repro.analog.mosfet import (
    MOSFET,
    MOSFETParameters,
    NMOS_65NM,
    PMOS_65NM,
    channel_stamps_array,
)


def make_nmos(width="1u", length="100n"):
    return MOSFET("MN", "d", "g", "s", NMOS_65NM, width=width, length=length)


def make_pmos(width="1u", length="100n"):
    return MOSFET("MP", "d", "g", "s", PMOS_65NM, width=width, length=length)


def test_parameters_reject_bad_polarity():
    with pytest.raises(ValueError):
        MOSFETParameters(polarity="cmos", vth0=0.4, kp=1e-4)


def test_nmos_off_below_threshold():
    nmos = make_nmos()
    current = nmos.channel_current(vd=1.0, vg=0.1, vs=0.0)[0]
    assert abs(current) < 1e-9  # only the subthreshold tail remains


def test_nmos_on_above_threshold():
    nmos = make_nmos()
    current = nmos.channel_current(vd=1.0, vg=1.0, vs=0.0)[0]
    assert current > 1e-5


def test_nmos_current_increases_with_gate_voltage():
    nmos = make_nmos()
    currents = [nmos.channel_current(1.0, vg, 0.0)[0] for vg in (0.5, 0.7, 0.9)]
    assert currents[0] < currents[1] < currents[2]


def test_nmos_saturation_weakly_depends_on_vds():
    nmos = make_nmos()
    i_sat1 = nmos.channel_current(0.6, 0.8, 0.0)[0]
    i_sat2 = nmos.channel_current(1.0, 0.8, 0.0)[0]
    # Channel-length modulation only: a few percent per 100 mV.
    assert i_sat2 > i_sat1
    assert (i_sat2 - i_sat1) / i_sat1 < 0.1


def test_nmos_triode_scales_with_vds():
    nmos = make_nmos()
    i_small = nmos.channel_current(0.02, 1.0, 0.0)[0]
    i_double = nmos.channel_current(0.04, 1.0, 0.0)[0]
    assert i_double == pytest.approx(2 * i_small, rel=0.1)


def test_nmos_symmetric_under_terminal_swap():
    nmos = make_nmos()
    forward = nmos.channel_current(0.5, 1.0, 0.0)[0]
    reverse = nmos.channel_current(0.0, 1.0, 0.5)[0]
    assert reverse == pytest.approx(-forward, rel=1e-6)


def test_pmos_conducts_with_low_gate():
    pmos = make_pmos()
    # Source at VDD, drain low, gate low -> PMOS on, current flows source->drain
    current = pmos.channel_current(vd=0.0, vg=0.0, vs=1.0)[0]
    assert current < -1e-5  # drain-to-source current is negative


def test_pmos_off_with_high_gate():
    pmos = make_pmos()
    current = pmos.channel_current(vd=0.0, vg=1.0, vs=1.0)[0]
    assert abs(current) < 1e-9


def test_channel_current_partials_match_finite_differences():
    nmos = make_nmos()
    vd, vg, vs = 0.6, 0.7, 0.1
    i0, d_vd, d_vg, d_vs = nmos.channel_current(vd, vg, vs)
    eps = 1e-6
    fd_vd = (nmos.channel_current(vd + eps, vg, vs)[0] - i0) / eps
    fd_vg = (nmos.channel_current(vd, vg + eps, vs)[0] - i0) / eps
    fd_vs = (nmos.channel_current(vd, vg, vs + eps)[0] - i0) / eps
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
    assert wide.channel_current(1.0, 0.8, 0.0)[0] == pytest.approx(
        4 * narrow.channel_current(1.0, 0.8, 0.0)[0], rel=1e-6
    )


# --------------------------------------------------------------------------
# The array model against its previous expression, bit for bit.


def _oracle_softplus(x):
    return np.where(x > 35.0, x, np.log1p(np.exp(np.minimum(x, 35.0))))


def _oracle_sigmoid(x):
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _oracle_stamps(vd, vg, vs, *, sign, beta, vth0, lambda_, n_vt):
    """The array model as it was written with np.where, plus MOSFET.stamp's i_eq."""
    vdn, vgn, vsn = sign * vd, sign * vg, sign * vs
    swap = vdn < vsn
    lo = np.minimum(vdn, vsn)
    vgs = vgn - lo
    vds = np.abs(vdn - vsn)
    x = (vgs - vth0) / n_vt
    veff = n_vt * _oracle_softplus(x)
    dveff = _oracle_sigmoid(x)
    clm = 1.0 + lambda_ * vds
    vm = np.minimum(vds, veff)
    half = veff - 0.5 * vm
    ids = beta * half * vm * clm
    gm = beta * vm * clm * dveff
    gds = beta * np.maximum(veff - vds, 0.0) * clm + beta * half * vm * lambda_
    gds = np.maximum(gds, 0.0) + GMIN
    i_ds = sign * np.where(swap, -ids, ids)
    di_dvd = np.where(swap, gm + gds, gds)
    di_dvg = np.where(swap, -gm, gm)
    di_dvs = np.where(swap, -gds, -(gm + gds))
    i_eq = i_ds - di_dvd * vd - di_dvg * vg - di_dvs * vs
    return np.stack([di_dvd, di_dvg, di_dvs, i_eq], axis=-2)


def _edge_case_columns():
    """``(params, v)`` for transistors at every branch edge of the model.

    Per polarity, the NMOS-referenced terminal voltages ``(vdn, vgn, vsn)``
    put ``x = (vgs - vth0) / n_vt`` a few ulps around +-35 (the softplus
    cut), far beyond it, at ``vd == vs``, at ``vds == veff`` (the
    triode/saturation boundary) in both orientations, with drain and source
    swapped, and at random points.
    """
    rng = np.random.default_rng(29)
    columns = []
    for params in (NMOS_65NM, PMOS_65NM):
        n_vt = params.subthreshold_slope * params.thermal_voltage
        vth0 = params.vth0
        cases = []
        for edge in (35.0, -35.0):
            centre = vth0 + edge * n_vt
            for steps in range(-3, 4):
                vg = centre
                for _ in range(abs(steps)):
                    vg = np.nextafter(vg, np.inf if steps > 0 else -np.inf)
                cases.append((1.0, vg, 0.0))
        cases += [(1.0, vth0 + 60 * n_vt, 0.0), (0.5, vth0 - 60 * n_vt, 0.0)]
        cases += [(0.3, 1.0, 0.3), (0.0, 0.0, 0.0), (0.1, 1.0, 0.7), (0.0, 0.6, 1.0)]
        x = (0.9 - vth0) / n_vt
        veff = n_vt * _oracle_softplus(np.array([x]))[0]
        cases += [(veff, 0.9, 0.0), (0.0, 0.9, veff)]
        cases += [tuple(row) for row in rng.uniform(-0.5, 1.5, (12, 3))]
        sign = 1.0 if params.polarity == "nmos" else -1.0
        for vdn, vgn, vsn in cases:
            columns.append((params, sign, sign * vdn, sign * vgn, sign * vsn))
    v = np.array([[c[k] for c in columns] for k in (2, 3, 4)])
    param_arrays = {
        "sign": np.array([c[1] for c in columns]),
        "beta": np.array([c[0].kp * (0.5e-6 + 1e-7 * i) / 65e-9 for i, c in enumerate(columns)]),
        "vth0": np.array([c[0].vth0 for c in columns]),
        "lambda_": np.array([c[0].lambda_ for c in columns]),
        "n_vt": np.array(
            [c[0].subthreshold_slope * c[0].thermal_voltage for c in columns]
        ),
    }
    return param_arrays, v


def _assert_bitwise_equal(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def _stamps(v, params):
    out = np.empty(v.shape[:-2] + (4, v.shape[-1]))
    sign3 = np.repeat(params["sign"][..., None, :], 3, axis=-2)
    kwargs = {key: params[key] for key in ("beta", "vth0", "lambda_", "n_vt")}
    return channel_stamps_array(v, out, sign=sign3, **kwargs)


def test_channel_stamps_match_the_where_expression_bitwise():
    params, v = _edge_case_columns()
    expected = _oracle_stamps(v[0], v[1], v[2], **params)
    _assert_bitwise_equal(_stamps(v, params), expected)


def test_batched_channel_stamps_match_the_where_expression_bitwise():
    params, v = _edge_case_columns()
    # Variant 0 keeps the edge cases; the others shift voltages and sizes.
    batch_v = np.stack([v, v + 0.05, 0.9 * v - 0.1])
    batch_params = {key: np.stack([value] * 3) for key, value in params.items()}
    batch_params["beta"] = batch_params["beta"] * np.array([[1.0], [2.0], [0.7]])
    expected = _oracle_stamps(
        batch_v[:, 0], batch_v[:, 1], batch_v[:, 2], **batch_params
    )
    _assert_bitwise_equal(_stamps(batch_v, batch_params), expected)
    # Each variant equals its own single-variant evaluation.
    for b in range(3):
        single = {key: value[b] for key, value in batch_params.items()}
        _assert_bitwise_equal(_stamps(batch_v[b], single), expected[b])
