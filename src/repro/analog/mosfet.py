"""Level-1 MOSFET model with a smooth subthreshold tail.

The paper simulates its neuron circuits with PTM 65 nm HSPICE models; the
attack analysis, however, only relies on first-order sensitivities (how an
inverter's switching threshold, a current mirror's output current and a
neuron's time-to-spike move with the supply voltage).  A square-law model
with channel-length modulation and a smooth subthreshold turn-on reproduces
all of those monotonic relationships while remaining robust inside a compact
Newton-Raphson solver.

The smoothing follows the EKV-style interpolation: the overdrive voltage is
replaced by ``n * Vt * softplus((Vgs - Vth) / (n * Vt))`` which tends to the
square-law overdrive far above threshold and to an exponential tail below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analog.devices import Device, GMIN
from repro.analog.units import parse_value, thermal_voltage
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class MOSFETParameters:
    """Process/device parameters for the level-1 model.

    Attributes
    ----------
    polarity:
        ``"nmos"`` or ``"pmos"``.
    vth0:
        Zero-bias threshold voltage magnitude (positive for both polarities).
    kp:
        Transconductance parameter ``mu * Cox`` in A/V².
    lambda_:
        Channel-length modulation coefficient (1/V).
    subthreshold_slope:
        Ideality factor ``n`` of the subthreshold exponential.
    temperature_k:
        Junction temperature in Kelvin (sets the thermal voltage).
    """

    polarity: str
    vth0: float
    kp: float
    lambda_: float = 0.1
    subthreshold_slope: float = 1.5
    temperature_k: float = 300.15

    def __post_init__(self) -> None:
        if self.polarity not in ("nmos", "pmos"):
            raise ValueError(f"polarity must be 'nmos' or 'pmos', got {self.polarity!r}")
        check_positive(self.vth0, "vth0")
        check_positive(self.kp, "kp")
        check_positive(self.subthreshold_slope, "subthreshold_slope")

    @property
    def thermal_voltage(self) -> float:
        """kT/q for the configured temperature."""
        return thermal_voltage(self.temperature_k)


#: Representative 65 nm low-power NMOS parameters (approximating PTM 65 nm LP).
NMOS_65NM = MOSFETParameters(polarity="nmos", vth0=0.423, kp=285e-6, lambda_=0.12)

#: Representative 65 nm low-power PMOS parameters.
PMOS_65NM = MOSFETParameters(polarity="pmos", vth0=0.365, kp=120e-6, lambda_=0.15)


def _softplus(x: float) -> float:
    """Numerically safe ``log(1 + exp(x))``."""
    if x > 35.0:
        return x
    if x < -35.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    """Numerically safe logistic function."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)


# Constants of the array model as 0-d arrays: a ufunc call converts a
# Python float operand on every call, which costs more than the arithmetic on
# a circuit's few transistors.
_ZERO, _HALF, _ONE, _SOFTPLUS_CUT, _GMIN = (
    np.array(value) for value in (0.0, 0.5, 1.0, 35.0, GMIN)
)


def channel_stamps_array(
    v: np.ndarray,
    out: np.ndarray,
    *,
    sign: np.ndarray,
    beta: np.ndarray,
    vth0: np.ndarray,
    lambda_: np.ndarray,
    n_vt: np.ndarray,
) -> np.ndarray:
    """Vectorised Newton linearisation of :meth:`MOSFET.stamp`.

    ``v`` stacks the terminal voltages of ``M`` transistors as rows
    ``(vd, vg, vs)`` of shape ``(..., 3, M)``.  ``sign`` has the same shape
    and holds each transistor's polarity in all three rows: ``+1`` for NMOS
    and ``-1`` for PMOS (a PMOS is an NMOS with negated terminal voltages
    and reversed current).  The other parameters are ``(M,)`` or ``(..., M)``
    arrays.  Writes the rows ``(di/dvd, di/dvg, di/dvs, i_eq)`` into ``out``
    of shape ``(..., 4, M)`` and returns it; ``i_eq = i_ds - di/dvd*vd -
    di/dvg*vg - di/dvs*vs`` is the companion current of ``MOSFET.stamp``.
    The region selection (triode vs saturation, drain/source swap) is that
    of the scalar reference model.
    """
    vn = v * sign
    vdn, vgn, vsn = vn[..., 0, :], vn[..., 1, :], vn[..., 2, :]
    # The higher terminal acts as the drain; a swapped device gets the
    # exact factors swapped = 1, kept = 0 and flip = -1 instead of np.where.
    swapped = (vdn < vsn).astype(float)
    kept = _ONE - swapped
    flip = kept - swapped
    vgs = vgn - np.minimum(vdn, vsn)
    vds = np.abs(vdn - vsn)
    x = (vgs - vth0) / n_vt
    # Smooth overdrive n*Vt*softplus(x) and its slope sigmoid(x), both in
    # overflow-safe form; the two sigmoid branches share exp(-|x|).
    veff = n_vt * np.where(
        x > _SOFTPLUS_CUT, x, np.log1p(np.exp(np.minimum(x, _SOFTPLUS_CUT)))
    )
    ex = np.exp(-np.abs(x))
    dveff = np.where(x >= _ZERO, _ONE, ex) / (_ONE + ex)
    clm = _ONE + lambda_ * vds
    # Branchless region selection: with vm = min(vds, veff) the triode
    # expressions evaluate to the saturation ones at vm == veff, so the
    # explicit triode/saturation split of the scalar model collapses to
    # min (identical values in both regions; veff - vm is max(veff - vds, 0)).
    vm = np.minimum(vds, veff)
    bhv = beta * (veff - _HALF * vm) * vm  # shared by ids and gds
    gm = beta * vm * clm * dveff
    gds = beta * (veff - vm) * clm + bhv * lambda_
    gds = np.maximum(gds, _ZERO) + _GMIN
    # A swapped device exchanges drain and source, which moves gm from
    # di/dvs to di/dvd and negates the current.
    di_dvd, di_dvg, di_dvs, i_eq = (
        out[..., 0, :],
        out[..., 1, :],
        out[..., 2, :],
        out[..., 3, :],
    )
    np.add(gds, np.multiply(swapped, gm, out=di_dvd), out=di_dvd)
    np.multiply(flip, gm, out=di_dvg)
    np.add(gds, np.multiply(kept, gm, out=di_dvs), out=di_dvs)
    np.negative(di_dvs, out=di_dvs)
    i_ds = sign[..., 0, :] * (flip * (bhv * clm))
    terms = out[..., :3, :] * v
    np.subtract(i_ds, terms[..., 0, :], out=i_eq)
    np.subtract(i_eq, terms[..., 1, :], out=i_eq)
    np.subtract(i_eq, terms[..., 2, :], out=i_eq)
    return out


class MOSFET(Device):
    """A three-terminal (drain, gate, source) level-1 MOSFET.

    The body terminal is assumed tied to the source (no body effect), which
    matches how the neuron circuits in the paper are drawn.

    Parameters
    ----------
    name:
        Instance name (e.g. ``"MN1"``).
    drain, gate, source:
        Node names.
    parameters:
        A :class:`MOSFETParameters` instance (see :data:`NMOS_65NM` and
        :data:`PMOS_65NM`).
    width, length:
        Channel dimensions in metres (SPICE-style strings accepted).
    """

    is_nonlinear = True

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        parameters: MOSFETParameters,
        *,
        width: float | str = 1e-6,
        length: float | str = 65e-9,
    ) -> None:
        super().__init__(name, (drain, gate, source))
        self.parameters = parameters
        self.width = check_positive(parse_value(width), f"{name}.width")
        self.length = check_positive(parse_value(length), f"{name}.length")

    # ------------------------------------------------------------------ sizing
    @property
    def aspect_ratio(self) -> float:
        """W / L."""
        return self.width / self.length

    @property
    def beta(self) -> float:
        """Device transconductance factor ``kp * W / L`` (A/V²)."""
        return self.parameters.kp * self.aspect_ratio

    # ----------------------------------------------------------- I/V equations
    def _forward_current(self, vgs: float, vds: float) -> tuple[float, float, float]:
        """NMOS-referenced drain current for ``vds >= 0``.

        Returns ``(ids, gm, gds)``.
        """
        params = self.parameters
        n_vt = params.subthreshold_slope * params.thermal_voltage
        x = (vgs - params.vth0) / n_vt
        veff = n_vt * _softplus(x)
        dveff_dvgs = _sigmoid(x)
        beta = self.beta
        clm = 1.0 + params.lambda_ * vds
        if vds < veff:
            # Triode region.
            ids = beta * (veff - 0.5 * vds) * vds * clm
            gm = beta * vds * clm * dveff_dvgs
            gds = (
                beta * (veff - vds) * clm
                + beta * (veff - 0.5 * vds) * vds * params.lambda_
            )
        else:
            # Saturation region.
            ids = 0.5 * beta * veff * veff * clm
            gm = beta * veff * clm * dveff_dvgs
            gds = 0.5 * beta * veff * veff * params.lambda_
        return ids, gm, max(gds, 0.0) + GMIN

    def _oriented_current(
        self, vd: float, vg: float, vs: float
    ) -> tuple[float, float, float, float]:
        """NMOS-referenced drain-to-source current and partials.

        Handles drain/source swap for ``vds < 0`` (the channel is symmetric).
        Returns ``(i_ds, di/dvd, di/dvg, di/dvs)``.
        """
        if vd >= vs:
            ids, gm, gds = self._forward_current(vg - vs, vd - vs)
            return ids, gds, gm, -(gm + gds)
        # Swap roles: the physical source is the higher-potential terminal.
        ids, gm, gds = self._forward_current(vg - vd, vs - vd)
        return -ids, gm + gds, -gm, -gds

    def channel_current(
        self, vd: float, vg: float, vs: float
    ) -> tuple[float, float, float, float]:
        """Drain-to-source channel current and its partial derivatives.

        Returns ``(i_ds, di/dvd, di/dvg, di/dvs)`` where ``i_ds`` is the
        current flowing from the drain node into the source node through the
        channel (negative for a conducting PMOS).
        """
        if self.parameters.polarity == "nmos":
            return self._oriented_current(vd, vg, vs)
        # A PMOS behaves like an NMOS with all terminal voltages negated and
        # the current direction reversed.
        i_n, d_vd, d_vg, d_vs = self._oriented_current(-vd, -vg, -vs)
        return -i_n, d_vd, d_vg, d_vs

    # ----------------------------------------------------------------- stamping
    def stamp(self, stamper, state) -> None:
        """Stamp the Newton linearisation of the channel at the present guess."""
        d, g, s = self.nodes
        vd = state.guess_voltage(d)
        vg = state.guess_voltage(g)
        vs = state.guess_voltage(s)
        i_ds, di_dvd, di_dvg, di_dvs = self.channel_current(vd, vg, vs)
        i_eq = i_ds - di_dvd * vd - di_dvg * vg - di_dvs * vs
        # KCL row for the drain: current i_ds leaves the drain node.
        stamper.add_matrix(d, d, di_dvd)
        stamper.add_matrix(d, g, di_dvg)
        stamper.add_matrix(d, s, di_dvs)
        stamper.stamp_current_injection(d, -i_eq)
        # KCL row for the source: current i_ds enters the source node.
        stamper.add_matrix(s, d, -di_dvd)
        stamper.add_matrix(s, g, -di_dvg)
        stamper.add_matrix(s, s, -di_dvs)
        stamper.stamp_current_injection(s, i_eq)
