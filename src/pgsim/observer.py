"""Two-step predictor observer for a scalar signal.

Step one is a high-gain differentiator chain that estimates the current
signal and its first three derivatives.  Step two re-injects the same
tracking error through Taylor-weighted gains so that its states converge
to the signal and derivatives evaluated a fixed horizon ahead.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ObserverConfig",
    "validate_gains",
    "step_map",
    "rk4_step8",
]


def validate_gains(k1: float, k2: float, k3: float, k4: float) -> bool:
    """True iff the gain quartic has all roots in the open left half plane."""
    # Routh-Hurwitz conditions for s^4 + k1 s^3 + k2 s^2 + k3 s + k4
    if k1 <= 0.0 or k4 <= 0.0:
        return False
    a = k1 * k2 - k3
    if a <= 0.0:
        return False
    return a * k3 - k1 * k1 * k4 > 0.0


@dataclass(frozen=True)
class ObserverConfig:
    """Gains of the error-injection chain, whose quartic
    s^4 + k1 s^3 + k2 s^2 + k3 s + k4 must be Hurwitz (see
    :func:`validate_gains`), with the bandwidth and the horizon."""

    k1: float
    k2: float
    k3: float
    k4: float
    epsilon: float        # bandwidth parameter; injection gains scale as k_i / eps^i
    delta: float          # prediction horizon, seconds

    def coefficients(self) -> tuple:
        """Injection gains (b1..b4, g1..g4) of the two steps.

        Step one injects b_i = k_i / eps^i; step two injects the
        Taylor-weighted g_i over the horizon, which collapse to b_i when
        the horizon is 0.
        """
        e = self.epsilon
        d = self.delta
        b1 = self.k1 / e
        b2 = self.k2 / e ** 2
        b3 = self.k3 / e ** 3
        b4 = self.k4 / e ** 4
        return (b1, b2, b3, b4,
                b4 * d ** 3 / 6.0 + b3 * d ** 2 / 2.0 + b2 * d + b1,
                b4 * d ** 2 / 2.0 + b3 * d + b2,
                b4 * d + b3,
                b4)


def _offset_rhs(s, v: float, coeffs: tuple) -> tuple:
    """Derivative of (x11, x21, x31, x41, d1, d2, d3, d4), where
    ``d_i = x_i2 - x_i1``, for input sample ``v``.  Step two's gains
    enter only as ``g_i - b_i``, which is exactly 0 at a zero horizon."""
    x11, x21, x31, x41, d1, d2, d3, d4 = s
    b1, b2, b3, b4, g1, g2, g3, g4 = coeffs
    e = v - x11
    return (x21 + b1 * e, x31 + b2 * e, x41 + b3 * e, b4 * e,
            d2 + (g1 - b1) * e, d3 + (g2 - b2) * e, d4 + (g3 - b3) * e, (g4 - b4) * e)


def _rk4_increment(s, v: float, dt: float, coeffs: tuple) -> list:
    """Classical RK4 increment of :func:`_offset_rhs` over one step from
    ``s``, with sample ``v`` held over the step."""
    h2 = dt * 0.5
    k1 = _offset_rhs(s, v, coeffs)
    k2 = _offset_rhs([a + h2 * b for a, b in zip(s, k1)], v, coeffs)
    k3 = _offset_rhs([a + h2 * b for a, b in zip(s, k2)], v, coeffs)
    k4 = _offset_rhs([a + dt * b for a, b in zip(s, k3)], v, coeffs)
    h6 = dt / 6.0
    return [h6 * (p + 2.0 * (q + r) + w) for p, q, r, w in zip(k1, k2, k3, k4)]


def step_map(dt: float, coeffs: tuple) -> tuple:
    """One classical RK4 step of the observer as a linear map, for
    :func:`rk4_step8`.

    The observer is linear and time-invariant, so one RK4 step is a fixed
    linear function of the tracking error ``e = v - x11``, the step-one
    chain (x21, x31, x41) and the offsets ``d_i = x_i2 - x_i1``; it
    returns the step-one increments and the offset increments.  Each
    column is the RK4 increment of one unit input, computed in plain
    floats, so the map does not depend on a BLAS kernel.  Entries that
    are zero by the chain's structure are left out: the offsets never
    feed step one, and offset ``d_i`` is fed only by ``d_{i+1}..d4``
    (``d4`` is constant, since ``g4 = b4``).

    The map is flat, row by row for the increments of x11, x21, x31,
    x41, d1, d2, d3: the error column, then the x21, x31 and x41
    columns, then, on the offset rows, the columns of the later offsets.
    """
    def response(unit=None, v=0.0):
        s = [0.0] * 8
        if unit is not None:
            s[unit] = 1.0
        return _rk4_increment(s, v, dt, coeffs)

    cols = (response(v=1.0), *(response(i) for i in (1, 2, 3)))
    d2, d3, d4 = (response(i) for i in (5, 6, 7))
    out = []
    for r in range(7):
        out += [c[r] for c in cols]
        if r >= 4:
            out += [c[r] for c in (d2, d3, d4)[r - 4:]]
    return tuple(out)


def rk4_step8(x: tuple, v: float, m: tuple) -> tuple:
    """One classical RK4 step of the eight-state chain for sample ``v``
    held over the step (zero-order hold), through the map ``m`` from
    :func:`step_map` for the step size and gains.

    The derivative of the eight states for input sample ``v`` is
    ``(x21 + b1 e, x31 + b2 e, x41 + b3 e, b4 e, x22 + g1 e, x32 + g2 e,
    x42 + g3 e, g4 e)`` with ``e = v - x11``.  The map applies RK4 of it
    to the error, the step-one chain and the offsets ``x_i2 - x_i1``, so
    a state at rest under a constant input stays bit for bit where it is,
    and at a zero horizon step two equals step one bit for bit.  Against
    RK4 composed from the derivative (``rk4_from_rhs8`` in
    ``tests/conftest.py``) it agrees to a few ulp of the state's scale,
    as rounding differs.
    """
    x11, x21, x31, x41, x12, x22, x32, x42 = x
    d2 = x22 - x21
    d3 = x32 - x31
    d4 = x42 - x41
    # coefficient names are row then column: rows u1..u4 give the
    # increments of x11..x41 and f1..f3 those of d1..d3; columns are the
    # error (e), x21 (2), x31 (3), x41 (4) and d2..d4
    (u1e, u12, u13, u14, u2e, u22, u23, u24, u3e, u32, u33, u34,
     u4e, u42, u43, u44, f1e, f12, f13, f14, f1d2, f1d3, f1d4,
     f2e, f22, f23, f24, f2d3, f2d4, f3e, f32, f33, f34, f3d4) = m
    e = v - x11
    y11 = x11 + (u1e * e + u12 * x21 + u13 * x31 + u14 * x41)
    y21 = x21 + (u2e * e + u22 * x21 + u23 * x31 + u24 * x41)
    y31 = x31 + (u3e * e + u32 * x21 + u33 * x31 + u34 * x41)
    y41 = x41 + (u4e * e + u42 * x21 + u43 * x31 + u44 * x41)
    f1 = f1e * e + f12 * x21 + f13 * x31 + f14 * x41 + f1d2 * d2 + f1d3 * d3 + f1d4 * d4
    f2 = f2e * e + f22 * x21 + f23 * x31 + f24 * x41 + f2d3 * d3 + f2d4 * d4
    f3 = f3e * e + f32 * x21 + f33 * x31 + f34 * x41 + f3d4 * d4
    return (y11, y21, y31, y41,
            y11 + ((x12 - x11) + f1), y21 + (d2 + f2), y31 + (d3 + f3), y41 + d4)
