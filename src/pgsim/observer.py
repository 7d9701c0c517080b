"""Two-step predictor observer for a scalar signal.

Step one is a high-gain differentiator chain that estimates the current
signal and its first three derivatives.  Step two re-injects the same
tracking error through Taylor-weighted gains so that its states converge
to the signal and derivatives evaluated a fixed horizon ahead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# the highest power of the exponential's series at a scaled norm <= 1/2,
# where its remainder (1/2)^15 / 15! is below 2^-53
_DEGREE = 14


def _product(x, y):
    """The matrix product of two square arrays, with each entry's
    products summed in column order, so its bits depend on no BLAS
    kernel."""
    p = x[:, :1] * y[:1]
    for k in range(1, len(y)):
        p = p + x[:, k:k + 1] * y[k:k + 1]
    return p


def step_map(dt: float, coeffs: tuple) -> tuple:
    """The exact step of the observer over ``dt`` with its input sample
    held (zero-order hold) as a linear map, for :func:`rk4_step8`.

    With the sample ``v`` held, ``y = (e, x21, x31, x41, d1, d2, d3,
    d4)``, where ``e = v - x11`` and ``d_i = x_i2 - x_i1``, obeys
    ``y' = A y``: step two's gains enter only as ``g_i - b_i``, which is
    exactly 0 at a zero horizon.  One step adds ``(exp(A dt) - I) y``,
    and x11's increment is minus e's.  The map is that matrix, from the
    series of ``exp(M) - I`` at ``M = A dt / 2^s``, then ``s`` squarings
    ``P <- 2 P + P P``.  ``s`` brings the step-one chain's norm, balanced
    by the Fujiwara bound on its poles, to 1/2 or below.  Every product
    sums in a fixed order (:func:`_product`), so the map does not depend
    on a BLAS kernel.  Entries that are zero by the chain's structure are
    left out: the offsets never feed step one, and offset ``d_i`` is fed
    only by ``d_{i+1}..d4`` (``d4`` is constant, since ``g4 = b4``).

    The map is flat, row by row for the increments of x11, x21, x31,
    x41, d1, d2, d3: the error column, then the x21, x31 and x41
    columns, then, on the offset rows, the columns of the later offsets.
    """
    b1, b2, b3, b4, g1, g2, g3, g4 = coeffs
    rho = max(abs(b1), abs(b2) ** 0.5, abs(b3) ** (1.0 / 3.0), abs(b4) ** 0.25)
    s = max(0, math.frexp(4.0 * rho * dt)[1])
    a = np.zeros((8, 8))
    a[:, 0] = (-b1, b2, b3, b4, g1 - b1, g2 - b2, g3 - b3, g4 - b4)
    a[0, 1] = -1.0
    a[1, 2] = a[2, 3] = a[4, 5] = a[5, 6] = a[6, 7] = 1.0
    eye = np.eye(8)
    # an overflow gives a non-finite map, which ends the run
    with np.errstate(over="ignore", invalid="ignore"):
        m = a * math.ldexp(dt, -s)
        t = eye + m / _DEGREE
        for j in range(_DEGREE - 1, 1, -1):
            t = eye + _product(m, t) / j
        p = _product(m, t)
        for _ in range(s):
            p = 2.0 * p + _product(p, p)
    rows = [-p[0, :4], p[1, :4], p[2, :4], p[3, :4]]
    for r in (4, 5, 6):
        rows += [p[r, :4], p[r, r + 1:]]
    return tuple(np.concatenate(rows).tolist())


def rk4_step8(x: tuple, v: float, m: tuple) -> tuple:
    """One exact step of the eight-state chain for sample ``v`` held over
    the step (zero-order hold), through the map ``m`` from
    :func:`step_map` for the step size and gains.  The name is that of
    the classical RK4 step it once took, which ``bench/tracing.py``
    hooks.

    The derivative of the eight states for input sample ``v`` is
    ``(x21 + b1 e, x31 + b2 e, x41 + b3 e, b4 e, x22 + g1 e, x32 + g2 e,
    x42 + g3 e, g4 e)`` with ``e = v - x11``.  The map applies the step
    to the error, the step-one chain and the offsets ``x_i2 - x_i1``, so
    a state at rest under a constant input stays bit for bit where it is,
    and at a zero horizon step two equals step one bit for bit.
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
