"""Two-step predictor observer for a scalar signal.

Step one is a high-gain differentiator chain that estimates the current
signal and its first three derivatives.  Step two re-injects the same
tracking error through Taylor-weighted gains so that its states converge
to the signal and derivatives evaluated a fixed horizon ahead.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ObserverGains",
    "ObserverConfig",
    "validate_gains",
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
class ObserverGains:
    """Tuning gains of the error-injection chain.

    The quartic s^4 + k1 s^3 + k2 s^2 + k3 s + k4 must be Hurwitz;
    construction fails otherwise.
    """

    k1: float
    k2: float
    k3: float
    k4: float

    def __post_init__(self):
        if not validate_gains(self.k1, self.k2, self.k3, self.k4):
            raise ValueError(
                "observer gains (%g, %g, %g, %g) fail the Hurwitz stability "
                "conditions" % (self.k1, self.k2, self.k3, self.k4)
            )


@dataclass(frozen=True)
class ObserverConfig:
    gains: ObserverGains
    epsilon: float        # bandwidth parameter; injection gains scale as k_i / eps^i
    delta: float          # prediction horizon, seconds

    def coefficients(self) -> tuple:
        """Injection gains (b1..b4, g1..g4) of the two steps.

        Step one injects b_i = k_i / eps^i; step two injects the
        Taylor-weighted g_i over the horizon, which collapse to b_i when
        the horizon is 0.
        """
        k = self.gains
        e = self.epsilon
        d = self.delta
        b1 = k.k1 / e
        b2 = k.k2 / e ** 2
        b3 = k.k3 / e ** 3
        b4 = k.k4 / e ** 4
        return (b1, b2, b3, b4,
                b4 * d ** 3 / 6.0 + b3 * d ** 2 / 2.0 + b2 * d + b1,
                b4 * d ** 2 / 2.0 + b3 * d + b2,
                b4 * d + b3,
                b4)


def rk4_step8(x: tuple, v, dt: float, coeffs: tuple) -> tuple:
    """One classical RK4 step of the eight-state chain.

    ``v`` is either a single held sample (zero-order hold) or a
    (start, midpoint, end) triple of stage samples; stage sampling makes
    the step fourth-order accurate in the input as well.

    The derivative of the eight states for input sample ``v`` is
    ``(x21 + b1 e, x31 + b2 e, x41 + b3 e, b4 e, x22 + g1 e, x32 + g2 e,
    x42 + g3 e, g4 e)`` with ``e = v - x11``.  Its four RK4 stages are
    written out, and ``tests/test_observer.py`` checks the result bit for
    bit against classical RK4 composed from that derivative.  ``x12``
    never enters the derivative, so no stage state computes it.
    """
    if isinstance(v, tuple):
        v0, vm, v1 = v
    else:
        v0 = vm = v1 = v
    x11, x21, x31, x41, x12, x22, x32, x42 = x
    b1, b2, b3, b4, g1, g2, g3, g4 = coeffs
    h2 = dt * 0.5
    h6 = dt / 6.0
    e = v0 - x11
    p1 = x21 + b1 * e
    p2 = x31 + b2 * e
    p3 = x41 + b3 * e
    p4 = b4 * e
    p5 = x22 + g1 * e
    p6 = x32 + g2 * e
    p7 = x42 + g3 * e
    p8 = g4 * e
    e = vm - (x11 + h2 * p1)
    q1 = (x21 + h2 * p2) + b1 * e
    q2 = (x31 + h2 * p3) + b2 * e
    q3 = (x41 + h2 * p4) + b3 * e
    q4 = b4 * e
    q5 = (x22 + h2 * p6) + g1 * e
    q6 = (x32 + h2 * p7) + g2 * e
    q7 = (x42 + h2 * p8) + g3 * e
    q8 = g4 * e
    e = vm - (x11 + h2 * q1)
    r1 = (x21 + h2 * q2) + b1 * e
    r2 = (x31 + h2 * q3) + b2 * e
    r3 = (x41 + h2 * q4) + b3 * e
    r4 = b4 * e
    r5 = (x22 + h2 * q6) + g1 * e
    r6 = (x32 + h2 * q7) + g2 * e
    r7 = (x42 + h2 * q8) + g3 * e
    r8 = g4 * e
    e = v1 - (x11 + dt * r1)
    s1 = (x21 + dt * r2) + b1 * e
    s2 = (x31 + dt * r3) + b2 * e
    s3 = (x41 + dt * r4) + b3 * e
    s4 = b4 * e
    s5 = (x22 + dt * r6) + g1 * e
    s6 = (x32 + dt * r7) + g2 * e
    s7 = (x42 + dt * r8) + g3 * e
    s8 = g4 * e
    return (
        x11 + h6 * (p1 + 2.0 * (q1 + r1) + s1),
        x21 + h6 * (p2 + 2.0 * (q2 + r2) + s2),
        x31 + h6 * (p3 + 2.0 * (q3 + r3) + s3),
        x41 + h6 * (p4 + 2.0 * (q4 + r4) + s4),
        x12 + h6 * (p5 + 2.0 * (q5 + r5) + s5),
        x22 + h6 * (p6 + 2.0 * (q6 + r6) + s6),
        x32 + h6 * (p7 + 2.0 * (q7 + r7) + s7),
        x42 + h6 * (p8 + 2.0 * (q8 + r8) + s8),
    )
