"""Physical parameters of the chain, the confining-potential families, the
constants of the eps expansion, the unit kink profile every layer seeds from,
and the kernels every layer shares: one phi-dependent coefficient matrix
(_coefficients) with its quadratic form (_quadratic), the gravity term
(_pendant), and the two field equations (_field_equations)."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_FAMILIES = ("quadratic", "tangent-barrier")


def _require_finite(obj):
    """ValueError naming the first number field of the dataclass obj that
    is nan or infinite; a range check written with < lets both through."""
    for f in dataclasses.fields(obj):
        val = getattr(obj, f.name)
        if isinstance(val, (int, float)) and not np.isfinite(val):
            raise ValueError(f"{f.name} must be finite, got {val!r}")


@dataclass(frozen=True)
class ConfiningPotential:
    """Even potential h(phi) keeping the second pendulum inside |phi| < phi0.

    Two families:
      quadratic        h = (c2/2) phi^2 (phi0 is a nominal range marker only)
      tangent-barrier  h = (c2 (2 phi0/pi)^2 / 2) tan^2(pi phi/(2 phi0))
                           + b tan^4(pi phi/(2 phi0)), diverging at +-phi0

    Both satisfy h(0) = 0, h'(0) = 0, h''(0) = c2, h'''(0) = 0. h to d3h
    keep a complex phi complex, as _field_equations requires of dh.
    """

    family: str = "quadratic"
    phi0: float = np.pi / 2
    c2: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown confining family {self.family!r}")
        if not self.phi0 > 0:
            raise ValueError("phi0 must be positive")
        if not self.c2 > 0:
            raise ValueError("c2 must be positive (h''(0) > 0)")
        if self.b < 0:
            raise ValueError("b must be nonnegative")

    # tan argument scale
    @property
    def _c(self):
        return np.pi / (2 * self.phi0)

    @property
    def _a2(self):
        # tan^2 amplitude chosen so h''(0) = c2
        return 0.5 * self.c2 * (2 * self.phi0 / np.pi) ** 2

    def h(self, phi):
        phi = np.asarray(phi) * 1.0
        if self.family == "quadratic":
            return 0.5 * self.c2 * phi**2
        t = np.tan(self._c * phi)
        return self._a2 * t**2 + self.b * t**4

    def dh(self, phi):
        phi = np.asarray(phi) * 1.0
        if self.family == "quadratic":
            return self.c2 * phi
        t = np.tan(self._c * phi)
        return self._c * (2 * self._a2 * t + 4 * self.b * t**3) * (1 + t**2)

    def d2h(self, phi):
        phi = np.asarray(phi) * 1.0
        if self.family == "quadratic":
            return np.full_like(phi, self.c2)
        t = np.tan(self._c * phi)
        P = 2 * self._a2 * t + 4 * self.b * t**3
        dP = 2 * self._a2 + 12 * self.b * t**2
        return self._c**2 * (1 + t**2) * (dP * (1 + t**2) + 2 * t * P)

    def d3h(self, phi):
        phi = np.asarray(phi) * 1.0
        if self.family == "quadratic":
            return np.zeros_like(phi)
        t = np.tan(self._c * phi)
        P = 2 * self._a2 * t + 4 * self.b * t**3
        dP = 2 * self._a2 + 12 * self.b * t**2
        ddP = 24 * self.b * t
        inner = dP * (1 + t**2) + 2 * t * P
        return self._c**3 * (1 + t**2) * (
            2 * t * inner + (1 + t**2) * (ddP * (1 + t**2) + 4 * t * dP + 2 * P)
        )

    def with_stiffness(self, c2):
        """Same family and range, different curvature at the origin."""
        return dataclasses.replace(self, c2=float(c2))


@dataclass(frozen=True)
class ChainParams:
    """Constants of the double-pendulum chain.

    M, R:  outer bob mass and beam length
    m, r:  inner (tip) bob mass and beam length
    kappa_t, kappa_s: torsional / stacking spring constants
    g: gravity, delta: lattice spacing, h_spec: confining potential
    topology: 'open' or 'periodic' neighbor coupling
    """

    M: float
    m: float
    R: float
    r: float
    kappa_t: float
    kappa_s: float
    g: float
    delta: float
    h_spec: ConfiningPotential = ConfiningPotential()
    topology: str = "open"

    def __post_init__(self):
        _require_finite(self)
        if not self.M > 0:
            raise ValueError("M must be positive")
        if self.m < 0 or self.r < 0 or self.R < 0:
            raise ValueError("m, r, R must be nonnegative")
        if self.r > 0 and not self.m > 0:
            # massless second bob on a finite beam has a singular mass matrix
            raise ValueError("r > 0 requires m > 0")
        if self.kappa_t < 0 or self.kappa_s < 0 or self.g < 0:
            raise ValueError("kappa_t, kappa_s, g must be nonnegative")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.topology not in ("open", "periodic"):
            raise ValueError("topology must be 'open' or 'periodic'")

    @property
    def Ks(self):
        return self.kappa_s * self.delta**2

    @property
    def Kt(self):
        return self.kappa_t * self.delta**2

    def require_dynamic(self):
        """Raise unless the configuration supports full 2-angle dynamics."""
        if self.R == 0:
            raise ValueError("R = 0: dynamics not defined for this operation")


@dataclass(frozen=True)
class ExpansionParams:
    """Base-state constants and series coefficients of the expansion."""

    A: float
    Mhat: float
    Khat: float
    g: float
    eps: float = 0.0
    r1: float = 0.0
    r2: float = 0.0
    m1: float = 0.0
    m2: float = 0.0
    k1: float = 0.0
    k2: float = 0.0
    v0: float = 0.0
    v1: float = 0.0
    v2: float = 0.0
    h_spec: ConfiningPotential = field(default_factory=ConfiningPotential)

    def __post_init__(self):
        _require_finite(self)
        for name in ("A", "Mhat", "Khat", "g"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")

    def series(self, eps: Optional[float] = None):
        """Bare series values (r, m, K_t, K_s, v) at eps (default self.eps),
        also at eps < 0, where no ChainParams represents them."""
        e = self.eps if eps is None else eps
        r = e * self.r1 + e * e * self.r2
        m = e * self.m1 + e * e * self.m2
        Kt = e * self.k1 + e * e * self.k2
        return (r, m, Kt, self.Khat - Kt,
                self.v0 + e * self.v1 + e * e * self.v2)

    def speed(self, eps: Optional[float] = None) -> float:
        return self.series(eps)[4]

    def to_chain_params(self, eps: Optional[float] = None,
                        delta: float = 1.0) -> ChainParams:
        r, m, Kt, Ks, _ = self.series(eps)
        return ChainParams(M=self.Mhat - m, m=m, R=self.A - r, r=r,
                           kappa_t=Kt / delta**2, kappa_s=Ks / delta**2,
                           g=self.g, delta=delta, h_spec=self.h_spec)


def _kink(u):
    """(4 arctan(exp(u)), sech(u)) of the unit sine-Gordon kink, via the
    mirrored form 4 arctan(exp(-|u|)): tails stay exact and nothing
    overflows, where composing arctan(exp(u)) saturates."""
    e = np.exp(-np.abs(u))
    half = 4.0 * np.arctan(e)
    return np.where(u <= 0.0, half, 2.0 * np.pi - half), 2.0 * e / (1.0 + e * e)


def _moving_kink(x, k, v, center=None, index=1):
    """(index vartheta0(k (x - center)), its time derivative at speed v) on x;
    center defaults to the middle of x."""
    if center is None:
        center = 0.5 * (x[0] + x[-1])
    base, sech = _kink(k * (x - center))
    return index * base, index * (-v) * 2.0 * k * sech


def _inertia(phi, r, R):
    """(r^2 alpha, r^2 beta) = (r (r + R cos phi), r^2 + R^2 + 2 r R cos phi),
    the phi-dependent inertia products of the chain; finite at r = 0."""
    c = np.cos(phi)
    return r * (r + R * c), r * r + R * R + 2 * r * R * c


def _coefficients(c_outer, c_inner, phi, r, R):
    """(c11, c12, c22) = (c_outer + c_inner r^2 beta, c_inner r^2 alpha,
    c_inner r^2), the symmetric matrix C(c_outer, c_inner; phi) of the chain
    with the products of _inertia. (M R^2, m) gives the mass matrix, (K_t,
    K_s) the gradient stiffness, tw_coefficients the travelling-wave
    operator. Bare coefficients, so eps < 0 needs no ChainParams."""
    r2a, r2b = _inertia(phi, r, R)
    return c_outer + c_inner * r2b, c_inner * r2a, c_inner * r * r


def _quadratic(c_outer, c_inner, phi, r, R, x, y):
    """1/2 (x, y) C (x, y)^T for the C of _coefficients: kinetic energy,
    gradient energy, or minus the travelling-wave slope energy."""
    c11, c12, c22 = _coefficients(c_outer, c_inner, phi, r, R)
    return 0.5 * c11 * x**2 + 0.5 * c22 * y**2 + c12 * x * y


def _pendant(theta, phi, M, m, R, r, g):
    """g ((M + m) R cos theta + m r cos(phi + theta)); the gravity energy
    is _pendant(0, 0, ...) - _pendant(theta, phi, ...)."""
    return g * ((M + m) * R * np.cos(theta) + m * r * np.cos(phi + theta))


def _field_equations(theta, phi, theta_d, phi_d, theta_dd, phi_dd,
                     c_outer, c_inner, params: ChainParams):
    """The chain's two field equations, the one copy every layer calls.

    With ' the caller's spatial derivative and c11, c12, c22 the entries of
    C(c_outer, c_inner; phi) of _coefficients:
        F1 = c12 phi'' + c11 theta''
             - c_inner r R phi' (phi' + 2 theta') sin(phi)
             - g (R (M + m) sin(theta) + m r sin(phi + theta))
        F2 = c22 phi'' + c12 theta'' - h'(phi)
             + c_inner r R theta'^2 sin(phi) - m g r sin(phi + theta)
    The PDE (' = d/dx) takes (c_outer, c_inner) = (K_t, K_s) and reads
    M(Phi) (Theta_tt, Phi_tt) = (F1, F2) + m r R sin(Phi) (Phi_t (Phi_t +
    2 Theta_t), -Theta_t^2). The travelling wave (z = x - v t, ' = d/dz,
    d/dt = -v d/dz) takes travelwave.tw_coefficients (K_t - M R^2 v^2, mu =
    K_s - m v^2) and solves F1 = F2 = 0; the frozen limit is that at phi = 0.

    Every term is complex-analytic in the six fields: no float cast, abs or
    comparison touches them, so travelwave._jacobian_blocks differentiates
    this function by complex step, Im F(u + i h e_k) / h with h = 2**-100.
    """
    M, m, R, r, g = params.M, params.m, params.R, params.r, params.g
    s = np.sin(phi)
    c11, c12, c22 = _coefficients(c_outer, c_inner, phi, r, R)
    F1 = (c12 * phi_dd + c11 * theta_dd
          - c_inner * r * R * phi_d * (phi_d + 2 * theta_d) * s
          - g * (R * (M + m) * np.sin(theta) + m * r * np.sin(phi + theta)))
    F2 = (c22 * phi_dd + c12 * theta_dd - params.h_spec.dh(phi)
          + c_inner * r * R * theta_d**2 * s
          - m * g * r * np.sin(phi + theta))
    return F1, F2
