"""Physical parameters of the open chain, the confining-potential families,
the constants of the eps expansion, the unit kink profile every layer seeds
from (_kink) and its one record of slopes (_kink_slopes, a KinkArrays), and
the kernels every layer shares: the phi-only factors (_phi_factors), the
coefficient matrix C(phi) (_coefficients) with its quadratic form
(_quadratic), the gravity term (_pendant) and the field equations, which
read one record of constants (WaveConstants of _wave_constants)."""
from __future__ import annotations

import dataclasses
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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


@dataclass(frozen=True)
class ChainParams:
    """Constants of the double-pendulum chain.

    M, R:  outer bob mass and beam length
    m, r:  inner (tip) bob mass and beam length
    kappa_t, kappa_s: torsional / stacking spring constants
    g: gravity, delta: lattice spacing, h_spec: confining potential
    Bond i joins sites i and i + 1 only: the chain is open.
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

    @property
    def Ks(self):
        return self.kappa_s * self.delta**2

    @property
    def Kt(self):
        return self.kappa_t * self.delta**2

    def wave_constants(self, v) -> WaveConstants:
        """The constants of _field_equations for a wave of speed v; at
        v = 0.0 its coefficients are (K_t, K_s) bit for bit, the PDE's."""
        return _wave_constants(v, self.Kt, self.Ks, self.M, self.m, self.R,
                               self.r, self.g, self.h_spec)

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
        """Bare series values (r, m, K_t, K_s, v, M, R) at eps (default
        self.eps), with M = Mhat - m and R = A - r; also at eps < 0, where no
        ChainParams represents them."""
        e = self.eps if eps is None else eps
        r = e * self.r1 + e * e * self.r2
        m = e * self.m1 + e * e * self.m2
        Kt = e * self.k1 + e * e * self.k2
        return (r, m, Kt, self.Khat - Kt,
                self.v0 + e * self.v1 + e * e * self.v2,
                self.Mhat - m, self.A - r)

    def speed(self, eps: Optional[float] = None) -> float:
        return self.series(eps)[4]

    def wave_constants(self, eps) -> WaveConstants:
        """The constants of _field_equations at eps, also complex or < 0; at
        real eps >= 0, to_chain_params(eps).wave_constants(speed(eps))."""
        r, m, Kt, Ks, v, M, R = self.series(eps)
        return _wave_constants(v, Kt, Ks, M, m, R, r, self.g, self.h_spec)

    def to_chain_params(self, eps: Optional[float] = None,
                        delta: float = 1.0) -> ChainParams:
        r, m, Kt, Ks, _, M, R = self.series(eps)
        return ChainParams(M=M, m=m, R=R, r=r,
                           kappa_t=Kt / delta**2, kappa_s=Ks / delta**2,
                           g=self.g, delta=delta, h_spec=self.h_spec)


# The constants _field_equations reads: the coefficients (c_outer, c_inner)
# of C(phi), the chain's masses, lengths and gravity, and its confinement;
# bare numbers, complex where the eps expansion continues them.
WaveConstants = namedtuple("WaveConstants", "c_outer c_inner M m R r g h_spec")


def _wave_constants(v, Kt, Ks, M, m, R, r, g, h_spec) -> WaveConstants:
    """WaveConstants of a wave of speed v: (c_outer, c_inner) = (K_t - M R^2
    v^2, mu = K_s - m v^2); the PDE is v = 0."""
    return WaveConstants(Kt - M * R**2 * v**2, Ks - m * v * v, M, m, R, r, g,
                         h_spec)


def _kink(u):
    """(4 arctan(exp(u)), sech(u)) of the unit sine-Gordon kink, via the
    mirrored form 4 arctan(exp(-|u|)): tails stay exact and nothing
    overflows, where composing arctan(exp(u)) saturates."""
    e = np.exp(-np.abs(u))
    half = 4.0 * np.arctan(e)
    return np.where(u <= 0.0, half, 2.0 * np.pi - half), 2.0 * e / (1.0 + e * e)


class KinkArrays(NamedTuple):
    theta0: np.ndarray
    theta0_z: np.ndarray
    theta0_zz: np.ndarray
    sin_theta0: np.ndarray
    cos_theta0: np.ndarray


def _kink_slopes(z, k) -> KinkArrays:
    """KinkArrays of theta0(z) = 4 arctan(exp(k z)) by _kink: theta0' =
    2 k sech, theta0'' = -2 k^2 sech tanh, sin theta0 = -2 tanh sech and
    cos theta0 = 1 - 2 sech^2 at k z, with no trig of an arctan. The one copy
    travelwave.kink_profile and perturbation.sg_kink build from."""
    u = k * z
    theta, sech = _kink(u)
    tanh = np.tanh(u)
    return KinkArrays(theta, 2.0 * k * sech, -2.0 * k * k * sech * tanh,
                      -2.0 * tanh * sech, 1.0 - 2.0 * sech * sech)


def _moving_kink(x, k, v, center=None):
    """(vartheta0(k (x - center)), its time derivative at speed v) on x;
    center defaults to the middle of x."""
    if center is None:
        center = 0.5 * (x[0] + x[-1])
    base, sech = _kink(k * (x - center))
    return base, -v * 2.0 * k * sech


def _inertia(phi, r, R):
    """(r^2 alpha, r^2 beta) = (r (r + R cos phi), r^2 + R^2 + 2 r R cos phi),
    the phi-dependent inertia products of the chain; finite at r = 0."""
    c = np.cos(phi)
    return r * (r + R * c), r * r + R * R + 2 * r * R * c


_PhiFactors = namedtuple("_PhiFactors", "sin r2a r2b")  # see _phi_factors


def _phi_factors(phi, r, R):
    """The phi-only factors of _field_equations and of C(phi). A PDE stage or
    lattice force takes them once and hands them on, as the phi of
    _coefficients and the mass solve and the factors of _field_equations."""
    return _PhiFactors(np.sin(phi), *_inertia(phi, r, R))


def _coefficients(c_outer, c_inner, phi, r, R):
    """(c11, c12, c22) = (c_outer + c_inner r^2 beta, c_inner r^2 alpha,
    c_inner r^2), the symmetric matrix C(c_outer, c_inner; phi) of the chain
    with the products of _inertia, or of phi if it is _phi_factors. M R^2, m
    give the mass matrix, K_t, K_s the gradient stiffness, WaveConstants
    the travelling-wave operator; bare, so eps < 0 needs no ChainParams."""
    r2a, r2b = phi[1:] if isinstance(phi, _PhiFactors) else _inertia(phi, r, R)
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
                     c: WaveConstants, factors=None):
    """The chain's two field equations, the one copy every layer calls.

    With ' the caller's spatial derivative and c11, c12, c22 the entries of
    C(c_outer, c_inner; phi) of _coefficients:
        F1 = c12 phi'' + c11 theta''
             - c_inner r R phi' (phi' + 2 theta') sin(phi)
             - g (R (M + m) sin(theta) + m r sin(phi + theta))
        F2 = c22 phi'' + c12 theta'' - h'(phi)
             + c_inner r R theta'^2 sin(phi) - m g r sin(phi + theta)
    The PDE (' = d/dx) takes c = ChainParams.wave_constants(0.0), (K_t, K_s),
    and reads M(Phi) (Theta_tt, Phi_tt) = (F1, F2) + m r R sin(Phi) (Phi_t
    (Phi_t + 2 Theta_t), -Theta_t^2). The travelling wave (z = x - v t,
    ' = d/dz, d/dt = -v d/dz) takes wave_constants(v) and solves F1 = F2 = 0;
    the frozen limit is that at phi = 0.

    Every term is complex-analytic in the six fields: no float cast, abs or
    comparison touches them, so travelwave._jacobian_blocks takes its
    complex step Im F(u + i h e_k) / h, h = _stencils.COMPLEX_STEP.
    """
    c_outer, c_inner, M, m, R, r, g = c[:7]
    factors = _phi_factors(phi, r, R) if factors is None else factors
    s, spt = factors.sin, np.sin(phi + theta)
    c11, c12, c22 = _coefficients(c_outer, c_inner, factors, r, R)
    F1 = (c12 * phi_dd + c11 * theta_dd
          - c_inner * r * R * phi_d * (phi_d + 2 * theta_d) * s
          - g * (R * (M + m) * np.sin(theta) + m * r * spt))
    F2 = (c22 * phi_dd + c12 * theta_dd - c.h_spec.dh(phi)
          + c_inner * r * R * theta_d**2 * s - m * g * r * spt)
    return F1, F2
