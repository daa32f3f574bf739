"""Energy functionals on the space of Kahler potentials.

Measure conventions, used consistently by every functional here (this is
the single constants table; nothing else in the package converts
measures):

    volume density    chi^n / n!            ->  det(chi) * weights
    mixed density     A ^ chi^(n-1) / (n-1)! ->  tr(chi^{-1} A) det(chi) * weights

Every path functional integrates phi_dot against a density along the
same piecewise-linear route from 0 to phi, so one walk per potential
gives the path moments M_vol = int phi_dot vol_t, M_theta = int phi_dot
theta_t vol_t and, for each form A, M_mixed(A) = int phi_dot mixed(A)_t.
Each functional is a fixed combination (c(A) is the level constant):

    J                 = int phi vol_0 - M_vol
    (I - J) by path   = M_mixed(chi_0) - n M_vol
    j_hat(omega)      = M_mixed(omega) - n c(omega) M_vol
    theta_path_term   = M_theta
    j_tilde, j_flow   = j_hat + M_theta, j_hat - M_theta
    mu, mu_tilde      = entropy + j_hat(-Ric chi_0), mu + M_theta

The walk uses one Gauss-Lobatto rule per segment.  Along a linear
segment every integrand is a polynomial in t of degree at most n + 1,
and the k = ceil((n + 4) / 2) node rule is exact to degree
2k - 3 >= n + 1, so the quadrature is exact in every dimension and the
only discretization error is spatial.  For n <= 2 the rule is Simpson's
3-node rule.  The rule keeps both segment ends, and chi_t is affine in
t, so checking each node through ``backend.metric`` (finite and
positive) covers the whole path.  Every functional here works on the
backend's raw metric, as the flow kernel does; each form's shape is
checked against the grid once, by ``backend.raw_form``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .fields import GeometryError, HermitianFormField, ScalarField
from .geometry import (
    GeometryBackend,
    build_metric,
    integrate,
    ricci_form,
    theta_of,
    trace_with,
    volume,
)

# Discrete Jensen guard: entropy of equal-mass measures cannot go below
# zero by more than round-off.
ENTROPY_FLOOR = -1e-8


@lru_cache(maxsize=None)
def _lobatto_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto nodes and weights on [0, 1], exact to degree n + 1."""
    k = -(-(n + 4) // 2)
    p = np.polynomial.legendre.Legendre.basis(k - 1)
    x = np.concatenate([[-1.0], np.sort(p.deriv().roots().real), [1.0]])
    w = 2.0 / (k * (k - 1) * p(x) ** 2)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    # Cached and shared between callers, so frozen.
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _path_moments(backend: GeometryBackend, phi, forms=(), waypoints=None,
                  theta: bool = True) -> tuple[float, float | None, list[float]]:
    """(M_vol, M_theta, [M_mixed(A) for A in forms]) along the route to phi.

    One walk: each segment is sampled at the Gauss-Lobatto nodes, one
    checked raw metric per node serves every moment, and nodes are
    accumulated in a fixed order so results are deterministic.  With
    theta=False the walk skips theta_t and M_theta is None; each moment
    is reduced on its own, so the others do not change.
    """
    route = [np.zeros(backend.grid_shape)]
    route += [backend.check_field(w, "waypoint")
              for w in (() if waypoints is None else waypoints)]
    route.append(backend.check_field(phi, "potential"))
    oms = [backend.raw_form(form) for form in forms]
    t_nodes, coeff = _lobatto_rule(backend.n)
    total = np.zeros(1 + theta + len(oms))
    for phi_a, phi_b in zip(route[:-1], route[1:]):
        rate = phi_b - phi_a
        for t, ck in zip(t_nodes, coeff):
            phi_t = phi_a + t * rate
            chi_t = backend.metric(phi_t, "path quadrature node")
            vol = backend.det(chi_t)
            rows = [vol, backend.theta(phi_t) * vol] if theta else [vol]
            dens = np.stack(rows + [backend.trace(chi_t, om) * vol
                                    for om in oms])
            total += ck * np.sum(rate * dens * backend.weights,
                                 axis=tuple(range(1, dens.ndim)))
    m_theta = float(total[1]) if theta else None
    return float(total[0]), m_theta, [float(m) for m in total[1 + theta:]]


def _j_hat_of(backend: GeometryBackend, omega, m_vol: float,
              m_mixed: float) -> float:
    return m_mixed - backend.n * level_constant(backend, omega) * m_vol


def _j_of(backend: GeometryBackend, phi, m_vol: float) -> float:
    values = backend.check_field(phi, "potential")
    vol0 = backend.base_form().det()
    return float(np.sum(values * vol0 * backend.weights)) - m_vol


def level_constant(backend: GeometryBackend, omega,
                   chi: HermitianFormField | None = None) -> float:
    """Class ratio of omega against the reference class.

    Computed as the mean of tr(chi^{-1} omega) over the chi volume,
    divided by n; independent of the class representative chi up to
    quadrature error.
    """
    chi = backend.raw_form(backend.base_form() if chi is None
                           else chi.require_kahler("level constant"))
    density = backend.raw_volume_density(chi)
    numerator = float(np.sum(backend.trace(chi, backend.raw_form(omega))
                             * density))
    return numerator / (backend.n * float(np.sum(density)))


@dataclass(frozen=True)
class AubinEnergies:
    """I, J, and the two routes to I - J (direct and path formula)."""

    I: float
    J: float
    i_minus_j: float
    i_minus_j_path: float

    @property
    def path_defect(self) -> float:
        return abs(self.i_minus_j - self.i_minus_j_path)


def aubin_i(backend: GeometryBackend, phi) -> float:
    values = backend.check_field(phi, "potential")
    chi = backend.metric(values, "aubin energies")
    diff = backend.base_form().det() - backend.det(chi)
    return float(np.sum(values * diff * backend.weights))


def aubin_j(backend: GeometryBackend, phi, waypoints=None) -> float:
    m_vol, _, _ = _path_moments(backend, phi, waypoints=waypoints,
                                theta=False)
    return _j_of(backend, phi, m_vol)


def aubin_ij(backend: GeometryBackend, phi) -> AubinEnergies:
    """I and J plus a cross-check of I - J against its path formula."""
    i_val = aubin_i(backend, phi)
    m_vol, _, (m_base,) = _path_moments(backend, phi, (backend.base_form(),),
                                        theta=False)
    j_val = _j_of(backend, phi, m_vol)
    return AubinEnergies(I=i_val, J=j_val, i_minus_j=i_val - j_val,
                         i_minus_j_path=m_base - backend.n * m_vol)


def j_hat(backend: GeometryBackend, omega, phi, waypoints=None) -> float:
    """Path integral of phi_dot (mixed(omega) - n c vol) along the route."""
    m_vol, _, (m_om,) = _path_moments(backend, phi, (omega,), waypoints,
                                      theta=False)
    return _j_hat_of(backend, omega, m_vol, m_om)


def theta_path_term(backend: GeometryBackend, phi, waypoints=None) -> float:
    """Path integral of phi_dot theta(chi_t) dV_t, the symmetry coupling."""
    return _path_moments(backend, phi, waypoints=waypoints)[1]


def j_tilde(backend: GeometryBackend, omega, phi, waypoints=None) -> float:
    """j_hat plus the symmetry coupling term (equals j_hat when X = 0)."""
    m_vol, m_theta, (m_om,) = _path_moments(backend, phi, (omega,), waypoints)
    return _j_hat_of(backend, omega, m_vol, m_om) + m_theta


def j_flow(backend: GeometryBackend, omega, phi, waypoints=None) -> float:
    """Descent potential of the flow: j_hat minus the coupling term.

    Its critical points satisfy trace equation = n c + theta, i.e. the
    stationary states of the flow; it decreases along trajectories.
    Coincides with j_tilde when the vector field vanishes.
    """
    m_vol, m_theta, (m_om,) = _path_moments(backend, phi, (omega,), waypoints)
    return _j_hat_of(backend, omega, m_vol, m_om) - m_theta


def entropy(backend: GeometryBackend, phi) -> float:
    values = backend.check_field(phi, "potential")
    vol = backend.det(backend.metric(values, "entropy"))
    ratio = vol / backend.base_form().det()
    val = float(np.sum(np.log(ratio) * vol * backend.weights))
    if val < ENTROPY_FLOOR:
        # Total volumes agree exactly on both backends, so Jensen bounds
        # the discrete value below by zero up to round-off.
        raise GeometryError(f"entropy {val:.3e} violates the Jensen floor")
    return val


def k_energy(backend: GeometryBackend, phi) -> float:
    return k_energy_modified(backend, phi)[0]


def k_energy_modified(backend: GeometryBackend, phi) -> tuple[float, float]:
    """(mu, mu_tilde): entropy plus j_hat / j_tilde against -Ric(chi0)."""
    omega0 = -ricci_form(backend, backend.base_form())
    m_vol, m_theta, (m_ric,) = _path_moments(backend, phi, (omega0,))
    mu = entropy(backend, phi) + _j_hat_of(backend, omega0, m_vol, m_ric)
    return mu, mu + m_theta


def sigma_energy(backend: GeometryBackend, phi,
                 omega) -> tuple[ScalarField, float]:
    """sigma = theta(chi_phi) - tr(chi_phi^{-1} omega) and E = int sigma^2 dV."""
    values = backend.check_field(phi, "potential")
    om = backend.raw_form(omega)
    chi = backend.metric(values, "sigma energy")
    sigma = backend.theta(values) - backend.trace(chi, om)
    return sigma, backend.integral(sigma * sigma, chi)


def extremal_residual(backend: GeometryBackend, phi) -> ScalarField:
    """tr(chi^{-1} Ric) - mean - theta: the first variation density of mu_tilde.

    The curvature trace here is the complex trace (one eigenvalue sum,
    not its real-geometry double), which is the normalization that makes
    the directional derivative of k_energy_modified equal to minus the
    pairing with this residual.
    """
    values = backend.check_field(phi, "potential")
    chi = build_metric(backend, backend.base_form(), values)
    chi.require_kahler("extremal residual")
    curv = trace_with(chi, ricci_form(backend, chi))
    mean = integrate(backend, curv, chi) / volume(backend, chi)
    return curv - mean - theta_of(backend, values)


def scalar_curvature(backend: GeometryBackend, chi: HermitianFormField) -> ScalarField:
    """Riemannian scalar curvature, twice the complex curvature trace."""
    return 2.0 * trace_with(chi, ricci_form(backend, chi))


@dataclass(frozen=True)
class FunctionalReport:
    c: float
    I: float
    J: float
    j_hat: float
    j_tilde: float
    entropy: float
    k_energy: float
    k_energy_modified: float
    E: float

    def to_dict(self) -> dict:
        return asdict(self)


def functional_report(backend: GeometryBackend, phi, omega,
                      c: float | None = None) -> FunctionalReport:
    """Evaluate the full functional family at one potential, in one walk."""
    values = backend.check_field(phi, "potential")
    omega0 = -ricci_form(backend, backend.base_form())
    m_vol, m_theta, (m_om, m_ric) = _path_moments(backend, values,
                                                  (omega, omega0))
    jh = _j_hat_of(backend, omega, m_vol, m_om)
    ent = entropy(backend, values)
    mu = ent + _j_hat_of(backend, omega0, m_vol, m_ric)
    _, e_val = sigma_energy(backend, values, omega)
    return FunctionalReport(
        c=level_constant(backend, omega) if c is None else float(c),
        I=aubin_i(backend, values),
        J=_j_of(backend, values, m_vol),
        j_hat=jh,
        j_tilde=jh + m_theta,
        entropy=ent,
        k_energy=mu,
        k_energy_modified=mu + m_theta,
        E=e_val,
    )
