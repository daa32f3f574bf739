"""Energy functionals on the space of Kahler potentials.

Measure conventions, used consistently by every functional here (this is
the single constants table; nothing else in the package converts
measures):

    volume density    chi^n / n!             ->  chi * weights
    mixed density     A ^ chi^(n-1) / (n-1)! ->  trace(chi, A) chi * weights

On the one-dimensional geometries (n = 1) a form is its density, so
det(chi) is chi itself and tr(chi^{-1} A) is ``backend.trace(chi, A)``,
A / chi; ``backend.raw_volume_density`` and ``backend.integral`` apply
the weights.

Every path functional integrates phi_dot against a density along the
same piecewise-linear route from 0 to phi, so one walk gives the path
moments M_vol = int phi_dot vol_t, M_theta = int phi_dot theta_t vol_t
and, for each form A, M_mixed(A) = int phi_dot mixed(A)_t.  The walk
takes a stack of potentials on a leading axis and walks all of them in
one stacked pass, as ``convexity_probe`` does with a path's nodes; each
public functional is the one-row case of its stacked form.  Each
functional is a fixed combination (c(A) is the level constant):

    J                 = int phi vol_0 - M_vol
    (I - J) by path   = M_mixed(chi_0) - n M_vol
    j_hat(omega)      = M_mixed(omega) - n c(omega) M_vol
    theta_path_term   = M_theta
    j_tilde, j_flow   = j_hat + M_theta, j_hat - M_theta
    mu, mu_tilde      = entropy + j_hat(-Ric chi_0), mu + M_theta

The walk uses Simpson's rule on each segment.  On the one-dimensional
geometries chi_t is affine in t along a linear segment, so every
integrand is a polynomial in t of degree at most 2, Simpson's rule
integrates it exactly, and the only discretization error is spatial.
The rule keeps both segment ends, so checking each node through
``backend.metric`` (finite and positive) covers the whole path.  Every
functional here, ``extremal_residual`` and ``scalar_curvature``
included, works on the backend's raw metric, as the flow kernel does;
each form's shape is checked against the grid once, by
``backend.raw_form``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fields import GeometryError, HermitianFormField, ScalarField
from .geometry import GeometryBackend

# Discrete Jensen guard: entropy of equal-mass measures cannot go below
# zero by more than round-off.
ENTROPY_FLOOR = -1e-8
# Simpson's rule on [0, 1]: the nodes of each path segment and their weights.
SIMPSON_NODES = (0.0, 0.5, 1.0)
SIMPSON_WEIGHTS = (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0)


def _stack(backend: GeometryBackend, phi) -> np.ndarray:
    """One potential, checked against the grid, as a stack of one row."""
    return backend.check_field(phi, "potential")[None]


def _grid_sum(values: np.ndarray) -> np.ndarray:
    """The sum over the trailing grid axis: one value per leading index."""
    return np.sum(values, axis=-1)


def _one_row(rows, backend: GeometryBackend, phi, *args) -> float:
    """The stacked functional ``rows(backend, phis, *args)`` at one phi."""
    return float(rows(backend, _stack(backend, phi), *args)[0])


def _path_moments(backend: GeometryBackend, phis: np.ndarray, forms=(),
                  waypoints=None, theta: bool = True
                  ) -> tuple[np.ndarray, np.ndarray | None, list[np.ndarray]]:
    """(M_vol, M_theta, [M_mixed(A) for A in forms]) along the route to
    each row of phis, a stack of potentials on a leading axis; each
    moment holds one value per row.

    A path is walked in one stacked pass: each segment is sampled at the
    Simpson nodes, one checked raw metric of the whole stack per
    node serves every moment of every row, and nodes are accumulated in
    a fixed order.  Each row gets the bits it would get alone, so the
    results are deterministic and do not depend on the stack.  The
    waypoints are shared by every row.  With theta=False the walk skips
    theta_t and M_theta is None; each moment is reduced on its own, so
    the others do not change.
    """
    route = [np.zeros((1,) + backend.grid_shape)]
    route += [backend.check_field(w, "waypoint")[None]
              for w in (() if waypoints is None else waypoints)]
    route.append(phis)
    oms = [backend.raw_form(form) for form in forms]
    total = np.zeros((1 + theta + len(oms), len(phis)))
    for phi_a, phi_b in zip(route[:-1], route[1:]):
        rate = phi_b - phi_a
        for t, ck in zip(SIMPSON_NODES, SIMPSON_WEIGHTS):
            phi_t = phi_a + t * rate
            # a one-dimensional metric is its own volume density
            if theta:
                chi_t, theta_t = backend.stage(phi_t, "path quadrature node")
                rows = [chi_t, theta_t * chi_t]
            else:
                chi_t = backend.metric(phi_t, "path quadrature node")
                rows = [chi_t]
            dens = np.stack(rows + [backend.trace(chi_t, om) * chi_t
                                    for om in oms])
            total += ck * _grid_sum(rate * dens * backend.weights)
    return total[0], total[1] if theta else None, list(total[1 + theta:])


def _j_hat_of(backend: GeometryBackend, omega, m_vol, m_mixed):
    return m_mixed - backend.n * level_constant(backend, omega) * m_vol


def _j_of(backend: GeometryBackend, phis: np.ndarray, m_vol) -> np.ndarray:
    return _grid_sum(phis * backend._base_raw * backend.weights) - m_vol


def level_constant(backend: GeometryBackend, omega,
                   chi: HermitianFormField | None = None) -> float:
    """Class ratio of omega against the reference class.

    Computed as the mean of tr(chi^{-1} omega) over the chi volume,
    divided by n; independent of the class representative chi up to
    quadrature error.
    """
    chi = backend.raw_form(backend.base_form() if chi is None
                           else chi.require_kahler("level constant"))
    numerator = backend.integral(backend.trace(chi, backend.raw_form(omega)), chi)
    return numerator / (backend.n * backend.integral(1.0, chi))


class AubinEnergies(NamedTuple):
    """I, J, and the two routes to I - J (direct and path formula)."""

    I: float
    J: float
    i_minus_j: float
    i_minus_j_path: float

    @property
    def path_defect(self) -> float:
        return abs(self.i_minus_j - self.i_minus_j_path)


# Each functional below is written once, on a stack of potentials
# (``_*_rows``); the public function is its one-row case.

def _aubin_i_rows(backend: GeometryBackend, phis: np.ndarray) -> np.ndarray:
    diff = backend._base_raw - backend.metric(phis, "aubin energies")
    return _grid_sum(phis * diff * backend.weights)


def aubin_i(backend: GeometryBackend, phi) -> float:
    return _one_row(_aubin_i_rows, backend, phi)


def _aubin_j_rows(backend: GeometryBackend, phis: np.ndarray,
                  waypoints=None) -> np.ndarray:
    m_vol, _, _ = _path_moments(backend, phis, waypoints=waypoints,
                                theta=False)
    return _j_of(backend, phis, m_vol)


def aubin_j(backend: GeometryBackend, phi, waypoints=None) -> float:
    return _one_row(_aubin_j_rows, backend, phi, waypoints)


def aubin_ij(backend: GeometryBackend, phi) -> AubinEnergies:
    """I and J plus a cross-check of I - J against its path formula."""
    phis = _stack(backend, phi)
    i_val = float(_aubin_i_rows(backend, phis)[0])
    m_vol, _, (m_base,) = _path_moments(backend, phis, (backend.base_form(),),
                                        theta=False)
    j_val = float(_j_of(backend, phis, m_vol)[0])
    return AubinEnergies(I=i_val, J=j_val, i_minus_j=i_val - j_val,
                         i_minus_j_path=float(m_base[0] - backend.n * m_vol[0]))


def _j_hat_rows(backend: GeometryBackend, phis: np.ndarray, omega,
                waypoints=None) -> np.ndarray:
    m_vol, _, (m_om,) = _path_moments(backend, phis, (omega,), waypoints,
                                      theta=False)
    return _j_hat_of(backend, omega, m_vol, m_om)


def j_hat(backend: GeometryBackend, omega, phi, waypoints=None) -> float:
    """Path integral of phi_dot (mixed(omega) - n c vol) along the route."""
    return _one_row(_j_hat_rows, backend, phi, omega, waypoints)


def theta_path_term(backend: GeometryBackend, phi, waypoints=None) -> float:
    """Path integral of phi_dot theta(chi_t) dV_t, the symmetry coupling."""
    return float(_path_moments(backend, _stack(backend, phi),
                               waypoints=waypoints)[1][0])


def _j_tilde_rows(backend: GeometryBackend, phis: np.ndarray, omega,
                  waypoints=None) -> np.ndarray:
    m_vol, m_theta, (m_om,) = _path_moments(backend, phis, (omega,), waypoints)
    return _j_hat_of(backend, omega, m_vol, m_om) + m_theta


def j_tilde(backend: GeometryBackend, omega, phi, waypoints=None) -> float:
    """j_hat plus the symmetry coupling term (equals j_hat when X = 0)."""
    return _one_row(_j_tilde_rows, backend, phi, omega, waypoints)


def _j_flow_rows(backend: GeometryBackend, phis: np.ndarray, omega,
                 waypoints=None) -> np.ndarray:
    m_vol, m_theta, (m_om,) = _path_moments(backend, phis, (omega,), waypoints)
    return _j_hat_of(backend, omega, m_vol, m_om) - m_theta


def j_flow(backend: GeometryBackend, omega, phi, waypoints=None) -> float:
    """Descent potential of the flow: j_hat minus the coupling term.

    Its critical points satisfy trace equation = n c + theta, i.e. the
    stationary states of the flow; it decreases along trajectories.
    Coincides with j_tilde when the vector field vanishes.
    """
    return _one_row(_j_flow_rows, backend, phi, omega, waypoints)


def _entropy_rows(backend: GeometryBackend, phis: np.ndarray) -> np.ndarray:
    vol = backend.metric(phis, "entropy")
    ratio = vol / backend._base_raw
    val = _grid_sum(np.log(ratio) * vol * backend.weights)
    if val.min() < ENTROPY_FLOOR:
        # Total volumes agree exactly on both backends, so Jensen bounds
        # the discrete value below by zero up to round-off.
        raise GeometryError(
            f"entropy {val.min():.3e} violates the Jensen floor")
    return val


def entropy(backend: GeometryBackend, phi) -> float:
    return _one_row(_entropy_rows, backend, phi)


def _k_energy_rows(backend: GeometryBackend,
                   phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    omega0 = -backend.ricci_form(backend.base_form())
    m_vol, m_theta, (m_ric,) = _path_moments(backend, phis, (omega0,))
    mu = _entropy_rows(backend, phis) + _j_hat_of(backend, omega0, m_vol, m_ric)
    return mu, mu + m_theta


def k_energy(backend: GeometryBackend, phi) -> float:
    return k_energy_modified(backend, phi)[0]


def k_energy_modified(backend: GeometryBackend, phi) -> tuple[float, float]:
    """(mu, mu_tilde): entropy plus j_hat / j_tilde against -Ric(chi0)."""
    mu, mu_tilde = _k_energy_rows(backend, _stack(backend, phi))
    return float(mu[0]), float(mu_tilde[0])


def sigma_energy(backend: GeometryBackend, phi,
                 omega) -> tuple[ScalarField, float]:
    """sigma = theta(chi_phi) - tr(chi_phi^{-1} omega) and E = int sigma^2 dV."""
    values = backend.check_field(phi, "potential")
    om = backend.raw_form(omega)
    chi, theta = backend.stage(values, "sigma energy")
    sigma = theta - backend.trace(chi, om)
    return sigma, backend.integral(sigma * sigma, chi)


def extremal_residual(backend: GeometryBackend, phi) -> ScalarField:
    """tr(chi^{-1} Ric) - mean - theta: the first variation density of mu_tilde.

    The curvature trace here is the complex trace (one eigenvalue sum,
    not its real-geometry double), which is the normalization that makes
    the directional derivative of k_energy_modified equal to minus the
    pairing with this residual.
    """
    values = backend.check_field(phi, "potential")
    chi, theta = backend.stage(values, "extremal residual")
    curv = backend.trace(chi, backend._ricci(chi))
    mean = backend.integral(curv, chi) / backend.integral(1.0, chi)
    return curv - mean - theta


def scalar_curvature(backend: GeometryBackend, chi: HermitianFormField) -> ScalarField:
    """Riemannian scalar curvature, twice the complex curvature trace."""
    rho = backend.raw_form(chi.require_kahler("scalar curvature"))
    return 2.0 * backend.trace(rho, backend._ricci(rho))


class FunctionalReport(NamedTuple):
    c: float
    I: float
    J: float
    j_hat: float
    j_tilde: float
    entropy: float
    k_energy: float
    k_energy_modified: float
    E: float


def functional_report(backend: GeometryBackend, phi, omega,
                      c: float | None = None) -> FunctionalReport:
    """Evaluate the full functional family at one potential, in one walk."""
    phis = _stack(backend, phi)
    omega0 = -backend.ricci_form(backend.base_form())
    m_vol, m_theta, (m_om, m_ric) = _path_moments(backend, phis,
                                                  (omega, omega0))
    jh = _j_hat_of(backend, omega, m_vol, m_om)
    ent = _entropy_rows(backend, phis)
    mu = ent + _j_hat_of(backend, omega0, m_vol, m_ric)
    _, e_val = sigma_energy(backend, phis[0], omega)
    return FunctionalReport(
        c=level_constant(backend, omega) if c is None else float(c),
        I=float(_aubin_i_rows(backend, phis)[0]),
        J=float(_j_of(backend, phis, m_vol)[0]),
        j_hat=float(jh[0]),
        j_tilde=float(jh[0] + m_theta[0]),
        entropy=float(ent[0]),
        k_energy=float(mu[0]),
        k_energy_modified=float(mu[0] + m_theta[0]),
        E=e_val,
    )
