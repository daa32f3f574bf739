"""Independent reference computations the tests check library output against.

Everything here deliberately avoids the library's own evaluation routes:
the collocation solver replaces time integration with a direct Newton
solve, the cone oracle replaces the eigenvalue reduction with Sylvester
minors on the wedge-coefficient matrix, the quadrature oracles go
through scipy.integrate on closed-form continuum expressions, and the
path oracle integrates with 33-node composite Simpson where the library
uses one Simpson panel per segment, the flow oracle rebuilds the flow
kernel's outputs from a wrapped metric and closed forms, the torus
Hessian is inverted in Fourier space against its stencil's symbol, and
the sphere's energies and its flow limit are taken from their closed
forms in symplectic coordinates.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from jflow import build_metric, theta_of
from jflow.geometry import SphereBackend, TorusBackend


def probe_linear_operator(apply_fn, size: int) -> np.ndarray:
    """Dense matrix of a linear map on grid functions, one basis probe per column."""
    matrix = np.empty((size, size))
    for k in range(size):
        e = np.zeros(size)
        e[k] = 1.0
        matrix[:, k] = apply_fn(e)
    return matrix


def hessian_offset_potential(backend: TorusBackend,
                             density_offset: np.ndarray) -> np.ndarray:
    """Torus potential whose complex Hessian is a mean-zero density offset.

    Solves 0.25 D^2 psi = offset in Fourier space against the symbol of
    the central second difference, -(2 - 2 cos(2 pi f dx)) / dx^2, so the
    reconstruction is exact at grid level, not merely to truncation order.
    """
    assert isinstance(backend, TorusBackend)
    offset = np.asarray(density_offset, dtype=float)
    assert offset.shape == backend.grid_shape
    size, delta = backend.size, backend.delta
    mean = offset.mean()
    assert abs(mean) <= 1e-13 * max(1.0, np.abs(offset).max()), mean
    freq = np.fft.rfftfreq(size, d=delta)
    symbol = -(2.0 - 2.0 * np.cos(2.0 * np.pi * freq * delta)) / delta**2
    rhs_hat = np.fft.rfft(offset - mean)
    psi_hat = np.zeros_like(rhs_hat)
    psi_hat[1:] = rhs_hat[1:] / (0.25 * symbol[1:])
    return np.fft.irfft(psi_hat, n=size)


def sphere_collocation(backend: SphereBackend, omega_density, c: float,
                       tol: float = 1e-13, max_iter: int = 40):
    """Direct solve of the discrete critical system, no time stepping.

    Unknowns are (phi, kappa) where kappa is a level correction absorbing
    any incompatibility of the discrete system (round-off, since theta
    integrates to zero against every metric's volume):

        (c + kappa + theta0 + X phi) * (rho0 + M phi) = rho_omega,
        sum(phi * weights) = 0.

    Newton converges to round-off in a handful of iterations; returns
    (phi, kappa, final_residual).  The flow's limit metric must agree with
    rho0 + M phi, and its potential translates at rate -kappa.
    """
    size = backend.grid_shape[0]
    hess = probe_linear_operator(
        lambda e: backend.complex_hessian(e)[..., 0, 0], size)
    action = probe_linear_operator(backend.vector_field_action, size)
    theta0 = theta_of(backend, np.zeros(size))
    w = np.asarray(backend.weights, dtype=float)
    rho_omega = np.asarray(omega_density, dtype=float)
    scale = max(1.0, float(np.abs(rho_omega).max()))

    phi = np.zeros(size)
    kappa = 0.0
    residual = np.inf
    for _ in range(max_iter):
        rho_chi = backend.rho0 + hess @ phi
        level = c + kappa + theta0 + action @ phi
        defect = level * rho_chi - rho_omega
        gauge = float(w @ phi)
        residual = max(float(np.abs(defect).max()), abs(gauge))
        if residual < tol * scale:
            break
        jac = rho_chi[:, None] * action + level[:, None] * hess
        bordered = np.zeros((size + 1, size + 1))
        bordered[:size, :size] = jac
        bordered[:size, size] = rho_chi
        bordered[size, :size] = w
        update = np.linalg.solve(
            bordered, np.concatenate([-defect, [-gauge]]))
        phi = phi + update[:size]
        kappa = kappa + float(update[size])
    return phi, kappa, residual


def sphere_action(backend: SphereBackend, f: np.ndarray) -> np.ndarray:
    """X f on the sphere's moment grid in closed form: at each node the
    mean of the half-cell fluxes m'(m_(i+1/2)) (f_(i+1) - f_i) / delta on
    either side, with m' = m (1 - m) at the midpoint of the two nodes and
    no flux past the ends.  Written from the grid m and its spacing alone,
    not from the backend's stencil."""
    m, delta = backend.m, backend.delta
    mid = 0.5 * (m[1:] + m[:-1])
    flux = np.concatenate(([0.0], mid * (1.0 - mid) * np.diff(f) / delta,
                           [0.0]))
    return 0.5 * (flux[1:] + flux[:-1])


def flow_kernel_outputs(backend, omega, c: float, phi: np.ndarray) -> dict:
    """The flow's right-hand side, stiffness and monitor diagnostics at phi.

    Built from the metric density rho of ``build_metric`` alone; nothing
    after it calls the library.  A one-dimensional form is its density,
    so the trace is omega / rho, the volume density rho * weights and the
    floor constant the least rho / omega.  theta is 0 on the torus and,
    on the sphere, m - mean(m) plus X phi.  The dissipation integrand is
    in the continuum's own terms: |d sigma|^2 = (d sigma)^2 omega / rho^2,
    where d is half the derivative on the torus, taken here with np.roll,
    and X on the sphere, from ``sphere_action``.  Returns, by name, the
    stage's sigma and rhs, the stiffness, theta's maximum and the values
    of the kernel's trajectory row: E, the dissipation (the row's
    predicted dE/dt), residual, lambda_max, floor_constant, rhs_min and
    rhs_max.
    """
    chi = build_metric(backend, backend.base_form(), phi).require_kahler("oracle")
    rho, om = chi.density, omega.density
    if isinstance(backend, SphereBackend):
        def action(f):
            return sphere_action(backend, f)

        theta = (backend.m - np.mean(backend.m)) + action(phi)
    else:
        theta = np.zeros_like(phi)
    lam = om / rho
    sigma = theta - lam
    rhs = c + sigma
    dens = rho * backend.weights
    if isinstance(backend, SphereBackend):
        grad_sq = action(sigma) ** 2 * om / rho**2
        stiffness = om * backend.mprime**2 / rho**2
    else:
        half = (np.roll(sigma, -1) - np.roll(sigma, 1)) / (4.0 * backend.delta)
        grad_sq = half**2 * om / rho**2
        stiffness = 0.25 * om / rho**2
    return {
        "rhs": rhs, "sigma": sigma,
        "stiffness": float(stiffness.max()),
        "E": float(np.sum(sigma * sigma * dens)),
        "dissipation": -2.0 * float(np.sum(grad_sq * dens)),
        "residual": float(np.abs(c + theta - lam).max()),
        "lambda_max": float(lam.max()),
        "floor_constant": float((rho / om).min()),
        "rhs_min": float(rhs.min()), "rhs_max": float(rhs.max()),
        "theta_max": float(theta.max()),
    }


def sphere_critical_density(m: np.ndarray, a: float) -> np.ndarray:
    """The continuum limit density on the sphere for omega = a rho0,
    a > 1/2, at the moments m, in closed form.

    The level is c = a, and at the limit theta = x - 1/2, where x(m) is
    the limit's moment and its density is rho = rho0 dx/dm.  The critical
    equation (c + theta) rho = a rho0 becomes dm/dx = (a - 1/2 + x) / a,
    with x(0) = 0, so x is the positive root of
    x^2 + (2a - 1) x - 2 a m = 0 and rho* = a m (1 - m) / (a - 1/2 + x).
    The root is taken in the form that does not cancel.
    """
    m = np.asarray(m, dtype=float)
    b = 2.0 * a - 1.0
    x = 4.0 * a * m / (b + np.sqrt(b * b + 8.0 * a * m))
    return a * m * (1.0 - m) / (a - 0.5 + x)


def wedge_positive_2x2(chi_matrix: np.ndarray, omega_matrix: np.ndarray,
                       c: float, theta: float) -> bool:
    """Subsolution check for n = 2 by Sylvester minors of (2c + theta) chi - omega."""
    coeff = (2.0 * c + theta) * chi_matrix - omega_matrix
    return coeff[0, 0] > 0.0 and float(np.linalg.det(coeff)) > 0.0


def eigenvalues_2x2(chi_matrix: np.ndarray, omega_matrix: np.ndarray) -> np.ndarray:
    """Generalized eigenvalues of a 2x2 SPD pencil by the quadratic formula.

    Roots of det(omega - mu chi) = 0:
        det(chi) mu^2 - (o11 c22 + o22 c11 - 2 o12 c12) mu + det(omega) = 0
    """
    a = float(np.linalg.det(chi_matrix))
    b = (omega_matrix[0, 0] * chi_matrix[1, 1]
         + omega_matrix[1, 1] * chi_matrix[0, 0]
         - 2.0 * omega_matrix[0, 1] * chi_matrix[0, 1])
    cc = float(np.linalg.det(omega_matrix))
    disc = max(b * b - 4.0 * a * cc, 0.0)
    root = np.sqrt(disc)
    return np.sort(np.array([(b - root) / (2.0 * a), (b + root) / (2.0 * a)]))


def entropy_line_density(b: float) -> float:
    """Continuum entropy of the unit-volume line density 1 + b sin(2 pi x)."""

    def integrand(x):
        rho = 1.0 + b * np.sin(2.0 * np.pi * x)
        return rho * np.log(rho)

    value, err = quad(integrand, 0.0, 1.0, limit=200)
    if err > 1e-10:
        raise RuntimeError(f"entropy quadrature did not converge: err={err:.3e}")
    return value


def toric_energies(phi, dphi, d2phi) -> dict:
    """The sphere's continuum mu, mu_tilde and Monge-Ampere energy E of
    the potential phi(m), given with its first two derivatives in the
    round chart's moment m on [0, 1].

    The circle-invariant sphere is toric, and in symplectic coordinates
    its energies are explicit (Guillemin 1994; Abreu 1998; Donaldson
    2002).  Parametrised by m, the deformed moment is X = m + m (1 - m)
    phi', X' = dX/dm, and the symplectic potential's deviation from the
    round dual u0(x) = x log x + (1 - x) log(1 - x) is dev = (u - u0)(X)
    = X logit(m) + log(1 - m) - phi - u0(X), so no root solve is needed:
    mu_tilde = pi [-int log(X (1 - X) / (m (1 - m) X')) X' dm
    - phi(0) - phi(1) - int (3/2 + X) dev X' dm], mu the same with 2 in
    place of 3/2 + X, and E = int phi vol_0 - J = -pi int dev X' dm.
    Integrated with scipy's quad, apart from every library stencil.
    """

    def moment(m):
        return m + m * (1.0 - m) * dphi(m)

    def slope(m):
        return 1.0 + (1.0 - 2.0 * m) * dphi(m) + m * (1.0 - m) * d2phi(m)

    def dev(m):
        x = moment(m)
        return (x * (np.log(m) - np.log1p(-m)) + np.log1p(-m) - phi(m)
                - x * np.log(x) - (1.0 - x) * np.log1p(-x))

    def integral(f):
        value, err = quad(f, 0.0, 1.0, limit=200, epsabs=1e-14, epsrel=1e-13)
        if err > 1e-11:
            raise RuntimeError(f"toric quadrature did not converge: err={err:.3e}")
        return value

    def log_ratio(m):
        x = moment(m)
        return np.log(x * (1.0 - x) / (m * (1.0 - m) * slope(m))) * slope(m)

    common = -integral(log_ratio) - phi(0.0) - phi(1.0)
    return {
        "k_energy": np.pi * (common - integral(
            lambda m: 2.0 * dev(m) * slope(m))),
        "k_energy_modified": np.pi * (common - integral(
            lambda m: (1.5 + moment(m)) * dev(m) * slope(m))),
        "monge_ampere": -np.pi * integral(lambda m: dev(m) * slope(m)),
    }


def directional_difference(f, phi: np.ndarray, psi: np.ndarray,
                           h: float) -> float:
    """Central difference of a scalar functional along psi at phi."""
    return (f(phi + h * psi) - f(phi - h * psi)) / (2.0 * h)


def simpson_path_functionals(backend, omega_matrices: np.ndarray,
                             phi: np.ndarray) -> dict:
    """Every path functional along the chord from 0 to phi.

    Returns j_hat, j_tilde, j_flow, theta_path_term, aubin_j and the path
    formula for I - J, each integrated with its own density.

    Composite Simpson in t with 33 samples.  The volume density of a
    one-dimensional metric is the metric itself and the mixed density of
    a form is the form: tr(chi^{-1} omega) det(chi) = omega.  theta is
    in closed form, as in flow_kernel_outputs and not from the library:
    0 on the torus and, on the sphere, m - mean(m) plus X phi, with X
    from ``sphere_action``.
    """
    nodes = 33
    t = np.linspace(0.0, 1.0, nodes)
    coeff = np.ones(nodes)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    coeff *= t[1] / 3.0

    base = backend.base_form().density
    om = np.asarray(omega_matrices, dtype=float)[..., 0, 0]
    level = float(np.sum(om * backend.weights)) / float(
        np.sum(base * backend.weights))
    if isinstance(backend, SphereBackend):
        def theta(f):
            return (backend.m - np.mean(backend.m)) + sphere_action(backend, f)
    else:
        def theta(f):
            return np.zeros_like(f)
    totals = dict.fromkeys(("j_hat", "j_tilde", "j_flow", "theta_path_term",
                            "aubin_j", "i_minus_j_path"), 0.0)
    for tk, ck in zip(t, coeff):
        det = base + backend.complex_hessian(tk * phi)[..., 0, 0]
        j_dens = om - level * det
        coupling = theta(tk * phi) * det
        pair = phi * backend.weights
        totals["j_hat"] += ck * float(np.sum(pair * j_dens))
        totals["j_tilde"] += ck * float(np.sum(pair * (j_dens + coupling)))
        totals["j_flow"] += ck * float(np.sum(pair * (j_dens - coupling)))
        totals["theta_path_term"] += ck * float(np.sum(pair * coupling))
        totals["aubin_j"] += ck * float(np.sum(pair * (base - det)))
        totals["i_minus_j_path"] += ck * float(np.sum(pair * (base - det)))
    return totals
