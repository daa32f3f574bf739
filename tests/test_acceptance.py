"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Run with -v to get a one-line verdict per claim; -s adds the measured
numbers next to their bounds.  Everything here goes through public entry
points only; independent expected values come from tests/oracles.py.
"""

import os
import time

import numpy as np
import pytest

import oracles
from jflow import (
    FlowProblem,
    HermitianFormField,
    build_metric,
    integrate,
    make_backend,
    properness_hypotheses,
    run_flow,
    subsolution_margin,
    theta_of,
)
from jflow.cli import main
from jflow.functionals import (
    aubin_ij,
    aubin_j,
    extremal_residual,
    j_hat,
    j_tilde,
    k_energy_modified,
)
from jflow.geodesic import convexity_probe, geodesic_path, geodesic_residual
from jflow.potentials import named_potential, random_kahler_potential


def torus_reference(backend, scale=2.0, amplitude=0.3):
    # density scale * (1 + amplitude sin 2 pi x); mean is exactly scale on
    # the uniform grid, so the class level constant is scale
    x = backend.x
    density = scale * (1.0 + amplitude * np.sin(2.0 * np.pi * x))
    return backend.form(density[:, None, None])


def limit_density(backend, result):
    return build_metric(backend, backend.base_form(), result.state.phi).density


@pytest.fixture(scope="module")
def torus_limits():
    # two runs to the same target from different starts; shared by the
    # limit-accuracy and uniqueness checks
    b = make_backend("torus", size=128)
    om = torus_reference(b)
    problem = FlowProblem(backend=b, omega=om, t_max=500.0,
                          residual_target=1e-6)
    t0 = time.monotonic()
    first = run_flow(problem)
    phi0 = random_kahler_potential(b, np.random.default_rng(3), amplitude=0.4)
    second = run_flow(problem, phi0=phi0)
    return b, om, first, second, time.monotonic() - t0


@pytest.fixture(scope="module")
def sphere_limits():
    # the residual target 1.7e-5 is a gate parameter: theta integrates to
    # zero against every metric's volume, so the limit has no residual
    # floor (kappa is round-off), and a lower target would only lengthen
    # this RK4 run
    b = make_backend("sphere", size=128)
    om = b.base_form()
    problem = FlowProblem(backend=b, omega=om, t_max=5000.0,
                          residual_target=1.7e-5)
    t0 = time.monotonic()
    first = run_flow(problem)
    phi0 = random_kahler_potential(b, np.random.default_rng(11), amplitude=0.4)
    second = run_flow(problem, phi0=phi0)
    return b, om, first, second, time.monotonic() - t0


def test_criterion_01_dissipation_identity_under_refinement():
    # measured dE/dt within 5% of the predicted dissipation at grid 256,
    # within 2.5% at grid 512, under 60 s per run
    worst = {}
    for kind in ("torus", "sphere"):
        for size in (256, 512):
            b = make_backend(kind, size=size)
            om = torus_reference(b) if kind == "torus" else b.base_form()
            t0 = time.monotonic()
            res = run_flow(FlowProblem(backend=b, omega=om, t_max=0.05,
                                       log_every=1))
            elapsed = time.monotonic() - t0
            assert elapsed < 60.0
            mismatch = 0.0
            for r in res.records[1:]:
                rel = abs(r.dE_dt_measured - r.dE_dt_predicted)
                mismatch = max(mismatch, rel / abs(r.dE_dt_predicted))
            worst[kind, size] = mismatch
        assert worst[kind, 256] < 0.05
        assert worst[kind, 512] < 0.025
        assert worst[kind, 512] < worst[kind, 256]
    print(f"criterion 1: mismatch torus {worst['torus', 256]:.2e}"
          f"->{worst['torus', 512]:.2e}, sphere {worst['sphere', 256]:.2e}"
          f"->{worst['sphere', 512]:.2e}")


def test_criterion_02_comparison_sandwich_random_starts():
    # rhs(t) confined to [min rhs(0) - tol, max rhs(0) + tol] with
    # tol = 1e-6 + 10 spacing^2 over the whole trajectory, 10 starts each
    rng = np.random.default_rng(42)
    for kind in ("torus", "sphere"):
        b = make_backend(kind, size=64)
        om = torus_reference(b) if kind == "torus" else b.base_form()
        tol = 1e-6 + 10.0 * b.spacing ** 2
        for _ in range(10):
            phi0 = random_kahler_potential(b, rng, amplitude=0.4)
            res = run_flow(FlowProblem(backend=b, omega=om, t_max=0.5,
                                       log_every=1), phi0=phi0)
            lo = res.records[0].rhs_min - tol
            hi = res.records[0].rhs_max + tol
            assert all(r.rhs_min >= lo for r in res.records)
            assert all(r.rhs_max <= hi for r in res.records)
            assert res.suspect_steps == 0
    print("criterion 2: 10 random starts per backend stayed inside the "
          "initial rhs envelope")


def test_criterion_03_flow_limits_match_references(torus_limits,
                                                   sphere_limits):
    b, om, first, _, torus_elapsed = torus_limits
    assert first.converged
    # at a critical point the trace equation pins the metric to omega / c
    sup_torus = np.max(np.abs(limit_density(b, first) - om.density / 2.0))
    assert sup_torus < 1e-6

    sb, som, sfirst, _, sphere_elapsed = sphere_limits
    assert sfirst.converged
    phi_col, kappa, col_residual = oracles.sphere_collocation(
        sb, som.density, 1.0)
    assert col_residual < 1e-10
    rho_col = build_metric(sb, sb.base_form(), phi_col).density
    sup_sphere = np.max(np.abs(limit_density(sb, sfirst) - rho_col))
    assert sup_sphere < 1e-5
    assert torus_elapsed + sphere_elapsed < 300.0
    print(f"criterion 3: torus sup {sup_torus:.2e}, sphere sup vs "
          f"collocation {sup_sphere:.2e} (kappa {kappa:.2e}), "
          f"{torus_elapsed + sphere_elapsed:.0f}s total")


def test_criterion_04_limit_uniqueness(torus_limits, sphere_limits):
    # same target from a cold start and a random start: limit metrics match
    b, _, first, second, _ = torus_limits
    assert second.converged
    gap_torus = np.max(np.abs(limit_density(b, first)
                              - limit_density(b, second)))
    sb, _, sfirst, ssecond, _ = sphere_limits
    assert ssecond.converged
    gap_sphere = np.max(np.abs(limit_density(sb, sfirst)
                               - limit_density(sb, ssecond)))
    assert gap_torus < 1e-5
    assert gap_sphere < 1e-5
    print(f"criterion 4: limit gaps torus {gap_torus:.2e}, "
          f"sphere {gap_sphere:.2e}")


def test_criterion_05_eigenvalue_criterion_matches_wedge_oracle():
    # 200 random SPD pairs in n = 2: the spectral margin sign must agree
    # with the brute-force wedge-coefficient oracle every single time
    rng = np.random.default_rng(5)
    agreements = 0
    for _ in range(200):
        a = rng.normal(size=(2, 2))
        chi_mat = a @ a.T + 0.05 * np.eye(2)
        bmat = rng.normal(size=(2, 2))
        omega_mat = bmat @ bmat.T + 0.05 * np.eye(2)
        c = rng.uniform(0.2, 2.0)
        th = rng.uniform(-0.5, 0.5)
        chi = HermitianFormField.from_matrices(chi_mat.reshape(1, 1, 2, 2))
        omega = HermitianFormField.from_matrices(
            omega_mat.reshape(1, 1, 2, 2))
        margin = subsolution_margin(chi, omega, c, np.full((1, 1), th))
        oracle = oracles.wedge_positive_2x2(chi_mat, omega_mat, c, th)
        agreements += int((margin > 0) == oracle)
    assert agreements == 200
    print("criterion 5: 200/200 sign agreements with the wedge oracle")


def test_criterion_06_aubin_inequalities_and_closed_form():
    # 0 <= J <= I <= (n+1) J and I - J >= I/(n+1), then the sine profile
    # against its closed form
    rng = np.random.default_rng(6)
    for kind in ("torus", "sphere"):
        b = make_backend(kind, size=64)
        bound = (b.n + 1.0)
        for _ in range(100):
            phi = random_kahler_potential(b, rng, amplitude=0.5)
            e = aubin_ij(b, phi)
            assert e.J >= -1e-10
            assert e.I - e.J >= -1e-10
            assert bound * e.J - e.I >= -1e-10
            assert e.I - e.J >= e.I / bound - 1e-10

    b = make_backend("torus", size=128)
    a = 0.02
    phi = a * np.sin(2.0 * np.pi * b.x)
    e = aubin_ij(b, phi)
    # fourth-order stencil truncation sets the quadrature tolerance
    tol_i = 20.0 * b.spacing ** 2 * a ** 2
    tol_j = 10.0 * b.spacing ** 2 * a ** 2
    assert abs(e.I - a ** 2 * np.pi ** 2 / 2.0) < tol_i
    assert abs(e.J - a ** 2 * np.pi ** 2 / 4.0) < tol_j
    print(f"criterion 6: 100 random pairs per backend passed; sine I off by "
          f"{abs(e.I - a**2 * np.pi**2 / 2):.2e} (tol {tol_i:.2e})")


def test_criterion_07_path_independence_of_energies():
    # direct segment vs a detour through a random waypoint: j_hat, j_tilde
    # and J agree within 1e-7 for 20 random potentials.  The symmetry
    # coupling inside j_tilde is path independent only up to O(spacing^2)
    # stencil truncation, so the grids are sized to put that inside the
    # tolerance (the other two integrands are exact discrete gradients)
    rng = np.random.default_rng(7)
    worst = 0.0
    for kind, size in (("torus", 128), ("sphere", 256)):
        b = make_backend(kind, size=size)
        om = torus_reference(b) if kind == "torus" else b.base_form()
        for _ in range(10):
            phi = random_kahler_potential(b, rng, amplitude=0.4)
            way = [random_kahler_potential(b, rng, amplitude=0.3)]
            for fn in (lambda p, w: j_hat(b, om, p, waypoints=w),
                       lambda p, w: j_tilde(b, om, p, waypoints=w),
                       lambda p, w: aubin_j(b, p, waypoints=w)):
                gap = abs(fn(phi, None) - fn(phi, way))
                worst = max(worst, gap)
                assert gap < 1e-7
    print(f"criterion 7: worst two-path gap {worst:.2e} over 20 potentials")


def test_criterion_08_jtilde_convexity_and_residual_order():
    # twenty random geodesics at grid 512 with 65 nodes: second differences
    # of j_tilde (omega = chi0) never dip below -1e-6
    b = make_backend("sphere", size=512)
    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(20):
        pa = random_kahler_potential(b, rng, amplitude=0.5)
        pb = random_kahler_potential(b, rng, amplitude=0.5)
        path = geodesic_path(b, pa, pb, steps=65)
        rep = convexity_probe(b, "j_tilde", path, omega=b.base_form())
        worst = min(worst, rep.min_second_difference)
    assert worst >= -1e-6

    # residual decays with order >= 1.8 when grid and nodes refine together
    residuals = {}
    for size, nodes in ((128, 17), (256, 33), (512, 65)):
        bb = make_backend("sphere", size=size)
        target = named_potential(bb, "translation", amplitude=1.0)
        path = geodesic_path(bb, np.zeros(size), target, steps=nodes)
        residuals[size] = geodesic_residual(bb, path)
    orders = [np.log2(residuals[128] / residuals[256]),
              np.log2(residuals[256] / residuals[512])]
    assert min(orders) >= 1.8
    print(f"criterion 8: worst second difference {worst:.2e}, refinement "
          f"orders {orders[0]:.2f}, {orders[1]:.2f}")


def test_criterion_09_moment_normalization_and_derivative_identity():
    # the moment of the reference metric integrates to zero, and the field
    # applied to the moment reproduces the metric density along a flow
    for kind in ("torus", "sphere"):
        b = make_backend(kind, size=128)
        zeros = np.zeros(b.grid_shape)
        total = integrate(b, theta_of(b, zeros), b.base_form())
        assert abs(total) < 1e-10

    b = make_backend("sphere", size=128)
    res = run_flow(FlowProblem(backend=b, omega=b.base_form(), t_max=0.4,
                               log_every=50))
    assert len(res.snapshots) >= 5
    bound = 10.0 * b.spacing ** 2
    worst = 0.0
    for _, phi in res.snapshots:
        lhs = b.vector_field_action(theta_of(b, phi))
        rhs = build_metric(b, b.base_form(), phi).density
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < bound
    print(f"criterion 9: trajectory identity off by {worst:.2e} "
          f"(bound {bound:.2e})")


def test_criterion_10_variational_identity_finite_differences():
    # d/ds mu_tilde(phi + s psi) against -int psi (R - Rbar - theta) dV_phi
    b = make_backend("sphere", size=128)
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        phi = random_kahler_potential(b, rng, amplitude=0.4)
        psi = random_kahler_potential(b, rng, amplitude=0.4)
        chi = build_metric(b, b.base_form(), phi)
        predicted = -integrate(b, psi * extremal_residual(b, phi), chi)
        measured = oracles.directional_difference(
            lambda p: k_energy_modified(b, p)[1], phi, psi, 1e-4)
        rel = abs(measured - predicted) / max(1.0, abs(predicted))
        worst = max(worst, rel)
        assert rel < 1e-3
    print(f"criterion 10: worst relative defect {worst:.2e} over 10 pairs")


def test_criterion_11_worked_hypothesis_scenarios():
    # flat backend, epsilon = 0.1, alpha lower bound 0.2; every margin is
    # hand arithmetic:
    #   alpha_bound          2 * 0.2 - 0.1               = 0.3
    #   class_positivity     (0.1 + 0) * 1 - 0           = 0.1
    #   combined_positivity  (-0 + 0 + 0.1) * 1 + 0      = 0.1
    #   level_claim          1 * (0.1 - 0) + 0           = 0.1
    b = make_backend("torus", size=64)
    rep = properness_hypotheses(b, epsilon=0.1, alpha_lower_bound=0.2)
    m = rep.condition_margins
    assert abs(m["alpha_bound"] - 0.3) < 1e-15
    assert m["class_positivity"] == 0.1
    assert m["combined_positivity"] == 0.1
    assert m["level_claim"] == 0.1
    assert all(rep.passes.values())

    # round model with an odd grid so m = 1/2 sits on a node and the
    # density maximum is exactly 1/4; with curvature representative
    # 2 rho0 the class condition margin is
    #   (0.1 + min theta - 2) * 1/4  =  (0.1 + m_lo - 1/2 - 2) / 4
    # which is about -0.599, decisively negative
    sb = make_backend("sphere", size=129)
    assert abs(sb.rho0.max() - 0.25) < 1e-15
    srep = properness_hypotheses(sb, epsilon=0.1, alpha_lower_bound=0.2)
    expected = (0.1 + (sb.m_lo - 0.5) - 2.0) * 0.25
    got = srep.condition_margins["class_positivity"]
    assert abs(got - expected) < 1e-10
    assert got < 0
    assert srep.passes["class_positivity"] is False
    print(f"criterion 11: torus margins all 0.1/0.3 exactly; sphere class "
          f"margin {got:.6f} matches hand value {expected:.6f}")


TORUS_CFG = """
geometry.kind = torus
geometry.size = 64
reference.scale = 2.0
reference.offset_family = sine
reference.offset_amplitude = 0.6
flow.t_max = 0.5
flow.residual_target = 1e-9
flow.log_every = 10
"""

SPHERE_CFG = """
geometry.kind = sphere
geometry.size = 64
reference.scale = 1.0
geodesic.nodes = 9
geodesic.pairs = 2
geodesic.amplitude = 0.4
"""


def _tree_bytes(outdir, names):
    return {name: open(os.path.join(outdir, name), "rb").read()
            for name in names}


def test_criterion_12_outputs_deterministic_across_reruns(tmp_path):
    # fixed seed: a repeated probe and a repeated simulation each
    # reproduce their files exactly
    probe_cfg = tmp_path / "probe.cfg"
    probe_cfg.write_text(SPHERE_CFG)
    trees = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"probe{tag}")
        code = main(["geodesic-probe", "--config", str(probe_cfg),
                     "--out", out])
        assert code == 0
        trees.append(_tree_bytes(
            out, ["probe_0.csv", "probe_1.csv", "probe_summary.json"]))
    assert trees[0] == trees[1]

    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(TORUS_CFG)
    sims = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"sim{tag}")
        assert main(["simulate", "--config", str(sim_cfg),
                     "--out", out]) == 0
        sims.append(_tree_bytes(out, ["trajectory.csv", "final_state.json",
                                      "functional_report.json"]))
    assert sims[0] == sims[1]
    print("criterion 12: byte-identical outputs across reruns")
