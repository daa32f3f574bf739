"""Scenario-driven command line: parse config, run, emit artifacts.

Subcommands cover the library surface one module at a time (simulate,
functionals, check-cone, geodesic-probe) plus an all-in-one report.
`main` builds the backend and the reference form once and hands both to
the command, so `report`'s sections share one geometry.  Every run
echoes its effective configuration into the output directory; re-running
from that echo reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .config import (ScenarioConfig, build_backend, build_problem,
                     build_reference, check_bound, initial_potential,
                     load_config, reference_page)
from .cone import properness_hypotheses
from .fields import ConfigError, GeometryError, NonConvergence, StepStalled
from .flow import run_flow
from .functionals import functional_report
from .geodesic import convexity_probe, geodesic_path
from .potentials import (NormalStream, named_potential,
                         random_kahler_potential)
from . import reports


def _info(message: str) -> None:
    if os.environ.get("JFLOW_LOG", "").lower() in ("info", "debug"):
        print(f"INFO {message}", file=sys.stderr)


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config)
    values = dict(cfg.values)
    if args.out is not None:
        values["output.directory"] = args.out
    if args.seed is not None:
        check_bound("seed", args.seed, line=f"--seed {args.seed}")
        values["seed"] = args.seed
    return ScenarioConfig(values=values, lines=cfg.lines)


def _outdir(cfg: ScenarioConfig) -> str:
    path = cfg.get("output.directory")
    os.makedirs(path, exist_ok=True)
    reports.write_text(os.path.join(path, "config.effective.cfg"),
                       cfg.render())
    return path


def _write(outdir: str, name: str, text: str) -> None:
    reports.write_text(os.path.join(outdir, name), text)
    _info(f"wrote {os.path.join(outdir, name)}")


def _simulate(cfg: ScenarioConfig, args, backend, omega) -> int:
    problem = build_problem(cfg, backend, omega)
    phi0 = initial_potential(cfg, backend)
    outdir = _outdir(cfg)
    try:
        result = run_flow(problem, phi0=phi0)
    except StepStalled as exc:
        # the run so far, counters included, before main exits 3
        _write(outdir, "trajectory.csv",
               reports.trajectory_csv(exc.result.records))
        _write(outdir, "final_state.json",
               reports.final_state_json(exc.result))
        raise
    _info(f"flow: converged={result.converged} reason={result.reason} "
          f"steps={result.state.step_count} residual={result.residual:.3e}")
    _write(outdir, "trajectory.csv", reports.trajectory_csv(result.records))
    _write(outdir, "final_state.json", reports.final_state_json(result))
    if cfg.get("functionals.enabled"):
        rep = functional_report(backend, result.state.phi, omega,
                                c=problem.level)
        _write(outdir, "functional_report.json",
               reports.functional_report_json(rep))
    if args.plot == "svg":
        ts = [r.t for r in result.records]
        _write(outdir, "energy.svg", reports.svg_line_plot(
            [("E", ts, [r.E for r in result.records])], "energy vs t"))
        _write(outdir, "residual.svg", reports.svg_line_plot(
            [("residual", ts, [r.residual for r in result.records])],
            "residual vs t"))
    if not result.converged and cfg.get("flow.require_convergence"):
        raise NonConvergence(
            f"flow ended at residual {result.residual:.3e} above target "
            f"{problem.residual_target:.3e} (reason: {result.reason})")
    return 0


def _functionals(cfg: ScenarioConfig, args, backend, omega) -> int:
    phi = named_potential(backend, cfg.get("functionals.family"),
                          cfg.get("functionals.amplitude"),
                          cfg.get("functionals.wavenumber"),
                          seed=cfg.get("seed"))
    rep = functional_report(backend, phi, omega)
    outdir = _outdir(cfg)
    _write(outdir, "functional_report.json",
           reports.functional_report_json(rep))
    return 0


def _check_cone(cfg: ScenarioConfig, args, backend, omega) -> int:
    rep = properness_hypotheses(backend, cfg.get("hypotheses.epsilon"),
                                cfg.get("hypotheses.alpha_lower_bound"),
                                omega=omega)
    outdir = _outdir(cfg)
    _write(outdir, "hypothesis_report.json",
           reports.hypothesis_report_json(rep))
    return 0


def _geodesic_probe(cfg: ScenarioConfig, args, backend, omega) -> int:
    pairs = cfg.get("geodesic.pairs")
    nodes = cfg.get("geodesic.nodes")
    amplitude = cfg.get("geodesic.amplitude")
    functional_id = cfg.get("geodesic.functional")
    rng = NormalStream(cfg.get("seed"))
    endpoints = [(random_kahler_potential(backend, rng, amplitude),
                  random_kahler_potential(backend, rng, amplitude))
                 for _ in range(pairs)]
    results = [convexity_probe(backend, functional_id,
                               geodesic_path(backend, a, b, nodes),
                               omega=omega)
               for a, b in endpoints]

    outdir = _outdir(cfg)
    for k, rep in enumerate(results):
        _write(outdir, f"probe_{k}.csv", reports.probe_csv(rep))
        _info(f"pair {k}: min second difference "
              f"{rep.min_second_difference:.3e} at t={rep.t_at_min:.3f}")
    lines = [reports.probe_report_json(rep).rstrip() for rep in results]
    _write(outdir, "probe_summary.json", "[\n" + ",\n".join(lines) + "\n]\n")
    if args.plot == "svg":
        series = [(f"pair {k}", rep.ts, rep.values)
                  for k, rep in enumerate(results)]
        _write(outdir, "probe.svg", reports.svg_line_plot(
            series, f"{functional_id} along geodesics"))
    return 0


def _report(cfg: ScenarioConfig, args, backend, omega) -> int:
    unconverged = None
    try:
        _simulate(cfg, args, backend, omega)
    except NonConvergence as exc:
        # neither check reads the flow's result: both are written before
        # main exits 4
        unconverged = exc
    if cfg.get("hypotheses.enabled"):
        _check_cone(cfg, args, backend, omega)
    if cfg.get("geodesic.enabled"):
        _geodesic_probe(cfg, args, backend, omega)
    if unconverged is not None:
        raise unconverged
    return 0


_COMMANDS = {
    "simulate": _simulate,
    "functionals": _functionals,
    "check-cone": _check_cone,
    "geodesic-probe": _geodesic_probe,
    "report": _report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jflow",
        description="Reduced-geometry flows, energy functionals, cone checks "
                    "and geodesic probes, driven by scenario configs.",
        epilog=reference_page(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("simulate", "time-integrate the flow and write its trajectory"),
            ("functionals", "evaluate the energy functionals of a potential"),
            ("check-cone", "margins for the properness hypotheses"),
            ("geodesic-probe", "convexity of a functional along geodesics"),
            ("report", "simulate plus every enabled check in one run")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="scenario file")
        cmd.add_argument("--out", default=None,
                         help="override output.directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the scenario seed")
        cmd.add_argument("--plot", choices=("none", "svg"), default="none",
                         help="emit SVG line plots")
    return parser


def main(argv=None) -> int:
    """Run one command; exit 0, or 1 on a geometry or write error, 2 on a
    config error or bad arguments, 3 on a stalled step, 4 on no convergence.
    argv None: the command owns the process, so freezing the imports' objects
    out of every collection costs no caller anything and speeds the exit."""
    if argv is None:
        gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        # checked before report's flow writes anything
        probes = args.command == "geodesic-probe" or (
            args.command == "report" and cfg.get("geodesic.enabled"))
        if probes and cfg.get("geometry.kind") != "sphere":
            raise ConfigError("geodesic probes need geometry.kind = sphere",
                              line=cfg.line("geometry.kind"))
        backend = build_backend(cfg)
        omega = build_reference(cfg, backend)
        return _COMMANDS[args.command](cfg, args, backend, omega)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        if exc.line is not None:
            print(f"  offending line: {exc.line}", file=sys.stderr)
        return 2
    except StepStalled as exc:
        print(f"step stalled: {exc}", file=sys.stderr)
        return 3
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
