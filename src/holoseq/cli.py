"""Command-line front end.

Subcommands: plan, run, verify.  Exit codes: 0 success, 1 an oracle suite
of verify failed, 2 configuration error or an output path (-o) that cannot
be written, 3 infeasible plan, 4 solver failure.
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="holoseq",
        description="Phase-stable hologram sequences for optical tweezer transport",
    )
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", help="YAML run configuration")

    sp = sub.add_parser("plan", parents=[common], help="assign and discretize a task")
    sp.add_argument("-o", "--output", default="plan.json")

    sr = sub.add_parser("run", parents=[common], help="run the hologram sequence pipeline")
    sr.add_argument("-o", "--output", default="out", help="output directory")

    sv = sub.add_parser("verify", help="run the built-in oracle suites")
    sv.add_argument("--quick", action="store_true", help="fewer random cases")
    return p


def _load(args):
    from .config import ConfigError, RunConfig, load_config

    try:
        return load_config(args.config) if args.config else RunConfig()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _output_error(path, exc: OSError) -> int:
    print(f"output error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_CONFIG


def _plan_for(cfg):
    from .planner import InfeasibleAssignmentError, plan_task

    try:
        plan = plan_task(cfg.task, max_step=cfg.run.max_step)
    except InfeasibleAssignmentError as exc:
        print(f"infeasible plan: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INFEASIBLE)
    except ValueError as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INFEASIBLE)
    # propagation needs f + z > 0 at every trap of every frame
    f = cfg.optical.focal_length
    z = plan.waypoints[:, :, 2]
    if (f + z <= 0).any():
        print(
            f"config error: trap z must satisfy focal_length + z > 0, but the plan "
            f"reaches z = {z.min():g} m with focal_length {f:g} m",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_CONFIG)
    return plan


def _cmd_plan(args) -> int:
    from .serial import write_plan_json

    cfg = _load(args)
    plan = _plan_for(cfg)
    try:
        write_plan_json(args.output, plan)
    except OSError as exc:
        return _output_error(args.output, exc)
    mean_d, max_d = plan.displacement_stats()
    print(f"plan: {plan.trap_count} traps, {plan.frames} steps")
    print(f"displacement mean {mean_d * 1e6:.3f} um, max {max_d * 1e6:.3f} um")
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_run(args) -> int:
    import statistics
    from pathlib import Path

    from .config import config_to_yaml
    from .sequence import run_sequence
    from .serial import RunWriter, save_run_record
    from .solvers import DarkTrapError

    cfg = _load(args)
    plan = _plan_for(cfg)
    outdir = Path(args.output)
    # an unusable output path fails here, not after every frame is solved;
    # a config or plan error above leaves no directory behind
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _output_error(outdir, exc)
    config_text = config_to_yaml(cfg)
    for kind in cfg.run.solvers:
        dest = outdir / kind
        # each frame's files are written as the frame is solved; metrics.json
        # is written last, so a failed run leaves none
        try:
            with RunWriter(dest, plan, cfg.refresh) as sink:
                record = run_sequence(cfg.optical, plan, kind, cfg.solver, cfg.refresh, sink=sink)
            save_run_record(dest, record, config_text=config_text)
        except DarkTrapError as exc:
            print(f"solver failure ({kind}): {exc}", file=sys.stderr)
            return EXIT_SOLVER
        except OSError as exc:
            return _output_error(dest, exc)
        m = record.metrics
        times = record.solve_times * 1e3
        line = (
            f"{kind}: nu_min {min(m.frame_uniformity):.4f}"
            f"  dphi_std {m.dphi.std:.4f}"
        )
        if m.transition is not None:
            line += f"  I/I0_min {m.transition.minimum:.4f}"
        # frame 0 pays one-time costs such as BLAS start-up, so it is shown
        # apart; a plan of zero steps has no later frame to take a median of
        line += f"  frame0 {times[0]:.2f} ms"
        if len(times) > 1:
            line += f"  median_frame {statistics.median(times[1:].tolist()):.2f} ms"
        print(line)
        print(f"wrote {dest}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_verification

    ok = run_verification(quick=args.quick, out=sys.stdout)
    return EXIT_OK if ok else 1


def main(argv=None) -> int:
    handlers = {
        "plan": _cmd_plan,
        "run": _cmd_run,
        "verify": _cmd_verify,
    }
    # argparse exits 2 on a bad flag and 0 after --help; both become return codes
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
