"""Command-line front end.

Subcommands: plan, run, bench, landscape, verify.  Exit codes: 0 success,
2 configuration error, 3 infeasible plan, 4 solver failure.
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
    common.add_argument("--seed", type=int, help="override the task seed")
    common.add_argument(
        "--max-step", type=float, help="transport step bound in micrometers"
    )
    common.add_argument("--iterations", type=int, help="phase-constrained solve budget")
    common.add_argument("--wgs-iterations", type=int, help="baseline / warm-up solve budget")
    common.add_argument("--over-relaxation", type=float, help="late-stage weight relaxation beta")
    common.add_argument(
        "--over-relaxation-last-iters", type=int,
        help="how many final iterations apply the relaxation",
    )
    common.add_argument("--solver-seed", type=int, help="initial-mask seed")

    sp = sub.add_parser("plan", parents=[common], help="assign and discretize a task")
    sp.add_argument("-o", "--output", default="plan.json")

    sr = sub.add_parser("run", parents=[common], help="run the hologram sequence pipeline")
    sr.add_argument("-o", "--output", help="output directory (defaults to config)")
    sr.add_argument(
        "--solver", action="append", choices=["wgs", "wpgs"],
        help="solver(s) to run (repeatable; defaults to config)",
    )

    sb = sub.add_parser("bench", parents=[common], help="per-frame timing comparison")
    sb.add_argument("-o", "--output", default="bench.csv")

    sl = sub.add_parser("landscape", help="two-frame interference landscape sweep")
    sl.add_argument("--a-steps", type=int, default=101)
    sl.add_argument("--dphi-steps", type=int, default=101)
    sl.add_argument("-o", "--output", default="landscape.csv")

    sv = sub.add_parser("verify", help="run the built-in oracle suites")
    sv.add_argument("--quick", action="store_true", help="fewer random cases")
    return p


def _load(args):
    from dataclasses import replace

    from .config import default_config, load_config

    try:
        cfg = load_config(args.config) if args.config else default_config()
        if getattr(args, "seed", None) is not None:
            cfg = replace(cfg, task=replace(cfg.task, seed=args.seed))
        if getattr(args, "max_step", None) is not None:
            cfg = replace(cfg, run=replace(cfg.run, max_step=args.max_step * 1e-6))
        solver_overrides = {
            key: getattr(args, key)
            for key in ("iterations", "wgs_iterations", "over_relaxation",
                        "over_relaxation_last_iters")
            if getattr(args, key, None) is not None
        }
        if getattr(args, "solver_seed", None) is not None:
            solver_overrides["seed"] = args.solver_seed
        if solver_overrides:
            cfg = replace(cfg, solver=replace(cfg.solver, **solver_overrides))
        return cfg
    except ValueError as exc:  # ConfigError, or a dataclass rejecting an override
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _plan_for(cfg):
    from .planner import InfeasibleAssignmentError, plan_task

    try:
        plan = plan_task(
            cfg.task,
            max_step=cfg.run.max_step,
            cost=cfg.run.cost,
            tie_break=cfg.run.tie_break,
        )
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
    write_plan_json(args.output, plan)
    mean_d, max_d = plan.displacement_stats()
    print(f"plan: {plan.trap_count} traps, {plan.frames} steps")
    print(f"displacement mean {mean_d * 1e6:.3f} um, max {max_d * 1e6:.3f} um")
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_run(args) -> int:
    from pathlib import Path

    from .config import config_to_yaml
    from .sequence import run_sequence
    from .serial import save_run_record
    from .solvers import DarkTrapError

    cfg = _load(args)
    plan = _plan_for(cfg)
    solvers = tuple(args.solver) if args.solver else cfg.run.solvers
    outdir = Path(args.output or cfg.run.output_dir)
    for kind in solvers:
        try:
            record = run_sequence(cfg.optical, plan, kind, cfg.solver, cfg.refresh)
        except DarkTrapError as exc:
            print(f"solver failure ({kind}): {exc}", file=sys.stderr)
            return EXIT_SOLVER
        dest = save_run_record(outdir / kind, record, config_text=config_to_yaml(cfg))
        m = record.metrics
        times = record.solve_times * 1e3
        line = (
            f"{kind}: nu_min {min(m.frame_uniformity):.4f}"
            f"  dphi_std {m.dphi.std:.4f}"
        )
        if m.transition is not None:
            line += f"  I/I0_min {m.transition.minimum:.4f}"
        line += f"  mean_frame {times.mean():.2f} ms"
        print(line)
        print(f"wrote {dest}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .sequence import bench
    from .serial import write_bench_csv

    cfg = _load(args)
    plan = _plan_for(cfg)
    entries = [(kind, cfg.solver) for kind in cfg.run.solvers]
    try:
        rows = bench(
            cfg.optical, plan, entries, refresh=cfg.refresh,
            warmup_frames=cfg.run.warmup_frames, task_label=cfg.task.kind,
        )
    except ValueError as exc:  # bad input, such as a warmup_frames that leaves no frame
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    write_bench_csv(args.output, rows)
    for r in rows:
        print(
            f"{r.task} {r.solver}: iter {r.iterations}, phase_std {r.phase_std:.4f}, "
            f"mean {r.mean_ms:.3f} ms over {r.frames} frames"
        )
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_landscape(args) -> int:
    import csv

    import numpy as np

    from .transient import intensity_model

    a_values = np.linspace(0.0, 1.0, args.a_steps)
    dphi_values = np.linspace(0.0, np.pi, args.dphi_steps)
    with open(args.output, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "dphi", "intensity"])
        for a in a_values:
            for d in dphi_values:
                w.writerow([repr(float(a)), repr(float(d)), repr(intensity_model(a, d))])
    print(f"wrote {args.output} ({args.a_steps * args.dphi_steps} cells)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_verification

    ok = run_verification(quick=args.quick, out=sys.stdout)
    return EXIT_OK if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "plan": _cmd_plan,
        "run": _cmd_run,
        "bench": _cmd_bench,
        "landscape": _cmd_landscape,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
