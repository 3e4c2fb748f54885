"""holoseq benchmark: end-to-end and per-layer metrics of `holoseq run`.

    python3 perfbench/run.py --workload desk-2d --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

Run from the repository root; the package is imported from ./src.  Each
workload writes a YAML config made from --seed and runs one `holoseq run`
invocation per pass, each in its own interpreter through holoseq.cli.main.

--trace 0: several setup-only interpreters (stopped at the first planner
call) and untraced passes until --seconds have passed; prints the end-to-end
metrics.  --trace 1: one traced pass between untraced ones; prints the per-layer
metrics, including the tracing overhead.  Every pass is checked (exit code,
masks, pinned quality, optimal plan) and later passes must reproduce the
first one's artifacts byte for byte.  The last stdout line is a JSON object
with correct / attempted / failed / metrics.  `--workload all` runs every
workload in both modes.
"""

from __future__ import annotations

import os

# before numpy loads here or in any child: one BLAS thread, as `--threads`
# and `run.threads` do not reach OpenBLAS
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
# untraced passes made in a run even when --seconds has run out; the host's
# speed drifts from pass to pass, so run_s is a median over many short passes
MIN_PASSES = 4
# a run must end within 180 s; no child starts or runs past this
RUN_DEADLINE_S = 165

sys.path[:0] = [str(HERE), str(SRC)]
import checks  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
import tracing  # noqa: E402
import yaml  # noqa: E402
from workloads import WORKLOADS, seed_index  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {
    "end_to_end": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    "per_layer": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}


def spawn(spec: dict, log, deadline: float) -> dict:
    """Run child.py with `spec` and return its result document."""
    spec = dict(spec, spawned=time.monotonic())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            timeout=max(deadline - spec["spawned"], 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "error": "child killed at the run deadline"}
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        return {"exit_code": None, "error": f"child exited with {proc.returncode}"}
    return json.loads(result_path.read_text())


class Run:
    """One benchmark run of one workload: passes, checks and metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = OUT / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.log = open(self.work / "children.log", "w")
        self.config_path = self.work / "config.yaml"
        self.config = self.workload.config_for(seed)
        self.config_path.write_text(yaml.safe_dump(self.config, sort_keys=False))
        self.grid = (self.config["optical"]["grid_x"], self.config["optical"]["grid_y"])
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.passes: list[dict] = []
        self.digests: dict[str, str] | None = None
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.reference = json.loads((HERE / "reference.json").read_text()).get(name, {}).get(
            str(seed_index(seed)), {}
        )

    def close(self):
        self.log.close()

    def check(self, errors: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.errors.extend(errors)

    def setup_only(self, i: int) -> None:
        res = spawn(
            {"mode": "setup", "argv": self.argv(self.work / f"setup{i}"), "trace": False,
             "pass_id": -1, "result": str(self.work / f"setup{i}.json")},
            self.log, self.deadline,
        )
        self.check([] if "setup_s" in res else [f"setup {i}: {res.get('error')}"])
        if "setup_s" in res:
            self.setup_s.append(res["setup_s"])

    def argv(self, outdir: Path) -> list[str]:
        return ["run", "-c", str(self.config_path), "-o", str(outdir)]

    def one_pass(self, traced: bool) -> dict | None:
        pid = len(self.passes)
        outdir = self.work / f"pass{pid}"
        res = spawn(
            {"mode": "pass", "argv": self.argv(outdir), "trace": traced, "pass_id": pid,
             "result": str(self.work / f"pass{pid}.json"),
             "spans": str(self.work / f"trace-seed{self.seed}.jsonl")},
            self.log, self.deadline,
        )
        try:
            self.check([] if res.get("exit_code") == 0 else
                       [f"pass {pid}: exit {res.get('exit_code')} {res.get('error', '')}".strip()])
            if res.get("exit_code") != 0:
                return None
            self.check_artifacts(res, outdir)
        except (OSError, ValueError, KeyError) as exc:
            self.check([f"pass {pid}: unreadable artifacts: {exc!r}"])
            return None
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        res["traced"] = traced
        self.passes.append(res)
        if "setup_s" in res:
            self.setup_s.append(res["setup_s"])
        return res

    def check_artifacts(self, res: dict, outdir: Path) -> None:
        """Run the per-pass checks; record quality, frame times and bytes in `res`."""
        frames = len(checks.frame_times_ms(outdir / self.workload.solvers[0]))
        digests = {}
        res["quality"] = {}
        res["frame_ms"] = {}
        for solver in self.workload.solvers:
            run_dir = outdir / solver
            self.check(checks.check_masks(run_dir, self.grid, frames))
            res["quality"][solver] = checks.quality(run_dir)
            self.check(checks.check_quality(
                res["quality"][solver], self.reference.get(solver), f"{solver} quality"))
            res["frame_ms"][solver] = checks.frame_times_ms(run_dir)
            digests.update({f"{solver}/{k}": v for k, v in checks.artifact_digests(run_dir).items()})
        if self.digests is None:
            self.digests = digests
            self.check(checks.check_plan_optimal(
                outdir / self.workload.solvers[0] / "plan.json", self.config_path))
        else:
            self.check(checks.check_same(self.digests, digests, f"pass {len(self.passes)}"))
        res["bytes_written"] = checks.bytes_under(outdir)

    def execute(self) -> None:
        start = time.monotonic()
        if self.trace:
            # untraced passes around one traced pass, for the overhead
            for traced in (False, True, False):
                self.one_pass(traced)
            return
        for i in range(SETUP_SAMPLES):
            self.setup_only(i)
        # after MIN_PASSES, start a pass only if a typical one ends within
        # --seconds, so that a run lasts about --seconds whatever a pass takes
        durations: list[float] = []
        while len(self.passes) < MIN_PASSES or (
            time.monotonic() - start + statistics.median(durations) <= self.seconds
        ):
            began = time.monotonic()
            if self.one_pass(traced=False) is None:
                break
            durations.append(time.monotonic() - began)

    def end_to_end(self) -> dict[str, float]:
        passes = [p for p in self.passes if not p["traced"]]
        if not passes or not self.setup_s:
            return {}
        return {
            "setup_s": statistics.median(self.setup_s),
            "run_s": statistics.median(p["run_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }

    def frame_times(self) -> dict[str, float]:
        """Frame times of the first solver from timing.csv of the untraced passes.

        Each sample covers about a second of the host's time, so these drift
        with the host's speed more than run_s does; they carry no bound.
        """
        passes = [p for p in self.passes if not p["traced"]]
        if not passes:
            return {}
        primary = self.workload.solvers[0]
        later = [t for p in passes for t in p["frame_ms"][primary][1:]]
        return {
            "sequence.first_frame_ms": statistics.median(p["frame_ms"][primary][0] for p in passes),
            "sequence.frame_ms.wpgs.p50": statistics.median(later),
            "sequence.frame_ms.wpgs.p90": statistics.quantiles(later, n=10, method="inclusive")[-1],
        }

    def per_layer(self) -> tuple[dict[str, float], dict]:
        untraced = [p for p in self.passes if not p["traced"]]
        traced = [p for p in self.passes if p["traced"]]
        if not untraced or not traced:
            return {}, {}
        spans_path = self.work / f"trace-seed{self.seed}.jsonl"
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        metrics = tracing.layer_metrics(spans)
        metrics.update(self.frame_times())
        primary = self.workload.solvers[0]
        metrics.update({f"quality.{k}.{primary}": v for k, v in traced[0]["quality"][primary].items()})
        metrics["serial.bytes_written"] = traced[0]["bytes_written"]
        untraced_s = statistics.median(p["run_s"] for p in untraced)
        metrics["trace.overhead_s"] = traced[0]["run_s"] - untraced_s
        missing = tracing.missing_spans(spans, self.expected_spans())
        metrics["trace.missing_spans"] = len(missing)
        extra = {
            "missing": missing,
            "module_self_s": tracing.module_self_times(spans),
            "untraced_run_s": untraced_s,
        }
        return metrics, extra

    def expected_spans(self) -> list[str]:
        skip = {"transient.transient_exact", "transient.transient_leading",
                "metrics.layer_split"}
        expected = [n for n in tracing.WRAPPED if n not in skip] + [tracing.CLI_SPAN]
        expected.append(f"transient.transient_{self.workload.refresh_order}")
        if self.workload.layered:
            expected.append("metrics.layer_split")
        return expected

    def environment(self) -> dict:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {
            "source": source_id(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads_env": BLAS_THREADS,
            "blas_threads_in_effect": sorted({p.get("blas_threads") for p in self.passes}),
            "passes": len(self.passes),
            "setup_samples": len(self.setup_s),
        }


def source_id() -> str:
    """git commit of the checkout, or a digest of src/ where it is not a git clone."""
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if proc.returncode == 0:
                return "git " + proc.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256 " + digest.hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed, seconds, trace)
    try:
        run.execute()
    finally:
        run.close()
    print(f"== {name} seed {seed} trace {int(trace)}")
    print("environment: " + json.dumps(run.environment()))
    kind = "per_layer" if trace else "end_to_end"
    units = UNITS[kind]
    if trace:
        metrics, extra = run.per_layer()
    else:
        metrics, extra = run.end_to_end(), {}
    missing = set(extra.get("missing", ()))
    for key, value in metrics.items():
        if key in units:
            note = "  MISSING: span never fired" if key.rsplit(".", 1)[0] in missing else ""
            print(f"  {key} = {value!r} {units[key]}{note}")
    if trace and metrics:
        top = max(extra["module_self_s"].items(), key=lambda kv: kv[1])
        print(f"  largest module self time: {top[0]} {top[1]:.3f} s; "
              f"untraced run_s {extra['untraced_run_s']:.3f} s")
    if not trace:
        for key, value in run.frame_times().items():
            print(f"  {key} = {value!r} {UNITS['per_layer'][key]} (no bound)")
    if run.passes:
        print("  quality " + json.dumps(run.passes[0]["quality"]))
    absent = sorted(set(units) - set(metrics))
    run.check([f"no value for {key}" for key in absent])
    for err in run.errors:
        print(f"  FAILED: {err}")
    print(f"  attempted {run.attempted}, failed {run.failed}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "holoseq" / "__init__.py").is_file():
        print(f"no holoseq package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        docs = {
            (name, trace): run_workload(name, args.seed, args.seconds, trace)
            for name in WORKLOADS for trace in (False, True)
        }
        doc = {
            "correct": all(d["correct"] for d in docs.values()),
            "attempted": sum(d["attempted"] for d in docs.values()),
            "failed": sum(d["failed"] for d in docs.values()),
            "metrics": {
                f"{name}:{key}": value
                for (name, _), d in docs.items() for key, value in d["metrics"].items()
            },
        }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
