"""chainforge benchmark: scene-to-chain latency, accuracy and per-layer traces.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads, each a closed loop with one caller and no worker threads:

  corpus-geometric     the 500-scene zero-noise round-trip corpus; each scene
                       file goes read_scene -> build_chain (geometric) ->
                       serialize(to_descriptor) -> generate_model -> write_model,
                       the path of `chainforge identify --out`.
  corpus-optimization  the same scenes and path with the optimization back end.
  noisy-roundtrip      `chainforge roundtrip` on the manipulator
                       I-T'0-T'0-A0-t0-i0-g0: synthesize, then build_chain with
                       both back ends, over four noise rows of 100 joint draws.

Without --seed the acceptance seeds are used (corpus 20260808, joint draws
4242, marker seeds 9000 + k) and the generated inputs are compared with
pinned digests.  The timed loop repeats the workload's scenes until
--seconds have passed and every scene has run at least once.  Latencies
and set-up times are scaled to a reference machine speed measured between
scenes (see reference.py); the raw figures are printed next to them.

Every metric is printed as `name value unit`.  The last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`, where `metrics`
holds the end-to-end metrics BENCHMARK.json declares, or with --trace 1 its
per-layer metrics.  Full results, with the environment, are written to
perfbench/out/results/.  Exit code: 0 when every check passed, 1 when an
output was wrong, 2 when the benchmark could not run (nothing is printed
to stdout then).
"""

import os

# One caller and no worker threads: pin every BLAS pool before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("corpus-geometric", "corpus-optimization", "noisy-roundtrip")

WARMUP_SCENES = 5
# Run the reference kernel after the scene that ends this long after its last run.
KERNEL_EVERY_S = 0.1
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
LOAD_DATABASE_REPEATS = 5


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Result:
    """What one run measured and checked."""

    attempted: int
    failed: int
    messages: list[str]
    metrics: dict[str, tuple]
    accuracy: dict
    raw: dict


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: the acceptance seeds)"
    )
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_chainforge():
    """Import chainforge from this checkout's src/, never from anywhere else."""
    init = SRC / "chainforge" / "__init__.py"
    if not init.is_file():
        raise BenchmarkError(f"no chainforge sources at {init}")
    sys.path.insert(0, str(SRC))
    import chainforge

    if Path(chainforge.__file__).resolve() != init.resolve():
        raise BenchmarkError(f"imported chainforge from {chainforge.__file__}, not {init}")
    return chainforge


def make_workload(name, db, seeds, workdir):
    import workloads

    if name == "corpus-geometric":
        return workloads.CorpusWorkload(name, workloads.GEOMETRIC, db, seeds, workdir)
    if name == "corpus-optimization":
        return workloads.CorpusWorkload(name, workloads.OPTIMIZATION, db, seeds, workdir)
    return workloads.NoisyRoundtripWorkload(db, seeds, workdir)


def check_inputs(seeds, workload) -> list[str]:
    """At the acceptance seeds the generated inputs must match the pinned digests."""
    if seeds.is_acceptance and workload.input_digest() != workload.PINNED_SHA256:
        return ["generated inputs differ from the pinned acceptance inputs"]
    return []


class Loop:
    """Results of one closed-loop run over a workload's scenes."""

    def __init__(self, n: int):
        # Per scene: (start, seconds) of each timed run.
        self.samples: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        self.first: list = [None] * n
        self.keys: list = [None] * n
        self.untyped: list[str] = []
        self.changed: list[str] = []
        self.warnings = 0
        self.ops = 0
        self.wall = 0.0
        # (start, seconds) of each run of the reference kernel.
        self.kernel: list[tuple[float, float]] = []

    def per_scene(self, scaled: bool = True) -> list[float]:
        """Latency of each scene in seconds: the median of its timed runs.

        Scaled, each run is first brought to the reference speed by the
        kernel runs closest to it in time.  Only whole passes count, so
        every scene has the same number of runs.
        """
        passes = self.ops // len(self.samples)
        scale = self._scaler() if scaled else (lambda start: 1.0)
        return [
            statistics.median(seconds * scale(start) for start, seconds in runs[:passes])
            for runs in self.samples
        ]

    def kernel_ms(self) -> float:
        return statistics.median(seconds for _, seconds in self.kernel) * 1e3

    def _scaler(self):
        """Map a run's start time to the factor that brings it to the reference speed."""
        starts = [start for start, _ in self.kernel]
        seconds = [s for _, s in self.kernel]
        # Median of five neighbouring kernel runs, about half a second of the loop.
        local = [statistics.median(seconds[max(0, i - 2) : i + 3]) for i in range(len(seconds))]

        def scale(start: float) -> float:
            i = bisect.bisect(starts, start)
            if i == len(starts) or (i > 0 and start - starts[i - 1] < starts[i] - start):
                i -= 1
            return reference.REFERENCE_MS / (local[i] * 1e3)

        return scale


def closed_loop(workload, budget_s: float, log: list, tracer=None) -> Loop:
    """Run scenes back to back until budget_s has passed and each ran once.

    Only the call to `workload.run` is timed.  An untyped exception is a
    wrong output; the loop records it and goes on.  A traced loop stops
    only at the end of a pass, so every scene weighs the same in its
    per-scene figures.
    """
    items = workload.items
    n = len(items)
    loop = Loop(n)
    gc.collect()
    start = last_kernel = time.perf_counter()
    while True:
        k = loop.ops % n
        if tracer is not None:
            tracer.scene = loop.ops
        t0 = time.perf_counter()
        try:
            outcome = workload.run(items[k])
        except Exception as exc:  # counted as a failed operation, never hidden
            t1 = time.perf_counter()
            outcome = None
            loop.untyped.append(f"scene {k}: {type(exc).__name__}: {exc}")
        else:
            t1 = time.perf_counter()
        loop.samples[k].append((t0, t1 - t0))
        if tracer is not None:
            tracer.end_scene()
        loop.warnings += len(log)
        del log[:]
        if loop.ops < n:
            loop.first[k] = outcome
            loop.keys[k] = None if outcome is None else workload.key(outcome)
        elif outcome is not None and workload.key(outcome) != loop.keys[k]:
            loop.changed.append(f"scene {k}: result differs from its first run")
        loop.ops += 1
        if t1 - last_kernel >= KERNEL_EVERY_S or not loop.kernel:
            last_kernel = time.perf_counter()
            loop.kernel.append((last_kernel, reference.time_kernel()))
        if loop.ops >= n and t1 - start >= budget_s:
            if tracer is None or loop.ops % n == 0:
                break
    loop.wall = time.perf_counter() - start - sum(seconds for _, seconds in loop.kernel)
    return loop


def check_first_pass(workload, loop: Loop) -> tuple[int, list[str]]:
    """Failed operations and their messages, over every scene's first run."""
    failed = len(loop.untyped) + len(loop.changed)
    messages = loop.untyped + loop.changed
    for item, outcome in zip(workload.items, loop.first):
        if outcome is None:
            continue
        problems = workload.check(item, outcome)
        if problems:
            failed += 1
            messages.extend(problems)
    return failed, messages


def acceptance_gate(seeds, workload, accuracy) -> list[str]:
    """At the acceptance seeds every corpus scene must come back exact."""
    if not seeds.is_acceptance or not workload.name.startswith("corpus"):
        return []
    if accuracy["exact"] != accuracy["attempted"]:
        return [
            f"acceptance corpus: {accuracy['exact']}/{accuracy['attempted']} exact "
            f"with the {workload.method} back end"
        ]
    return []


def measure_setup(workload, db_path: str) -> list[tuple[float, float]]:
    """Seconds of fresh-process set-up per probe process, raw and scaled.

    Three kernel runs before each probe give the machine's speed for it.
    """
    spec = json.dumps(workload.warmup_spec(workload.items[0]))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), db_path, spec]
    values = []
    for _ in range(SETUP_REPEATS):
        kernel_ms = statistics.median(reference.time_kernel() for _ in range(3)) * 1e3
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False
        )
        if done.returncode != 0:
            raise BenchmarkError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        seconds = float(done.stdout.strip().splitlines()[-1])
        values.append((seconds, seconds * reference.REFERENCE_MS / kernel_ms))
    return values


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "chainforge").rglob("*.py"))
    )


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def environment(args, seeds) -> dict:
    import numpy

    import inputs

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seeds": {
            "corpus": inputs.CORPUS_SEED,
            "poses": seeds.poses,
            "joints": seeds.joints,
            "markers": seeds.markers,
        },
        "seed_arg": args.seed,
        "seconds": args.seconds,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def accuracy_metrics(workload, accuracy, loop: Loop) -> dict:
    """Accuracy and failure figures of the first run of every scene."""
    attempted = accuracy["attempted"]
    errors = sum(accuracy["identification_errors"].values()) + len(loop.untyped)
    by_method = accuracy["exact_by_method"]
    trials = len(workload.items)
    metrics = {
        "exact_rate": (accuracy["exact"] / attempted, "ratio"),
        "ok_rate": (1.0 - errors / attempted, "ratio"),
        "error_rate": (errors / attempted, "ratio"),
        "exact_rate_geo": (
            by_method["geometric"] / trials if "geometric" in by_method else None,
            "ratio",
        ),
        "exact_rate_opt": (
            by_method["optimization"] / trials if "optimization" in by_method else None,
            "ratio",
        ),
        "joint_err_p95_deg": (accuracy["joint_err_p95_deg"], "deg"),
    }
    for name, count in sorted(accuracy["identification_errors"].items()):
        metrics[f"identify.errors.{name}"] = (count, "count")
    for row, figures in accuracy["rows"].items():
        metrics[f"accuracy.{row}.exact"] = (figures["exact"] / figures["trials"], "ratio")
        metrics[f"accuracy.{row}.joint_err_p95_deg"] = (figures["joint_err_p95_deg"], "deg")
    return metrics


def warm_up(workload, log):
    """Run a few scenes untimed so that lazy caches fill before timing."""
    for item in workload.items[:WARMUP_SCENES]:
        try:
            workload.run(item)
        except Exception:  # the timed loop runs this scene again and records it
            pass
    del log[:]


def run_end_to_end(args, workload, db_path, log) -> Result:
    import workloads

    setup = measure_setup(workload, db_path)
    warm_up(workload, log)
    loop = closed_loop(workload, args.seconds, log)
    failed, messages = check_first_pass(workload, loop)
    accuracy = workload.accuracy(workload.items, loop.first)
    per_scene = loop.per_scene()
    raw = loop.per_scene(scaled=False)
    metrics = {
        "scene_ms_p50": (statistics.median(per_scene) * 1e3, "ms"),
        "scene_ms_p95": (workloads.quantile(per_scene, 0.95) * 1e3, "ms"),
        "scenes_per_s": (len(per_scene) / sum(per_scene), "1/s"),
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "scene_ms_p50_raw": (statistics.median(raw) * 1e3, "ms"),
        "scene_ms_p95_raw": (workloads.quantile(raw, 0.95) * 1e3, "ms"),
        "scenes_per_s_wall": (loop.ops / loop.wall, "1/s"),
        "setup_s_raw": (statistics.median(seconds for seconds, _ in setup), "s"),
        "machine.kernel_ms": (loop.kernel_ms(), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "scene_ms.samples": (loop.ops, "count"),
        "scene_ms.scenes": (len(per_scene), "count"),
        "warnings_per_scene": (loop.warnings / loop.ops, "count/scene"),
    }
    metrics.update(accuracy_metrics(workload, accuracy, loop))
    return Result(loop.ops, failed, messages, metrics, accuracy, {"setup_probes_s": setup})


def run_traced(args, workload, db_path, log) -> Result:
    import tracing
    import chainforge.module_db as cf_module_db

    loads = []
    for _ in range(LOAD_DATABASE_REPEATS):
        t0 = time.perf_counter()
        cf_module_db.load_database(db_path)
        loads.append(time.perf_counter() - t0)
    warm_up(workload, log)
    # Alternate untraced and traced passes, so that slow spells of the
    # machine fall on both sides of the overhead ratio.
    plain_passes, traced_passes = [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while not plain_passes or time.perf_counter() - start < args.seconds:
        plain_passes.append(closed_loop(workload, 0.0, log))
        with tracing.Installed(tracer, tracing.HOOKS) as installed:
            traced_passes.append(closed_loop(workload, 0.0, log, tracer))
    plain, traced = plain_passes[0], traced_passes[0]
    failed, messages = check_first_pass(workload, plain)
    for other in plain_passes[1:] + traced_passes:
        for k, (a, b) in enumerate(zip(plain.keys, other.keys)):
            if a != b:
                failed += 1
                messages.append(f"scene {k}: result differs from its first run")
    accuracy = workload.accuracy(workload.items, traced.first)
    scenes = len(workload.items)
    metrics = dict(tracing.layer_metrics(tracer, set(installed.absent)))
    metrics["module_db.load_database_ms"] = (statistics.median(loads) * 1e3, "ms")
    errors = accuracy["identification_errors"]
    metrics["identify.errors"] = (
        (sum(errors.values()) + len(traced.untyped)) / scenes,
        "count/scene",
    )
    for name in sorted({"NoToolModule", "NonCollinearBundles", "AmbiguousParent"} | set(errors)):
        metrics[f"identify.errors.{name}"] = (errors.get(name, 0) / scenes, "count/scene")
    metrics["identify.warnings"] = (
        sum(p.warnings for p in traced_passes) / tracer.scenes,
        "count/scene",
    )
    metrics["trace.overhead_ratio"] = (
        sum(map(min, zip(*(p.per_scene() for p in traced_passes))))
        / sum(map(min, zip(*(p.per_scene() for p in plain_passes)))),
        "ratio",
    )
    metrics["trace.scenes"] = (tracer.scenes, "count")
    attempted = sum(p.ops for p in plain_passes + traced_passes)
    raw = {"absent_hooks": installed.absent, "spans": tracer.kept}
    return Result(attempted, failed, messages, metrics, accuracy, raw)


def declared_metrics(trace: int) -> dict[str, str]:
    """Name and unit of each metric the final JSON line carries."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def format_value(value) -> str:
    return "absent" if value is None else repr(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_chainforge()
        declared = declared_metrics(args.trace)
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import chainforge
    import inputs

    seeds = inputs.Seeds.from_arg(args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        with warnings.catch_warnings(record=True) as log:
            # Count every warning: the default filter would show each call
            # site once and make the count depend on what ran before.
            warnings.simplefilter("always")
            db_path = str(workdir / "db.json")
            chainforge.save_database(chainforge.default_database(), db_path)
            db = chainforge.load_database(db_path)
            workload = make_workload(args.workload, db, seeds, str(workdir))
            problems = check_inputs(seeds, workload)
            del log[:]
            run = run_traced if args.trace else run_end_to_end
            result = run(args, workload, db_path, log)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += acceptance_gate(seeds, workload, result.accuracy)
    messages = result.messages + problems
    failed = result.failed + len(problems)
    metrics = result.metrics
    metrics["repo.src_lines"] = (src_lines(), "lines")
    correct = failed == 0

    for name, (value, unit) in metrics.items():
        print(f"{name} {format_value(value)} {unit}")
    for message in messages[:20]:
        print(f"FAIL {message}", file=sys.stderr)

    seed_tag = "acceptance" if args.seed is None else f"seed{args.seed}"
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-{seed_tag}-{'trace' if args.trace else 'e2e'}"
    if args.trace:
        with open(results_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, scene in result.raw.pop("spans"):
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "scene": scene}
                    )
                    + "\n"
                )
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args, seeds),
        "correct": correct,
        "attempted": result.attempted,
        "failed": failed,
        "failures": messages[:100],
        "metrics": {
            name: {"value": value, "unit": unit, "absent": value is None}
            for name, (value, unit) in metrics.items()
        },
        "raw": result.raw,
    }
    (results_dir / f"{stem}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8"
    )

    summary = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, (None,))[0] or 0.0, "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
