"""ioimpact benchmark: seeded workloads run as a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src``. Inputs are generated from the seed under ``.bench_work``
and removed afterwards. One operation runs at a time, with BLAS pinned to one
thread. Every operation passes through the correctness gate (gate.py).

``--trace 0`` prints the end-to-end metrics: op_s, scenarios_per_s, setup_s
and peak_rss_mb, measured without tracing. ``--trace 1`` runs the operations
in-process with spans around the package's public functions and prints the
per-layer metrics instead. The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics; the lines before it
give the metrics in readable form, fail_frac and a provenance record.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and (through the environment) in every child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from gate import OpLog, check_cli_output  # noqa: E402
from inputs import WORKLOADS, cli_argv, load_references, prepare  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# Cold operations per run; setup_s is their median.
SETUP_REPS = 3
# No new operation starts after this many seconds, so a run ends within 180 s.
RUN_BUDGET_S = 120.0
HARD_LIMIT_S = 170.0
IMPORT_PROBES = 3

T0 = time.monotonic()


def remaining() -> float:
    return HARD_LIMIT_S - (time.monotonic() - T0)


def child_env(home: Path) -> dict:
    """Environment of a child process: src importable, caches confined to ``home``."""
    (home / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env["HOME"] = str(home)
    env["XDG_CACHE_HOME"] = str(home / ".cache")
    env["TMPDIR"] = str(home / "tmp")
    return env


def spawn(cmd: list[str], env: dict, log_dir: Path) -> tuple[int, float, float]:
    """Run a process to completion; returns (exit code, wall s, peak RSS MB).

    Stdout and stderr go to files in ``log_dir``. A process still running
    when the run's time is up is killed and reported with a non-zero code.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        reaped = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(remaining(), 1.0))
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def tail(path: Path, lines: int = 3) -> str:
    text = path.read_text(encoding="utf-8", errors="replace")
    return " | ".join(text.strip().splitlines()[-lines:])


def last_json_line(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8").strip().splitlines()[-1])


# -- end-to-end runs ----------------------------------------------------------


def cli_operation(plan, refs, inputs_dir: Path, root: Path, log, tamper=None):
    """One `ioimpact run` process, checked by the gate; returns (wall s, RSS MB)."""
    out_dir = root / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, "-m", "ioimpact.cli", *cli_argv(plan, inputs_dir, out_dir)]
    code, wall, rss = spawn(cmd, child_env(root / "home"), root / "logs")
    if code != 0:
        log.record([f"ioimpact run exited {code}: {tail(root / 'logs' / 'stderr')}"])
    else:
        problems, signature = check_cli_output(tamper(out_dir) if tamper else out_dir, plan, refs)
        log.record(problems, signature)
    return wall, rss


def run_cli(
    plan: dict, work: Path, seconds: float, setup_reps: int = SETUP_REPS, tamper=None
) -> dict:
    """Cold operations on fresh copies of the inputs, then timed operations.

    Each cold operation gets its own input directory, output directory and
    HOME, so any cache or lazy set-up the program adds is paid there.
    """
    refs = load_references(Path(plan["references"]))
    log = OpLog()
    inputs_dir = Path(plan["inputs_dir"])
    setup = []
    for rep in range(setup_reps):
        fresh = work / f"setup{rep}"
        shutil.copytree(inputs_dir, fresh / "inputs")
        wall, _ = cli_operation(plan, refs, fresh / "inputs", fresh, log, tamper)
        setup.append(wall)
        shutil.rmtree(fresh)
    op_s, rss = [], []
    start = time.monotonic()
    while True:
        wall, peak = cli_operation(plan, refs, inputs_dir, work / "timed", log, tamper)
        op_s.append(wall)
        rss.append(peak)
        elapsed = time.monotonic() - start
        if elapsed >= seconds or time.monotonic() - T0 >= RUN_BUDGET_S:
            break
    return {"setup_s": setup, "op_s": op_s, "rss_mb": rss, "log": log}


def run_library(plan: dict, work: Path, seconds: float, setup_reps: int = SETUP_REPS) -> dict:
    """Fresh worker processes; each runs one cold pass, the last then times passes.

    A cold sample is interpreter start and ``import ioimpact`` (measured from
    the spawn to the end of the import) plus the first pass; generating the
    in-memory table is input preparation and is excluded.
    """
    log = OpLog()
    setup, op_s, rss, digests = [], [], [], set()
    for rep in range(setup_reps):
        last = rep == setup_reps - 1
        budget = max(0.0, min(seconds, RUN_BUDGET_S - (time.monotonic() - T0)))
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--plan", str(work / "plan.json"),
            "--mode", "e2e" if last else "cold", "--seconds", repr(budget),
        ]
        root = work / f"worker{rep}"
        spawned_at = time.monotonic()
        code, _, peak = spawn(cmd, child_env(root / "home"), root / "logs")
        if code != 0:
            log.record([f"library worker exited {code}: {tail(root / 'logs' / 'stderr')}"])
            continue
        result = last_json_line(root / "logs" / "stdout")
        log.merge(result)
        setup.append(result["imported_at"] - spawned_at + result["setup_op_s"])
        op_s += result["op_s"]
        rss.append(peak)
        if result["digest"] is not None:
            digests.add(result["digest"])
    if len(digests) > 1:
        log.failed += 1
        log.problems.append("library result digests differ between processes")
    return {"setup_s": setup, "op_s": op_s, "rss_mb": rss, "log": log}


def end_to_end_metrics(plan: dict, run: dict) -> dict:
    """Medians over the run's operations; scenarios_per_s is S per median op_s."""

    def median(values):
        return statistics.median(values) if values else 0.0

    op_s = median(run["op_s"])
    return {
        "op_s": (op_s, "s"),
        "scenarios_per_s": (plan["scenario_count"] / op_s if op_s else 0.0, "1/s"),
        "setup_s": (median(run["setup_s"]), "s"),
        "peak_rss_mb": (median(run["rss_mb"]), "MB"),
    }


# -- traced run ---------------------------------------------------------------


def run_traced(plan: dict, work: Path, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from an in-process traced worker, plus import time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--plan", str(work / "plan.json"), "--mode", "trace", "--seconds", repr(float(seconds)),
    ]
    root = work / "trace"
    code, _, _ = spawn(cmd, child_env(root / "home"), root / "logs")
    if code != 0:
        raise RuntimeError(f"traced worker exited {code}: {tail(root / 'logs' / 'stderr')}")
    result = last_json_line(root / "logs" / "stdout")
    log = OpLog()
    log.merge(result)
    metrics = {name: tuple(value) for name, value in result["layers"].items()}
    probe = "import time; t = time.perf_counter(); import ioimpact; print(time.perf_counter() - t)"
    imports = []
    for rep in range(IMPORT_PROBES):
        probe_root = work / f"import{rep}"
        cmd = [sys.executable, "-c", probe]
        code, _, _ = spawn(cmd, child_env(probe_root / "home"), probe_root / "logs")
        if code != 0:
            message = tail(probe_root / "logs" / "stderr")
            raise RuntimeError(f"import probe exited {code}: {message}")
        imports.append(float(last_json_line(probe_root / "logs" / "stdout")))
    metrics["process.import_s"] = (statistics.median(imports), "s")
    return metrics, {"log": log, "pairs": result["pairs"]}


# -- provenance ---------------------------------------------------------------


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(plan: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "workload": plan["workload"],
        "seed": plan["seed"],
        "n": plan["n"],
        "scenarios": plan["scenario_count"],
        "input_bytes": plan["input_bytes"],
        "input_kind": "files" if plan["kind"] == "cli" else "in-memory arrays",
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads_pinned": int(BLAS_THREADS),
            "threads_reported": _blas_threads(),
        },
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# -- entry point --------------------------------------------------------------


def import_package() -> None:
    """Import ioimpact from this checkout's src, or fail."""
    if not (SRC / "ioimpact" / "__init__.py").is_file():
        raise SystemExit(f"error: no ioimpact sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ioimpact

    if SRC.resolve() not in Path(ioimpact.__file__).resolve().parents:
        raise SystemExit(f"error: imported ioimpact from {ioimpact.__file__}, not from {SRC}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """Generate inputs, run the workload, clean up; returns (metrics, run info, plan)."""
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = prepare(WORKLOADS[workload], seed, work)
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        if trace:
            metrics, info = run_traced(plan, work, seconds)
        else:
            run = (run_cli if plan["kind"] == "cli" else run_library)(plan, work, seconds)
            metrics = end_to_end_metrics(plan, run)
            info = run
        return metrics, info, plan
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ioimpact benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_package()
    metrics, info, plan = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    log = info["log"]

    print(
        f"workload {plan['workload']}: n={plan['n']}, "
        f"scenarios={plan['scenario_count']}, seed={plan['seed']}"
    )
    if args.trace:
        print(f"traced run: {info['pairs']} untraced/traced operation pairs, in-process")
    else:
        print(f"timed operations (s): {' '.join(f'{v:.4f}' for v in info['op_s'])}")
        print(f"cold operations (s):  {' '.join(f'{v:.4f}' for v in info['setup_s'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    fail_frac = log.failed / max(log.attempted, 1)
    print(f"  {'fail_frac':<44} {fail_frac:.6g} ({log.failed}/{log.attempted})")
    for problem in log.problems:
        print(f"  problem: {problem}")
    print("provenance " + json.dumps(provenance(plan), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": log.failed == 0,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
