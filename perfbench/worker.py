"""In-process operations: the library pass, and traced CLI runs.

Run as ``python3 perfbench/worker.py --plan PLAN --mode MODE --seconds S``
with ``src`` on PYTHONPATH and BLAS pinned by the caller. Prints one JSON
object as its last line of standard output. Modes:

- ``cold`` (library workloads): one cold operation.
- ``e2e`` (library workloads): one cold operation, then timed operations
  for S seconds.
- ``trace``: a warm-up operation, then pairs of one untraced and one traced
  operation for S seconds; the traced ones give the per-layer metrics.
"""

from __future__ import annotations

import os
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import ioimpact  # noqa: E402,F401

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from ioimpact import cli, impact, leontief, scenario  # noqa: E402

import inputs  # noqa: E402
from gate import OpLog, check_cli_output, check_library_output  # noqa: E402
from tracer import Tracer  # noqa: E402


def library_pass(table, specs) -> list:
    """build_model once, then every scenario through both methods."""
    model = leontief.build_model(table)
    runs = []
    for spec in specs:
        delta = scenario.build_delta(table, spec)
        inop = impact.apply_blowup(impact.inoperability(model, delta), spec.blowup_factor)
        alpha = scenario.extraction_intensities(table, spec)
        ext_spec = impact.make_extraction_spec(
            model, spec.target_sector, alpha, f_bar=model.f + delta.delta, label=delta.scenario
        )
        ext = impact.apply_blowup(impact.partial_extraction(model, ext_spec), spec.blowup_factor)
        runs.append((spec.name, inop, ext, impact.compare_methods(ext, inop)))
    return runs


class Operations:
    """One workload's operation, timed and checked; ``tamper`` corrupts output
    before the check (used only by the self-test)."""

    def __init__(self, plan: dict, work: Path, tamper=None):
        self.plan = plan
        self.refs = inputs.load_references(Path(plan["references"]))
        self.log = OpLog()
        self.tamper = tamper
        if plan["kind"] == "library":
            self.table = inputs.generate_table(plan["n"], plan["seed"])
            self.specs = [inputs.scenario_spec(doc) for doc in plan["scenarios"]]
        else:
            self.out_dir = work / "inproc_out"
            self.argv = inputs.cli_argv(plan, Path(plan["inputs_dir"]), self.out_dir)

    def run(self) -> float:
        """Run and check one operation; returns its wall time."""
        if self.plan["kind"] == "cli":
            shutil.rmtree(self.out_dir, ignore_errors=True)
        start = time.perf_counter()
        try:
            if self.plan["kind"] == "library":
                output = library_pass(self.table, self.specs)
            else:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(self.argv)
                output = self.out_dir
        except Exception as exc:  # an operation that raises is a counted failure
            self.log.record([f"operation raised {exc!r}"])
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if self.tamper is not None:
            output = self.tamper(output)
        if self.plan["kind"] == "library":
            problems, signature = check_library_output(output, self.refs)
        else:
            problems, signature = check_cli_output(output, self.plan, self.refs)
            if code != 0:
                problems.insert(0, f"exit code {code}")
        self.log.record(problems, signature)
        return elapsed


def run_e2e(ops: Operations, seconds: float | None) -> dict:
    """One cold operation; then, unless ``seconds`` is None, timed operations
    (at least one) until ``seconds`` have passed."""
    setup_op_s = ops.run()
    op_s = []
    start = time.monotonic()
    while seconds is not None:
        op_s.append(ops.run())
        if time.monotonic() - start >= seconds:
            break
    return {
        "imported_at": IMPORTED_AT,
        "setup_op_s": setup_op_s,
        "op_s": op_s,
        "digest": ops.log.baseline,
        **ops.log.as_dict(),
    }


def run_trace(ops: Operations, seconds: float) -> dict:
    ops.run()  # warm-up: imports resolved, first-call costs paid
    tracer = Tracer()
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        untraced.append(ops.run())
        tracer.install()
        try:
            traced.append(ops.run())
        finally:
            tracer.uninstall()
        if time.monotonic() - start >= seconds:
            break
    layers = tracer.summary(len(traced))
    untraced_s = statistics.median(untraced)
    traced_s = statistics.median(traced)
    layers["trace.untraced_op_s"] = (untraced_s, "s")
    layers["trace.traced_op_s"] = (traced_s, "s")
    layers["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return {"layers": layers, "pairs": len(traced), **ops.log.as_dict()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--mode", choices=("cold", "e2e", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    plan_path = Path(args.plan)
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    ops = Operations(plan, plan_path.parent)
    if args.mode == "trace":
        result = run_trace(ops, args.seconds)
    else:
        result = run_e2e(ops, args.seconds if args.mode == "e2e" else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
