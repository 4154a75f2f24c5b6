"""Self-test of the benchmark at toy size (n=20, at most 3 scenarios).

    python3 perfbench/selftest.py

Runs every workload once end to end and once traced, and checks that:
every operation passes the correctness gate; every metric BENCHMARK.json
names is reported, and every metric name uses only letters, digits, ``_``,
``.`` and ``-``; the traced run counts 1 + 2·S dense solves per operation;
deliberately corrupted results (a perturbed value, a NaN, a rerun whose
digests differ) are counted as failures; and a directory without the
package's sources makes run.py exit non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run  # sets the BLAS pins before numpy loads

run.import_package()

import numpy as np  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402

TOY_N = 20
TOY_SCENARIOS = 3
SEED = 11
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def toy_plan(name: str, work: Path) -> dict:
    wl = inputs.WORKLOADS[name]
    toy = replace(wl, n=TOY_N, scenarios=min(wl.scenarios, TOY_SCENARIOS))
    plan = inputs.prepare(toy, SEED, work)
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return plan


def perturb_result(out_dir: Path) -> Path:
    """Scale one dx entry of the first result file by 1 + 1e-6."""
    path = next(out_dir.rglob("result_inoperability.json"))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["dx"][0] *= 1 + 1e-6
    path.write_text(json.dumps(doc), encoding="utf-8")
    return out_dir


def nan_in_report(out_dir: Path) -> Path:
    """Replace one number of the multiplier CSV by nan."""
    path = next(out_dir.rglob("multipliers.csv"))
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[-1] = "nan"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_dir


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    for name in sorted(e2e_names | layer_names | {w["name"] for w in spec["workloads"]}):
        if not NAME_RE.match(name):
            check(False, f"BENCHMARK.json name {name!r} is well formed")
    listed = {w["name"] for w in spec["workloads"]}
    check(listed <= set(inputs.WORKLOADS), "every workload BENCHMARK.json lists exists")

    base = run.WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for name, wl in inputs.WORKLOADS.items():
            work = base / name
            plan = toy_plan(name, work)
            runner = run.run_cli if wl.kind == "cli" else run.run_library
            e2e = runner(plan, work, 0.0, setup_reps=1)
            log = e2e["log"]
            clean = log.attempted >= 2 and log.failed == 0
            check(clean, f"{name}: clean run passes the gate {log.as_dict()}")
            metrics = run.end_to_end_metrics(plan, e2e)
            check(set(metrics) == e2e_names, f"{name}: end-to-end metrics match BENCHMARK.json")
            positive = all(v > 0 for v, _ in metrics.values())
            check(positive, f"{name}: end-to-end metrics are positive")

            layers, info = run.run_traced(plan, work, 0.0)
            check(info["log"].failed == 0, f"{name}: traced run passes the gate")
            check(set(layers) == layer_names, f"{name}: per-layer metrics match BENCHMARK.json")
            check(all(NAME_RE.match(m) for m in layers), f"{name}: per-layer names are well formed")
            solves = layers["linalg.solve.calls"][0]
            expected = 1 + 2 * plan["scenario_count"]
            check(solves == expected, f"{name}: {solves:g} solves per operation")

        # Corruption is counted: a perturbed value and a NaN through the CLI path.
        plan = json.loads((base / "scenario_sweep" / "plan.json").read_text(encoding="utf-8"))
        for label, tamper in (("perturbed dx", perturb_result), ("NaN in a report", nan_in_report)):
            bad = run.run_cli(plan, base / "scenario_sweep", 0.0, setup_reps=1, tamper=tamper)
            frac = bad["log"].failed / bad["log"].attempted
            check(frac == 1.0, f"{label}: fail_frac {frac:g}")

        # ...and through the library path, in-process.
        plan = json.loads((base / "library_sweep" / "plan.json").read_text(encoding="utf-8"))

        def scale_dx(runs):
            name, inop, ext, cmp_ = runs[0]
            return [(name, replace(inop, dx=inop.dx * (1 + 1e-6)), ext, cmp_), *runs[1:]]

        ops = worker.Operations(plan, base / "library_sweep", tamper=scale_dx)
        ops.run()
        check(ops.log.failed == 1, "library: perturbed dx is counted as a failure")

        # A rerun whose digests differ from the first run is a failure.
        calls = {"n": 0}

        def second_differs(runs):
            calls["n"] += 1
            if calls["n"] == 1:
                return runs
            name, inop, ext, cmp_ = runs[0]
            changed = replace(cmp_, top_overlap=cmp_.top_overlap + ("X",))
            return [(name, inop, ext, changed), *runs[1:]]

        ops = worker.Operations(plan, base / "library_sweep", tamper=second_differs)
        ops.run()
        ops.run()
        counted = ops.log.failed == 1 and ops.log.attempted == 2
        check(counted, "library: differing rerun digests are counted")

        # The gate's tolerance: 1e-12 relative passes, 1e-6 fails, NaN fails.
        ref = {"q": np.array([1.0, -2.0]), "dx": np.array([3.0, 4.0]),
               "totals": np.zeros(4), "scales": np.ones(4)}
        totals = dict.fromkeys(inputs.TOTAL_KINDS, 0.0)
        near = gate.compare("t", ref["q"] * (1 + 1e-12), ref["dx"], totals, ref)
        far = gate.compare("t", ref["q"] * (1 + 1e-6), ref["dx"], totals, ref)
        check(not near, "gate accepts 1e-12 relative")
        check(bool(far), "gate rejects 1e-6 relative")
        check(bool(gate.compare("t", ref["q"], [np.nan, 4.0], totals, ref)), "gate rejects NaN")

        # Without src/ the benchmark refuses to run.
        bare = base / "bare"
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=ignore)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "big_table", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        refused = proc.returncode != 0 and '"correct"' not in proc.stdout
        check(refused, "no sources: non-zero exit, no result")
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()

    print(f"{len(failures)} failed check(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
