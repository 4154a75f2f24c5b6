"""Workload definitions, seeded input generation and reference solutions.

Every input is a pure function of (workload, seed). The program under test
receives only what is generated here: a table from ``random_economy`` (written
with ``write_table_files`` for the CLI workloads) and scenario documents
shaped like the bundled covid fixtures. The reference solutions are plain
dense numpy solves on the generated table; they share no code with the
package's model, scenario or impact layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

METHODS = ("inoperability", "extraction")
TOTAL_KINDS = ("output", "value_added", "income", "employment")
FD_CODES = ("HH", "NPISH", "GOV", "GFCF", "INV", "EXP")
CONSUMPTION_CODES = ("HH", "NPISH", "GOV")
REALLOCATION_SECTORS = 5
USE_RATIO_SECTORS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli": one `ioimpact run` process per operation; "library": in-process pass
    n: int
    scenarios: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("big_table", "cli", n=1500, scenarios=1),
        Workload("scenario_sweep", "cli", n=500, scenarios=32),
        Workload("library_sweep", "library", n=1000, scenarios=48),
    )
}


def make_scenarios(n: int, count: int, seed: int) -> list[dict]:
    """Seeded scenario documents; odd-numbered ones reallocate to 5 sectors.

    Every scenario carries intermediate use ratios, so the extraction route
    always scales a real row of A.
    """
    if n <= REALLOCATION_SECTORS:
        raise ValueError(f"need more than {REALLOCATION_SECTORS} sectors, got {n}")
    rng = np.random.default_rng([seed, 7])
    scenarios = []
    for s in range(count):
        k = int(rng.integers(n))
        drop = float(rng.uniform(0.3, 0.9))
        ratio_sectors = rng.choice(n, size=min(USE_RATIO_SECTORS, n), replace=False)
        doc = {
            "name": f"scn{s:03d}",
            "target_sector": f"S{k + 1}",
            "sub_service_drop": drop,
            "component_ratios": {
                "HH": 1.0,
                "NPISH": 1.0,
                "GOV": 1.0,
                "GFCF": 0.0,
                "INV": 0.0,
                "EXP": float(rng.uniform(0.5, 1.0)),
            },
            "intermediate": {
                "apply": True,
                "use_ratios": {f"S{j + 1}": float(rng.uniform(0.0, 0.3)) for j in ratio_sectors},
                "default_ratio": float(rng.uniform(0.2, 0.9)),
            },
            "blowup_factor": float(rng.uniform(1.0, 1.2)),
        }
        if s % 2 == 1:
            others = [j for j in range(n) if j != k]
            picked = rng.choice(others, size=REALLOCATION_SECTORS, replace=False)
            shares = rng.dirichlet(np.ones(REALLOCATION_SECTORS))
            doc["reallocation"] = {
                "savings_fraction": float(rng.uniform(0.2, 0.8)),
                "shares": {f"S{j + 1}": float(w) for j, w in zip(picked, shares)},
            }
        scenarios.append(doc)
    return scenarios


def generate_table(n: int, seed: int):
    from ioimpact.testkit import EconomyGenSpec, random_economy

    return random_economy(EconomyGenSpec(n=n, seed=seed))


def scenario_spec(doc: dict):
    """Build the library's ScenarioSpec from a scenario document, without files."""
    from ioimpact.scenario import IntermediateSpec, Reallocation, ScenarioSpec, UseRatio

    realloc = doc.get("reallocation")
    inter = doc["intermediate"]
    return ScenarioSpec(
        name=doc["name"],
        target_sector=doc["target_sector"],
        sub_service_drop=doc["sub_service_drop"],
        component_ratios=dict(doc["component_ratios"]),
        reallocation=(
            Reallocation(realloc["savings_fraction"], dict(realloc["shares"])) if realloc else None
        ),
        intermediate=IntermediateSpec(
            apply=inter["apply"],
            use_ratios=UseRatio(dict(inter["use_ratios"]), inter["default_ratio"]),
        ),
        blowup_factor=doc["blowup_factor"],
    )


def _demand_change(fd: np.ndarray, index: dict, doc: dict) -> np.ndarray:
    n = fd.shape[0]
    k = index[doc["target_sector"]]
    drop = doc["sub_service_drop"]
    changes = {
        code: -fd[k, c] * doc["component_ratios"][code] * drop for c, code in enumerate(FD_CODES)
    }
    df = np.zeros(n)
    df[k] = sum(changes.values())
    realloc = doc.get("reallocation")
    if realloc and realloc["savings_fraction"] < 1.0:
        pool = (1.0 - realloc["savings_fraction"]) * max(
            0.0, -sum(changes[c] for c in CONSUMPTION_CODES)
        )
        for code, share in realloc["shares"].items():
            df[index[code]] += share * pool
    return df


def references(table, scenarios: list[dict]) -> dict:
    """Reference q, dx and totals per scenario and method.

    Inoperability solves (I - A) dx = df; extraction solves
    (I - A_bar) x_bar = f + df with row k of A scaled by (1 - alpha_j) off the
    diagonal. Nominal figures carry the scenario's blowup factor. Each total
    is stored with the sum of the absolute values of its terms, the scale a
    relative tolerance on a sum of mixed-sign terms is measured against.
    """
    codes = [s.code for s in table.sectors]
    index = {c: i for i, c in enumerate(codes)}
    x = np.asarray(table.x, dtype=float)
    f = np.asarray(table.final_demand.values, dtype=float).sum(axis=1)
    A = np.asarray(table.Z, dtype=float) / x[np.newaxis, :]
    n = len(codes)
    eye = np.eye(n)
    coef = {
        "output": np.ones(n),
        "value_added": np.asarray(table.value_added) / x,
        "income": np.asarray(table.satellites["income"].values) / x,
        "employment": np.asarray(table.satellites["employment"].values) / x,
    }
    fd = np.asarray(table.final_demand.values, dtype=float)
    refs = {}
    for doc in scenarios:
        df = _demand_change(fd, index, doc)
        k = index[doc["target_sector"]]
        inter = doc["intermediate"]
        ratios = np.array([inter["use_ratios"].get(c, inter["default_ratio"]) for c in codes])
        alpha = ratios * doc["sub_service_drop"]
        scale = 1.0 - alpha
        scale[k] = 1.0
        a_bar = A.copy()
        a_bar[k, :] *= scale
        dx_by_method = {
            "inoperability": np.linalg.solve(eye - A, df),
            "extraction": np.linalg.solve(eye - a_bar, f + df) - x,
        }
        b = doc["blowup_factor"]
        refs[doc["name"]] = {
            method: {
                "q": dx / x,
                "dx": dx * b,
                "totals": np.array([(coef[kind] * dx).sum() * b for kind in TOTAL_KINDS]),
                "scales": np.array([np.abs(coef[kind] * dx).sum() * b for kind in TOTAL_KINDS]),
            }
            for method, dx in dx_by_method.items()
        }
    return refs


def save_references(refs: dict, path: Path) -> None:
    arrays = {
        f"{name}|{method}|{field}": value
        for name, by_method in refs.items()
        for method, fields in by_method.items()
        for field, value in fields.items()
    }
    np.savez(path, **arrays)


def load_references(path: Path) -> dict:
    refs: dict = {}
    with np.load(path) as data:
        for key in data.files:
            name, method, field = key.split("|")
            refs.setdefault(name, {}).setdefault(method, {})[field] = data[key]
    return refs


def prepare(workload: Workload, seed: int, work: Path) -> dict:
    """Generate the workload's inputs under ``work`` and return its plan.

    The plan is plain JSON so an in-process worker can reload it; the table
    itself is regenerated from (n, seed) by library workers, not stored.
    """
    from ioimpact.ingest import write_table_files

    work.mkdir(parents=True, exist_ok=True)
    table = generate_table(workload.n, seed)
    scenarios = make_scenarios(workload.n, workload.scenarios, seed)
    refs_path = work / "references.npz"
    save_references(references(table, scenarios), refs_path)
    plan = {
        "workload": workload.name,
        "kind": workload.kind,
        "n": workload.n,
        "scenario_count": workload.scenarios,
        "seed": seed,
        "scenarios": scenarios,
        "references": str(refs_path),
    }
    if workload.kind == "cli":
        inputs = work / "inputs"
        paths = write_table_files(table, inputs)
        scenario_files = []
        for doc in scenarios:
            p = inputs / f"{doc['name']}.json"
            p.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            scenario_files.append(p)
        files = [paths["table"], paths["sectors"], *paths["satellites"].values(), *scenario_files]
        plan["inputs_dir"] = str(inputs)
        plan["input_bytes"] = sum(p.stat().st_size for p in files)
        plan["satellites"] = [p.name for p in paths["satellites"].values()]
        plan["scenario_files"] = [p.name for p in scenario_files]
    else:
        plan["input_bytes"] = int(
            table.Z.nbytes
            + table.final_demand.values.nbytes
            + sum(s.values.nbytes for s in table.satellites.values())
        )
    return plan


def cli_argv(plan: dict, inputs_dir: Path, out_dir: Path) -> list[str]:
    """Arguments of one `ioimpact run` operation (after the program name)."""
    return [
        "run",
        "--table", str(inputs_dir / "table.csv"),
        "--meta", str(inputs_dir / "sectors.csv"),
        "--satellites", *[str(inputs_dir / s) for s in plan["satellites"]],
        "--scenario", *[str(inputs_dir / s) for s in plan["scenario_files"]],
        "--method", "both",
        "--format", "csv", "json",
        "--out", str(out_dir),
    ]
