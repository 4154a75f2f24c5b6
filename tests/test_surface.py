"""The package's public surface: what ``import ioimpact`` exports and loads,
the README's library quickstart, run as written, and the library calls of
the benchmark's worker."""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import ioimpact
from ioimpact.impact import scenario_impacts
from ioimpact.report import multiplier_table
from ioimpact.testkit import canonical_e2

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    "ComparisonReport",
    "DemandDelta",
    "FinalDemandBlock",
    "IOModelError",
    "IOTable",
    "ImpactResult",
    "IntermediateSpec",
    "InternalConsistencyError",
    "LeontiefModel",
    "NonProductiveEconomyError",
    "Reallocation",
    "SatelliteAccount",
    "ScenarioConfigError",
    "ScenarioSpec",
    "Sector",
    "StructuralError",
    "TableParseError",
    "UseRatio",
    "ValidationReport",
    "apply_blowup",
    "build_delta",
    "build_model",
    "compare_methods",
    "disaggregate_aggregate",
    "downstream_importance",
    "drop_zero_sectors",
    "estimate_blowup_factor",
    "extraction_intensities",
    "import_share",
    "inoperability",
    "input_recipe",
    "load_io_table",
    "make_extraction_spec",
    "output_multipliers",
    "parse_io_table",
    "parse_scenario",
    "partial_extraction",
    "satellite_multipliers",
    "validate_table",
    "write_table_files",
}


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 40
    assert set(ioimpact.__all__) == PUBLIC_NAMES
    assert len(ioimpact.__all__) == len(PUBLIC_NAMES)
    for name in ioimpact.__all__:
        assert getattr(ioimpact, name) is not None


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml promises Python >= 3.10.
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    sources = sorted((ROOT / "src" / "ioimpact").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def import_nodes(module: str):
    source = (ROOT / "src" / "ioimpact" / f"{module}.py").read_text(encoding="utf-8")
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def package_imports(module: str) -> set[str]:
    """The modules of the package that ``module`` imports, by name."""
    found = set()
    for node in import_nodes(module):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if base in (".", "ioimpact"):
                found.update(alias.name for alias in node.names)
            elif base.startswith((".", "ioimpact.")):
                found.add(base.lstrip(".").removeprefix("ioimpact."))
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.removeprefix("ioimpact.")
                for alias in node.names
                if alias.name.startswith("ioimpact.")
            )
    return found


def absolute_imports(module: str) -> set[str]:
    """The top-level names of the modules that ``module`` imports absolutely."""
    found = set()
    for node in import_nodes(module):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads. A ``__future__`` import
    and a name listed in ``__all__`` count as used."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = f"{path.name}:{node.lineno} {name}"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [where for name, where in imported.items() if name not in used]


def test_every_import_is_used():
    sources = [*sorted((ROOT / "src" / "ioimpact").glob("*.py")),
               *sorted((ROOT / "tests").glob("*.py"))]
    assert [where for path in sources for where in unused_imports(path)] == []


def test_every_private_name_is_used():
    # A module-level private name that no source of the package reads, by
    # name, as an attribute or in an import, is a leftover of a change.
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "ioimpact").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update((name, f"{path.name}:{node.lineno} {name}") for name in names
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, (ast.Attribute, ast.alias)):
                used.add(node.attr if isinstance(node, ast.Attribute) else node.name)
    assert defined
    assert [where for name, where in defined.items() if name not in used] == []


def test_import_direction():
    # The model depends only on the table; file handling never on the analysis.
    assert package_imports("leontief") == {"errors", "table"}
    assert not {"scenario", "impact", "report"} & package_imports("ingest")
    assert {"leontief", "table"} <= package_imports("ingest")
    # Scenario files, layout and values, are read in one module, which
    # depends on nothing but the table.
    assert package_imports("scenario") == {"errors", "table"}
    assert "json" not in absolute_imports("ingest")
    assert ioimpact.parse_scenario is ioimpact.scenario.parse_scenario


def test_package_and_cli_do_not_load_testkit():
    probe = (
        "import sys\n"
        "import ioimpact\n"
        "print('ioimpact.testkit' in sys.modules)\n"
        "import ioimpact.cli\n"
        "print('ioimpact.testkit' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_library_pass_meets_its_gate(seed):
    # The library calls perfbench/worker.py times, checked by the benchmark's
    # own gate against its dense reference solves. The worker sets BLAS
    # thread variables when imported, so it runs in a child process, which
    # leaves no bytecode in perfbench/.
    probe = (
        "import json\n"
        "import inputs, worker\n"
        "from gate import check_library_output\n"
        f"table, docs = inputs.generate_table(24, {seed}), inputs.make_scenarios(24, 4, {seed})\n"
        "runs = worker.library_pass(table, [inputs.scenario_spec(doc) for doc in docs])\n"
        "problems, _ = check_library_output(runs, inputs.references(table, docs))\n"
        "print(json.dumps([len(runs), problems]))\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout.splitlines()[-1]) == [4, []]


def test_benchmark_comparison_tamper_changes_its_digest():
    # The benchmark's self-test tampers with a comparison by
    # replace(cmp_, top_overlap=cmp_.top_overlap + ("X",)), and its gate
    # digests dx_diff, total_diffs, pct_diff and top_overlap. Both must keep
    # working on ComparisonReport. A child process, as above.
    probe = (
        "import json\n"
        "from dataclasses import replace\n"
        "import inputs, worker\n"
        "from gate import check_library_output\n"
        "table, docs = inputs.generate_table(24, 1), inputs.make_scenarios(24, 2, 1)\n"
        "runs = worker.library_pass(table, [inputs.scenario_spec(doc) for doc in docs])\n"
        "refs = inputs.references(table, docs)\n"
        "name, inop, ext, cmp_ = runs[0]\n"
        "changed = replace(cmp_, top_overlap=cmp_.top_overlap + ('X',))\n"
        "tampered = [(name, inop, ext, changed), *runs[1:]]\n"
        "checks = [check_library_output(r, refs) for r in (runs, tampered)]\n"
        "print(json.dumps([changed.top_overlap[-1], checks]))\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    last, ((problems, digest), (tampered_problems, tampered_digest)) = json.loads(
        done.stdout.splitlines()[-1])
    assert last == "X"
    assert problems == tampered_problems == []
    assert digest != tampered_digest


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_cli_run_meets_its_gate(seed, tmp_path):
    # The `ioimpact run` of perfbench's CLI workloads at n = 24, cold and then
    # warm, checked by the benchmark's own gate against its dense reference
    # solves. It runs in a child process, as the library pass does, which
    # leaves no bytecode in perfbench/.
    probe = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "import inputs\n"
        "from gate import check_cli_output\n"
        "from ioimpact import cli\n"
        "work = Path(sys.argv[1])\n"
        f"plan = inputs.prepare(inputs.Workload('tiny', 'cli', n=24, scenarios=3), {seed}, work)\n"
        "refs = inputs.load_references(Path(plan['references']))\n"
        "checks = []\n"
        "for run in ('cold', 'warm'):\n"
        "    out = work / run\n"
        "    code = cli.main(inputs.cli_argv(plan, Path(plan['inputs_dir']), out))\n"
        "    checks.append([code, *check_cli_output(out, plan, refs)])\n"
        "print(json.dumps(checks))\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "work")],
        env=env, capture_output=True, text=True, check=True,
    )
    cold, warm = json.loads(done.stdout.splitlines()[-1])
    assert cold[:2] == warm[:2] == [0, []]
    assert len(cold[2]) == 3 and cold[2] == warm[2]
    (entry,) = (Path(os.environ["XDG_CACHE_HOME"]) / "ioimpact").glob("*.npz")
    with np.load(entry) as npz:
        assert "L" in npz.files


def test_readme_quickstart_runs_and_matches_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    assert "from ioimpact.testkit import canonical_e2" in block
    assert "# [3.75, 2.9167]" in block
    assert "# delta.delta == [-12, 0]" in block
    assert "# q == [-0.30, -0.15]" in block
    ns = {}
    exec(compile(block, "README.md quickstart", "exec"), ns)
    io = ns["io"]
    assert np.allclose(io.output_multipliers(ns["model"]), [3.75, 2.9167], atol=5e-5)
    assert np.array_equal(ns["delta"].delta, [-12.0, 0.0])
    assert np.allclose(ns["result"].q, [-0.30, -0.15], atol=1e-12)


def test_impact_solves_and_checks_gaps_in_one_place():
    # Every scenario of every method goes through scenario_impacts: one solve
    # and one fixed-point gap product for all of them.
    source = (ROOT / "src" / "ioimpact" / "impact.py").read_text(encoding="utf-8")
    calls = [node.func for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    solves = [f for f in calls if isinstance(f, ast.Attribute) and f.attr in ("solve", "solve_t")]
    gaps = [f for f in calls if getattr(f, "id", getattr(f, "attr", None)) == "fixed_point_gap"]
    assert len(solves) == 1 and solves[0].attr == "solve"
    assert len(gaps) == 1


def test_the_intensities_rule_is_written_once():
    # alpha lies in [0, 1]: one check, made when a DemandDelta is built, and
    # no other comparison in the package reads an alpha.
    rule = "extraction intensities must lie in [0, 1]"
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "ioimpact").glob("*.py"))}
    assert {name: text.count(rule) for name, text in sources.items() if rule in text} == {
        "scenario.py": 1}

    def reads_alpha(node):
        return any(getattr(n, "id", getattr(n, "attr", None)) == "alpha" for n in ast.walk(node))

    compares = {name for name, text in sources.items()
                for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.Compare) and reads_alpha(node)}
    assert compares == {"scenario.py"}


def writable_parts(value, path):
    """The paths, below ``value``, of every mapping that is not a
    MappingProxyType and every writable ndarray, through dataclass fields,
    mappings, tuples and lists."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from writable_parts(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, Mapping):
        if type(value) is not MappingProxyType:
            yield path
        for key, item in value.items():
            yield from writable_parts(item, f"{path}[{key!r}]")
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from writable_parts(item, f"{path}[{i}]")
    elif isinstance(value, np.ndarray) and value.flags.writeable:
        yield path


def test_built_values_are_read_only():
    # Every value the library builds holds read-only mappings and arrays, so
    # nothing changes past the checks it made when it was built.
    table = canonical_e2()
    model = ioimpact.build_model(table)
    spec = ioimpact.ScenarioSpec(
        name="demo", target_sector="S1", sub_service_drop=0.4,
        component_ratios={"HH": 1.0, "EXP": 0.5}, absolute_changes={"GOV": -1.0},
        reallocation=ioimpact.Reallocation(savings_fraction=0.5, shares={"S2": 1.0}),
        intermediate=ioimpact.IntermediateSpec(True, ioimpact.UseRatio({"S2": 0.5}, 0.2)),
    )
    delta = ioimpact.build_delta(table, spec)
    assert delta.reallocated and delta.alpha.any()
    inop, ext = scenario_impacts(model, [delta])[0]
    values = {
        "table": table,
        "sector": table.sectors[0],
        "model": model,
        "spec": spec,
        "extraction spec": ioimpact.make_extraction_spec(model, "S1", delta.alpha),
        "delta": delta,
        "hand-built shock": ioimpact.DemandDelta("s", "S1", [-12.0, 0.0], {"S2": 6.0}),
        "inoperability": inop,
        "extraction": ext,
        "blown up": ioimpact.apply_blowup(inop, 1.092),
        "comparison": ioimpact.compare_methods(inop, ext),
        "validation": ioimpact.validate_table(table),
        "multipliers": multiplier_table(model),
    }
    assert [path for name, value in values.items() for path in writable_parts(value, name)] == []
