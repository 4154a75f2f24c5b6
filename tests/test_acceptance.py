"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s -v`` to see the per-criterion
lines. Criterion 8 reproduces published figures from a national table that
cannot be redistributed; it runs only when IOIMPACT_SWEDISH_DIR points at a
directory with the converted files (see README) and is skipped otherwise.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import ioimpact as io
from ioimpact.cli import main
from ioimpact.scenario import parse_scenario
from ioimpact.testkit import (
    EconomyGenSpec,
    canonical_e2,
    neumann_oracle,
    random_economy,
)

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "ioimpact" / "fixtures"

E2_L = np.array([[0.6, 0.2], [0.3, 0.5]]) / 0.24


def ok(criterion, text):
    print(f"[PASS] criterion {criterion}: {text}")


def demand_delta(table, vec, name="acc"):
    return io.DemandDelta(
        scenario=name, target=table.sectors[0].code, delta=np.asarray(vec, dtype=float),
        component_changes={}, total_drop_fraction=0.0,
    )


def test_criterion_1_e2_exactness():
    start = time.perf_counter()
    table = canonical_e2()
    model = io.build_model(table)

    assert np.abs(model.A - [[0.5, 0.2], [0.3, 0.4]]).max() < 1e-9
    assert np.abs(model.L - E2_L).max() < 1e-9
    assert np.abs(io.output_multipliers(model) - [3.75, 35 / 12]).max() < 1e-9
    assert np.abs(io.satellite_multipliers(model, "employment") - [0.5, 0.5]).max() < 1e-9

    ino = io.inoperability(model, demand_delta(table, [-12.0, 0.0]))
    assert np.abs(ino.q - [-0.30, -0.15]).max() < 1e-9
    assert abs(ino.totals["output"] - (-45.0)) < 1e-9

    spec = io.make_extraction_spec(model, "S1", np.array([0.5, 0.5]), f_bar=table.f)
    ext = io.partial_extraction(model, spec)
    x_bar = ext.dx + model.x
    assert np.abs(x_bar - [2100 / 27, 2400 / 27]).max() < 1e-9
    assert abs(ext.totals["output"] - (-100 / 3)) < 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"E2 matrices, multipliers, and impacts exact to 1e-9 in {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    worst_inverse = 0.0
    worst_balance = 0.0
    for i in range(100):
        n = 3 + (i * 7) % 28  # 3..30
        table = random_economy(EconomyGenSpec(n=n, seed=1000 + i))
        model = io.build_model(table)
        oracle = neumann_oracle(model.A, 200)
        L = model.L
        worst_inverse = max(worst_inverse, np.abs(L - oracle).max())
        worst_balance = max(
            worst_balance, np.abs(L @ table.f - table.x).max() / max(1.0, table.x.max())
        )
    elapsed = time.perf_counter() - start
    assert worst_inverse < 1e-8
    assert worst_balance < 1e-9
    assert elapsed < 10.0
    ok(2, f"100 economies: max |L - oracle| {worst_inverse:.2e}, "
          f"max balance error {worst_balance:.2e}, {elapsed:.1f}s")


def test_criterion_3_fixed_point_identity():
    worst = 0.0
    for i in range(100):
        n = 3 + (i * 5) % 28
        table = random_economy(EconomyGenSpec(n=n, seed=2000 + i))
        model = io.build_model(table)
        rng = np.random.default_rng(3000 + i)
        delta = demand_delta(table, -table.f * rng.uniform(0.0, 0.9, n))
        # direct route
        q_direct = (model.L @ delta.delta) / model.x
        # fixed-point route, assembled independently of the library helpers
        a_star = model.A * (model.x[np.newaxis, :] / model.x[:, np.newaxis])
        f_star = -delta.delta / model.x
        q_loss = np.linalg.solve(np.eye(n) - a_star, f_star)
        worst = max(worst, np.abs(q_loss - (-q_direct)).max())
        io.inoperability(model, delta)  # internal cross-check must not raise
    assert worst < 1e-9
    ok(3, f"fixed-point vs direct inoperability agree, max gap {worst:.2e}")


def test_criterion_4_extraction_nesting_and_monotonicity():
    worst_nesting = 0.0
    for i in range(50):
        n = 3 + (i * 3) % 25
        table = random_economy(EconomyGenSpec(n=n, seed=4000 + i))
        model = io.build_model(table)
        rng = np.random.default_rng(5000 + i)
        delta = demand_delta(table, -table.f * rng.uniform(0.0, 0.9, n))

        ino = io.inoperability(model, delta)
        nested = io.partial_extraction(
            model, io.make_extraction_spec(model, 0, np.zeros(n), f_bar=table.f + delta.delta)
        )
        worst_nesting = max(worst_nesting, np.abs(nested.dx - ino.dx).max())

        alpha = rng.uniform(0.0, 0.8, n)
        f_bar = table.f * 0.7
        base = io.partial_extraction(model, io.make_extraction_spec(model, 0, alpha, f_bar=f_bar))
        bumped = alpha.copy()
        j = int(rng.integers(0, n))
        bumped[j] = min(1.0, bumped[j] + rng.uniform(0.05, 0.2))
        more = io.partial_extraction(model, io.make_extraction_spec(model, 0, bumped, f_bar=f_bar))
        assert more.totals["output"] <= base.totals["output"] + 1e-9
    assert worst_nesting < 1e-9
    ok(4, f"alpha=0 extraction equals inoperability (max gap {worst_nesting:.2e}); "
          "loss monotone in alpha over 50 cases")


def test_criterion_5_rank_one_equivalence():
    worst = 0.0
    for i in range(25):
        n = 3 + (i * 2) % 20
        table = random_economy(EconomyGenSpec(n=n, seed=6000 + i))
        model = io.build_model(table)
        rng = np.random.default_rng(7000 + i)
        alpha = float(rng.uniform(0.0, 1.0))
        k = int(rng.integers(0, n))
        # element-wise construction
        a_elem = model.A.copy()
        for j in range(n):
            if j != k:
                a_elem[k, j] = model.A[k, j] * (1 - alpha)
        # rank-one construction
        e_k = np.zeros(n)
        e_k[k] = 1.0
        b_k = model.A[k, :].copy()
        b_k[k] = 0.0
        a_rank1 = model.A - alpha * np.outer(e_k, b_k)
        worst = max(worst, np.abs(a_elem - a_rank1).max())
    assert worst < 1e-12
    ok(5, f"element-wise and rank-one extraction matrices agree, max gap {worst:.2e}")


def test_criterion_6_scenario_conservation_and_dominance():
    for i in range(25):
        table = random_economy(EconomyGenSpec(n=8, seed=8000 + i))
        rng = np.random.default_rng(9000 + i)
        savings = float(rng.uniform(0.0, 0.9))
        spec1 = io.ScenarioSpec(name="c", target_sector="S1", sub_service_drop=0.6)
        spec2 = io.ScenarioSpec(
            name="c", target_sector="S1", sub_service_drop=0.6,
            reallocation=io.Reallocation(
                savings_fraction=savings,
                shares={"S2": 0.2, "S3": 0.3, "S4": 0.5},
            ),
        )
        d1 = io.build_delta(table, spec1)
        d2 = io.build_delta(table, spec2)
        from ioimpact.scenario import CONSUMPTION_COMPONENTS

        consumption_drop = sum(d2.component_changes[c] for c in CONSUMPTION_COMPONENTS)
        pool = (1 - savings) * abs(consumption_drop)
        gains = math.fsum(d2.reallocated.values())
        assert abs(gains - pool) <= 1e-12 * max(1.0, pool)
        assert np.all(d2.delta >= d1.delta)
    ok(6, "reallocated gains equal (1 - savings) x consumption drop; "
          "reallocation dominates savings-only element-wise")


def test_criterion_7_blowup_invariance_and_estimate():
    table = canonical_e2()
    model = io.build_model(table)
    result = io.inoperability(model, demand_delta(table, [-12.0, 0.0]))
    b = 1.092
    inflated = io.apply_blowup(result, b)
    assert np.array_equal(inflated.dx, result.dx * b)
    for kind in result.satellite_changes:
        assert np.array_equal(inflated.satellite_changes[kind], result.satellite_changes[kind] * b)
    assert np.array_equal(inflated.q, result.q)
    assert inflated.pct_output == result.pct_output

    fd = {2015: 1000.0, 2016: 1048.0, 2017: 1048.0 * 1.04}
    gdp = {2016: 0.04, 2017: 0.04, 2018: 0.04, 2019: 0.04}
    estimate = io.estimate_blowup_factor(fd, gdp)
    assert abs(estimate - 1.0899) < 1e-4
    ok(7, f"nominal deltas scale by exactly b, q/pct bit-identical; estimate {estimate:.6f}")


swedish_dir = os.environ.get("IOIMPACT_SWEDISH_DIR")


@pytest.mark.skipif(
    not swedish_dir,
    reason="set IOIMPACT_SWEDISH_DIR to a directory with the converted national table",
)
def test_criterion_8_national_table_reproduction():
    start = time.perf_counter()
    d = Path(swedish_dir)
    satellites = sorted(str(p) for p in d.glob("satellite_*.csv"))
    table = io.parse_io_table(d / "table.csv", d / "sectors.csv", satellites)
    table, dropped = io.drop_zero_sectors(table)
    assert io.validate_table(table, rel_tol=io.table.INGESTED_REL_TOL).passed
    model = io.build_model(table)

    at = table.sector_index("AT")
    mult = io.output_multipliers(model)[at]
    assert abs(mult - 1.428) < 1e-3

    expected_profile = {
        "value_added": 0.450,
        "income": 0.225,
        "employment": 0.394,
        "gross_fixed_capital_formation": 0.031,
    }
    for kind, expected in expected_profile.items():
        got = io.satellite_multipliers(model, kind)[at]
        assert abs(got - expected) < 1e-3, f"{kind}: {got} vs {expected}"

    spec1 = parse_scenario(FIXTURES / "scenarios" / "covid_scenario1.json")
    ratio_file = d / "use_ratios.json"
    if ratio_file.exists():
        ratios = json.loads(ratio_file.read_text())
        spec1 = io.ScenarioSpec(
            name=spec1.name, target_sector=spec1.target_sector,
            sub_service_drop=spec1.sub_service_drop,
            component_ratios=spec1.component_ratios,
            intermediate=io.IntermediateSpec(
                apply=True, use_ratios=io.UseRatio(ratios=ratios, default=1.0)
            ),
            blowup_factor=spec1.blowup_factor,
        )
    delta = io.build_delta(table, spec1)

    ino = io.inoperability(model, delta)
    assert abs(ino.q[at] - (-0.426686)) < 1e-4

    alpha = io.extraction_intensities(table, spec1)
    ext = io.partial_extraction(
        model,
        io.make_extraction_spec(model, "AT", alpha, f_bar=table.f + delta.delta, label=spec1.name),
    )
    assert abs(ext.q[at] - (-0.669200)) < 1e-4

    ino_scaled = io.apply_blowup(ino, 1.092)
    ext_scaled = io.apply_blowup(ext, 1.092)
    published = {
        "inoperability": {"output": -19886, "value_added": -6259, "income": -3129,
                          "employment": -5483, "gross_fixed_capital_formation": -437},
        "extraction": {"output": -31189, "value_added": -9817, "income": -4908,
                       "employment": -8600, "gross_fixed_capital_formation": -686},
    }
    for result, key in ((ino_scaled, "inoperability"), (ext_scaled, "extraction")):
        for metric, expected in published[key].items():
            got = result.totals[metric]
            assert abs(got - expected) <= 0.01 * abs(expected), f"{key}/{metric}: {got}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(8, f"national-table figures reproduced in {elapsed:.1f}s")


@pytest.mark.skipif(
    not swedish_dir,
    reason="set IOIMPACT_SWEDISH_DIR to a directory with the converted national table",
)
def test_national_table_linkage_examples():
    """Published linkage figures beyond the acceptance gate: input recipe,
    downstream importance, import share, multiplier rank."""
    d = Path(swedish_dir)
    satellites = sorted(str(p) for p in d.glob("satellite_*.csv"))
    table = io.parse_io_table(d / "table.csv", d / "sectors.csv", satellites)
    table, _ = io.drop_zero_sectors(table)
    model = io.build_model(table)
    at = table.sector_index("AT")

    recipe = io.input_recipe(model, "AT", top_k=2)
    assert recipe[0][0].code == "WHS"
    assert abs(recipe[0][1] - 0.06544) < 1e-4
    assert recipe[1][0].code == "ED"
    assert abs(recipe[1][1] - 0.03353) < 1e-4

    downstream = io.downstream_importance(model, "AT", top_k=1)
    assert downstream[0][0].code == "TRV"
    assert abs(downstream[0][1] - 0.07373) < 1e-4

    assert abs(io.import_share(model, "AT") - 0.49) < 0.01

    mults = io.output_multipliers(model)
    rank_lowest = int(np.sum(mults <= mults[at]))
    assert rank_lowest == 14
    ok("8b", "linkage examples (recipe, downstream, import share, rank) reproduced")


def test_criterion_9_determinism_and_round_trip(tmp_path):
    # file round trip at 1e-12 per cell
    for table in (canonical_e2(), random_economy(EconomyGenSpec(n=12, seed=99))):
        d = tmp_path / f"rt_{table.n}"
        paths = io.write_table_files(table, d)
        back = io.parse_io_table(paths["table"], paths["sectors"],
                                 list(paths["satellites"].values()))
        for name in ("Z", "imports", "value_added", "x"):
            a, b = getattr(table, name), getattr(back, name)
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())
        assert np.abs(table.final_demand.values - back.final_demand.values).max() <= 1e-12

    # identical CLI reruns produce byte-identical report files
    e2_dir = FIXTURES / "e2"
    out = tmp_path / "reports"
    args = [
        "run",
        "--table", str(e2_dir / "table.csv"),
        "--meta", str(e2_dir / "sectors.csv"),
        "--satellites", str(e2_dir / "satellite_employment.csv"),
        str(e2_dir / "satellite_income.csv"),
        "--scenario", str(e2_dir / "shock_s1.json"),
        "--method", "both",
        "--out", str(out),
    ]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    ok(9, f"round trip lossless; {len(first)} report files byte-identical across reruns")
