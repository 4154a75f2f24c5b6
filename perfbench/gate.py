"""Output-correctness gate applied to every operation.

An operation fails when it exits non-zero or raises, when any reported value
is non-finite, when q, dx or a total lies further than REL_TOL (relative)
from the reference solve, or when its report digests differ from those of
the first operation on the same inputs. All comparisons are written so that
a NaN fails them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from inputs import METHODS, TOTAL_KINDS

REL_TOL = 1e-9


class OpLog:
    """Attempted and failed operations, with the first few problems seen.

    The first successful operation's digest signature becomes the baseline
    that every later operation on the same inputs must reproduce.
    """

    MAX_PROBLEMS = 10

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.baseline = None

    def record(self, problems: list[str], signature=None) -> None:
        self.attempted += 1
        if signature is not None and not problems:
            if self.baseline is None:
                self.baseline = signature
            elif signature != self.baseline:
                problems = ["report digests differ from the first run on the same inputs"]
        if problems:
            self.failed += 1
            self.problems.extend(problems[: self.MAX_PROBLEMS - len(self.problems)])

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.problems.extend(other["problems"][: self.MAX_PROBLEMS - len(self.problems)])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def _reject_constant(token: str):
    raise ValueError(f"non-finite value {token} in report")


def load_strict_json(data: bytes):
    """Parse JSON, refusing NaN and Infinity tokens."""
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def _csv_non_finite(data: bytes) -> bool:
    for row in csv.reader(io.StringIO(data.decode("utf-8"))):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not np.isfinite(value):
                return True
    return False


def compare(label: str, q, dx, totals: dict, ref: dict) -> list[str]:
    """Differences between one reported result and its reference."""
    problems = []
    for name, got in (("q", q), ("dx", dx)):
        got = np.asarray(got, dtype=float)
        want = ref[name]
        if got.shape != want.shape:
            problems.append(f"{label}: {name} has shape {got.shape}, expected {want.shape}")
            continue
        err = float(np.max(np.abs(got - want)))
        scale = float(np.max(np.abs(want)))
        if not err <= REL_TOL * scale:
            problems.append(f"{label}: {name} off by {err:.3e} (scale {scale:.3e})")
    for i, kind in enumerate(TOTAL_KINDS):
        value = totals.get(kind)
        if value is None:
            problems.append(f"{label}: total {kind!r} missing")
            continue
        err = abs(float(value) - ref["totals"][i])
        if not err <= REL_TOL * ref["scales"][i]:
            problems.append(f"{label}: total {kind} off by {err:.3e}")
    return problems


def check_cli_output(out_dir: Path, plan: dict, refs: dict) -> tuple[list[str], tuple]:
    """Check one `ioimpact run` output tree.

    Returns the problems found and the digest signature of the run, the
    manifest entries per scenario, which reruns must reproduce exactly.
    """
    problems: list[str] = []
    signature = []
    multi = len(plan["scenarios"]) > 1
    for doc in plan["scenarios"]:
        name = doc["name"]
        d = out_dir / name if multi else out_dir
        try:
            manifest = load_strict_json((d / "manifest.json").read_bytes())
            parsed = {}
            for entry in manifest["files"]:
                data = (d / entry["path"]).read_bytes()
                if hashlib.sha256(data).hexdigest() != entry["sha256"]:
                    problems.append(f"{name}: {entry['path']} does not match its manifest digest")
                if entry["format"] == "json":
                    parsed[entry["path"]] = load_strict_json(data)
                elif _csv_non_finite(data):
                    problems.append(f"{name}: non-finite value in {entry['path']}")
            for method in METHODS:
                result = parsed[f"result_{method}.json"]
                problems += compare(
                    f"{name}/{method}",
                    result["q"],
                    result["dx"],
                    result["totals"],
                    refs[name][method],
                )
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"{name}: unreadable output: {exc!r}")
            continue
        entries = sorted(manifest["files"], key=lambda e: e["path"])
        signature.append((name, tuple((e["path"], e["sha256"]) for e in entries)))
    return problems, tuple(signature)


def check_library_output(runs: list, refs: dict) -> tuple[list[str], str]:
    """Check one in-process library pass.

    ``runs`` holds (scenario name, inoperability result, extraction result,
    comparison) per scenario. Returns the problems found and a digest of
    every reported array and total, which reruns must reproduce exactly.
    """
    problems: list[str] = []
    digest = hashlib.sha256()
    for name, inop, ext, comparison in runs:
        for method, result in (("inoperability", inop), ("extraction", ext)):
            label = f"{name}/{method}"
            values = [
                result.q,
                result.dx,
                *result.satellite_changes.values(),
                list(result.totals.values()),
            ]
            if not all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values):
                problems.append(f"{label}: non-finite value")
            problems += compare(label, result.q, result.dx, result.totals, refs[name][method])
            for v in values:
                digest.update(np.asarray(v, dtype=float).tobytes())
        cmp_values = [
            comparison.dx_diff,
            list(comparison.total_diffs.values()),
            [comparison.pct_diff],
        ]
        if not all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in cmp_values):
            problems.append(f"{name}/comparison: non-finite value")
        for v in cmp_values:
            digest.update(np.asarray(v, dtype=float).tobytes())
        digest.update(",".join(comparison.top_overlap).encode())
    return problems, digest.hexdigest()
