"""Metric declarations and the per-layer prediction table.

Names, units and directions of the workloads and of the gated and
per-layer metrics are read from BENCHMARK.json, the one place they are
written.  This module adds what BENCHMARK.json has no key for: the
metrics that are printed but not gated, and, for each per-layer metric,
the end-to-end metric(s) a change to that layer should move (`moves`),
the workloads where it should show (`on`), and the workloads where it must
read exactly zero (`zero_on`).
"""

import json
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = tuple(SPEC["end_to_end"])

# Printed by the command and kept in the results files, but not handed to
# the regression gate (README.md, "End-to-end metrics", gives the reasons).
REPORTED_ONLY = {
    "setup_wall_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "fraction",
    "op_p90_ms": "ms",
    "op_p99_ms": "ms",
}

ER, FA, OF, RE = ("even_roundtrip", "frame_audit", "orbit_formula",
                  "rotation_exact")
RANK_ONE = (ER, FA, OF)
WALK = (OF, ER)  # the workloads that walk towers and draw digits

# name: (moves, on, zero_on)
PREDICTIONS = {
    "digits.seeded_digit.calls_per_op":
        ("ops_per_s, op_p50_ms", WALK, (RE,)),
    "digits.seeded_digit.self_ms_per_op":
        ("ops_per_s, op_p50_ms", WALK, ()),
    "digits.seeded_digit.distinct_frac": ("ops_per_s", (OF,), ()),
    "digits.self_ms_per_op": ("ops_per_s", WALK, ()),
    "specs.rule.calls_per_op": ("ops_per_s", (ER, OF), ()),
    "specs.rule.self_ms_per_op": ("ops_per_s", (ER, OF), ()),
    "specs.self_ms_per_op": ("ops_per_s", (ER, OF), ()),
    "towers.walker_step.calls_per_op":
        ("ops_per_s, op_p50_ms", (ER, OF, FA), (RE,)),
    "towers.walker_step.self_us_per_call":
        ("ops_per_s, op_p50_ms", (ER, OF), ()),
    "towers.walker_advance.calls_per_op": ("ops_per_s", WALK, ()),
    "towers.walker_advance.self_us_per_call": ("ops_per_s", WALK, ()),
    "towers.apply.calls_per_op": ("ops_per_s", WALK, ()),
    "towers.apply.self_ms_per_op": ("ops_per_s", WALK, ()),
    "towers.level_index.calls_per_op": ("ops_per_s", WALK, ()),
    "towers.point_at.calls_per_op": ("ops_per_s", WALK, ()),
    "towers.same_point.self_ms_per_op": ("ops_per_s", WALK, ()),
    "towers.self_ms_per_op": ("ops_per_s", WALK, ()),
    "matching.build_frame.calls_per_op":
        ("op_p50_ms, op_p99_ms / ops_per_s", (ER, FA), (OF, RE)),
    "matching.build_frame.self_ms_per_op":
        ("ops_per_s, op_p50_ms / op_p99_ms", (FA, ER), ()),
    "matching.build_frame.items_per_ms": ("ops_per_s", (FA,), ()),
    "matching.return_window.ms_per_op": ("ops_per_s", (ER,), ()),
    "matching.phi_hat.attempts_per_op": ("op_p99_ms", (ER,), ()),
    "matching.machine_resolved_frac": ("op_p99_ms", (ER,), ()),
    "matching.height_above_base.calls_per_op":
        ("ops_per_s", WALK, ()),
    "matching.height_above_base.self_ms_per_op":
        ("ops_per_s", WALK, ()),
    "matching.formula.ms_per_op": ("ops_per_s, op_p99_ms", (OF,), ()),
    "matching.stopping_time.ms_per_op": ("ops_per_s, op_p99_ms", (OF,), ()),
    "matching.noneven.ms_per_op": ("ops_per_s, op_p99_ms", (OF,), ()),
    "matching.self_ms_per_op": ("ops_per_s, op_p99_ms", (OF,), ()),
    "quadratic.surd_new.calls_per_op": ("ops_per_s", (RE,), RANK_ONE),
    "quadratic.surd_arith.calls_per_op": ("ops_per_s, op_p50_ms", (RE,), ()),
    "quadratic.surd_arith.self_us_per_call":
        ("ops_per_s, op_p50_ms", (RE,), ()),
    "quadratic.surd_order.calls_per_op": ("ops_per_s, op_p50_ms", (RE,), ()),
    "quadratic.surd_order.self_us_per_call":
        ("ops_per_s, op_p50_ms", (RE,), ()),
    "quadratic.surd_floor.calls_per_op": ("ops_per_s, op_p50_ms", (RE,), ()),
    "quadratic.self_ms_per_op": ("ops_per_s, op_p50_ms", (RE,), ()),
    "arithmetic.point_value.calls_per_op": ("ops_per_s", (RE,), ()),
    "arithmetic.first_return.ms_per_op": ("ops_per_s", (RE,), ()),
    "arithmetic.self_ms_per_op": ("ops_per_s", (RE,), ()),
    "induction.interval_algebra.calls_per_op": ("op_p99_ms", (RE,), ()),
    "induction.interval_algebra.self_ms_per_op": ("op_p99_ms", (RE,), ()),
    "induction.interval_union.mean_intervals": ("op_p99_ms", (RE,), ()),
    "induction.column_decomposition.ms_per_op": ("op_p99_ms", (RE,), ()),
    "induction.self_ms_per_op": ("op_p99_ms", (RE,), ()),
    "ergodic.self_ms_per_op": ("ops_per_s", (OF,), ()),
    "trace.overhead_frac": ("none (guard)", WORKLOADS, ()),
    "trace.unattributed_ms_per_op": ("none (guard)", WORKLOADS, ()),
}

if set(PREDICTIONS) != {m["name"] for m in SPEC["per_layer"]}:
    raise ValueError("metrics.PREDICTIONS and BENCHMARK.json per_layer "
                     "name different metrics")

PER_LAYER = tuple(
    dict(m, **dict(zip(("moves", "on", "zero_on"), PREDICTIONS[m["name"]])))
    for m in SPEC["per_layer"])

UNITS = dict(REPORTED_ONLY)
UNITS.update({m["name"]: m["unit"] for m in END_TO_END + PER_LAYER})
