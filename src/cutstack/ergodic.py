"""Birkhoff averages over induced base orbits and distribution checks.

The return-time average over n induced steps telescopes to a stack-position
difference (one RankOneSystem.advance, O(log n) exact integer work) and
estimate_N reads return times from the stage word, comparing in integers;
both are checked step by step.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt

from . import matching
from .digits import SeededDigits
from .errors import HorizonExhausted, WindowExhausted


def return_time_average(system, digits, n):
    """Average return time to the base level over n induced steps, each
    carry within 512 stages."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Fraction(system.advance(digits, n, 512)[0], n)


@dataclass
class ErgodicRow:
    sample_id: str
    n: int
    average: Fraction
    target: Fraction

    @property
    def abs_dev(self):
        return abs(self.average - self.target)


@dataclass
class ErgodicReport:
    label: str
    n: int
    target: Fraction
    rows: list

    @property
    def max_abs_dev(self):
        return max(r.abs_dev for r in self.rows)

    def csv_lines(self):
        lines = ["sample_id,n,average_num,average_den,target_num,target_den,abs_dev"]
        for r in self.rows:
            lines.append(
                f"{r.sample_id},{r.n},{r.average.numerator},{r.average.denominator},"
                f"{r.target.numerator},{r.target.denominator},{float(r.abs_dev)!r}"
            )
        return lines


def kac_check(system, n, samples, seed=0):
    """Sampled return-time averages against the exact expectation
    1 / mass(base level); the expectation equals the spec's total mass."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    target = system.spec.total_mass()
    rows = []
    for s in range(samples):
        digits = SeededDigits(f"kac:{seed}:{s}", system.cuts)
        avg = return_time_average(system, digits, n)
        rows.append(ErgodicRow(f"kac:{seed}:{s}", n, avg, target))
    return ErgodicReport(f"kac:{system.spec.name}", n, target, rows)


def estimate_N(system, target, eps, samples=32, horizon=256, seed=0):
    """Smallest N with |average_n - target| < eps for every sampled orbit
    and every n in [N, horizon]; decreasing in eps.  One stage-word read per
    sample (carries within 512 stages), and exact integer comparisons."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    if horizon < 1:
        raise ValueError("need horizon >= 1")
    p, q = Fraction(target).as_integer_ratio()
    a, b = Fraction(eps).as_integer_ratio()
    worst = 1
    for s in range(samples):
        digits = SeededDigits(f"estN:{seed}:{s}", system.cuts)
        r = matching.return_times_from(system, digits, horizon - 1, True, 512)
        last_bad = max((n for n, pos in enumerate(accumulate(r), 1)
                        if abs(pos * q - p * n) * b >= a * q * n), default=0)
        if last_bad >= horizon:
            raise HorizonExhausted(
                f"averages still outside eps at the horizon {horizon}",
                horizon=horizon,
            )
        worst = max(worst, last_bad + 1)
    return worst


@dataclass
class PushforwardReport:
    stage: int
    samples: int
    skipped: int  # samples whose matching shift ran past the horizon
    tolerance: Fraction
    deviations: dict  # bucket -> (empirical, exact, abs dev)

    @property
    def max_abs_dev(self):
        return max(
            (dev for _, _, dev in self.deviations.values()), default=Fraction(0)
        )

    @property
    def within_tolerance(self):
        return self.max_abs_dev <= self.tolerance


def pushforward_check(pair, samples, stage=6, seed=0, tolerance=None):
    """Push sampled X points through the strict even formula and compare
    the stage-level distribution of the images with the exact Y masses.

    Samples are uniform over the stage-12 X stack; keep `stage` well below
    that, since the unsampled residual mass (and its image) is
    concentrated on specific Y levels.  Buckets are the Y stage levels plus
    one residual bucket for images born later; the default tolerance is
    3 / sqrt(samples).  The matching shift has a heavy tail, so samples
    unresolved within 2^15 shifts are skipped and counted; empirical
    frequencies keep the full sample count as denominator.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    rng = random.Random(f"push:{seed}")
    sys_y = pair.sys_y
    h = sys_y.height(stage)
    counts = {i: 0 for i in range(h)}
    residual = 0
    skipped = 0
    for s in range(samples):
        x = pair.sys_x.random_point(rng, 12, seed=f"push:{seed}:{s}")
        try:
            y = matching.phi_hat(pair, x, mode="formula", budget=512,
                                 horizon=2**15).y
        except WindowExhausted:
            skipped += 1
            continue
        if y.birth_stage > stage:
            residual += 1
        else:
            counts[sys_y.level_index(y, stage)] += 1
    if tolerance is None:
        tolerance = Fraction(3, isqrt(samples))
    w = sys_y.width(stage)
    deviations = {}
    for i in range(h):
        emp = Fraction(counts[i], samples)
        deviations[f"level{i}"] = (emp, w, abs(emp - w))
    emp_res = Fraction(residual, samples)
    exact_res = sys_y.residual_mass(stage)
    deviations["residual"] = (emp_res, exact_res, abs(emp_res - exact_res))
    return PushforwardReport(stage, samples, skipped, tolerance, deviations)
