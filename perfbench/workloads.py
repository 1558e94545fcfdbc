"""The four benchmark workloads.

Each workload builds its systems in `__init__` (set-up), derives the input
of op i from the seed alone (`make_input`), and runs one op with its exact
checks (`op`).  Inputs are made by the benchmark, so an op hands the
program only finished points, streams and intervals.  `digest_items`,
`record` and `finish` run outside the timed region: they hash the outputs,
keep what the end-of-run checks need, and run those checks.

Calls into cutstack go through module attributes (`matching.phi_hat`, not a
name imported from it), so the tracing wrappers see them.
"""

import random
from fractions import Fraction
from math import isqrt

from cutstack import arithmetic, ergodic, induction, matching
from cutstack.digits import SeededDigits
from cutstack.errors import HorizonExhausted, WindowExhausted
from cutstack.quadratic import Surd


class CheckFailed(Exception):
    """An exact check on an op's output did not hold."""


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def failure(op, kind, detail):
    return {"op": op, "type": kind, "detail": str(detail)[:200]}


def tail_failures(counts, n):
    """A shift or stopping time past its horizon is rare on these inputs:
    about once in 180,000 even_roundtrip ops and twice in 100,000
    orbit_formula points.  More than max(3, n / 1000) of n ops is a
    regression, not the tail, and fails the whole run."""
    limit = max(3, n // 1000)
    return [failure(None, "HorizonTailTooHeavy",
                    f"{name}: {count} of {n} ops, limit {limit}")
            for name, count in counts.items() if count > limit]


class Workload:
    name = None
    warmup_ops = 0
    # Fixed op count of a traced run; untimed runs also do at least this
    # many ops, and the digest covers exactly these ops.
    trace_ops = 0

    def __init__(self, seed):
        self.seed = seed

    def rng(self, i):
        """Op i's inputs depend on the seed; warm-up inputs (negative i)
        are the same for every seed, so set-up time does not vary with it."""
        seed = self.seed if i >= 0 else "warmup"
        return random.Random(f"{self.name}:{seed}:{i}")

    def record(self, i, inp, out):
        """Keep what `finish` and `notes` need from op i's output."""

    def notes(self):
        """Counts printed with the results: outcomes that are not failures,
        and the workload-side inputs of the per-layer metrics."""
        return {}

    def finish(self):
        """End-of-run checks; returns failure records."""
        return []


def _off_base_point(system, base_levels, rng, stage):
    """A uniform stage-`stage` point of `system` outside the base level."""
    while True:
        x = system.random_point(rng, stage)
        if system.level_index(x, stage) not in base_levels:
            return x


class EvenRoundtrip(Workload):
    """Criterion 05 / verify even_roundtrip: machine-mode round trips of
    stage-6 points off the base on the dyadic even pair."""

    name = "even_roundtrip"
    warmup_ops = 40
    trace_ops = 300

    def __init__(self, seed):
        super().__init__(seed)
        self.pair = matching.dyadic_even_pair()
        self.base6 = induction.lift(
            self.pair.sys_x, self.pair.base_x(), 6).level_indices
        self.machine_ops = []  # (op, x, h, n, d) of machine-resolved halves
        self.halves = 0
        self.machine_halves = 0
        self.past_horizon = 0

    def make_input(self, i):
        return _off_base_point(self.pair.sys_x, self.base6, self.rng(i), 6)

    def op(self, x):
        """A forward matching shift past the formula fallback's horizon is
        the documented heavy tail, not an error: such an op is counted in
        `notes`, like a skipped sample of pushforward_check, and `finish`
        caps the count.  The inverse of a found image must succeed."""
        pair = self.pair
        try:
            rec = matching.phi_hat_stable(pair, x)
        except WindowExhausted:
            return None
        inv = matching.phi_hat_inverse_stable(pair, rec.y)
        check(rec.h >= 1, "input point lies on the base")
        check(pair.sys_x.same_point(inv.x, x), "round trip lost the point")
        check(inv.D == rec.d, f"D {inv.D} != d {rec.d}")
        check(inv.H == rec.h, f"H {inv.H} != h {rec.h}")
        return rec, inv

    def digest_items(self, out):
        if out is None:
            return "past_horizon"
        rec, _ = out
        return (rec.h, rec.n, rec.d, matching.point_id(self.pair.sys_y, rec.y))

    def record(self, i, x, out):
        if out is None:
            self.past_horizon += 1
            return
        rec, inv = out
        self.halves += 2
        self.machine_halves += sum(r.mode == "machine" for r in (rec, inv))
        if rec.mode == "machine":
            self.machine_ops.append((i, x, rec.h, rec.n, rec.d))

    def notes(self):
        return {"halves": self.halves, "machine_halves": self.machine_halves,
                "past_horizon": self.past_horizon}

    def finish(self):
        """Every machine-resolved forward half must agree with the strict
        closed form on (n, d), and few ops may pass the horizon."""
        pair = self.pair
        bad = tail_failures({"past_horizon": self.past_horizon},
                            self.halves // 2 + self.past_horizon)
        for i, x, h, n, d in self.machine_ops:
            hh, base = matching.height_above_base(pair.sys_x, pair.base_x(), x)
            f = matching.even_match_formula(pair, base.digits, hh, strict=True)
            if (hh, f.n, f.d) != (h, n, d):
                bad.append(failure(i, "MachineFormulaMismatch",
                                   ((h, n, d), (hh, f.n, f.d))))
        return bad


class FrameAudit(Workload):
    """Criterion 04: one seeded base column audited at W = 256."""

    name = "frame_audit"
    window = 256
    warmup_ops = 1
    trace_ops = 12

    def __init__(self, seed):
        super().__init__(seed)
        self.pair = matching.dyadic_even_pair()

    def make_input(self, i):
        return SeededDigits(f"{self.name}:{self.rng(i).getrandbits(64)}",
                            self.pair.sys_x.cuts)

    def op(self, stream):
        pair, W = self.pair, self.window
        frac, f1, f2 = matching.frame_stability(pair, stream, W)
        check(len(f1.inverse) == len(f1.assignment), "assignment collision")
        items = sum(f1.ra[i] - 1 for i in range(-W, W + 1))
        slots = sum(f1.rb[j] - 1 for j in range(-W, W + 1))
        check(len(f1.assignment) + len(f1.unplaced) == items,
              "items not conserved")
        check(len(f1.assignment) + len(f1.unfilled) == slots,
              "slots not conserved")
        check(frac >= Fraction(99, 100), f"stable fraction {frac}")
        check(matching.edge_violations(pair, stream, W) == [],
              "instability away from the window edge")
        return f1, f2

    def digest_items(self, out):
        f1, f2 = out
        return (sorted(f1.assignment.items()), sorted(f2.assignment.items()))


class OrbitFormula(Workload):
    """Criteria 08-11 / verify pushforward_measure: formula round trip,
    stopping time and return-time average on the dyadic pair, plus one
    non-even round trip on the Chacon / triple-heavy pair."""

    name = "orbit_formula"
    warmup_ops = 100
    trace_ops = 1500
    sample_stage = 12
    level_stage = 6
    shift_horizon = 2**15  # as pushforward_check
    stop_horizon = 2**16  # as criterion 10

    def __init__(self, seed):
        super().__init__(seed)
        self.pair = matching.dyadic_even_pair()
        self.npair = matching.chacon_triple_noneven_pair()
        sx, sy = self.npair.sys_x, self.npair.sys_y
        eps = Fraction(1, 4)
        n_x = ergodic.estimate_N(sx, sx.spec.total_mass(), eps,
                                 samples=32, horizon=256)
        n_y = ergodic.estimate_N(sy, sy.spec.total_mass(), eps,
                                 samples=32, horizon=256)
        self.plan = matching.noneven_prepare(self.npair, eps, max(n_x, n_y),
                                             samples=64)
        self.kac_x = self.pair.sys_x.spec.total_mass()
        sys_x, sys_y = self.pair.sys_x, self.pair.sys_y
        self.base_x = induction.lift(
            sys_x, self.pair.base_x(), self.sample_stage).level_indices
        self.base_y = induction.lift(
            sys_y, self.pair.base_y(), self.level_stage).level_indices
        self.counts = {}
        self.residual = 0
        self.samples = 0  # denominator of the frequencies, skips included
        self.past_shift_horizon = 0
        self.past_stop_horizon = 0

    def make_input(self, i):
        rng = self.rng(i)
        x = _off_base_point(self.pair.sys_x, self.base_x, rng,
                            self.sample_stage)
        xn = self.npair.sys_x.random_point(rng, self.plan.m + 2)
        return x, xn

    def op(self, inp):
        """A formula shift or stopping time past its horizon is the
        documented heavy tail, not an error: pushforward_check skips such
        samples and counts them, and so does this op (see `notes`);
        `finish` caps the counts."""
        x, xn = inp
        pair, plan = self.pair, self.plan
        try:
            rec = matching.phi_hat(pair, x, mode="formula", strict=True,
                                   horizon=self.shift_horizon)
        except WindowExhausted:
            rec = None
        if rec is not None:
            inv = matching.phi_hat_inverse(pair, rec.y, mode="formula")
            check(pair.sys_x.same_point(inv.x, x), "formula round trip lost x")
            check(inv.D == rec.d and inv.H == rec.h,
                  "formula inverse mismatch")
        h, base = matching.height_above_base(pair.sys_x, pair.base_x(), x)
        check(h >= 1 and (rec is None or h == rec.h), f"height {h}")
        try:
            st = matching.stopping_time(pair, base.digits,
                                        horizon=self.stop_horizon)
        except HorizonExhausted:
            st = None
        check(st is None or rec is None or st >= rec.n,
              f"stopping time {st} below shift {rec and rec.n}")
        avg = ergodic.return_time_average(pair.sys_x, base.digits, 2**12)
        check(avg == self.kac_x, f"return-time average {avg}")
        yn, hn, _ = matching.noneven_match(plan, xn)
        check(matching.noneven_in_image(plan, yn), "non-even image missed")
        back = matching.noneven_inverse(plan, yn)
        check(self.npair.sys_x.same_point(back, xn), "non-even round trip")
        return rec, st, yn, hn

    def digest_items(self, out):
        rec, st, yn, hn = out
        head = None
        if rec is not None:
            y_id = matching.point_id(self.pair.sys_y, rec.y)
            head = (rec.h, rec.n, rec.d, y_id)
        return (head, st, hn, matching.point_id(self.npair.sys_y, yn))

    def record(self, i, inp, out):
        rec, st = out[0], out[1]
        self.samples += 1
        self.past_shift_horizon += rec is None
        self.past_stop_horizon += st is None
        if rec is None:
            return
        y = rec.y
        if y.birth_stage > self.level_stage:
            self.residual += 1
        else:
            k = self.pair.sys_y.level_index(y, self.level_stage)
            self.counts[k] = self.counts.get(k, 0) + 1

    def finish(self):
        """Few ops may pass a horizon, and the Y stage-6 level frequencies
        of the images must match the exact masses within 3 / sqrt(n).  The
        inputs avoid the X base, whose image is the Y base, so the
        reference is Y off its base level."""
        n = self.samples
        if n == 0:
            return []
        bad = tail_failures({"past_shift_horizon": self.past_shift_horizon,
                             "past_stop_horizon": self.past_stop_horizon}, n)
        sy = self.pair.sys_y
        off_base = 1 - sy.unit_width()
        w = sy.width(self.level_stage) / off_base
        tol = Fraction(3, isqrt(n))
        worst = abs(Fraction(self.residual, n)
                    - sy.residual_mass(self.level_stage) / off_base)
        for k in range(sy.height(self.level_stage)):
            exact = 0 if k in self.base_y else w
            worst = max(worst, abs(Fraction(self.counts.get(k, 0), n) - exact))
        if worst > tol:
            bad.append(failure(None, "PushforwardTolerance",
                               f"max deviation {float(worst):.4g} > "
                               f"{float(tol):.4g} over {n} samples"))
        return bad

    def notes(self):
        return {"past_shift_horizon": self.past_shift_horizon,
                "past_stop_horizon": self.past_stop_horizon}


class RotationExact(Workload):
    """Criterion 03 / verify rotation_exchange and rotation_kac: exact
    first returns on three quadratic angles, plus one return-time
    decomposition of a seeded interval."""

    name = "rotation_exact"
    warmup_ops = 6
    trace_ops = 150
    angle_texts = ("cf:[0;(2)]", "cf:[0;(1)]", "cf:[0;(5,1,1,7)]")
    min_length = Fraction(1, 20)
    max_return = 400
    margin = 1e-9  # float gap kept from every boundary when drawing inputs

    def __init__(self, seed):
        super().__init__(seed)
        self.angles = [arithmetic.RotationAngle.parse(t)
                       for t in self.angle_texts]
        self.exchanges = [arithmetic.induced_exchange(a) for a in self.angles]
        self.adapters = [induction.RotationAdapter(a) for a in self.angles]
        self.alphas = [float(a.value) for a in self.angles]
        self.zero, self.one = Surd(0), Surd(1)

    def _frac(self, k, b):
        return (b * self.alphas[k]) % 1.0

    def make_input(self, i):
        """Points are drawn with float arithmetic, away from every boundary
        by a margin far above the float error; the op re-checks exactly."""
        rng, eps = self.rng(i), self.margin
        points = []
        for k, alpha in enumerate(self.alphas):
            while True:
                a, b = rng.randrange(-40, 40), rng.randrange(-400, 400)
                if eps < self._frac(k, b) < alpha - eps:
                    points.append(arithmetic.RotationPoint(a, b))
                    break
        k = i % len(self.angles)
        while True:
            b1, b2 = rng.randrange(-400, 400), rng.randrange(-400, 400)
            if self._frac(k, b2) - self._frac(k, b1) > self.min_length + eps:
                break
        ends = (arithmetic.RotationPoint(rng.randrange(-40, 40), b1),
                arithmetic.RotationPoint(rng.randrange(-40, 40), b2))
        return points, k, ends

    def op(self, inp):
        points, k, (p, q) = inp
        returns = []
        for angle, em, x in zip(self.angles, self.exchanges, points):
            check(arithmetic.in_interval(angle, x, self.zero, angle.value),
                  "point outside [0, alpha)")
            r, landing = arithmetic.first_return_rotation(angle, x)
            check(r in (em.n, em.n + 1), f"return time {r}")
            img = em.image(x)
            check(angle.compare_points(landing, img) == 0,
                  "exchange image differs from first return")
            check(angle.compare_points(em.preimage(img), x) == 0,
                  "exchange preimage differs")
            returns.append((r, landing.a, landing.b))
        angle = self.angles[k]
        left = arithmetic.point_value(angle, p)
        right = arithmetic.point_value(angle, q)
        check(right - left >= self.min_length, "interval shorter than 1/20")
        base = induction.IntervalUnion([(left, right)])
        dec = induction.column_decomposition(self.adapters[k], base,
                                             self.max_return)
        check(dec.remainder.is_empty(), "decomposition left a remainder")
        check(dec.kac_sum() == self.one, "Kac sum differs from 1")
        return returns, [r for _, r in dec.cells]

    def digest_items(self, out):
        return out


WORKLOADS = {w.name: w for w in (EvenRoundtrip, FrameAudit, OrbitFormula,
                                 RotationExact)}
