"""End-to-end acceptance gate.

Each test covers one acceptance criterion, enforces its wall-clock limit,
and records a single PASS/FAIL line that conftest prints in the terminal
summary, so the verdicts are visible even with output capture on.
"""

import json
import random
import time
from fractions import Fraction
from math import isqrt

import pytest

import oracles
from conftest import ACCEPTANCE_LINES
from cutstack import ergodic, induction, matching, verify
from cutstack.arithmetic import (
    first_return_rotation,
    golden_minus_1,
    in_interval,
    induce_odometer_prefix,
    induced_exchange,
    sqrt2_minus_1,
)
from cutstack.digits import SeededDigits
from cutstack.quadratic import Surd
from cutstack.specs import builtin_spec, random_spec
from cutstack.towers import LevelSet, RankOneSystem


class criterion:
    """Times a criterion body and records its PASS/FAIL summary line."""

    def __init__(self, label, limit_s):
        self.label = label
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        ok = exc_type is None and elapsed <= self.limit
        status = "PASS" if ok else "FAIL"
        ACCEPTANCE_LINES.append(
            f"{status} {self.label} ({elapsed:.2f}s / limit {self.limit}s)"
        )
        if exc_type is None and elapsed > self.limit:
            raise AssertionError(
                f"{self.label}: exceeded time limit "
                f"({elapsed:.2f}s > {self.limit}s)"
            )
        return False


def test_criterion_01_exact_stage_data():
    with criterion("criterion-01 exact stage heights and widths", 1):
        known_w1 = {
            "chacon": Fraction(2, 3),
            "triple_heavy": Fraction(2, 5),
            "dyadic_pair_left": Fraction(1, 2),
            "dyadic_pair_right": Fraction(1, 2),
            "odometer(2)": Fraction(1),
        }
        for name, w1 in known_w1.items():
            sys = RankOneSystem(builtin_spec(name))
            assert sys.unit_width() == w1
            assert sys.height(1) == 1 and sys.width(1) == w1
            h, w = 1, w1
            for i in range(1, 13):
                assert sys.height(i) == h
                assert sys.width(i) == w
                assert 0 < sys.height(i) * sys.width(i) <= 1
                r = sys.spec.rule(i)
                h = r.spacers_below + r.cuts * h + sum(r.spacers_above)
                w /= r.cuts
        chacon = RankOneSystem(builtin_spec("chacon"))
        assert [chacon.height(i) for i in range(1, 6)] == [1, 4, 13, 40, 121]


def test_criterion_02_spacer_recovery():
    with criterion("criterion-02 spacer recovery from names", 5):
        specs = [builtin_spec(n) for n in
                 ("chacon", "dyadic_pair_left", "dyadic_pair_right",
                  "triple_heavy", "odometer(2)", "odometer(2,3)")]
        specs += [random_spec(f"acc2:{i}", stages=8, max_cuts=4,
                              max_spacers=3) for i in range(50)]
        for spec in specs:
            sys = RankOneSystem(spec)
            for i in range(1, 7):
                below, above = sys.recover_spacers(i)
                r = spec.rule(i)
                assert (below, above) == (r.spacers_below, r.spacers_above)


def test_criterion_03_induced_map_identities():
    with criterion("criterion-03 induced-map identities", 10):
        # induced base map = mixed-radix odometer, 10^4 steps
        sys = RankOneSystem(builtin_spec("odometer(2,3)"))
        state = SeededDigits("acc3", sys.cuts)
        bases = [sys.cuts(k) for k in range(1, 20)]
        digits = [state.digit(k) for k in range(1, 20)]
        for _ in range(10**4):
            state = sys.advance(state, 1)[1]
            digits = oracles.naive_odometer_successor(digits, bases)
            assert [state.digit(k) for k in range(1, 20)] == digits
        # rotation first-return = two-piece exchange, 10^3 points per angle
        for make in (sqrt2_minus_1, golden_minus_1):
            angle = make()
            alpha = angle.value
            em = induced_exchange(angle)
            from cutstack.arithmetic import RotationPoint

            count = 0
            b = 0
            while count < 10**3:
                b += 1
                for a in (-2, -1, 0, 1, 2):
                    p = RotationPoint(a, b)
                    if not in_interval(angle, p, Surd(0), alpha):
                        continue
                    count += 1
                    r, landing = first_return_rotation(angle, p)
                    assert r in (em.n, em.n + 1)
                    assert angle.compare_points(em.image(p), landing) == 0
                    assert angle.compare_points(em.preimage(em.image(p)),
                                                p) == 0
            # prefix inducing: conjugacy over 10^4 odometer steps
        ind = induce_odometer_prefix(3, 2)
        sysq = ind.system
        ad = induction.RankOneAdapter(sysq)
        base = ind.base_set()
        p = sysq.base_point()
        o = ind.to_odometer(p)
        for _ in range(10**4):
            p = induction.induced_apply(ad, base, p)
            o = ind.odometer.advance(o, 1)[1]
        assert sysq.same_point(ind.from_odometer(o), p)


def test_criterion_04_machine_bijectivity():
    with criterion("criterion-04 machine bijectivity and stability", 30):
        pair = matching.dyadic_even_pair()
        streams = 4
        for W in (2**6, 2**8, 2**10):
            for s in range(streams):
                stream = SeededDigits(f"acc4:{W}:{s}", pair.sys_x.cuts)
                frac, f1, f2 = matching.frame_stability(pair, stream, W)
                # zero collisions: assignment is a bijection onto its range
                assert len(f1.inverse) == len(f1.assignment)
                # conservation: every item placed or pending, every slot
                # filled or unreached
                items = sum(f1.ra[i] - 1 for i in range(-W, W + 1))
                slots = sum(f1.rb[j] - 1 for j in range(-W, W + 1))
                assert len(f1.assignment) + len(f1.unplaced) == items
                assert len(f1.assignment) + len(f1.unfilled) == slots
                # placed interior assignments survive window doubling
                assert frac >= Fraction(99, 100)
                # the only instabilities are items whose pit lies past the
                # window edge
                assert matching.edge_violations(pair, stream, W) == []


def test_criterion_05_machine_round_trips():
    with criterion("criterion-05 machine-mode round trips", 30):
        pair = matching.dyadic_even_pair()
        rng = random.Random("acc5")
        fallbacks = 0
        for t in range(10**4):
            x = pair.sys_x.random_point(rng, 6, seed=f"acc5:{t}")
            rec = matching.phi_hat_stable(pair, x)
            inv = matching.phi_hat_inverse_stable(pair, rec.y)
            fallbacks += rec.mode != "machine"
            assert pair.sys_x.same_point(inv.x, x)
            assert inv.D == rec.d
            assert inv.H == rec.h
        # heavy-tailed shifts: only a small fraction outruns the machine
        # windows and uses the machine-equivalent strict closed form
        assert fallbacks < 10**4 // 20, fallbacks


def test_criterion_06_formula_machine_boundary():
    with criterion("criterion-06 convention disagreements on boundary", 30):
        from cutstack.errors import WindowEdge

        pair = matching.dyadic_even_pair()
        disagreements = 0
        machine_checked = 0
        out_of_window = 0
        for s in range(2000):
            stream = SeededDigits(f"acc6:{s}", pair.sys_x.cuts)
            for h in range(pair.sys_x.return_time(
                    *pair.sys_x.carry(stream))):
                strict = matching.even_match_formula(pair, stream, h,
                                                     strict=True)
                loose = matching.even_match_formula(pair, stream, h,
                                                    strict=False)
                try:
                    mach = matching.even_match_machine(pair, stream, h,
                                                       window=64)
                except WindowEdge:
                    out_of_window += 1  # shift past the window: no verdict
                else:
                    machine_checked += 1
                    assert (mach.n, mach.d) == (strict.n, strict.d)
                if (strict.n, strict.d) != (loose.n, loose.d):
                    disagreements += 1
                    assert loose.boundary
        assert disagreements > 0
        assert machine_checked > 20 * out_of_window


def test_criterion_07_base_conjugacy():
    with criterion("criterion-07 base restriction and conjugacy", 30):
        pair = matching.dyadic_even_pair()
        ax = induction.RankOneAdapter(pair.sys_x)
        ay = induction.RankOneAdapter(pair.sys_y)
        base_x = pair.base_x()
        base_y = pair.base_y()
        for t in range(10**3):
            stream = SeededDigits(f"acc7:{t}", pair.sys_x.cuts)
            x = pair.sys_x.base_point(stream)
            # restriction to the base: the matching is phi alone
            rec = matching.phi_hat_stable(pair, x)
            assert (rec.h, rec.n, rec.d) == (0, 0, 0)
            y_phi = pair.sys_y.base_point(stream)
            assert pair.sys_y.same_point(rec.y, y_phi)
            # conjugacy of the induced maps through the matching
            x_next = induction.induced_apply(ax, base_x, x)
            lhs = matching.phi_hat_stable(pair, x_next).y
            rhs = induction.induced_apply(ay, base_y, rec.y)
            assert pair.sys_y.same_point(lhs, rhs)


def test_criterion_08_noneven_pipeline():
    with criterion("criterion-08 unequal-base embedding pipeline", 60):
        pair = matching.chacon_triple_noneven_pair()
        eps = Fraction(1, 4)
        n_x = ergodic.estimate_N(pair.sys_x, pair.sys_x.spec.total_mass(),
                                 eps, samples=32, horizon=256)
        n_y = ergodic.estimate_N(pair.sys_y, pair.sys_y.spec.total_mass(),
                                 eps, samples=32, horizon=256)
        plan = matching.noneven_prepare(pair, eps, max(n_x, n_y),
                                        samples=64)
        assert plan.block > 2 * plan.N
        # margins: piles fit inside pits on 10^3 sampled cylinder points
        for s in range(10**3):
            digits = oracles.deep_zero_digits(pair, plan.m, f"acc8m:{s}")
            assert oracles.pit_depth(plan, digits) >= \
                matching.pile_height(plan, digits)
        # round trips on 10^3 points
        rng = random.Random("acc8")
        for t in range(10**3):
            x = pair.sys_x.random_point(rng, plan.m + 2, seed=f"acc8:{t}")
            y, h, _ = matching.noneven_match(plan, x)
            assert matching.noneven_in_image(plan, y)
            assert pair.sys_x.same_point(matching.noneven_inverse(plan, y), x)
        # order/conjugacy: 10^3 successor steps follow the embedded image
        stream = SeededDigits("acc8o", pair.sys_x.cuts)
        x = pair.sys_x.point_at(plan.m + 1, 0, stream)
        y, _, _ = matching.noneven_match(plan, x)
        for _ in range(10**3):
            x = pair.sys_x.apply(x, 1)
            y = matching.noneven_image_successor(plan, y)
            direct, _, _ = matching.noneven_match(plan, x)
            assert pair.sys_y.same_point(y, direct)


def test_criterion_09_return_time_averages():
    with criterion("criterion-09 return-time averages", 30):
        rep = ergodic.kac_check(RankOneSystem(builtin_spec("chacon")),
                                3**8, samples=10**3)
        assert rep.target == Fraction(3, 2)
        assert rep.max_abs_dev <= Fraction(1, 50)
        rep = ergodic.kac_check(RankOneSystem(builtin_spec("triple_heavy")),
                                3**8, samples=10**3)
        assert rep.target == Fraction(5, 2)
        assert rep.max_abs_dev <= Fraction(1, 50)
        rep = ergodic.kac_check(
            RankOneSystem(builtin_spec("dyadic_pair_left")), 2**12,
            samples=10**3)
        assert rep.target == 2
        assert rep.max_abs_dev == 0


def test_criterion_10_stopping_times_finite():
    with criterion("criterion-10 finite stopping times", 30):
        pair = matching.dyadic_even_pair()
        worst = 0
        for s in range(10**4):
            stream = SeededDigits(f"acc10:{s}", pair.sys_x.cuts)
            n = matching.stopping_time(pair, stream, horizon=2**16)
            worst = max(worst, n)
        assert worst < 2**16


def test_criterion_11_pushforward_measure():
    with criterion("criterion-11 pushforward of the measure", 60):
        pair = matching.dyadic_even_pair()
        samples = 10**5
        rep = ergodic.pushforward_check(pair, samples, stage=6, seed=0)
        assert rep.tolerance == Fraction(3, isqrt(samples))
        assert rep.skipped == 0
        assert rep.within_tolerance, float(rep.max_abs_dev)


def test_criterion_12_reproducible_verify_reports():
    with criterion("criterion-12 byte-identical verify reports", 120):
        cfg = verify.default_config(seed=0)
        a = verify.run_suite(cfg)
        b = verify.run_suite(verify.default_config(seed=0))
        text_a, text_b = verify.render_report(a), verify.render_report(b)
        assert all(v.passed for v in a), text_a
        assert text_a == text_b
        assert verify.report_json(a) == verify.report_json(b)
        json.loads(verify.report_json(a))
