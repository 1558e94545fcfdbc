"""Cross-cutting property checks over a registry of built-in system pairs.

Every check is a pure function of a SuiteConfig: deterministic seeds in,
its stats dict out when it passes.  A check that fails raises Failed with
its stats and a counterexample payload; run_suite builds every Verdict under
the registered name, and turns any other exception into a failing verdict,
so no failure escapes the suite.  The registry records which module
invariant each check covers, and run_suite asserts the union covers the
required list, so removing a check without a replacement fails loudly.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import ergodic, induction, matching
from .arithmetic import (
    RotationPoint,
    first_return_rotation,
    golden_minus_1,
    induce_odometer_prefix,
    induced_exchange,
    point_value,
    sqrt2_minus_1,
)
from .digits import PeriodicDigits, SeededDigits
from .errors import WindowEdge
from .quadratic import ONE, ZERO, Surd
from .specs import (builtin_spec, parse_spec, parse_spec_json, random_spec,
                    serialize_spec, spec_to_json)
from .towers import LevelSet, RankOnePoint, RankOneSystem


@dataclass
class SuiteConfig:
    seed: int = 0
    windows: tuple = (64, 256)
    samples: int = 200
    big_samples: int = 2000
    random_specs: int = 10
    pushforward_samples: int = 20000


def default_config(seed=0):
    return SuiteConfig(seed=seed)


@dataclass
class Verdict:
    name: str
    passed: bool
    stats: dict
    counterexample: object = None

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        bits = " ".join(f"{k}={v}" for k, v in self.stats.items())
        return f"{status} {self.name}" + (f" | {bits}" if bits else "")


class Failed(Exception):
    """A check's failure: the stats and counterexample of its verdict."""

    def __init__(self, stats, counterexample=None):
        super().__init__(stats)
        self.stats = stats
        self.counterexample = counterexample


CHECKS = {}


def check(name, covers=()):
    def register(fn):
        CHECKS[name] = (fn, tuple(covers))
        return fn

    return register


REQUIRED_INVARIANTS = (
    "dsl-roundtrip",
    "height-recurrence",
    "width-normalization",
    "name-reading",
    "orbit-invertibility",
    "point-equality",
    "induced-odometer",
    "surd-order",
    "rotation-first-return",
    "prefix-inducing",
    "rotation-kac",
    "rank-one-columns",
    "skyscraper-partition",
    "interval-algebra",
    "machine-bijectivity",
    "machine-conservation",
    "even-roundtrip",
    "inverse-identities",
    "formula-machine-boundary",
    "base-conjugacy",
    "noneven-margins",
    "noneven-order",
    "noneven-conjugacy",
    "kac-targets",
    "stopping-finiteness",
    "pushforward-measure",
    "estimate-n-monotone",
)


# ---------------------------------------------------------------------------
# Checks


@check("spec_canonical", covers=("dsl-roundtrip",))
def _check_spec_canonical(cfg):
    names = ["chacon", "dyadic_pair_left", "dyadic_pair_right", "triple_heavy",
             "odometer(2)", "odometer(2,3)"]
    specs = [builtin_spec(n) for n in names]
    specs += [random_spec(f"{cfg.seed}:{i}") for i in range(cfg.random_specs)]
    for spec in specs:
        if len(spec.tail) == 1:
            text = serialize_spec(spec)
            again = serialize_spec(parse_spec(text))
            if again != text:
                raise Failed({"spec": spec.name},
                             {"text": text, "reparsed": again})
        blob = spec_to_json(spec)
        if spec_to_json(parse_spec_json(blob)) != blob:
            raise Failed({"spec": spec.name, "kind": "json"})
    return {"specs": len(specs)}


@check("heights_widths", covers=("height-recurrence", "width-normalization"))
def _check_heights_widths(cfg):
    known_w1 = {
        "chacon": Fraction(2, 3),
        "triple_heavy": Fraction(2, 5),
        "dyadic_pair_left": Fraction(1, 2),
        "dyadic_pair_right": Fraction(1, 2),
        "odometer(2)": Fraction(1),
    }
    depth = 12
    for name, w1 in known_w1.items():
        sys = RankOneSystem(builtin_spec(name))
        if sys.unit_width() != w1:
            raise Failed({"spec": name}, {"w1": str(sys.unit_width()),
                                          "expect": str(w1)})
        h = sys.spec.initial_height
        w = w1
        for i in range(1, depth + 1):
            if sys.height(i) != h or sys.width(i) != w:
                raise Failed({"spec": name, "stage": i})
            r = sys.spec.rule(i)
            h = r.spacers_below + r.cuts * h + sum(r.spacers_above)
            w = w / r.cuts
    return {"specs": len(known_w1), "depth": depth}


@check("spacer_recovery", covers=("name-reading",))
def _check_spacer_recovery(cfg):
    specs = [builtin_spec(n) for n in
             ("chacon", "dyadic_pair_left", "triple_heavy", "odometer(2,3)")]
    specs += [random_spec(f"rec:{cfg.seed}:{i}")
              for i in range(cfg.random_specs)]
    for spec in specs:
        sys = RankOneSystem(spec)
        for i in range(1, 7):
            below, above = sys.recover_spacers(i)
            r = spec.rule(i)
            if (below, above) != (r.spacers_below, r.spacers_above):
                raise Failed({"spec": spec.name, "stage": i},
                             {"got": (below, above),
                              "expect": (r.spacers_below, r.spacers_above)})
    return {"specs": len(specs)}


@check("apply_roundtrip", covers=("orbit-invertibility", "point-equality"))
def _check_apply_roundtrip(cfg):
    rng = random.Random(f"apply:{cfg.seed}")
    sys = RankOneSystem(builtin_spec("chacon"))
    for t in range(cfg.samples):
        x = sys.random_point(rng, 5, seed=f"ar:{cfg.seed}:{t}")
        n = rng.randrange(1, 200)
        y = sys.apply(x, n)
        back = sys.apply(y, -n)
        if not sys.same_point(back, x):
            raise Failed({"trial": t, "n": n}, {"digit_prefix": tuple(
                x.digits.digit(k) for k in range(1, 8))})
        # representation independence: re-address at a deeper stage
        k = 7
        rep = sys.point_at(k, sys.level_index(x, k), x.digits)
        if not sys.same_point(rep, x):
            raise Failed({"trial": t, "stage": k})
    return {"samples": cfg.samples}


@check("walker_agrees_with_apply", covers=("induced-odometer",))
def _check_walker(cfg):
    base = LevelSet(1, frozenset({0}))
    for name in ("chacon", "dyadic_pair_right"):
        sys = RankOneSystem(builtin_spec(name))
        ad = induction.RankOneAdapter(sys)
        digits = SeededDigits(f"walk:{cfg.seed}:{name}", sys.cuts)
        pt = RankOnePoint(1, 0, digits)
        for step in range(40):
            r, digits = sys.advance(digits, 1)
            brute = induction.return_time(ad, base, pt)
            if r != brute:
                raise Failed({"spec": name, "step": step},
                             {"walker": r, "brute": brute})
            pt = sys.apply(pt, r)
            if not sys.same_point(pt, RankOnePoint(1, 0, digits)):
                raise Failed({"spec": name, "step": step, "kind": "point"})
    return {"steps": 40}


@check("surd_order_crosscheck", covers=("surd-order",))
def _check_surd_order(cfg):
    rng = random.Random(f"surd:{cfg.seed}")
    for t in range(cfg.samples):
        d = rng.choice([2, 3, 5, 7])
        a = Surd(Fraction(rng.randrange(-50, 50), rng.randrange(1, 20)),
                 Fraction(rng.randrange(-50, 50), rng.randrange(1, 20)), d)
        bu, bv = (Fraction(rng.randrange(-50, 50), rng.randrange(1, 20))
                  for _ in range(2))
        # b over d*k^2, k = 1..3: one field, another radicand
        k = 1 + t % 3
        b = Surd(bu, bv / k, d * k * k)
        b_over_d = Surd(bu, bv, d)
        if b != b_over_d or hash(b) != hash(b_over_d):
            raise Failed({"trial": t, "kind": "radicand"})
        diff = a - b
        s_exact = diff.sign()
        approx = diff.approx(128)
        s_float = (approx > 0) - (approx < 0)
        if s_exact != s_float and abs(approx) > Fraction(1, 2**100):
            raise Failed({"trial": t},
                         {"exact": s_exact, "approx": float(approx)})
        if diff.floor() != approx.__floor__() and diff.v != 0:
            raise Failed({"trial": t, "kind": "floor"})
    return {"samples": cfg.samples}


@check("rotation_exchange", covers=("rotation-first-return",))
def _check_rotation_exchange(cfg):
    rng = random.Random(f"rot:{cfg.seed}")
    for angle, label in ((sqrt2_minus_1(), "sqrt2-1"),
                         (golden_minus_1(), "golden-1")):
        em = induced_exchange(angle)
        alpha = angle.value
        count = 0
        trials = 0
        while count < cfg.samples and trials < 20 * cfg.samples:
            trials += 1
            p = RotationPoint(rng.randrange(-40, 40), rng.randrange(-400, 400))
            if not (ZERO <= point_value(angle, p) < alpha):
                continue
            count += 1
            r, landing = first_return_rotation(angle, p)
            img = em.image(p)
            if angle.compare_points(landing, img) != 0:
                raise Failed({"angle": label, "point": (p.a, p.b)})
            back = em.preimage(img)
            if angle.compare_points(back, p) != 0:
                raise Failed({"angle": label, "kind": "preimage",
                              "point": (p.a, p.b)})
        if count < cfg.samples:
            raise Failed({"angle": label, "found": count})
    return {"per_angle": cfg.samples}


@check("odometer_prefix_inducing", covers=("prefix-inducing",))
def _check_prefix_inducing(cfg):
    ind = induce_odometer_prefix(3, 2)
    ad = induction.RankOneAdapter(ind.system)
    base = ind.base_set()
    x = ind.from_odometer(SeededDigits(f"pi:{cfg.seed}", ind.odometer.cuts))
    o = ind.to_odometer(x)
    for step in range(cfg.big_samples):
        x = induction.induced_apply(ad, base, x)
        o = ind.odometer.advance(o, 1)[1]
        if not ind.system.same_point(ind.from_odometer(o), x):
            raise Failed({"step": step})
    return {"steps": cfg.big_samples}


@check("rotation_kac", covers=("rotation-kac", "interval-algebra"))
def _check_rotation_kac(cfg):
    for angle, label in ((sqrt2_minus_1(), "sqrt2-1"),
                         (golden_minus_1(), "golden-1")):
        ad = induction.RotationAdapter(angle)
        A = induction.IntervalUnion([(ZERO, angle.value)])
        dec = induction.column_decomposition(ad, A, 12)
        if not dec.remainder.is_empty():
            raise Failed({"angle": label},
                         {"remainder": float(dec.remainder.measure())})
        total = ZERO
        for cell, r in dec.cells:
            total = total + cell.measure() * r
        if total != ONE:
            raise Failed({"angle": label, "kac_sum": float(total)})
        comp = induction.whole_circle().difference(A)
        if comp.measure() + A.measure() != ONE:
            raise Failed({"angle": label, "kind": "complement"})
    return {"angles": 2}


@check("rank_one_columns", covers=("rank-one-columns",))
def _check_rank_one_columns(cfg):
    sys = RankOneSystem(builtin_spec("chacon"))
    ad = induction.RankOneAdapter(sys)
    A = LevelSet(1, frozenset({0}))
    prev = Fraction(0)
    for K in (3, 5, 7):
        dec = induction.column_decomposition(ad, A, K)
        cover = dec.kac_sum() + dec.remainder_mass
        levels = set()
        for cell, _ in dec.cells:
            if levels & cell.level_indices:
                raise Failed({"stage": K, "kind": "overlap"})
            levels |= cell.level_indices
        if cover > 1 or dec.kac_sum() < prev:
            raise Failed({"stage": K, "cover": str(cover)})
        prev = dec.kac_sum()
    return {"final_kac": str(prev)}


@check("skyscraper_partition", covers=("skyscraper-partition",))
def _check_skyscraper(cfg):
    sys = RankOneSystem(builtin_spec("odometer(2)"))
    ad = induction.RankOneAdapter(sys)
    A = LevelSet(1, frozenset({0}))
    K = 6
    sky = induction.skyscraper(ad, A, 2**K, working_stage=K)
    seen = set()
    mass = Fraction(0)
    for i, lvl in enumerate(sky.levels):
        if seen & lvl.level_indices:
            raise Failed({"level": i})
        seen |= lvl.level_indices
        mass += sys.measure(lvl)
        if i >= 2 ** (K - 1) and len(lvl):
            raise Failed({"level": i, "kind": "not_empty"})
    if mass != 1:
        raise Failed({"mass": str(mass)})
    return {"levels": len(sky.levels)}


@check("machine_bijectivity",
       covers=("machine-bijectivity", "machine-conservation"))
def _check_machine(cfg):
    pair = matching.dyadic_even_pair()
    worst = Fraction(1)
    streams = 8
    for W in cfg.windows:
        total = Fraction(0)
        for s in range(streams):
            stream = SeededDigits(f"mach:{cfg.seed}:{W}:{s}", pair.sys_x.cuts)
            frac, f1, f2 = matching.frame_stability(pair, stream, W)
            total += frac
            bad = matching.edge_violations(pair, stream, W)
            if bad:
                raise Failed({"window": W, "kind": "interior_instability"},
                             {"window": W, "items": bad[:4]})
            if len(f1.inverse) != len(f1.assignment):
                raise Failed({"window": W, "kind": "collision"}, {"window": W})
            items = sum(f1.ra[i] - 1 for i in range(-W, W + 1))
            slots = sum(f1.rb[j] - 1 for j in range(-W, W + 1))
            if len(f1.assignment) + len(f1.unplaced) != items:
                raise Failed({"window": W, "kind": "item_conservation"})
            if len(f1.assignment) + len(f1.unfilled) != slots:
                raise Failed({"window": W, "kind": "slot_conservation"})
        mean = total / streams
        worst = min(worst, mean)
        if mean < Fraction(99, 100):
            raise Failed({"window": W, "stable": float(mean)}, {"window": W})
    return {"windows": str(cfg.windows), "worst_stable": float(worst)}


@check("even_roundtrip",
       covers=("even-roundtrip", "inverse-identities"))
def _check_even_roundtrip(cfg):
    pair = matching.dyadic_even_pair()
    rng = random.Random(f"ert:{cfg.seed}")
    for t in range(cfg.samples):
        x = pair.sys_x.random_point(rng, 6, seed=f"ert:{cfg.seed}:{t}")
        try:
            rec = matching.phi_hat_stable(pair, x)
            inv = matching.phi_hat_inverse_stable(pair, rec.y)
        except WindowEdge as e:
            raise Failed({"trial": t}, {"error": str(e)})
        if not (pair.sys_x.same_point(inv.x, x)
                and inv.D == rec.d and inv.H == rec.h):
            raise Failed({"trial": t}, {"forward": (rec.h, rec.n, rec.d),
                                        "inverse": (inv.D, inv.m, inv.H)})
    return {"samples": cfg.samples}


@check("formula_machine_boundary", covers=("formula-machine-boundary",))
def _check_boundary(cfg):
    pair = matching.dyadic_even_pair()
    rng = random.Random(f"bnd:{cfg.seed}")
    disagreements = 0
    for t in range(cfg.big_samples):
        stream = SeededDigits(f"bnd:{cfg.seed}:{t}", pair.sys_x.cuts)
        h = rng.randrange(0, pair.sys_x.return_time(
            *pair.sys_x.carry(stream)))
        strict = matching.even_match_formula(pair, stream, h, strict=True)
        loose = matching.even_match_formula(pair, stream, h, strict=False)
        try:
            mach = matching.even_match_machine(pair, stream, h, 32)
        except WindowEdge:  # not placed within the window: no verdict
            mach = strict
        if (mach.n, mach.d) != (strict.n, strict.d):
            raise Failed({"trial": t, "kind": "machine"},
                         {"h": h, "machine": (mach.n, mach.d),
                          "strict": (strict.n, strict.d)})
        if (strict.n, strict.d) != (loose.n, loose.d):
            disagreements += 1
            if not loose.boundary:
                raise Failed({"trial": t}, {"h": h})
    return {"samples": cfg.big_samples, "disagreements": disagreements}


@check("base_conjugacy", covers=("base-conjugacy",))
def _check_base_conjugacy(cfg):
    pair = matching.dyadic_even_pair()
    for t in range(cfg.samples):
        stream = SeededDigits(f"conj:{cfg.seed}:{t}", pair.sys_x.cuts)
        # a base point maps to the Y base point with the same digits, and
        # so does its successor under the shared odometer
        x = RankOnePoint(1, 0, stream)
        rec = matching.phi_hat(pair, x, mode="formula")
        if not pair.sys_y.same_point(rec.y, x):
            raise Failed({"trial": t, "kind": "restriction"})
        nxt = RankOnePoint(1, 0, pair.sys_x.advance(stream, 1)[1])
        lhs = matching.phi_hat(pair, nxt, mode="formula").y
        if not pair.sys_y.same_point(lhs, nxt):
            raise Failed({"trial": t, "kind": "intertwine"})
    return {"samples": cfg.samples}


@check("noneven_pipeline",
       covers=("noneven-margins", "noneven-order", "noneven-conjugacy"))
def _check_noneven(cfg):
    pair = matching.chacon_triple_noneven_pair()
    eps = Fraction(1, 4)
    N = max(
        ergodic.estimate_N(pair.sys_x, Fraction(3, 2), eps,
                           samples=16, horizon=128, seed=cfg.seed),
        ergodic.estimate_N(pair.sys_y, Fraction(5, 2), eps,
                           samples=16, horizon=128, seed=cfg.seed),
    )
    plan = matching.noneven_prepare(pair, eps, N)
    rng = random.Random(f"ne:{cfg.seed}")
    for t in range(cfg.samples):
        x1 = pair.sys_x.random_point(rng, plan.m + 2, seed=f"ne:{cfg.seed}:{t}")
        y1, h1, _ = matching.noneven_match(plan, x1)
        if not matching.noneven_in_image(plan, y1):
            raise Failed({"trial": t, "kind": "membership"})
        if not pair.sys_x.same_point(matching.noneven_inverse(plan, y1), x1):
            raise Failed({"trial": t, "kind": "roundtrip"})
        m = rng.randrange(1, 30)
        x2 = pair.sys_x.apply(x1, m)
        y2, _, _ = matching.noneven_match(plan, x2)
        gap = 0
        cur = y1
        while gap < 500:
            cur = pair.sys_y.apply(cur, 1)
            gap += 1
            if pair.sys_y.same_point(cur, y2):
                break
        else:
            raise Failed({"trial": t, "kind": "order", "m": m})
        succ = matching.noneven_image_successor(
            plan, matching.noneven_match(plan, x1)[0])
        expect = matching.noneven_match(plan, pair.sys_x.apply(x1, 1))[0]
        if not pair.sys_y.same_point(succ, expect):
            raise Failed({"trial": t, "kind": "conjugacy"})
    return {"N": N, "m": plan.m, "block": plan.block,
            "min_margin": plan.margin, "samples": cfg.samples}


@check("kac_targets", covers=("kac-targets",))
def _check_kac(cfg):
    n = 3**6
    for name in ("chacon", "triple_heavy"):
        sys = RankOneSystem(builtin_spec(name))
        rep = ergodic.kac_check(sys, n, 50, seed=cfg.seed)
        if rep.max_abs_dev > Fraction(1, 50):
            raise Failed({"spec": name, "dev": float(rep.max_abs_dev)})
    sys = RankOneSystem(builtin_spec("dyadic_pair_left"))
    rep = ergodic.kac_check(sys, 2**8, 20, seed=cfg.seed)
    if rep.max_abs_dev != 0:
        raise Failed({"spec": "dyadic_pair_left"})
    # agreement with 64 single induced steps
    d = e = SeededDigits(f"kaco:{cfg.seed}", sys.cuts)
    total = 0
    for _ in range(64):
        r, e = sys.advance(e, 1, 512)
        total += r
    if ergodic.return_time_average(sys, d, 64) != Fraction(total, 64):
        raise Failed({"kind": "fast_vs_naive"})
    return {"n": n}


@check("stopping_finiteness", covers=("stopping-finiteness",))
def _check_stopping(cfg):
    pair = matching.dyadic_even_pair()
    worst = 0
    for t in range(cfg.big_samples):
        stream = SeededDigits(f"stop:{cfg.seed}:{t}", pair.sys_x.cuts)
        n = matching.stopping_time(pair, stream)
        worst = max(worst, n)
    return {"samples": cfg.big_samples, "max_n": worst}


@check("pushforward_measure", covers=("pushforward-measure",))
def _check_pushforward(cfg):
    pair = matching.dyadic_even_pair()
    rep = ergodic.pushforward_check(pair, cfg.pushforward_samples,
                                    stage=6, seed=cfg.seed)
    if not rep.within_tolerance:
        raise Failed({"dev": float(rep.max_abs_dev),
                      "tol": float(rep.tolerance)})
    return {"samples": cfg.pushforward_samples,
            "dev": float(rep.max_abs_dev), "skipped": rep.skipped}


@check("estimate_n_monotone", covers=("estimate-n-monotone",))
def _check_estimate_monotone(cfg):
    sys = RankOneSystem(builtin_spec("chacon"))
    n_coarse = ergodic.estimate_N(sys, Fraction(3, 2), Fraction(1, 4),
                                  samples=16, horizon=128, seed=cfg.seed)
    n_fine = ergodic.estimate_N(sys, Fraction(3, 2), Fraction(1, 10),
                                samples=16, horizon=128, seed=cfg.seed)
    if n_fine < n_coarse:
        raise Failed({"coarse": n_coarse, "fine": n_fine})
    dl = RankOneSystem(builtin_spec("dyadic_pair_left"))
    if ergodic.estimate_N(dl, Fraction(2), Fraction(1, 100),
                          samples=4, horizon=32, seed=cfg.seed) != 1:
        raise Failed({"kind": "constant_returns"})
    return {"coarse": n_coarse, "fine": n_fine}


# ---------------------------------------------------------------------------
# Runner


def run_suite(config=None, names=None):
    cfg = config or default_config()
    covered = set()
    for _, covers in CHECKS.values():
        covered.update(covers)
    missing = [inv for inv in REQUIRED_INVARIANTS if inv not in covered]
    if missing:
        raise AssertionError(f"no check covers invariants: {missing}")
    verdicts = []
    for name, (fn, _) in CHECKS.items():
        if names and name not in names:
            continue
        try:
            verdicts.append(Verdict(name, True, fn(cfg)))
        except Failed as e:
            verdicts.append(Verdict(name, False, e.stats, e.counterexample))
        except Exception as e:  # a failure is a verdict, never a raise
            verdicts.append(Verdict(name, False,
                                    {"error": type(e).__name__},
                                    {"message": str(e)}))
    return verdicts


def render_report(verdicts):
    lines = [v.line() for v in verdicts]
    passed = sum(v.passed for v in verdicts)
    lines.append(f"{passed}/{len(verdicts)} checks passed")
    return "\n".join(lines) + "\n"


def report_json(verdicts):
    payload = [
        {
            "name": v.name,
            "passed": v.passed,
            "stats": {k: str(val) for k, val in v.stats.items()},
            "counterexample": None if v.counterexample is None
            else str(v.counterexample),
        }
        for v in verdicts
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
