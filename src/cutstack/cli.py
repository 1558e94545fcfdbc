"""Command-line entry point: build / orbit / induce / match / ergodic /
verify pipelines with deterministic seeds and file outputs.

Every run writes a manifest (command echo, seed, input digests, output
list) next to its outputs, even on failure; an argparse usage error exits
2 before any run starts, and writes none.  Timestamps live only in the
manifest, so identical commands with identical seeds produce byte-identical
output files.

Exit codes: 0 success, 1 check failures, 2 parse or usage error, 3 validation
error, 4 inadmissible pair, 5 widespread window instability, 6 any other
typed error (unresolved: a search that ran out of depth, window or horizon).
"""

import argparse
import hashlib
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import __version__, ergodic, induction, matching, verify
from .arithmetic import (
    OdometerSpec,
    RotationAngle,
    odometer_successor,
    odometer_zero,
)
from .digits import SeededDigits
from .errors import (
    CutstackError,
    DslError,
    InadmissiblePair,
    SpecInvalid,
    WindowEdge,
    WindowExhausted,
)
from .quadratic import Surd
from .specs import builtin_spec, parse_spec, parse_spec_json, validate_spec
from .towers import BaseOrbitWalker, LevelSet, RankOneSystem


class _Instability(CutstackError):
    """Raised by cmd_match when too many samples are window-unstable."""


class RunContext:
    def __init__(self, args):
        self.args = args
        self.out_dir = args.out_dir
        self.inputs = {}
        self.outputs = []
        os.makedirs(self.out_dir, exist_ok=True)

    def note_input(self, path):
        with open(path, "rb") as fh:
            self.inputs[path] = hashlib.sha256(fh.read()).hexdigest()

    def write(self, name, text):
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        self.outputs.append(name)
        return path

    def manifest(self, status):
        payload = {
            "command": self.args.command,
            "config": {
                k: v for k, v in sorted(vars(self.args).items())
                if k != "func" and not callable(v)
            },
            "seed": getattr(self.args, "seed", None),
            "version": __version__,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "status": status,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


def load_spec(ctx, text):
    """A spec argument: a file path (DSL or JSON) or a built-in name."""
    if os.path.isfile(text):
        ctx.note_input(text)
        with open(text) as fh:
            body = fh.read()
        if text.endswith(".json"):
            return parse_spec_json(body)
        return parse_spec(body)
    return builtin_spec(text)


def _require_at_least(args, least, *options):
    """Refuse a count option below its least meaningful value."""
    for opt in options:
        value = getattr(args, opt)
        if value < least:
            flag = opt.replace("_", "-")
            raise SpecInvalid(f"--{flag} must be >= {least}, got {value}")


# ---------------------------------------------------------------------------
# Commands


def cmd_build(ctx):
    args = ctx.args
    _require_at_least(args, 1, "stages")
    spec = load_spec(ctx, args.spec)
    report = validate_spec(spec, horizon=args.stages)
    if not report.accepted:
        print(f"validation failed: {report.reason}", file=sys.stderr)
        return 3
    sys_ = RankOneSystem(spec)
    lines = ["i,h_i,w_i,level_count,spacer_count,residual_mass"]
    for row in sys_.stage_report(args.stages):
        lines.append(
            f"{row['i']},{row['h_i']},{row['w_i']},{row['level_count']},"
            f"{row['spacer_count']},{row['residual_mass']}"
        )
    ctx.write(f"build_{spec.name}.csv", "\n".join(lines) + "\n")
    print(f"built {spec.name}: {args.stages} stages")
    return 0


def cmd_orbit(ctx):
    args = ctx.args
    _require_at_least(args, 0, "budget")
    _require_at_least(args, 1, "steps", "depth")
    if args.system.startswith("od:"):
        spec = OdometerSpec.parse(args.system)
        point = odometer_zero(spec)
        lines = ["step,digits"]
        for step in range(args.steps + 1):
            digs = ",".join(
                str(point.digit(k)) for k in range(1, args.depth + 1)
            )
            lines.append(f'{step},"{digs}"')
            point = odometer_successor(spec, point, args.budget)
        ctx.write("orbit_odometer.csv", "\n".join(lines) + "\n")
        print(f"odometer orbit: {args.steps} steps")
        return 0
    spec = load_spec(ctx, args.system)
    sys_ = RankOneSystem(spec)
    walker = BaseOrbitWalker(
        sys_, SeededDigits(f"orbit:{args.seed}", sys_.cuts)
    )
    lines = ["step,return_time,total_steps"]
    total = 0
    for step in range(1, args.steps + 1):
        r = walker.step(args.budget)
        total += r
        lines.append(f"{step},{r},{total}")
    ctx.write(f"orbit_{spec.name}.csv", "\n".join(lines) + "\n")
    print(f"base orbit of {spec.name}: {args.steps} induced steps")
    return 0


def cmd_induce(ctx):
    args = ctx.args
    if args.angle:
        _require_at_least(args, 1, "max_return")
        angle = RotationAngle.parse(args.angle)
        ad = induction.RotationAdapter(angle)
        base = induction.IntervalUnion([(Surd(0), angle.value)])
        dec = induction.column_decomposition(ad, base, args.max_return)
        name = "rotation"
    else:
        if not args.system:
            raise SpecInvalid("induce needs --system or --angle")
        _require_at_least(args, 1, "stage")
        spec = load_spec(ctx, args.system)
        ad = induction.RankOneAdapter(RankOneSystem(spec))
        base = LevelSet(1, frozenset({0}))
        dec = induction.column_decomposition(ad, base, args.stage)
        name = spec.name
    lines = ["r,mass_numerator,mass_denominator,cell_count"]
    for r, num, den, count in induction.decomposition_histogram(dec):
        lines.append(f"{r},{num},{den},{count}")
    ctx.write(f"induce_{name}.csv", "\n".join(lines) + "\n")
    print(f"decomposed base of {name}: {len(dec.cells)} return-time cells")
    return 0


def _build_pair(ctx):
    args = ctx.args
    if args.pair == "dyadic":
        return matching.dyadic_even_pair()
    if args.pair == "chacon_triple":
        return matching.chacon_triple_noneven_pair()
    if args.pair:
        return matching.identity_pair(args.pair)
    if not (args.left and args.right):
        raise SpecInvalid("match needs --pair, or --left with --right")
    left = RankOneSystem(load_spec(ctx, args.left))
    right = RankOneSystem(load_spec(ctx, args.right))
    return matching.PairSpec("cli_pair", left, right)


def cmd_match(ctx):
    args = ctx.args
    _require_at_least(args, 0, "window", "samples")
    pair = _build_pair(ctx)
    matching.validate_pair(pair, even=(args.mode == "even"))
    if args.mode == "even":
        return _match_even(ctx, pair)
    return _match_noneven(ctx, pair)


def _match_even(ctx, pair):
    args = ctx.args
    rng = random.Random(f"match:{args.seed}")
    records = []
    disagreements = []
    unstable = 0
    for t in range(args.samples):
        x = pair.sys_x.random_point(rng, 6, seed=f"match:{args.seed}:{t}")
        try:
            if args.semantics in ("machine", "both"):
                rec = matching.phi_hat(pair, x, mode="machine",
                                       window=args.window)
            else:
                rec = matching.phi_hat(pair, x, mode="formula", strict=True)
            records.append(rec)
            if args.semantics == "both":
                frec = matching.phi_hat(pair, x, mode="formula", strict=False)
                if (frec.n, frec.d) != (rec.n, rec.d):
                    disagreements.append((t, rec, frec))
        except (WindowEdge, WindowExhausted):
            unstable += 1
    lines = matching.trace_rows(pair, records)
    ctx.write("match_even_trace.csv", "\n".join(lines) + "\n")
    if args.semantics == "both":
        dlines = ["sample,machine_n,machine_d,formula_n,formula_d,boundary"]
        for t, rec, frec in disagreements:
            dlines.append(
                f"{t},{rec.n},{rec.d},{frec.n},{frec.d},"
                f"{str(frec.boundary).lower()}"
            )
        ctx.write("match_disagreements.csv", "\n".join(dlines) + "\n")
    frac = unstable / args.samples if args.samples else 0.0
    print(
        f"matched {len(records)}/{args.samples} samples "
        f"({unstable} window-unstable)"
    )
    if frac > args.max_unstable:
        raise _Instability(
            f"{unstable}/{args.samples} samples unstable at window "
            f"{args.window}"
        )
    return 0


def _match_noneven(ctx, pair):
    args = ctx.args
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise DslError(f"--eps is not a fraction: {args.eps!r}") from None
    eps_bound = matching.noneven_eps_bound(pair, eps)
    target_x = pair.sys_x.spec.total_mass()
    target_y = pair.sys_y.spec.total_mass()
    N = max(
        ergodic.estimate_N(pair.sys_x, target_x, eps, samples=16,
                           horizon=128, seed=args.seed),
        ergodic.estimate_N(pair.sys_y, target_y, eps, samples=16,
                           horizon=128, seed=args.seed),
    )
    plan = matching.noneven_prepare(pair, eps, N, samples=64, seed=args.seed)
    rng = random.Random(f"nematch:{args.seed}")
    lines = [matching.TRACE_HEADER]
    failures = 0
    for t in range(args.samples):
        x = pair.sys_x.random_point(rng, plan.m + 2,
                                    seed=f"nematch:{args.seed}:{t}")
        y, h, _base = matching.noneven_match(plan, x)
        back = matching.noneven_inverse(plan, y)
        ok = pair.sys_x.same_point(back, x)
        failures += not ok
        lines.append(
            f"{matching.point_id(pair.sys_x, x)},{h},0,{h},"
            f"{matching.point_id(pair.sys_y, y)},noneven,{str(ok).lower()}"
        )
    ctx.write("match_noneven_trace.csv", "\n".join(lines) + "\n")
    summary = {
        "eps": str(plan.eps),
        "eps_bound": str(eps_bound),
        "N": plan.N,
        "m": plan.m,
        "block": plan.block,
        "min_margin": min(plan.margins),
        "round_trip_failures": failures,
    }
    ctx.write("noneven_plan.json",
              json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"non-even plan m={plan.m} block={plan.block} "
        f"min_margin={min(plan.margins)}; {failures} round-trip failures"
    )
    return 1 if failures else 0


def cmd_ergodic(ctx):
    args = ctx.args
    _require_at_least(args, 1, "n")
    _require_at_least(args, 0, "samples")
    spec = load_spec(ctx, args.system)
    sys_ = RankOneSystem(spec)
    rep = ergodic.kac_check(sys_, args.n, args.samples, seed=args.seed)
    ctx.write(f"ergodic_{spec.name}.csv", "\n".join(rep.csv_lines()) + "\n")
    print(
        f"kac check {spec.name}: n={args.n} target={rep.target} "
        f"max_abs_dev={float(rep.max_abs_dev)!r}"
    )
    return 0


def cmd_verify(ctx):
    args = ctx.args
    cfg = verify.default_config(seed=args.seed)
    verdicts = verify.run_suite(cfg)
    text = verify.render_report(verdicts)
    ctx.write("verify_report.txt", text)
    ctx.write("verify_report.json", verify.report_json(verdicts))
    print(text, end="")
    return 0 if all(v.passed for v in verdicts) else 1


# ---------------------------------------------------------------------------
# Argument wiring


def build_parser():
    p = argparse.ArgumentParser(
        prog="cutstack",
        description="Exact workbench for stacked towers, odometers, "
        "rotations, and return-time matchings.",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="stage report for a stacking spec")
    b.add_argument("spec")
    b.add_argument("--stages", type=int, default=8)
    b.set_defaults(func=cmd_build)

    o = sub.add_parser("orbit", help="orbit traces (walker or odometer)")
    o.add_argument("--system", required=True,
                   help="spec path, built-in name, or od:[b1,b2,*]")
    o.add_argument("--steps", type=int, default=16)
    o.add_argument("--depth", type=int, default=8,
                   help="digits shown per odometer step")
    o.add_argument("--budget", type=int, default=256,
                   help="stage/carry budget for orbit resolution")
    o.set_defaults(func=cmd_orbit)

    i = sub.add_parser("induce", help="first-return decomposition histogram")
    i.add_argument("--system", help="spec path or built-in name")
    i.add_argument("--angle", help="cf:[0;a1,...,(p1,...)] rotation angle")
    i.add_argument("--stage", type=int, default=6,
                   help="working stage (rank-one)")
    i.add_argument("--max-return", type=int, default=16,
                   help="return-time cap (rotation)")
    i.set_defaults(func=cmd_induce)

    m = sub.add_parser("match", help="even or non-even matching run")
    m.add_argument("--mode", choices=("even", "noneven"), default="even")
    m.add_argument("--pair", help="dyadic, chacon_triple, or a built-in "
                   "name for an identity pair")
    m.add_argument("--left", help="X spec (with --right)")
    m.add_argument("--right", help="Y spec (with --left)")
    m.add_argument("--samples", type=int, default=200)
    m.add_argument("--window", type=int, default=64)
    m.add_argument("--semantics", choices=("machine", "formula", "both"),
                   default="machine")
    m.add_argument("--max-unstable", type=float, default=0.05)
    m.add_argument("--eps", default="1/4", help="non-even rate gap")
    m.set_defaults(func=cmd_match)

    e = sub.add_parser("ergodic", help="return-time average report")
    e.add_argument("--system", required=True)
    e.add_argument("--n", type=int, default=3**6)
    e.add_argument("--samples", type=int, default=100)
    e.set_defaults(func=cmd_ergodic)

    v = sub.add_parser("verify", help="run the property-check suite")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    ctx = RunContext(args)
    status = "ok"
    try:
        rc = args.func(ctx)
        if rc:
            status = f"exit:{rc}"
        return rc
    except DslError as e:
        status = f"parse_error: {e}"
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except SpecInvalid as e:
        status = f"validation_error: {e}"
        print(f"validation error: {e}", file=sys.stderr)
        return 3
    except InadmissiblePair as e:
        status = f"inadmissible_pair: {e}"
        print(f"inadmissible pair: {e}", file=sys.stderr)
        return 4
    except _Instability as e:
        status = f"instability: {e}"
        print(f"widespread instability: {e}", file=sys.stderr)
        return 5
    except CutstackError as e:
        status = f"unresolved: {type(e).__name__}: {e}"
        print(status, file=sys.stderr)
        return 6
    except BaseException as e:
        status = f"crash: {type(e).__name__}"
        raise
    finally:
        ctx.manifest(status)


if __name__ == "__main__":
    sys.exit(main())
