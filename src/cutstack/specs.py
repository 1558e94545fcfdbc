"""Cutting-and-stacking specifications: DSL, validation, built-ins.

A spec gives, per stage, the number of columns to cut, the spacer counts
above each column, and the spacer count below the first column.  Stages are
a finite explicit prefix plus an optional periodic tail (the tail repeats
forever), which keeps descriptions finite while covering the classic
systems.
"""

import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DslError, ExhaustedRules, SpecInvalid


@dataclass(frozen=True)
class StageRule:
    """One stage: cut into `cuts` columns, insert spacers above/below.

    spacers_above[a] is the spacer count placed above column a (0-based;
    the DSL and the usual notation are 1-based, mapped at the parser
    boundary).
    """

    cuts: int
    spacers_above: tuple
    spacers_below: int = 0

    def __post_init__(self):
        if self.cuts < 1:
            raise SpecInvalid("cuts must be >= 1")
        object.__setattr__(self, "spacers_above", tuple(self.spacers_above))
        if len(self.spacers_above) != self.cuts:
            raise SpecInvalid(
                f"need exactly {self.cuts} above-spacer counts, "
                f"got {len(self.spacers_above)}"
            )
        if any(s < 0 for s in self.spacers_above) or self.spacers_below < 0:
            raise SpecInvalid("spacer counts must be non-negative")

    @property
    def total_spacers(self):
        return self.spacers_below + sum(self.spacers_above)


@dataclass(frozen=True)
class StackingSpec:
    """A canonical cutting-and-stacking recipe.

    `prefix` holds explicit stage rules 1..len(prefix); `tail` repeats
    forever after the prefix.  An empty tail means the spec is finite:
    operations needing arbitrarily deep stages will refuse it.
    """

    name: str
    initial_height: int
    prefix: tuple
    tail: tuple

    def __post_init__(self):
        if self.initial_height < 1:
            raise SpecInvalid("initial height must be >= 1")
        if not self.prefix and not self.tail:
            raise SpecInvalid("spec needs at least one stage rule")

    @classmethod
    def make(cls, name, initial_height, prefix, tail):
        """Build and canonicalize: absorb a prefix that merely repeats the
        tail, and reduce the tail to its primitive period."""
        prefix = list(prefix)
        tail = list(tail)
        if tail:
            # primitive period
            for p in range(1, len(tail)):
                if len(tail) % p == 0 and tail == tail[: p] * (len(tail) // p):
                    tail = tail[:p]
                    break
            # fold trailing prefix rules into the tail rotation
            while prefix and prefix[-1] == tail[-1]:
                prefix.pop()
                tail = [tail[-1]] + tail[:-1]
        return cls(name, initial_height, tuple(prefix), tuple(tail))

    def rule(self, i):
        """Stage rule for stage i >= 1."""
        if i < 1:
            raise ValueError("stages are 1-based")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        if not self.tail:
            raise ExhaustedRules(
                f"spec '{self.name}' defines only {len(self.prefix)} stages"
            )
        return self.tail[(i - len(self.prefix) - 1) % len(self.tail)]

    @property
    def is_infinite(self):
        return bool(self.tail)

    def spacer_mass(self):
        """Total spacer mass in units of w1, exact (periodic tails only).

        Mass added at stage i is (s-(i) + sum_j s+(i,j)) / prod_{k<=i} c(k);
        over the periodic tail this is a geometric series.
        """
        if not self.is_infinite:
            raise SpecInvalid("spacer mass of a finite spec is not defined")
        total = Fraction(0)
        c_prod = 1
        L = len(self.prefix)
        for i in range(1, L + 1):
            r = self.rule(i)
            c_prod *= r.cuts
            total += Fraction(r.total_spacers, c_prod)
        # one tail cycle
        cycle = Fraction(0)
        q = 1
        for r in self.tail:
            q *= r.cuts
            cycle += Fraction(r.total_spacers, c_prod * q)
        if q == 1:
            if cycle > 0:
                raise SpecInvalid(
                    "divergent spacer mass: tail has no cuts but adds spacers"
                )
            return total
        return total + cycle * Fraction(q, q - 1)

    def total_mass(self):
        """Limit of h_i * w_i in units of w1 (exact for periodic tails)."""
        return self.initial_height + self.spacer_mass()


# ---------------------------------------------------------------------------
# DSL


_STAGE_RE = re.compile(r"^stage\s+(\*|\d+)\s*:\s*(.*)$")
_FIELD_RE = re.compile(r"(cuts|below)\s*=\s*(\d+)|above\s*=\s*\[([^\]]*)\]")


def _parse_stage_body(body, lineno, col0):
    fields = {}
    pos = 0
    while pos < len(body):
        if body[pos].isspace():
            pos += 1
            continue
        m = _FIELD_RE.match(body, pos)
        if not m:
            raise DslError("expected cuts=, above=[...] or below=", lineno, col0 + pos + 1)
        if m.group(1):
            key = m.group(1)
            if key in fields:
                raise DslError(f"duplicate field '{key}'", lineno, col0 + pos + 1)
            fields[key] = int(m.group(2))
        else:
            if "above" in fields:
                raise DslError("duplicate field 'above'", lineno, col0 + pos + 1)
            raw = m.group(3).strip()
            try:
                fields["above"] = tuple(int(t) for t in raw.split(",")) if raw else ()
            except ValueError:
                raise DslError("above=[...] entries must be integers", lineno, col0 + pos + 1)
        pos = m.end()
    if "cuts" not in fields:
        raise DslError("stage line missing cuts=", lineno, col0 + 1)
    if "above" not in fields:
        raise DslError("stage line missing above=[...]", lineno, col0 + 1)
    try:
        return StageRule(fields["cuts"], fields["above"], fields.get("below", 0))
    except SpecInvalid as e:
        raise DslError(str(e), lineno, col0 + 1)


def _file_name(name, context, lineno=None):
    """A spec name, which output files are named after: a string with no
    path separator or NUL that is neither '.' nor '..'; DslError if not."""
    if (not isinstance(name, str) or name in (".", "..")
            or any(c and c in name for c in ("/", os.sep, os.altsep, "\0"))):
        raise DslError(f"{context}system name cannot name a file: {name!r}",
                       lineno)
    return name


def parse_spec(text):
    """Parse DSL source into a canonical StackingSpec.

    Grammar (line oriented, '#' comments): optional "system NAME" header,
    optional "h1=N", then "stage K : cuts=C above=[...] below=B" lines with
    K = 1,2,... consecutive, plus at most one final "stage * : ..." line
    giving the periodic tail.
    """
    name = "unnamed"
    h1 = 1
    explicit = []
    tail = []
    seen_stage = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("system"):
            if seen_stage:
                raise DslError("system header must precede stage lines", lineno)
            parts = line.split(None, 1)
            if len(parts) != 2 or not parts[1].strip():
                raise DslError("system header needs a name", lineno)
            name = _file_name(parts[1].strip(), "", lineno)
            continue
        m = re.match(r"^h1\s*=\s*(\d+)$", line)
        if m:
            if seen_stage:
                raise DslError("h1= must precede stage lines", lineno)
            h1 = int(m.group(1))
            if h1 < 1:
                raise DslError("h1 must be >= 1", lineno)
            continue
        m = _STAGE_RE.match(line)
        if not m:
            raise DslError(f"cannot parse line: {line!r}", lineno, 1)
        seen_stage = True
        if tail:
            raise DslError("the 'stage *' line must come last", lineno, 1)
        rule = _parse_stage_body(m.group(2), lineno, m.start(2))
        if m.group(1) == "*":
            tail.append(rule)
        else:
            k = int(m.group(1))
            if k != len(explicit) + 1:
                raise DslError(
                    f"expected stage {len(explicit) + 1}, got stage {k}", lineno, 1
                )
            explicit.append(rule)
    if not explicit and not tail:
        raise DslError("no stage lines found", len(text.splitlines()) or 1)
    return StackingSpec.make(name, h1, explicit, tail)


def serialize_spec(spec):
    """Canonical DSL rendering; parse(serialize(s)) == s.

    The line grammar allows a single repeating stage, so tails with period
    above one (e.g. mixed-base odometers) must use the structured mirror.
    """
    if len(spec.tail) > 1:
        raise SpecInvalid(
            "DSL supports only period-1 tails; use spec_to_json instead"
        )
    lines = [f"system {spec.name}", f"h1={spec.initial_height}"]

    def fmt(k, r):
        above = ",".join(str(s) for s in r.spacers_above)
        return f"stage {k} : cuts={r.cuts} above=[{above}] below={r.spacers_below}"

    for i, r in enumerate(spec.prefix, start=1):
        lines.append(fmt(i, r))
    for r in spec.tail:
        lines.append(fmt("*", r))
    return "\n".join(lines) + "\n"


def spec_to_json(spec):
    """Structured-format mirror of the DSL (same field names per rule)."""
    def rule_obj(r):
        return {
            "cuts": r.cuts,
            "above": list(r.spacers_above),
            "below": r.spacers_below,
        }

    return json.dumps(
        {
            "system": spec.name,
            "h1": spec.initial_height,
            "stages": [rule_obj(r) for r in spec.prefix],
            "tail": [rule_obj(r) for r in spec.tail],
        },
        indent=2,
        sort_keys=True,
    )


def parse_spec_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DslError(f"bad structured spec: {e}", getattr(e, "lineno", None))
    if not isinstance(obj, dict):
        raise DslError("bad structured spec: not a JSON object")
    h1 = obj.get("h1", 1)
    if not isinstance(h1, int):
        raise DslError(f"bad structured spec: h1 must be an integer: {h1!r}")

    def rule(o):
        try:
            cuts, above, below = o["cuts"], tuple(o["above"]), o.get("below", 0)
        except (KeyError, TypeError) as e:
            raise DslError(f"bad stage object: {e}")
        if not all(isinstance(v, int) for v in (cuts, below, *above)):
            raise DslError(f"bad stage object: counts must be integers: {o!r}")
        return StageRule(cuts, above, below)

    def rules(key):
        objs = obj.get(key, [])
        if not isinstance(objs, list):
            raise DslError(f"bad structured spec: {key} must be a list: {objs!r}")
        return [rule(o) for o in objs]

    return StackingSpec.make(
        _file_name(obj.get("system", "unnamed"), "bad structured spec: "),
        h1, rules("stages"), rules("tail"))


# ---------------------------------------------------------------------------
# Validation


@dataclass
class ValidationReport:
    accepted: bool
    reason: str

    def __bool__(self):
        return self.accepted


# Heuristic thresholds for non-periodic (finite-prefix) divergence detection.
_DIVERGENCE_REL_TOL = Fraction(1, 10**6)
_DIVERGENCE_RUN = 8


def validate_spec(spec, horizon):
    """Check the summability invariant.

    Periodic tails are decided exactly via the geometric series; otherwise a
    conservative heuristic rejects specs whose cumulative spacer mass keeps
    growing by more than a relative tolerance per stage at the horizon.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if spec.is_infinite:
        try:
            spec.spacer_mass()
        except SpecInvalid as e:
            return ValidationReport(False, str(e))
        return ValidationReport(True, "ok")
    c_prod = 1
    cum = Fraction(0)
    growth_run = 0
    for i in range(1, horizon + 1):
        try:
            r = spec.rule(i)
        except ExhaustedRules:
            break
        c_prod *= r.cuts
        added = Fraction(r.total_spacers, c_prod)
        if cum > 0 and added / cum > _DIVERGENCE_REL_TOL:
            growth_run += 1
        elif added == 0:
            growth_run = 0
        cum += added
    if growth_run >= _DIVERGENCE_RUN:
        return ValidationReport(
            False,
            f"spacer mass still growing by > {float(_DIVERGENCE_REL_TOL)} per stage "
            f"for {growth_run} consecutive stages at horizon {horizon}",
        )
    return ValidationReport(True, "ok (finite spec)")


# ---------------------------------------------------------------------------
# Built-ins


_ODOMETER_RE = re.compile(r"^odometer\((\d+(?:,\d+)*)\)$")


def builtin_spec(name):
    """Classic systems by name.

    chacon, odometer(b1,b2,...), dyadic_pair_left, dyadic_pair_right,
    triple_heavy.  Odometer bases cycle as the periodic tail.
    """
    key = name.replace(" ", "")
    if key == "chacon":
        return StackingSpec.make("chacon", 1, (), (StageRule(3, (0, 1, 0)),))
    if key == "dyadic_pair_left":
        return StackingSpec.make("dyadic_pair_left", 1, (), (StageRule(2, (1, 0)),))
    if key == "dyadic_pair_right":
        return StackingSpec.make("dyadic_pair_right", 1, (), (StageRule(2, (0, 1)),))
    if key == "triple_heavy":
        return StackingSpec.make("triple_heavy", 1, (), (StageRule(3, (1, 1, 1)),))
    m = _ODOMETER_RE.match(key)
    if m:
        bases = [int(b) for b in m.group(1).split(",")]
        if any(b < 2 for b in bases):
            raise SpecInvalid("odometer bases must be >= 2")
        rules = tuple(StageRule(b, (0,) * b) for b in bases)
        return StackingSpec.make(f"odometer({m.group(1)})", 1, (), rules)
    raise SpecInvalid(f"unknown built-in spec: {name!r}")


def random_spec(seed, stages=8, max_cuts=4, max_spacers=3):
    """Seeded random spec: explicit stage rules, the last repeating forever.

    Deterministic across processes for a given seed.
    """
    rng = random.Random(f"spec:{seed}")
    n = rng.randrange(2, stages + 1)
    rules = []
    for _ in range(n):
        c = rng.randrange(2, max_cuts + 1)
        above = tuple(rng.randrange(0, max_spacers + 1) for _ in range(c))
        below = rng.randrange(0, max_spacers + 1)
        rules.append(StageRule(c, above, below))
    h1 = rng.randrange(1, 4)
    return StackingSpec.make(f"random_{seed}", h1, rules, (rules[-1],))


def q_adic_tower_spec(q):
    """The q-adic adding machine whose first canonical tower has height q.

    Heights are q, q^2, q^3, ...; used by the prefix-inducing construction.
    """
    if q < 2:
        raise SpecInvalid("q must be >= 2")
    return StackingSpec.make(f"q_adic({q})", q, (), (StageRule(q, (0,) * q),))
