"""Independent, deliberately naive reference implementations used as
oracles by the tests.  Everything here is built from explicit lists so
that agreement with the package's recursive/arithmetic code is a real
cross-check, not a tautology.
"""

from fractions import Fraction

SPACER = "spacer"


def stack_levels(spec, depth):
    """Stages 1..depth as explicit label lists, bottom to top.

    A level is ("level", birth_stage, birth_level) and a spacer is the
    string "spacer".  Stage i+1 = below-spacers, then the stage-i list
    repeated cut-count times with the per-copy above-spacers appended.
    """
    stage = [("level", 1, l) for l in range(spec.initial_height)]
    out = [list(stage)]
    for i in range(1, depth):
        rule = spec.rule(i)
        nxt = [SPACER] * rule.spacers_below
        for j in range(rule.cuts):
            nxt.extend(stage)
            nxt.extend([SPACER] * rule.spacers_above[j])
        # Newly created spacers become named levels of stage i+1.
        stage = [
            lab if lab != SPACER else ("level", i + 1, pos)
            for pos, lab in enumerate(nxt)
        ]
        out.append(list(stage))
    return out


def heights(spec, depth):
    """Heights via the explicit lists (not the recurrence)."""
    return [len(s) for s in stack_levels(spec, depth)]


def widths(spec, depth):
    """Stage widths from the cut counts and the exact stage-1 width."""
    w = Fraction(1, 1) / spec.total_mass()
    out = []
    for i in range(1, depth + 1):
        out.append(w)
        w /= spec.rule(i).cuts
    return out


def naive_odometer_successor(digits, bases):
    """Add one with carry to a finite little-endian digit list."""
    digits = list(digits)
    for k in range(len(digits)):
        digits[k] += 1
        if digits[k] < bases[k]:
            return digits
        digits[k] = 0
    raise OverflowError("carry past the end of the finite digit list")


def odometer_orbit_positions(bases, steps):
    """Values j = sum d_k * prod(bases[:k]) along the orbit of zero."""
    digits = [0] * len(bases)
    out = [0]
    for _ in range(steps):
        digits = naive_odometer_successor(digits, bases)
        val = 0
        mult = 1
        for k, d in enumerate(digits):
            val += d * mult
            mult *= bases[k]
        out.append(val)
    return out


def rotation_orbit_floats(alpha, n):
    """Float orbit of 0 under x -> x + alpha mod 1 (for coarse checks)."""
    xs = []
    x = 0.0
    for _ in range(n):
        xs.append(x)
        x = (x + alpha) % 1.0
    return xs


def three_gap_lengths(alpha, n):
    """Distinct gap lengths (rounded) between the first n orbit points."""
    pts = sorted(rotation_orbit_floats(alpha, n))
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    gaps.append(1.0 - pts[-1] + pts[0])
    return sorted({round(g, 9) for g in gaps})


def deposit_frame(ra, rb, W):
    """The pile/pit machine simulated shift by shift, for comparison with
    the ballot scan: at shift n every pile i drops its lowest remaining
    items into the lowest free slots of pit i + n.  Returns (assignment,
    unplaced, unfilled) in the scan's format."""
    nxt = {i: 1 for i in range(-W, W + 1)}
    top = {i: ra[i] - 1 for i in range(-W, W + 1)}
    fill = {j: 0 for j in range(-W, W + 1)}
    cap = {j: rb[j] - 1 for j in range(-W, W + 1)}
    assignment = {}
    for n in range(2 * W + 3):
        for i in range(-W, W + 1):
            if nxt[i] > top[i]:
                continue
            j = i + n
            if j > W:
                continue
            while nxt[i] <= top[i] and fill[j] < cap[j]:
                fill[j] += 1
                assignment[(i, nxt[i])] = (j, fill[j])
                nxt[i] += 1
        if not any(
            nxt[i] <= top[i] and i + n + 1 <= W for i in range(-W, W + 1)
        ):
            break
    unplaced = [
        (i, h) for i in range(-W, W + 1) for h in range(nxt[i], top[i] + 1)
    ]
    unfilled = [
        (j, d) for j in range(-W, W + 1) for d in range(fill[j] + 1, cap[j] + 1)
    ]
    return assignment, unplaced, unfilled
