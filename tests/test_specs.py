from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutstack.errors import DslError, SpecInvalid
from cutstack.specs import (
    StackingSpec,
    StageRule,
    builtin_spec,
    parse_spec,
    parse_spec_json,
    random_spec,
    serialize_spec,
    spec_to_json,
    validate_spec,
)

BUILTINS = ["chacon", "dyadic_pair_left", "dyadic_pair_right", "triple_heavy"]


def test_known_total_masses():
    # total mass = 1 / w1 for the normalized systems
    assert builtin_spec("chacon").total_mass() == Fraction(3, 2)
    assert builtin_spec("triple_heavy").total_mass() == Fraction(5, 2)
    assert builtin_spec("dyadic_pair_left").total_mass() == 2
    assert builtin_spec("dyadic_pair_right").total_mass() == 2
    assert builtin_spec("odometer(2)").total_mass() == 1


def test_rule_indexing_prefix_then_tail():
    r1 = StageRule(2, (1, 0), 0)
    r2 = StageRule(3, (0, 0, 1), 2)
    spec = StackingSpec.make("t", 1, [r1], [r2])
    assert spec.rule(1) == r1
    for i in range(2, 10):
        assert spec.rule(i) == r2


def test_canonicalization_folds_trailing_prefix():
    r = StageRule(2, (1, 1), 0)
    a = StackingSpec.make("a", 1, [r, r], [r])
    b = StackingSpec.make("b", 1, [], [r])
    assert a.prefix == b.prefix == ()
    assert a.tail == b.tail


def test_canonicalization_primitive_tail_period():
    r = StageRule(2, (0, 1), 0)
    spec = StackingSpec.make("t", 1, [], [r, r])
    assert spec.tail == (r,)


def test_dsl_roundtrip_builtins():
    for name in BUILTINS:
        spec = builtin_spec(name)
        again = parse_spec(serialize_spec(spec))
        assert again.rule(1) == spec.rule(1)
        assert again.tail == spec.tail
        assert again.initial_height == spec.initial_height


def test_dsl_rejects_multi_rule_tail():
    spec = builtin_spec("odometer(2,3)")
    assert len(spec.tail) == 2
    with pytest.raises(SpecInvalid):
        serialize_spec(spec)


def test_json_mirror_handles_multi_rule_tail():
    spec = builtin_spec("odometer(2,3)")
    again = parse_spec_json(spec_to_json(spec))
    assert again.tail == spec.tail
    assert again.prefix == spec.prefix


def test_dsl_errors_carry_position():
    with pytest.raises(DslError) as e:
        parse_spec("system t\nstage 1 : cuts=two above=[0,0] below=0\n")
    assert e.value.line == 2
    with pytest.raises(DslError):
        parse_spec("")
    with pytest.raises(DslError):
        # stage numbers must be consecutive from 1
        parse_spec("stage 2 : cuts=2 above=[0,0] below=0")


def test_validate_rejects_divergent_spacer_mass():
    spec = StackingSpec.make("bad", 1, [], [StageRule(1, (3,), 2)])
    report = validate_spec(spec)
    assert not report.accepted
    assert "divergent" in report.reason


def test_validate_accepts_builtins():
    for name in BUILTINS:
        assert validate_spec(builtin_spec(name)).accepted


def test_random_spec_is_deterministic_and_valid():
    for seed in range(20):
        a = random_spec(seed)
        b = random_spec(seed)
        assert a == b
        assert validate_spec(a).accepted
        assert all(r.cuts >= 2 for r in a.prefix + a.tail)


@st.composite
def rules(draw):
    c = draw(st.integers(min_value=2, max_value=4))
    above = tuple(
        draw(st.integers(min_value=0, max_value=3)) for _ in range(c)
    )
    below = draw(st.integers(min_value=0, max_value=3))
    return StageRule(c, above, below)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(rules(), max_size=4),
    rules(),
    st.integers(min_value=1, max_value=3),
)
def test_json_roundtrip_random(prefix, tail_rule, h1):
    spec = StackingSpec.make("hyp", h1, prefix, [tail_rule])
    again = parse_spec_json(spec_to_json(spec))
    assert again.prefix == spec.prefix
    assert again.tail == spec.tail
    assert again.initial_height == spec.initial_height
    assert again.total_mass() == spec.total_mass()


@settings(max_examples=60, deadline=None)
@given(st.lists(rules(), max_size=4), rules(), st.integers(1, 3))
def test_spacer_mass_matches_partial_sums(prefix, tail_rule, h1):
    # the closed form must dominate and converge to the stagewise sums
    spec = StackingSpec.make("hyp", h1, prefix, [tail_rule])
    total = spec.total_mass()
    partial = Fraction(spec.initial_height)
    c_prod = 1
    for i in range(1, 40):
        r = spec.rule(i)
        partial += Fraction(r.total_spacers, c_prod * r.cuts)
        c_prod *= r.cuts
        assert partial <= total
    assert total - partial < Fraction(1, 10**6)
