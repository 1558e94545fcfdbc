from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cutstack import ergodic, matching
from cutstack.digits import SeededDigits
from cutstack.errors import HorizonExhausted
from cutstack.specs import builtin_spec, random_spec
from cutstack.towers import RankOneSystem


def system(name):
    return RankOneSystem(builtin_spec(name))


def test_fast_average_matches_naive_loop():
    for name in ("chacon", "triple_heavy", "dyadic_pair_left"):
        sys = system(name)
        for s in range(4):
            d1 = SeededDigits(f"fa:{s}", sys.cuts)
            d2 = SeededDigits(f"fa:{s}", sys.cuts)
            fast = ergodic.return_time_average(sys, d1, 200)
            assert fast == oracles.stepped_return_time_average(sys, d2, 200)


def test_kac_check_targets_and_convergence():
    # expected return time = 1 / base mass = total spec mass
    rep = ergodic.kac_check(system("chacon"), 3**7, samples=30)
    assert rep.target == Fraction(3, 2)
    assert rep.max_abs_dev <= Fraction(1, 50)
    rep = ergodic.kac_check(system("triple_heavy"), 3**7, samples=30)
    assert rep.target == Fraction(5, 2)
    assert rep.max_abs_dev <= Fraction(1, 50)


def test_kac_exact_for_odometer_blocks():
    # dyadic towers: averaging over 2^k induced steps is exactly the target
    sys = system("odometer(2)")
    rep = ergodic.kac_check(sys, 2**10, samples=10)
    assert rep.max_abs_dev == 0


def test_kac_dyadic_pair_exact_at_power_blocks():
    sys = system("dyadic_pair_left")
    rep = ergodic.kac_check(sys, 2**10, samples=10)
    assert rep.max_abs_dev == 0


def test_ergodic_report_csv_shape():
    rep = ergodic.kac_check(system("chacon"), 81, samples=3)
    lines = rep.csv_lines()
    assert lines[0] == (
        "sample_id,n,average_num,average_den,target_num,target_den,abs_dev"
    )
    assert len(lines) == 4
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 7
        assert Fraction(int(parts[2]), int(parts[3])) > 0


def test_estimate_N_monotone_in_eps():
    sys = system("chacon")
    target = sys.spec.total_mass()
    coarse = ergodic.estimate_N(sys, target, Fraction(1, 4), samples=12)
    fine = ergodic.estimate_N(sys, target, Fraction(1, 16), samples=12)
    assert 1 <= coarse <= fine


def test_estimate_N_raises_when_horizon_too_small():
    sys = system("chacon")
    with pytest.raises(HorizonExhausted) as e:
        ergodic.estimate_N(sys, sys.spec.total_mass(), Fraction(1, 10**6),
                           samples=4, horizon=8)
    assert e.value.horizon == 8


@pytest.mark.parametrize("count", ["samples", "horizon"])
def test_estimate_N_refuses_empty_estimates(count):
    with pytest.raises(ValueError, match=f"need {count} >= 1"):
        ergodic.estimate_N(system("chacon"), Fraction(3, 2), Fraction(1, 4),
                           **{count: 0})


def test_pushforward_check_refuses_no_samples():
    with pytest.raises(ValueError, match="need samples >= 1"):
        ergodic.pushforward_check(matching.dyadic_even_pair(), 0)


def test_kac_check_refuses_no_samples():
    # a deviation over no samples would read 0 and pass
    with pytest.raises(ValueError, match="need samples >= 1"):
        ergodic.kac_check(system("chacon"), 3, 0)


def test_estimate_N_benchmark_pair():
    # the orbit_formula benchmark's set-up: N_x = 6, N_y = 17
    pair = matching.chacon_triple_noneven_pair()
    got = tuple(
        ergodic.estimate_N(s, s.spec.total_mass(), Fraction(1, 4),
                           samples=32, horizon=256)
        for s in (pair.sys_x, pair.sys_y)
    )
    assert got == (6, 17)


def _estimate_outcome(estimate, *args, **kw):
    try:
        return estimate(*args, **kw)
    except HorizonExhausted as e:
        return type(e), str(e), e.horizon


@st.composite
def estimate_cases(draw):
    """A random spec (its last rule repeating) or a built-in system, a
    target at or near its total mass, eps in [1/100, 1/2], 1..6 samples,
    horizon 1..64, seed 0..3; many cases exhaust the horizon."""
    name = draw(st.sampled_from(("random", "chacon", "triple_heavy",
                                 "dyadic_pair_left")))
    spec = (random_spec(draw(st.integers(0, 10**6))) if name == "random"
            else builtin_spec(name))
    target = spec.total_mass() + draw(
        st.just(0) | st.fractions(Fraction(-1, 4), Fraction(1, 4),
                                  max_denominator=16))
    eps = draw(st.fractions(Fraction(1, 100), Fraction(1, 2),
                            max_denominator=100))
    return (RankOneSystem(spec), target, eps, draw(st.integers(1, 6)),
            draw(st.integers(1, 64)), draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(estimate_cases())
def test_estimate_N_matches_stepped_oracle(case):
    sys, target, eps, samples, horizon, seed = case
    kw = dict(samples=samples, horizon=horizon, seed=seed)
    assert (_estimate_outcome(ergodic.estimate_N, sys, target, eps, **kw)
            == _estimate_outcome(oracles.stepped_estimate_N, sys, target, eps,
                                 **kw))


def test_pushforward_distribution_small_run():
    pair = matching.dyadic_even_pair()
    rep = ergodic.pushforward_check(pair, 4000, stage=4, seed=1)
    assert rep.skipped == 0
    assert rep.within_tolerance
    # empirical frequencies and exact masses both sum to 1
    emp = sum(e for e, _, _ in rep.deviations.values())
    exact = sum(x for _, x, _ in rep.deviations.values())
    assert emp == 1
    assert exact == 1


def test_pushforward_respects_explicit_tolerance():
    pair = matching.dyadic_even_pair()
    rep = ergodic.pushforward_check(pair, 500, stage=3, seed=2,
                                    tolerance=Fraction(1, 4))
    assert rep.tolerance == Fraction(1, 4)
    assert rep.within_tolerance
