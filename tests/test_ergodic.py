from fractions import Fraction

import pytest

import oracles
from cutstack import ergodic, matching
from cutstack.digits import SeededDigits
from cutstack.errors import HorizonExhausted
from cutstack.specs import builtin_spec
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
