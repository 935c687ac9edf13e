from __future__ import annotations

import pytest

from bellshift import (
    CongruenceReport,
    PrimePower,
    bell_mod_p_stream,
    bell_prime_power_residue,
    binomial_vanishing_check,
    build_bell_binomial,
    build_binomials,
    eval_poly,
    is_prime,
    prime_powers_up_to,
    reduce_shift_poly,
    shift_poly_closed,
    touchard_check,
)


def sieve(limit: int) -> set[int]:
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for d in range(2, int(limit**0.5) + 1):
        if flags[d]:
            for q in range(d * d, limit + 1, d):
                flags[q] = False
    return {i for i, f in enumerate(flags) if f}


# ------------------------------------------------------------- prime powers


def test_is_prime_against_sieve():
    primes = sieve(1000)
    for n in range(-3, 1001):
        assert is_prime(n) == (n in primes)


def test_prime_power_validation():
    with pytest.raises(ValueError, match="not prime"):
        PrimePower(4, 1)
    with pytest.raises(ValueError, match="not prime"):
        PrimePower(1, 1)
    with pytest.raises(ValueError, match="not prime"):
        PrimePower(-7, 1)
    with pytest.raises(ValueError, match="m must be"):
        PrimePower(3, 0)
    with pytest.raises(ValueError, match="too large"):
        PrimePower(3_037_000_507, 1)
    assert PrimePower(2, 3).value == 8
    assert PrimePower(13, 2).value == 169


def test_prime_powers_up_to_thirty():
    got = prime_powers_up_to(30)
    assert [pp.value for pp in got] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
    assert PrimePower(2, 4) in got
    assert PrimePower(3, 3) in got
    assert prime_powers_up_to(1) == []


# ------------------------------------------------------- two-term reduction


def test_reduce_examples(bell300):
    assert reduce_shift_poly(PrimePower(3, 1), bell300) == 2  # B_3 = 5
    assert reduce_shift_poly(PrimePower(2, 2), bell300) == 1  # B_4 = 15
    assert reduce_shift_poly(PrimePower(5, 1), bell300) == 2  # B_5 = 52


def test_reduce_requires_deep_table(bell300):
    # a deep table sliced to index 6 is as shallow as a built one
    for shallow in (build_bell_binomial(6), bell300[:7]):
        with pytest.raises(ValueError, match="too shallow"):
            reduce_shift_poly(PrimePower(7, 1), shallow)


def test_residue_examples():
    assert bell_prime_power_residue(PrimePower(2, 1)) == 0
    assert bell_prime_power_residue(PrimePower(3, 2)) == 0
    assert bell_prime_power_residue(PrimePower(5, 1)) == 2
    assert bell_prime_power_residue(PrimePower(2, 3)) == 0
    assert bell_prime_power_residue(PrimePower(7, 2)) == 3


def test_reduction_constant_matches_predicted_residue(bell300):
    for pp in prime_powers_up_to(250):
        assert reduce_shift_poly(pp, bell300) == bell_prime_power_residue(pp)


def test_two_term_form_agrees_with_full_polynomial(bell300, binom300):
    # P_{p^m}(k) mod p should equal constant + k for every k, not just
    # match coefficientwise after reduction.
    for pp in prime_powers_up_to(60):
        poly = shift_poly_closed(pp.value, bell300, binom300)
        constant = reduce_shift_poly(pp, bell300)
        for k in range(0, 26):
            assert eval_poly(poly, k) % pp.p == (constant + k) % pp.p


# -------------------------------------------------------- Pascal divisibility


def test_binomial_vanishing_examples(binom300):
    assert binomial_vanishing_check(PrimePower(2, 1), binom300)
    assert binomial_vanishing_check(PrimePower(2, 2), binom300)
    assert binomial_vanishing_check(PrimePower(3, 1), binom300)
    assert binomial_vanishing_check(PrimePower(7, 1), binom300)


def test_binomial_vanishing_all_prime_powers_in_range(binom300):
    for pp in prime_powers_up_to(250):
        assert binomial_vanishing_check(pp, binom300)
    # powers of 2 up to the table edge, including 256
    for m in range(1, 9):
        assert binomial_vanishing_check(PrimePower(2, m), binom300)


def test_binomial_vanishing_requires_deep_table(binom300):
    # a deep table sliced to row 10 is as shallow as a built one
    for shallow in (build_binomials(10), binom300[:11]):
        with pytest.raises(ValueError, match="too shallow"):
            binomial_vanishing_check(PrimePower(11, 1), shallow)


def test_divisibility_is_special_to_prime_powers(binom300):
    # Row 6 fails for p = 2 (C(6,2) = 15 is odd) and row 10 for p = 5,
    # so the all-interior divisibility really does need a prime power.
    assert binom300[6][2] % 2 == 1
    assert binom300[10][5] % 5 != 0


# ------------------------------------------------------------ the congruence


def test_touchard_examples(bell300):
    rep = touchard_check(PrimePower(2, 1), 1, 1, bell300)
    assert rep.ok and rep.checked == 1
    rep = touchard_check(PrimePower(3, 1), 2, 2, bell300)
    assert rep.ok
    rep = touchard_check(PrimePower(7, 2), 1, 100, bell300)
    assert rep.ok and rep.checked == 100 and rep.counterexamples == ()


def test_touchard_validation(bell300):
    with pytest.raises(ValueError, match="n_lo"):
        touchard_check(PrimePower(2, 1), 0, 5, bell300)
    with pytest.raises(ValueError, match="empty range"):
        touchard_check(PrimePower(2, 1), 5, 4, bell300)
    # a deep table sliced to index 108, one short of B_{100+9}, is as
    # shallow as a built one
    for shallow in (build_bell_binomial(20), bell300[:109]):
        with pytest.raises(ValueError, match="too shallow"):
            touchard_check(PrimePower(3, 2), 1, 100, shallow)


def test_report_ok_flips_on_counterexamples():
    pp = PrimePower(2, 1)
    clean = CongruenceReport(pp, 1, 10, 10, ())
    assert clean.ok
    dirty = CongruenceReport(pp, 1, 10, 10, ((4, 1, 0),))
    assert not dirty.ok


# ------------------------------------------------------------- streaming mod p


def test_stream_small_primes():
    assert bell_mod_p_stream(2, 5, (1, 1)) == [1, 1, 0, 1, 1, 0]
    assert bell_mod_p_stream(3, 5, (1, 1, 2)) == [1, 1, 2, 2, 0, 1]


def test_stream_matches_exact_table(bell300):
    for p in (2, 3, 5, 7):
        seeds = tuple(b % p for b in bell300[:p])
        stream = bell_mod_p_stream(p, 200, seeds)
        assert stream == [b % p for b in bell300[:201]]


def test_stream_validation():
    with pytest.raises(ValueError, match="not a machine-word-sized prime"):
        bell_mod_p_stream(4, 10, (1, 1, 0, 1))
    with pytest.raises(ValueError, match="seeds"):
        bell_mod_p_stream(3, 10, (1, 1))
    with pytest.raises(ValueError, match="n_max"):
        bell_mod_p_stream(5, 3, (1, 1, 2, 0, 0))
    with pytest.raises(ValueError, match="residues"):
        bell_mod_p_stream(3, 10, (1, 1, 3))
