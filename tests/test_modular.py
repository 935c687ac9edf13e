from __future__ import annotations

import random
import tracemalloc
from array import array
from collections import deque
from itertools import accumulate, islice

import pytest

from bellshift import (
    PrimePower,
    bell_mod_p_stream,
    bell_prime_power_residue,
    binomial_vanishing_check,
    build_bell_binomial,
    eval_poly,
    is_prime,
    modular,
    reduce_shift_poly,
    shift_poly_closed,
    touchard_check,
)

from conftest import prime_powers


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


@pytest.mark.parametrize(
    "p, m, name", [(2, 1.5, "m"), (2, True, "m"), (7.0, 1, "p"), (True, 1, "p"), ("7", 1, "p")]
)
def test_prime_power_takes_only_ints(p, m, name):
    # a float m would make value a float, and a bool passes every range check
    with pytest.raises(TypeError, match=f"{name} must be of type int"):
        PrimePower(p, m)


def test_prime_powers_up_to_thirty():
    got = prime_powers(30)
    assert [pp.value for pp in got] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
    assert PrimePower(2, 4) in got
    assert PrimePower(3, 3) in got
    assert prime_powers(1) == []


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
    for pp in prime_powers(250):
        assert reduce_shift_poly(pp, bell300) == bell_prime_power_residue(pp)


def test_two_term_form_agrees_with_full_polynomial(bell300, binom300):
    # P_{p^m}(k) mod p should equal constant + k for every k, not just
    # match coefficientwise after reduction.
    for pp in prime_powers(60):
        poly = shift_poly_closed(pp.value, bell300, binom300)
        constant = reduce_shift_poly(pp, bell300)
        for k in range(0, 26):
            assert eval_poly(poly, k) % pp.p == (constant + k) % pp.p


# -------------------------------------------------------- Pascal divisibility


def test_binomial_vanishing_examples():
    assert binomial_vanishing_check(PrimePower(2, 1))
    assert binomial_vanishing_check(PrimePower(2, 2))
    assert binomial_vanishing_check(PrimePower(3, 1))
    assert binomial_vanishing_check(PrimePower(7, 1))


def test_binomial_vanishing_all_prime_powers_in_range(binom300):
    for pp in prime_powers(250):
        assert binomial_vanishing_check(pp)
        # the additive Pascal table says the same
        assert all(c % pp.p == 0 for c in binom300[pp.value][1:-1])
    # powers of 2 up to 256
    for m in range(1, 9):
        assert binomial_vanishing_check(PrimePower(2, m))


def test_divisibility_is_special_to_prime_powers(binom300):
    # Row 6 fails for p = 2 (C(6,2) = 15 is odd) and row 10 for p = 5,
    # so the all-interior divisibility really does need a prime power.
    assert binom300[6][2] % 2 == 1
    assert binom300[10][5] % 5 != 0


# ------------------------------------------------------------ the congruence


def test_touchard_examples(bell300):
    assert touchard_check(PrimePower(2, 1), 1, 1, bell300) == ()
    assert touchard_check(PrimePower(3, 1), 2, 2, bell300) == ()
    assert touchard_check(PrimePower(7, 2), 1, 100, bell300) == ()


def test_touchard_returns_each_counterexample_in_order_of_n():
    # the sweep reads B_10 as B_{n+3} at n = 7, as B_{n+1} at n = 9 and as
    # B_n at n = 10, so raising it by 1 moves one residue at each
    table = list(build_bell_binomial(40))
    table[10] += 1
    bad = touchard_check(PrimePower(3, 1), 1, 20, tuple(table))
    assert type(bad) is tuple
    assert bad == ((7, 2, 1), (9, 1, 2), (10, 1, 2))


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


@pytest.mark.parametrize(
    "n_lo, n_hi, name", [(True, 3, "n_lo"), (1.0, 3, "n_lo"), (1, 3.0, "n_hi"), (1, True, "n_hi")]
)
def test_touchard_check_takes_only_int_bounds(bell300, n_lo, n_hi, name):
    # a bool passes every range check and would land in a counterexample
    with pytest.raises(TypeError, match=f"{name} must be of type int"):
        touchard_check(PrimePower(2, 1), n_lo, n_hi, bell300)


# ------------------------------------------------------------- streaming mod p


def test_stream_small_primes():
    assert list(bell_mod_p_stream(2, 5)) == [1, 1, 0, 1, 1, 0]
    assert list(bell_mod_p_stream(3, 5)) == [1, 1, 2, 2, 0, 1]


def test_stream_matches_exact_table(bell300):
    for p in (2, 3, 5, 7):
        stream = list(bell_mod_p_stream(p, 200))
        assert stream == [b % p for b in bell300[:201]]


@pytest.mark.parametrize("p", sorted(sieve(299)))
def test_stream_seeds_itself_for_every_prime_below_300(p, bell300):
    # the seed window alone is B_0..B_{p-1}, so p = 293 tests it nearly whole
    assert list(bell_mod_p_stream(p, 300)) == [b % p for b in bell300]


def test_stream_validation():
    with pytest.raises(ValueError, match="not prime"):
        bell_mod_p_stream(4, 10)
    with pytest.raises(ValueError, match="n_max"):
        bell_mod_p_stream(5, 3)


@pytest.mark.parametrize("p, n_max, name", [(7.0, 20, "p"), (7, 20.0, "n_max"), (7, True, "n_max")])
def test_stream_refuses_non_int_arguments_when_called(p, n_max, name):
    # refused by the call itself, not on the first next()
    with pytest.raises(TypeError, match=f"{name} must be of type int"):
        bell_mod_p_stream(p, n_max)


# every prime the stream tests below reduce by
_STREAM_MODULUS = 2 * 3 * 5 * 7 * 11 * 13 * 199


@pytest.fixture(scope="module")
def bell_mod_oracle(bell300):
    """B_0..B_4999 mod ``_STREAM_MODULUS`` from Aitken's Bell triangle
    reduced as it is built: an exact reduction that shares nothing with
    the stream's recurrence, and reaches past the exact table cheaply."""
    row, out = [1], [1]
    for _ in range(4999):
        row = [a % _STREAM_MODULUS for a in accumulate(row, initial=row[-1])]
        out.append(row[0])
    assert out[:301] == [b % _STREAM_MODULUS for b in bell300]
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_stream_is_lazy(p, bell_mod_oracle):
    # an eager stream would build 10**18 residues before the first one
    head = list(islice(bell_mod_p_stream(p, 10**18), 5000))
    assert head == [b % p for b in bell_mod_oracle]


@pytest.mark.parametrize("p", [2, 3, 13, 199])
def test_stream_ends_at_window_edges(p, bell300):
    for n in (p - 1, p, p + 1):
        assert list(bell_mod_p_stream(p, n)) == [b % p for b in bell300[: n + 1]]


def _block(p: int) -> int:
    """q = p^m, the largest power of p at most the stream's block, or p."""
    q = p
    while q * p <= modular._BLOCK:
        q *= p
    return q


# each prime's block edges: runs that end one short of, at and one past
# k = 1, 2, 3 blocks of q = 4096, 2197, 841, 199 and 1009 residues; and
# runs that end 256 and 512 past the seed window, inside a block but for p = 2
_BLOCK_EDGES = [
    (p, n)
    for p in (2, 13, 29, 199, 1009)
    for k in (1, 2, 3)
    for n in (k * _block(p) - 2, k * _block(p) - 1, k * _block(p))
    if n >= p - 1  # the seed window alone, when q = p
] + [(p, p - 1 + k * 256 + d) for p in (2, 13, 199, 1009) for k in (1, 2) for d in (-1, 0, 1)]


@pytest.fixture(scope="module")
def bell_past_blocks(bell300):
    """B_0..B_{max n} mod each prime of ``_BLOCK_EDGES`` by the m = 1
    recurrence B_{n+p} = B_n + B_{n+1} alone, one residue at a time from
    exact seeds: the slow path the stream's p^m jumps must agree with."""
    n_max = max(n for _, n in _BLOCK_EDGES)
    out = {}
    for p in {p for p, _ in _BLOCK_EDGES}:
        seeds = bell300 if p < 300 else build_bell_binomial(p)
        residues = [b % p for b in seeds[:p]]
        for n in range(p, n_max + 1):
            residues.append((residues[n - p] + residues[n - p + 1]) % p)
        out[p] = residues
    return out


@pytest.mark.parametrize("p, n_max", _BLOCK_EDGES)
def test_stream_ends_at_chunk_edges(p, n_max, bell_past_blocks):
    assert list(bell_mod_p_stream(p, n_max)) == bell_past_blocks[p][: n_max + 1]


@pytest.mark.parametrize(
    "p, w, m", [(2, 1, 1), (2, 1, 12), (13, 1, 3), (61, 1, 2), (127, 1, 1), (199, 2, 1), (32771, 4, 1)]
)
def test_jump_matches_the_m1_recurrence_in_each_lane_width(p, w, m):
    # any sequence with s_{n+p} = s_n + s_{n+1} (mod p) jumps by
    # s_{n+q} = m*s_n + s_{n+1}, q = p^m, so random seeds test the kernel
    # in lanes of 1, 2 and 4 bytes; 32771 is the least prime past 2^15
    assert is_prime(p)
    rng = random.Random(p * m)
    q = p**m
    s = [rng.randrange(p) for _ in range(p)]
    for n in range(p, 2 * q):
        s.append((s[n - p] + s[n - p + 1]) % p)
    lanes = {1: "B", 2: "H", 4: "I"}[w]
    window = array(lanes, s[:q]).tobytes()
    assert array(lanes, modular._jump_by(p, w, m)(window)).tolist() == s[q:]


def _drained_peak(p: int, n_max: int) -> int:
    tracemalloc.start()
    try:
        deque(bell_mod_p_stream(p, n_max), maxlen=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p", [2, 13, 199, 1009])
def test_stream_memory_is_o_p_not_o_n(p):
    # a hundredfold longer run must not raise the traced peak: the stream
    # holds its window of q residues and the block being built (and, at
    # first, the seed triangle's row); p = 2 has the largest block
    short, long = _drained_peak(p, 10**4), _drained_peak(p, 10**6)
    assert abs(long - short) < 4096, (short, long)
