from __future__ import annotations

import hashlib
import time
import tracemalloc
from collections import deque
from collections.abc import Iterator

import pytest
from hypothesis import example, given, strategies as st

from bellshift import (
    PrimePower,
    SetPartition,
    apply_shift,
    congruence_class_partition,
    count_by_blocks,
    enumerate_partitions,
    fixed_partitions,
    orbit_decomposition,
)
from bellshift.partitions import (
    DEFAULT_ENUMERATION_CAP,
    _canonical,
    _check_cap,
    _orbit_reps,
    _prefix_walk,
    _rgs_stream,
)

from conftest import BELL_SMALL


def insertion_partitions(n: int) -> set[frozenset[frozenset[int]]]:
    """Independent oracle: grow partitions one element at a time, inserting
    each new element into every existing block or a block of its own."""
    parts: list[tuple[tuple[int, ...], ...]] = [()]
    for x in range(n):
        grown = []
        for part in parts:
            for i in range(len(part)):
                grown.append(part[:i] + (part[i] + (x,),) + part[i + 1 :])
            grown.append(part + ((x,),))
        parts = grown
    return {frozenset(frozenset(b) for b in part) for part in parts}


def _rotation_tables(n: int) -> list[bytes]:
    """``bytes.translate`` tables T[c] for c < n: c -> 0, v -> v+1 for
    v < c, and every v > c unchanged."""
    return [bytes(range(1, c + 1)) + b"\0" + bytes(range(c + 1, 256)) for c in range(n)]


def _rotate(rgs: bytes, tables: list[bytes]) -> bytes:
    """Canonical RGS of the image of a canonical ``rgs`` under x -> x + 1.

    The rotation puts the last label c first and keeps the first-appearance
    order of the other labels, so the table T[c] (c -> 0, v -> v+1 below c,
    unchanged above) is its canonical relabelling."""
    return (rgs[-1:] + rgs[:-1]).translate(tables[rgs[-1]])


def seen_set_orbit_decomposition(
    modulus: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Slow oracle for ``orbit_decomposition``: stream all B_modulus
    strings as bytes, walk each new one's orbit under the generator shift
    with ``_rotate``, and remember the members met so the stream skips
    them."""
    _check_cap(modulus, cap)
    tables = _rotation_tables(modulus)
    seen: set[bytes] = set()
    out = []
    for rgs in map(bytes, _rgs_stream(modulus)):
        if rgs in seen:
            continue
        # rgs is the first member of its orbit the stream reaches and is not
        # reached again, so only the other members need remembering
        size = 1
        cur = _rotate(rgs, tables)
        while cur != rgs:
            seen.add(cur)
            size += 1
            cur = _rotate(cur, tables)
        out.append((tuple(rgs), size))
    return tuple(out)


def max_tally_by_blocks(n: int) -> tuple[int, ...]:
    """Slow oracle for ``count_by_blocks``: build every string and tally
    it by its largest label, one more than its block count's index."""
    counts = [0] * n
    for rgs in enumerate_partitions(n):
        counts[max(rgs)] += 1
    return tuple(counts)


@st.composite
def set_partitions(draw, max_n: int = 9) -> SetPartition:
    n = draw(st.integers(min_value=1, max_value=max_n))
    rgs = [0]
    top = 1
    for _ in range(n - 1):
        v = draw(st.integers(min_value=0, max_value=top))
        rgs.append(v)
        top = max(top, v + 1)
    return SetPartition(tuple(rgs))


# -------------------------------------------------------------- enumeration


def test_singleton_ground_set():
    assert list(enumerate_partitions(1)) == [(0,)]


def test_three_element_listing_in_lex_order():
    got = list(enumerate_partitions(3))
    assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]


@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_totals(n):
    assert sum(1 for _ in enumerate_partitions(n)) == BELL_SMALL[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_matches_insertion_oracle(n):
    mine = {
        frozenset(frozenset(b) for b in SetPartition(rgs).blocks())
        for rgs in enumerate_partitions(n)
    }
    assert mine == insertion_partitions(n)


def test_enumeration_is_sorted_without_repeats():
    for n in range(1, 8):
        seen = list(enumerate_partitions(n))
        assert seen == sorted(set(seen))


@pytest.mark.parametrize("n", range(1, 10))
def test_enumerated_partitions_pass_the_public_check(n):
    # both streams yield plain tuples, each a string the checked
    # constructor accepts as it is
    reps = [rep for rep, _ in orbit_decomposition(n)]
    for rgs in [*enumerate_partitions(n), *reps]:
        assert type(rgs) is tuple
        assert SetPartition(rgs).rgs == rgs


def test_cap_refusal():
    with pytest.raises(ValueError, match="cap of 12"):
        next(enumerate_partitions(13))
    with pytest.raises(ValueError, match="cap of 5"):
        next(enumerate_partitions(6, cap=5))
    with pytest.raises(ValueError, match="cap of 5"):
        count_by_blocks(6, cap=5)
    with pytest.raises(ValueError):
        next(enumerate_partitions(0))
    with pytest.raises(ValueError):
        next(enumerate_partitions(3, cap=0))


def test_byte_label_bound_is_checked_before_any_work():
    # 256 is a fixed ceiling: no cap lets a larger ground set be enumerated,
    # and the lazy functions refuse it when called, before any next()
    with pytest.raises(ValueError, match="exceeds 256"):
        enumerate_partitions(257, cap=300)
    with pytest.raises(ValueError, match="exceeds 256"):
        count_by_blocks(257, 300)
    with pytest.raises(ValueError, match="exceeds 256"):
        orbit_decomposition(257, 300)
    with pytest.raises(ValueError, match="exceeds 256"):
        fixed_partitions(PrimePower(257, 1), 300)
    assert next(enumerate_partitions(256, cap=256)) == (0,) * 256
    assert isinstance(orbit_decomposition(3), Iterator)


@pytest.mark.parametrize("n", range(1, 9))
def test_byte_stream_orders_like_the_tuples(n):
    # the stream yields tuples; their byte strings, which the seen-set
    # oracle walks, come in the same order
    strings = list(_rgs_stream(n))
    assert all(type(s) is tuple for s in strings)
    assert len(strings) == BELL_SMALL[n]
    assert strings == sorted(set(strings))
    assert [bytes(s) for s in strings] == sorted({bytes(s) for s in strings})


# sha256 over repr() of every string of _rgs_stream(n), n = 1..10 in turn:
# it pins both the strings and their order
RGS_STREAM_1_TO_10_SHA256 = "5ff0b806bcc1851fada1d23675fa5988b8781313428fb3c5789ee88b54c251b9"


def test_rgs_stream_order_is_pinned():
    h = hashlib.sha256()
    for n in range(1, 11):
        for rgs in _rgs_stream(n):
            h.update(repr(rgs).encode())
    assert h.hexdigest() == RGS_STREAM_1_TO_10_SHA256


def test_first_string_at_the_ceiling_builds_no_large_table():
    # before its first string the stream holds lists of length n, not
    # tables that grow faster: a table of the last two entries' pairs
    # at n = 256 would hold about n**3 / 3 tuples
    tracemalloc.start()
    try:
        assert next(enumerate_partitions(256, cap=256)) == (0,) * 256
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024


@pytest.mark.parametrize("n", range(1, 10))
def test_prefix_walk_yields_every_prefix_with_its_block_count(n):
    # slow definition: the insertion oracle's partitions of an (n-1)-set as
    # strings, sorted, each with 1 + its largest label (0 for the empty one)
    prefixes = []
    for part in insertion_partitions(n - 1):
        rgs = [0] * (n - 1)
        for label, block in enumerate(sorted(part, key=min)):
            for x in block:
                rgs[x] = label
        prefixes.append(tuple(rgs))
    slow = [(rgs, 1 + max(rgs, default=-1)) for rgs in sorted(prefixes)]
    assert [(tuple(a[:-1]), top) for a, top in _prefix_walk(n)] == slow


@pytest.mark.parametrize("bad", [True, False, 3.0, "3", None])
def test_sizes_must_be_ints_before_any_work(bad):
    # bool is refused too, though it is an int subclass and compares as one
    for call in (count_by_blocks, enumerate_partitions, orbit_decomposition):
        with pytest.raises(TypeError, match="n must be of type int"):
            call(bad, 12)
        with pytest.raises(TypeError, match="cap must be of type int"):
            call(3, bad)


def test_count_by_blocks_small():
    assert count_by_blocks(1) == (1,)
    assert count_by_blocks(3) == (1, 3, 1)
    assert count_by_blocks(4) == (1, 7, 6, 1)
    for n in range(1, 9):
        tallies = count_by_blocks(n)
        assert tallies[0] == 1  # one single-block partition
        assert tallies[n - 1] == 1  # one all-singletons partition
        assert sum(tallies) == BELL_SMALL[n]


@pytest.mark.parametrize("n", range(1, 11))
def test_count_by_blocks_matches_per_string_max_tally(n):
    assert count_by_blocks(n) == max_tally_by_blocks(n)


@pytest.mark.parametrize("n", [11, 12])
def test_count_by_blocks_holds_one_chunk(n):
    # B_11 = 678,570 and B_12 = 4,213,597 strings; joined into one blob
    # they would need as many bytes
    tracemalloc.start()
    try:
        count_by_blocks(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


# ------------------------------------------------------------ SetPartition


def test_rgs_must_be_canonical():
    with pytest.raises(ValueError):
        SetPartition((1, 0, 0))
    with pytest.raises(ValueError):
        SetPartition((0, 2, 0))
    with pytest.raises(ValueError):
        SetPartition(())


@given(st.lists(st.integers(min_value=-1, max_value=9), max_size=9).map(tuple))
@example(())
@example((0,))
@example((0, 1, 0, 2, 1))
@example((0, 1, 3))
@example([0, 1, 0])
@example(b"\x00\x01\x00")
@example((0, 0.5))
@example((0, True))
def test_set_partition_accepts_exactly_the_nonempty_canonical_strings(t):
    if type(t) is not tuple:
        with pytest.raises(TypeError, match="must be a tuple"):
            SetPartition(t)
        return
    if any(type(v) is not int for v in t):
        with pytest.raises(TypeError, match="must be of type int"):
            SetPartition(t)
        return
    try:
        part = SetPartition(t)
    except ValueError:
        assert not t or _canonical(t) != t
    else:
        assert t and _canonical(t) == t
        assert part.n == len(t)


def test_blocks_and_str():
    part = SetPartition((0, 1, 0, 1))
    assert part.blocks() == ((0, 2), (1, 3))
    assert str(part) == "{0,2}|{1,3}"


@given(set_partitions())
def test_blocks_roundtrip(part):
    # block b, in order of smallest element, is the label its elements carry
    rgs = [0] * part.n
    for b, block in enumerate(part.blocks()):
        for x in block:
            rgs[x] = b
    assert SetPartition(tuple(rgs)) == part


# ------------------------------------------------------- translation action


def test_zero_shift_is_identity():
    for n in range(1, 7):
        for part in map(SetPartition, enumerate_partitions(n)):
            assert apply_shift(part, 0) == part


def test_shift_examples():
    fixed = SetPartition((0, 1, 0, 1))  # {0,2}|{1,3}
    assert apply_shift(fixed, 1) == fixed
    part = SetPartition((0, 0, 1))  # {0,1}|{2}
    moved = apply_shift(part, 1)
    assert moved == SetPartition((0, 1, 1))  # {0}|{1,2}


def test_shift_preserves_block_sizes():
    for n in range(1, 8):
        for part in map(SetPartition, enumerate_partitions(n)):
            sizes = sorted(len(b) for b in part.blocks())
            for y in range(n):
                image = apply_shift(part, y)
                assert sorted(len(b) for b in image.blocks()) == sizes


@given(set_partitions(), st.data())
def test_shifts_compose_like_the_group(part, data):
    n = part.n
    y = data.draw(st.integers(min_value=0, max_value=n - 1))
    z = data.draw(st.integers(min_value=0, max_value=n - 1))
    one_step = apply_shift(apply_shift(part, y), z)
    combined = apply_shift(part, (y + z) % n)
    assert one_step == combined
    # a shift outside [0, n) is the shift by its residue mod n, and -y undoes y
    for w in (y + n, y + 3 * n, y - n, -1 - y, z - 5 * n):
        assert apply_shift(part, w) == apply_shift(part, w % n)
    assert apply_shift(apply_shift(part, y), -y) == part


def test_each_shift_permutes_the_partition_set():
    for n in range(1, 7):
        everything = set(map(SetPartition, enumerate_partitions(n)))
        for y in range(n):
            assert {apply_shift(p, y) for p in everything} == everything


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_rotation_matches_canonical_shift(n):
    tables = _rotation_tables(n)
    for rgs in enumerate_partitions(n):
        assert tuple(_rotate(bytes(rgs), tables)) == apply_shift(SetPartition(rgs), 1).rgs


@given(set_partitions())
def test_closed_form_rotation_matches_canonical_shift_sampled(part):
    rotated = _rotate(bytes(part.rgs), _rotation_tables(part.n))
    assert tuple(rotated) == apply_shift(part, 1).rgs


def test_closed_form_rotation_at_the_byte_bound():
    singletons = bytes(range(256))
    assert _rotate(singletons, _rotation_tables(256)) == singletons


# ------------------------------------------------------------------ orbits


def test_orbit_examples():
    two = [size for _, size in orbit_decomposition(2)]
    assert two == [1, 1]
    assert all(size == 1 for size in two)

    three = [size for _, size in orbit_decomposition(3)]
    assert sorted(three) == [1, 1, 3]

    four = [size for _, size in orbit_decomposition(4)]
    assert sum(1 for size in four if size == 1) == 3
    assert sorted(four) == [1, 1, 1, 2, 2, 4, 4]


def test_orbit_sizes_divide_modulus_and_sum_to_bell():
    for n in range(1, 10):
        sizes = [size for _, size in orbit_decomposition(n)]
        assert sum(sizes) == BELL_SMALL[n]
        for size in sizes:
            assert n % size == 0


def test_orbit_representative_is_lex_least_and_walk_matches_all_shifts():
    for n in range(1, 9):
        for rep, size in orbit_decomposition(n):
            full = {apply_shift(SetPartition(rep), y).rgs for y in range(n)}
            assert len(full) == size
            assert min(full) == rep


@pytest.mark.parametrize("n", range(1, 11))
def test_orbit_walk_matches_seen_set_oracle(n):
    # same representatives, in the same order, with the same sizes
    assert tuple(orbit_decomposition(n)) == seen_set_orbit_decomposition(n)


def orbit_walk_digest(n: int) -> tuple[int, str]:
    """The orbit count and the sha256 over repr of every (rep, size) pair;
    the pins below were recorded from the walk that the seen-set oracle
    checks through n = 10."""
    digest = hashlib.sha256()
    count = 0
    for pair in orbit_decomposition(n):
        digest.update(repr(pair).encode())
        count += 1
    return count, digest.hexdigest()


def test_orbit_walk_past_the_seen_set_oracle_is_pinned():
    assert orbit_walk_digest(11) == (
        61_690,
        "a341f6d316305644153244f64ae1b7fcafc0bcf5a8e4d71778715f21db60a879",
    )


def test_orbit_walk_at_the_default_cap_is_pinned():
    # n = 12 is the largest modulus the default cap admits
    assert orbit_walk_digest(12) == (
        351_773,
        "db3089a633f24fcce57ef6545dca5a7ea874625be09b318e8025492c8cb24341",
    )


def test_orbit_walk_keeps_no_per_orbit_state():
    # 61,690 orbits at n = 11: a walk that kept a list or a tuple per leaf
    # or per orbit would pass this bound at once
    tracemalloc.start()
    try:
        deque(orbit_decomposition(11), maxlen=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 1024


@pytest.mark.parametrize("n", range(1, 9))
def test_orbit_images_cover_every_partition_once(n):
    images = [
        apply_shift(SetPartition(rep), y).rgs
        for rep, size in orbit_decomposition(n)
        for y in range(size)
    ]
    assert sorted(images) == list(enumerate_partitions(n))


def test_orbit_walk_at_the_byte_bound():
    # the walk is iterative: the byte bound's depth reaches no recursion limit
    t0 = time.perf_counter()
    assert next(_orbit_reps(256)) == ((0,) * 256, 1)
    assert time.perf_counter() - t0 < 1.0


# ------------------------------------------------------------ fixed points


def test_fixed_partition_examples():
    assert [str(p) for p in fixed_partitions(PrimePower(2, 1))] == ["{0,1}", "{0}|{1}"]
    four = fixed_partitions(PrimePower(2, 2))
    assert {str(p) for p in four} == {"{0,1,2,3}", "{0,2}|{1,3}", "{0}|{1}|{2}|{3}"}
    assert [str(p) for p in fixed_partitions(PrimePower(3, 1))] == ["{0,1,2}", "{0}|{1}|{2}"]


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)])
def test_generator_fixed_equals_fixed_under_every_shift(p, m):
    pp = PrimePower(p, m)
    n = pp.value
    by_generator = set(fixed_partitions(pp))
    by_definition = {
        part
        for part in map(SetPartition, enumerate_partitions(n))
        if all(apply_shift(part, y) == part for y in range(n))
    }
    assert by_generator == by_definition


def test_fixed_partitions_have_equal_block_sizes():
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1)]:
        for part in fixed_partitions(PrimePower(p, m)):
            sizes = {len(b) for b in part.blocks()}
            assert len(sizes) == 1


# ------------------------------------------- congruence-class partitions


def test_congruence_class_partition_shapes():
    pp = PrimePower(2, 2)
    assert congruence_class_partition(pp, 0).rgs == (0, 1, 2, 3)
    assert congruence_class_partition(pp, 2).rgs == (0, 0, 0, 0)
    assert congruence_class_partition(pp, 1) == SetPartition((0, 1, 0, 1))

    nine = congruence_class_partition(PrimePower(3, 2), 1)
    assert len(nine.blocks()) == 3
    assert all(len(b) == 3 for b in nine.blocks())
    assert nine.blocks()[0] == (0, 3, 6)

    with pytest.raises(ValueError):
        congruence_class_partition(pp, 3)
    with pytest.raises(ValueError):
        congruence_class_partition(pp, -1)


@pytest.mark.parametrize("j", [True, 1.0, "1", None])
def test_congruence_class_partition_takes_only_int_j(j):
    # a bool passes the range check, and a float would reach SetPartition
    with pytest.raises(TypeError, match="j must be of type int"):
        congruence_class_partition(PrimePower(2, 2), j)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_fixed_set_is_exactly_the_congruence_class_partitions(p, m):
    pp = PrimePower(p, m)
    expected = {congruence_class_partition(pp, j) for j in range(m + 1)}
    assert set(fixed_partitions(pp)) == expected
    assert len(expected) == m + 1
