"""The cipher: key decoding, the block schedule, streams, the container
and the key-space count. The references:

* the round schedule M, (P M)^r, J of the fast engine's one round loop
  and encrypt_block on the bit planes are checked against the per-cell
  engine in hppcrypt.lattice (encrypt_block with engine "reference"):
  on one block in test_engines_agree and the test_trajectory_matches_*
  pair, on batches with walls per lattice or shared and n up to 9 in
  test_batched_trajectory_matches_reference;
* derive_walls is checked against bitwise_walls, the key read bit by
  bit, in test_derive_walls_matches_bitwise_decoder;
* at full size, where the per-cell engine cannot follow, the cipher is
  checked against the symmetries of the torus: translated, transposed
  or mirrored walls and blocks, with the directions relabelled, must
  give the ciphertext moved the same way
  (test_cipher_commutes_with_torus_symmetries, n = 2 to 10 at the
  default rounds, and test_stream_commutes_with_torus_symmetries).

Involution, conservation, engine equivalence at n = 6, the gold vector
and the key-space enumeration are acceptance criteria, checked in
test_acceptance.py.
"""

import random
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hppcrypt import bitplane as bp
from hppcrypt import lattice as L
from hppcrypt.cipher import (
    DECODE_GROUPS,
    MAX_ROUNDS,
    CipherContainer,
    CipherParams,
    _trajectory,
    approx_scientific,
    batch_size,
    decrypt_stream,
    default_rounds,
    derive_walls,
    encrypt_block,
    encrypt_stream,
    keyspace_count,
    ones_density,
)
from hppcrypt.errors import FormatError, ParameterError

from helpers import (
    ORACLE_CELL_ROUNDS, apply_symmetry, batch_mask, cell, symmetries, torus_distance)

ROT2 = [((v << 2) | (v >> 2)) & 0xF for v in range(16)]


def random_params(rnd, n, max_rounds=None):
    key = rnd.randbytes(rnd.randint(max(1, (2 * n + 7) // 8), 16))
    rounds = rnd.randint(0, max_rounds if max_rounds is not None else default_rounds(n))
    return CipherParams(n, rounds, derive_walls(key, n))


# --- key to walls ---------------------------------------------------------

def test_derive_walls_hand_decoded():
    # n=2: 01101100 splits into 0110, 1100 -> rows 01, 11 and cols 10, 00
    assert derive_walls(bytes([0b01101100]), 2) == {(1, 2), (3, 0)}
    # n=3: 8 bits hold one 6-bit group, the trailing 2 bits are dropped
    assert derive_walls(bytes([0b10101111]), 3) == {(0b101, 0b011)}


def test_derive_walls_duplicates_collapse():
    assert derive_walls(bytes(2), 4) == {(0, 0)}


def test_derive_walls_paper_counts():
    # Keys whose groups are all distinct: 8 bytes give 8 walls at n=4 and
    # 48 bytes give 32 walls at n=6, one per 2n-bit group.
    assert derive_walls(bytes(range(8)), 4) == {(0, g) for g in range(8)}
    key = sum(g << (12 * (31 - g)) for g in range(32)).to_bytes(48, "big")
    assert derive_walls(key, 6) == {(0, g) for g in range(32)}
    rnd = random.Random(0)
    assert len(derive_walls(rnd.randbytes(48), 6)) <= 32


def test_derive_walls_key_too_short():
    with pytest.raises(ParameterError):
        derive_walls(b"", 4)
    with pytest.raises(ParameterError):
        derive_walls(b"\xff", 5)  # 8 bits < 10


def bitwise_walls(key: bytes, n: int) -> frozenset:
    """derive_walls by its definition, bit by bit: the key's bits MSB
    first, cut into 2n-bit groups of n row bits then n column bits, the
    trailing bits that fill no group dropped."""
    bits = "".join(f"{byte:08b}" for byte in key)
    group = 2 * n
    return frozenset(
        (int(bits[i:i + n], 2), int(bits[i + n:i + group], 2))
        for i in range(0, len(bits) - group + 1, group))


def test_derive_walls_matches_bitwise_decoder():
    # Keys of every length from 0 to 40 bytes and of 20 seeded lengths up
    # to 300 at every n; at n = 5 and 6, keys around the ends of
    # derive_walls' slices of DECODE_GROUPS groups (n * DECODE_GROUPS / 4
    # bytes), one of them a slice and a byte, whose last byte fills no
    # group; and an all-zero key at every n, whose groups all collapse
    # into the one wall (0, 0).
    rnd = random.Random(16)
    cases = [(n, length) for n in range(1, 13)
             for length in [*range(41), *rnd.sample(range(41, 301), 20)]]
    cases += [(n, k * n * DECODE_GROUPS // 4 + d)
              for n in (5, 6) for k in (1, 2) for d in (-1, 0, 1)]
    keys = [(n, rnd.randbytes(length)) for n, length in cases]
    keys += [(n, bytes(40)) for n in range(1, 13)]
    for n, key in keys:
        if 8 * len(key) < 2 * n:
            with pytest.raises(ParameterError, match="yields no walls"):
                derive_walls(key, n)
        else:
            assert derive_walls(key, n) == bitwise_walls(key, n), (n, len(key))


def test_derive_walls_long_key_is_linear():
    # A key file is untrusted input, so decoding it must take time linear
    # in its length: a 256 KiB key at n=6 (174,762 groups) decodes in well
    # under a second.
    key = random.Random(17).randbytes(256 << 10)
    start = time.perf_counter()
    walls = derive_walls(key, 6)
    assert time.perf_counter() - start < 1.0
    assert walls == bitwise_walls(key, 6)


# --- block cipher ---------------------------------------------------------

def test_all_zero_block_stays_zero():
    rnd = random.Random(1)
    for n in (2, 4, 6):
        block = bytes(L.block_size(n))
        params = CipherParams(n, default_rounds(n), derive_walls(rnd.randbytes(8), n))
        assert encrypt_block(block, params) == block


@given(st.integers(0, 2**64 - 1), st.integers(2, 4), st.sampled_from([0, 1, 7, 64]))
@settings(deadline=None, max_examples=40)
def test_encrypt_is_involution(seed, n, rounds):
    rnd = random.Random(seed)
    block = rnd.randbytes(L.block_size(n))
    params = CipherParams(n, rounds, derive_walls(rnd.randbytes(6), n))
    ct = encrypt_block(block, params)
    assert encrypt_block(ct, params) == block


def test_zero_rounds_schedule_collapses_to_cell_map():
    # With no propagation the schedule is J(M(x)): hand-evaluating the
    # nibble maps, a wall cell sees rot2(rot2(collide(v))) = collide(v)
    # and every other cell sees rot2(collide(v)).
    collide_map = [0x5 if v == 0xA else 0xA if v == 0x5 else v for v in range(16)]
    rnd = random.Random(2)
    n, side = 3, 8
    block = rnd.randbytes(L.block_size(n))
    walls = derive_walls(rnd.randbytes(4), n)
    params = CipherParams(n, 0, walls)

    expected = bytearray()
    for b in block:
        expected.append((b >> 4) << 4 | (b & 0xF))
    for i in range(2 * len(block)):
        cell = (i // side, i % side)
        v = (block[i >> 1] >> 4) if i % 2 == 0 else (block[i >> 1] & 0xF)
        v = collide_map[v]
        if cell not in walls:
            v = ROT2[v]
        if i % 2 == 0:
            expected[i >> 1] = (v << 4) | (expected[i >> 1] & 0xF)
        else:
            expected[i >> 1] = (expected[i >> 1] & 0xF0) | v
    assert encrypt_block(block, params) == bytes(expected)


def test_wrong_block_length_rejected():
    params = CipherParams(4, 4, frozenset())
    with pytest.raises(FormatError):
        encrypt_block(bytes(127), params)
    with pytest.raises(FormatError):
        encrypt_block(bytes(129), params)
    # whole multiples of the block length are still not one block
    for length in (0, 256):
        with pytest.raises(FormatError):
            encrypt_block(bytes(length), params)


def test_unknown_engine_rejected():
    with pytest.raises(ParameterError):
        encrypt_block(bytes(128), CipherParams(4, 1, frozenset()), "simd")


def test_locality_ceiling_single_wall():
    # Cells beyond Manhattan distance r from the only wall match the
    # wall-free transform of the same plaintext exactly.
    rnd = random.Random(4)
    n, side = 4, 16
    for _ in range(10):
        rounds = rnd.randint(1, 5)
        wall = (rnd.randrange(side), rnd.randrange(side))
        block = rnd.randbytes(L.block_size(n))
        with_wall = L.from_bytes(
            encrypt_block(block, CipherParams(n, rounds, frozenset([wall]))), n
        )
        without = L.from_bytes(
            encrypt_block(block, CipherParams(n, rounds, frozenset())), n
        )
        for r in range(side):
            for c in range(side):
                if torus_distance((r, c), wall, side) > rounds:
                    assert cell(with_wall, r, c) == cell(without, r, c)


def test_sublattice_independence():
    # Flipping one plaintext bit only ever changes ciphertext cells of
    # parity (row + col + rounds) mod 2 relative to the flipped cell.
    rnd = random.Random(5)
    n, side = 3, 8
    for _ in range(20):
        params = random_params(rnd, n, max_rounds=9)
        block = rnd.randbytes(L.block_size(n))
        bit = rnd.randrange(8 * len(block))
        flipped = bytearray(block)
        flipped[bit >> 3] ^= 0x80 >> (bit & 7)
        flipped_cell = bit // 4
        target = ((flipped_cell // side) + (flipped_cell % side) + params.rounds) & 1
        a = L.from_bytes(encrypt_block(block, params), n)
        b = L.from_bytes(encrypt_block(bytes(flipped), params), n)
        for r in range(side):
            for c in range(side):
                if cell(a, r, c) != cell(b, r, c):
                    assert (r + c) & 1 == target


def line_momenta(block: bytes, n: int):
    """The momentum each line carries along itself, per checkerboard
    class: rows[r, p] is #E - #W over the cells of row r with
    (row + col) % 2 == p, and cols[c, p] is #S - #N over column c's."""
    side = 1 << n
    cells = np.frombuffer(L.from_bytes(block, n).cells, dtype=np.uint8)
    cells = cells.reshape(side, side)

    def count(bit):
        return ((cells & bit) != 0).astype(np.int64)

    parity = np.add.outer(np.arange(side), np.arange(side)) & 1
    x, y = count(L.E_BIT) - count(L.W_BIT), count(L.S_BIT) - count(L.N_BIT)
    rows = np.stack([np.where(parity == p, x, 0).sum(axis=1) for p in (0, 1)], axis=1)
    cols = np.stack([np.where(parity == p, y, 0).sum(axis=0) for p in (0, 1)], axis=1)
    return rows, cols


def test_wall_free_lines_keep_their_momentum():
    # HPP conserves momentum along every row and column, and in this
    # cipher only wall cells break that. A collision trades E+W for S+N,
    # zero momentum both ways; P moves E and W along their own row, into
    # cells of the other checkerboard class; and J negates everything.
    # So a row without a wall ends with minus its plaintext #E - #W in
    # each class, class p going to class (p + rounds) mod 2, and a
    # column without a wall likewise with its #S - #N: two integers per
    # wall-free line that the ciphertext gives away.
    rnd = random.Random(61)
    kept = walled = broken = 0
    for engine, sizes in (("reference", (2, 3, 4)), ("bitplane", (2, 3, 4, 5, 6))):
        for n in sizes:
            for _ in range(40):
                # one wall to 2^(n-1) of them, the default key's count
                key = rnd.randbytes(rnd.randint(-(-n // 4), (2 * n << (n - 1)) // 8))
                params = CipherParams(n, rnd.randint(0, default_rounds(n)),
                                      derive_walls(key, n))
                block = rnd.randbytes(L.block_size(n))
                ct = encrypt_block(block, params, engine)
                wall_lines = ({r for r, _ in params.walls}, {c for _, c in params.walls})
                for before, after, with_wall in zip(
                        line_momenta(block, n), line_momenta(ct, n), wall_lines):
                    keeps = (after == -np.roll(before, params.rounds, axis=1)).all(axis=1)
                    for line, ok in enumerate(keeps):
                        if line in with_wall:
                            walled += 1
                            broken += not ok
                        else:
                            assert ok, (engine, n, params, line)
                            kept += 1
    # The gate is not vacuous: it checks thousands of wall-free lines
    # (9,253), and a wall in a line breaks the invariant in most cases
    # (2,533 of 2,907).
    assert kept > 5000
    assert broken > walled // 2, (broken, walled)


def test_parameter_mismatch_garbles_output():
    # Decrypting with a slightly wrong key or round count at the
    # recommended rounds inverts at least 40% of the bits, and so does
    # decrypting with a wall dropped, tile by tile.
    rnd = random.Random(6)
    n, rounds = 5, default_rounds(5)
    block = rnd.randbytes(L.block_size(n))
    walls = derive_walls(rnd.randbytes(20), n)
    ct = encrypt_block(block, CipherParams(n, rounds, walls))

    moved = sorted(walls)[0]
    wrong_walls = (walls - {moved}) | {(moved[0], (moved[1] + 1) % (1 << n))}
    for bad in (
        CipherParams(n, rounds, frozenset(wrong_walls)),
        CipherParams(n, rounds + 1, walls),
        CipherParams(n, rounds - 1, walls),
    ):
        back = encrypt_block(ct, bad)
        assert back != block
        diff = int.from_bytes(back, "big") ^ int.from_bytes(block, "big")
        assert diff.bit_count() / (8 * len(block)) >= 0.40

    # Dropping the only wall of a 64x64 block at 128 rounds inverts over
    # 40% of the bits of every 8x8 tile. The bound is narrow: on this
    # block (cells drawn from Philox key (0, 0)) the lowest tile inverts
    # 0.414, as a whole the block 0.468, and other random blocks have a
    # tile as low as 0.37.
    cells = np.random.Generator(np.random.Philox(key=np.zeros(2, np.uint64))).integers(
        0, 16, 4096).astype(np.uint8)
    block = L.to_bytes(L.Lattice(6, cells.tobytes()))
    ct = encrypt_block(block, CipherParams(6, 128, frozenset({(32, 32)})))
    back = encrypt_block(ct, CipherParams(6, 128, frozenset()))
    diff = np.unpackbits(np.frombuffer(back, np.uint8) ^ np.frombuffer(block, np.uint8))
    # bit 4c + k is plane k of cell c = 64 * row + col: [tile row, row, tile col, col, k]
    tiles = diff.reshape(8, 8, 8, 8, 4).mean(axis=(1, 3, 4))
    assert (tiles > 0.4).all(), tiles.min()


def test_engines_agree():
    rnd = random.Random(7)
    for _ in range(6):
        n = rnd.randint(2, 4)
        params = random_params(rnd, n, max_rounds=12)
        block = rnd.randbytes(L.block_size(n))
        assert encrypt_block(block, params) == encrypt_block(block, params, "reference")


# --- round trajectories ---------------------------------------------------

def test_trajectory_yields_stay_as_yielded():
    # Each yield is a new array that the later rounds do not write to, and
    # the caller's planes are left as they were: held all at once, every
    # count's output still equals its own encryption.
    rnd = random.Random(19)
    for n in (1, 2, 4, 7):
        lattices = 3
        blocks = rnd.randbytes(lattices * L.block_size(n))
        wall_sets = [random_params(rnd, n).walls for _ in range(lattices)]
        planes = bp.planes_from_block(blocks, n)
        mask = batch_mask(wall_sets, n)
        counts = (0, 1, 2, 5)
        outs = list(_trajectory(planes, mask, counts))
        assert len({id(out) for out in outs}) == len(counts)
        assert bp.planes_to_block(planes) == blocks
        bs = L.block_size(n)
        for r, out in zip(counts, outs):
            ct = bp.planes_to_block(out)
            for b, walls in enumerate(wall_sets):
                assert ct[b * bs:(b + 1) * bs] == encrypt_block(
                    blocks[b * bs:(b + 1) * bs], CipherParams(n, r, walls), "reference")


def check_trajectory(rnd, n):
    """The round loop on one block at random ascending counts, 0
    included, against a separate encryption at each count by both
    engines."""
    params = random_params(rnd, n, max_rounds=20)
    k = min(params.rounds, rnd.randint(0, 5))
    counts = (0, *sorted(rnd.sample(range(1, params.rounds + 1), k)))
    block = rnd.randbytes(L.block_size(n))
    planes = bp.planes_from_block(block, n)
    got = [bp.planes_to_block(out)
           for out in _trajectory(planes, batch_mask([params.walls], n), counts)]
    assert len(got) == len(counts)
    for r, ct in zip(counts, got):
        at_r = CipherParams(n, r, params.walls)
        assert ct == encrypt_block(block, at_r)
        assert ct == encrypt_block(block, at_r, "reference")


def test_trajectory_matches_engines_seeded():
    rnd = random.Random(17)
    for n in (2, 3, 4, 5, 2, 3, 4, 5):
        check_trajectory(rnd, n)


@given(st.integers(0, 2**64 - 1), st.integers(2, 5))
@settings(deadline=None, max_examples=25)
def test_trajectory_matches_engines(seed, n):
    check_trajectory(random.Random(seed), n)


@st.composite
def schedules(draw):
    """A batch of 1 to 4 random blocks at n = 1 to 9, with walls of their
    own (some on the last row or the last column) or one wall set shared
    by all, and 1 to 4 ascending round counts, 0 among them at times, of
    up to 2*side + 3 rounds, so that particles wrap the torus more than
    twice. Encrypting at each count anew costs the oracle lattices x
    cells x the sum of the counts, so the counts are cut where that would
    pass ORACLE_CELL_ROUNDS: at n = 9 that leaves one round of one lattice, or
    count 0 alone for more lattices."""
    n = draw(st.integers(1, 9))
    side = 1 << n
    lattices = draw(st.integers(1, 4))
    coord = st.integers(0, side - 1)
    edge = st.one_of(st.tuples(st.just(side - 1), coord),
                     st.tuples(coord, st.just(side - 1)))
    walls = [draw(st.frozensets(st.tuples(coord, coord), max_size=5))
             | draw(st.frozensets(edge, max_size=2))
             for _ in range(lattices)]
    if draw(st.booleans()):
        walls = [walls[0]] * lattices
    budget = ORACLE_CELL_ROUNDS // (lattices * side * side)
    picks = draw(st.sets(st.integers(0, min(2 * side + 3, budget)), min_size=1, max_size=4))
    counts = []
    for count in sorted(picks):
        if sum(counts) + count > budget:
            break
        counts.append(count)
    blocks = random.Random(draw(st.integers(0, 2**32 - 1))).randbytes(
        lattices * L.block_size(n))
    return n, blocks, walls, tuple(counts)


@given(schedules())
@settings(deadline=None, max_examples=30)
def test_batched_trajectory_matches_reference(batch):
    # The schedule M, (P M)^r, J: one run of the round loop on a batch
    # gives, at every count, each lattice's encryption at that count by
    # the per-cell engine and by encrypt_block on the bit planes, and
    # leaves the caller's planes as they were.
    n, blocks, walls, counts = batch
    planes = bp.planes_from_block(blocks, n)
    got = [bp.planes_to_block(out)
           for out in _trajectory(planes, batch_mask(walls, n), counts)]
    assert bp.planes_to_block(planes) == blocks
    assert len(got) == len(counts)
    bs = L.block_size(n)
    for r, ct in zip(counts, got):
        assert len(ct) == len(blocks)
        for b, w in enumerate(walls):
            block, params = blocks[b * bs:(b + 1) * bs], CipherParams(n, r, w)
            want = encrypt_block(block, params, "reference")
            assert ct[b * bs:(b + 1) * bs] == want == encrypt_block(block, params)


def test_trajectory_holds_round_plans_only_while_rounds_run(monkeypatch):
    # The round plans are built once per run of the loop, whatever the
    # counts, a run of no round included, as they hold its first M; they,
    # and the scratch they write, are let go before the last yield, while
    # the caller works on the last output.
    class Plans(list):  # a list that a weak reference can follow
        pass

    built = []
    real = bp.round_plans

    def tracked(*args):
        first, plans, sets = real(*args)
        plans = Plans(plans)
        built.append(weakref.ref(plans))
        return first, plans, sets

    monkeypatch.setattr(bp, "round_plans", tracked)
    planes = bp.planes_from_block(bytes(range(32)), 3)
    mask = batch_mask([{(1, 2)}], 3)
    zero = _trajectory(planes, mask, (0,))
    next(zero)
    assert len(built) == 1 and built[0]() is None
    assert list(zero) == []  # that was the run's only yield
    rounds = _trajectory(planes, mask, (0, 3, 8))
    next(rounds), next(rounds)
    assert len(built) == 2 and built[1]() is not None
    next(rounds)
    assert built[1]() is None


@pytest.mark.parametrize("n", range(2, 11))
@given(data=st.data())
@settings(deadline=None, max_examples=3)
def test_cipher_commutes_with_torus_symmetries(n, data):
    # E_{g(W)}(g x) = g E_W(x) at the default round count, for g drawn
    # from the translations, the transpose and the column mirror: a full
    # block at every n up to 10, every word seam crossed from n = 7 on.
    g = data.draw(symmetries(n))
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    block = rnd.randbytes(L.block_size(n))
    walls = derive_walls(rnd.randbytes(4 * n), n)
    moved, moved_walls = apply_symmetry(g, block, walls, n)
    rounds = default_rounds(n)
    want, _ = apply_symmetry(g, encrypt_block(block, CipherParams(n, rounds, walls)),
                             walls, n)
    assert encrypt_block(moved, CipherParams(n, rounds, moved_walls)) == want


def test_cipher_params_validation():
    with pytest.raises(ParameterError):
        CipherParams(4, -1, frozenset())
    with pytest.raises(ParameterError):
        CipherParams(4, 1, frozenset({(16, 0)}))
    with pytest.raises(ParameterError):
        CipherParams(0, 1, frozenset())
    assert CipherParams.from_key(b"\x12\x34", 4).rounds == 32


# --- stream container -----------------------------------------------------

def test_stream_round_trip():
    rnd = random.Random(8)
    data = rnd.randbytes(5000)
    key = rnd.randbytes(8)
    container = encrypt_stream(data, key, 4)
    assert container.n == 4
    assert container.rounds == 32
    assert container.original_length == 5000
    assert container.block_count() == 40  # 5000 padded to 5120
    assert decrypt_stream(container, key) == data


def test_stream_spans_batches():
    # 532 blocks at n=6: two full batches of 256 and a tail of 20, each
    # block encrypted as if alone.
    n, bs, rounds = 6, L.block_size(6), 16
    assert batch_size(n) == 256
    rnd = random.Random(14)
    data = rnd.randbytes((2 * 256 + 20) * bs)
    key = rnd.randbytes(8)
    container = encrypt_stream(data, key, n, rounds=rounds)
    params = CipherParams.from_key(key, n, rounds)
    blocks = [data[i:i + bs] for i in range(0, len(data), bs)]
    got = [container.payload[i:i + bs] for i in range(0, len(data), bs)]
    assert got == [encrypt_block(block, params) for block in blocks]
    for b in (0, 255, 256, 511, 512, 531):
        assert got[b] == encrypt_block(blocks[b], params, "reference")
    assert decrypt_stream(container, key) == data


def test_stream_spans_multiword_batches():
    # 65 blocks at n=7, rows of two uint64 words: a full batch of 64 and
    # a tail of one. The first and the last block, one in each batch,
    # are what the per-cell engine gives, and the stream decrypts back.
    n, bs, rounds = 7, L.block_size(7), 4
    assert batch_size(n) == 64
    rnd = random.Random(15)
    data = rnd.randbytes(65 * bs)
    key = rnd.randbytes(16)
    container = encrypt_stream(data, key, n, rounds=rounds)
    params = CipherParams.from_key(key, n, rounds)
    for b in (0, 64):
        block = data[b * bs:(b + 1) * bs]
        want = encrypt_block(block, params, "reference")
        assert container.payload[b * bs:(b + 1) * bs] == want
    assert decrypt_stream(container, key) == data


def test_stream_commutes_with_torus_symmetries():
    # The symmetry relation through encrypt_stream at the default rounds,
    # on 65 blocks at n=7: a full batch of 64 and a tail of one.
    n = 7
    rnd = random.Random(31)
    data = rnd.randbytes(65 * L.block_size(n))
    walls = derive_walls(rnd.randbytes(28), n)
    # a quarter turn, then a move by 5 rows and by 1 column, which takes
    # every column across a word seam
    g = ("TM", (5, 1))
    moved, moved_walls = apply_symmetry(g, data, walls, n)
    want, _ = apply_symmetry(g, encrypt_stream(data, None, n, walls=walls).payload,
                             walls, n)
    assert encrypt_stream(moved, None, n, walls=moved_walls).payload == want


def test_stream_empty_input():
    container = encrypt_stream(b"", b"\xab\xcd", 4)
    assert container.block_count() == 0
    assert decrypt_stream(container, b"\xab\xcd") == b""


def test_stream_single_block_n6():
    rnd = random.Random(9)
    data = rnd.randbytes(2048)
    container = encrypt_stream(data, rnd.randbytes(48), 6, rounds=16)
    assert container.block_count() == 1
    assert len(container.payload) == 2048


def test_stream_wrong_key_fails_to_decrypt():
    rnd = random.Random(10)
    data = rnd.randbytes(300)
    container = encrypt_stream(data, b"right key", 4)
    assert decrypt_stream(container, b"wrong key") != data


def test_stream_explicit_walls_override():
    rnd = random.Random(11)
    data = rnd.randbytes(100)
    walls = frozenset({(1, 2), (7, 7)})
    container = encrypt_stream(data, None, 3, walls=walls)
    assert decrypt_stream(container, None, walls=walls) == data
    with pytest.raises(ParameterError):
        encrypt_stream(data, None, 3)


def test_stream_takes_exactly_one_secret():
    # A key and a wall set together are refused, not resolved by precedence
    walls = frozenset({(1, 2), (7, 7)})
    container = encrypt_stream(bytes(100), b"key", 3)
    got = {"both": (b"key", walls), "neither": (None, None)}
    for word, (key, given) in got.items():
        message = f"exactly one of a key and a wall set is required, got {word}"
        with pytest.raises(ParameterError, match=f"^{message}$"):
            encrypt_stream(bytes(100), key, 3, walls=given)
        with pytest.raises(ParameterError, match=f"^{message}$"):
            decrypt_stream(container, key, walls=given)


def test_stream_refuses_an_empty_wall_set():
    # An explicit wall set with no walls is no secret, as derive_walls
    # refuses a key that yields none; CipherParams itself still takes it.
    container = encrypt_stream(bytes(100), b"key", 3)
    with pytest.raises(ParameterError, match="wall set is empty"):
        encrypt_stream(bytes(100), None, 3, walls=frozenset())
    with pytest.raises(ParameterError, match="wall set is empty"):
        decrypt_stream(container, None, walls=frozenset())


def test_container_serialization_round_trip():
    rnd = random.Random(12)
    container = encrypt_stream(rnd.randbytes(70), b"k3y!", 3, rounds=5)
    raw = container.to_bytes()
    assert raw[:4] == b"HPPC"
    assert raw[4] == 1
    assert CipherContainer.from_bytes(raw) == container


def test_container_header_wins():
    # decrypt_stream takes its geometry from the header, not the caller
    rnd = random.Random(13)
    data = rnd.randbytes(500)
    container = encrypt_stream(data, b"key bytes", 5, rounds=48)
    reparsed = CipherContainer.from_bytes(container.to_bytes())
    assert (reparsed.n, reparsed.rounds) == (5, 48)
    assert decrypt_stream(reparsed, b"key bytes") == data


def test_container_format_errors():
    good = encrypt_stream(b"payload", b"key", 3).to_bytes()
    with pytest.raises(FormatError):
        CipherContainer.from_bytes(b"HPP")  # shorter than the header
    with pytest.raises(FormatError):
        CipherContainer.from_bytes(b"XXXX" + good[4:])
    with pytest.raises(FormatError):
        CipherContainer.from_bytes(good[:4] + b"\x02" + good[5:])
    with pytest.raises(FormatError):
        CipherContainer.from_bytes(good + b"\x00")  # breaks block multiple
    with pytest.raises(FormatError):
        CipherContainer(3, 1, original_length=33, payload=bytes(32))

    def header(n, rounds):
        return CipherContainer(n, rounds, 0, bytes(L.block_size(n))).to_bytes()

    # header bounds: n in [2, 12], at most MAX_ROUNDS rounds
    for n, rounds in ((2, MAX_ROUNDS), (12, 0)):
        assert CipherContainer.from_bytes(header(n, rounds)).rounds == rounds
    for n, rounds in ((2, MAX_ROUNDS + 1), (1, 0), (13, 0)):
        with pytest.raises(FormatError):
            CipherContainer.from_bytes(header(n, rounds))
        # ... and encrypt_stream refuses to write such a header
        with pytest.raises(ParameterError):
            encrypt_stream(b"payload", b"key", n, rounds)


# --- keyspace and density -------------------------------------------------

def test_keyspace_single_wall():
    for n in (1, 2, 5, 8):
        assert keyspace_count(n, 1) == 1 << (2 * n)


def test_keyspace_published_magnitudes():
    big = keyspace_count(8, 256)
    assert len(str(big)) == 727
    assert str(big)[0] == "2"
    assert approx_scientific(big) == "2.0e726"

    small = keyspace_count(6, 32)
    assert len(str(small)) == 81
    assert str(small).startswith("16")
    assert approx_scientific(small) == "1.6e80"


def test_keyspace_validation():
    # n is bounded as the cipher bounds it, so 2^(2n) cells stay small
    for n in (0, 13, 10**9):
        with pytest.raises(ParameterError,
                           match=fr"^lattice exponent must be in \[1, 12\], got {n}$"):
            keyspace_count(n, 1)
    with pytest.raises(ParameterError):
        keyspace_count(4, -1)
    # counts of more than 4000 digits are refused, exactly at the limit
    assert len(str(keyspace_count(12, 845))) == 3997
    for k in (846, 2000, 10**100):
        with pytest.raises(ParameterError, match="more than 4000 digits"):
            keyspace_count(12, k)


def test_approx_scientific_small_values():
    assert approx_scientific(5) == "5.0e0"
    assert approx_scientific(1234) == "1.2e3"


def test_ones_density():
    assert ones_density(bytes(100)) == 0.0
    assert ones_density(b"\xff" * 100) == 1.0
    assert ones_density(b"") == 0.0
    assert ones_density(b"\x0f") == 0.5
