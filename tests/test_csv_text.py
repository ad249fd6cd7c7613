"""The array formatter of float tables against repr, byte for byte."""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from spoonarm import _shortest, serialize
from spoonarm._shortest import (_CHUNK_RUNS, _build_tables, _decimal,
                                _product, csv_rows)
from spoonarm.serialize import CSV_BLOCK_CELLS, _write_table, block_rows, fmt


def _bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(float)


def _assert_like_fmt(values):
    values = np.asarray(values, dtype=float).ravel()
    got = csv_rows(values[:, None]).decode().split("\n")[:-1]
    want = [fmt(v) for v in values]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} cells differ, first (repr, ours): {bad[:5]}"
    assert len(got) == len(want)


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


@pytest.mark.parametrize("runs", [
    _CHUNK_RUNS - 1, _CHUNK_RUNS, _CHUNK_RUNS + 1, 2 * _CHUNK_RUNS + 1])
def test_runs_on_either_side_of_a_gather_chunk_edge(runs):
    # distinct cells, so one run each, of every sign and of magnitudes
    # that take both text forms
    rng = np.random.default_rng(runs)
    _assert_like_fmt(rng.choice([-1.0, 1.0], runs)
                     * 10.0 ** rng.uniform(-25, 25, runs))


def test_random_bit_patterns():
    rng = np.random.default_rng(20181)
    _assert_like_fmt(rng.integers(0, 2 ** 64, size=250_000,
                                  dtype=np.uint64).view(float))


def test_random_magnitudes_of_both_signs():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-30, 30,
                                                                20_000)
    _assert_like_fmt(values)


def test_powers_of_two_and_their_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = _neighbours(powers)
    _assert_like_fmt(np.concatenate([values, -values]))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = _neighbours(powers)
    _assert_like_fmt(np.concatenate([values, -values]))


def test_zeros_subnormals_and_extremes():
    _assert_like_fmt([0.0, -0.0, 5e-324, -5e-324, 1e-323,
                      2.225073858507201e-308,       # largest subnormal
                      2.2250738585072014e-308,      # smallest normal
                      -2.2250738585072014e-308,
                      1.7976931348623157e308, -1.7976931348623157e308])


def test_nan_payloads_and_infinities():
    _assert_like_fmt(_bits(0x7FF8000000000000, 0xFFF8000000000000,
                           0x7FF0000000000001, 0xFFF0000000000001,
                           0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF,
                           0x7FF4000000000000, 0x7FF0000000000000,
                           0xFFF0000000000000))


def test_integers_up_to_and_past_two_to_the_53():
    rng = np.random.default_rng(53)
    small = np.arange(-2000, 2001, dtype=float)
    edge = 2.0 ** 53 + np.arange(-50, 51)
    large = rng.integers(0, 2 ** 63, size=5000).astype(float)
    _assert_like_fmt(np.concatenate([small, edge, -edge, large,
                                     _neighbours(2.0 ** np.arange(50, 70))]))


def test_positional_and_exponential_layout_edges():
    _assert_like_fmt([1e16, 9.999999999999999e15, 9999999999999998.0,
                      1.0000000000000002e16, 1e-4, 1e-5, 0.0001,
                      0.00010000000000000002, 9.999999999999999e-5,
                      1.2345e-5, 0.00012345, 123456789012345.6,
                      1234567890123456.8, 1.2345678901234567e16,
                      1e100, 1e-100, 1.5e-7, -3e22, 1e21, 1e22, 1e23])


@pytest.mark.parametrize("digits", range(1, 18))
def test_values_rounded_to_each_digit_count(digits):
    rng = np.random.default_rng(digits)
    raw = rng.standard_normal(2000) * 10.0 ** rng.integers(-12, 20, 2000)
    _assert_like_fmt([float(f"{v:.{digits - 1}e}") for v in raw.tolist()])


def test_product_is_exact():
    # the 64x128-bit product against Python ints, on random multiplicands
    # and every normal exponent
    limbs, shift = _build_tables()[:2]
    rng = np.random.default_rng(3)
    E = np.arange(1, 2047)
    m = rng.integers(1 << 54, 1 << 55, size=E.size, dtype=np.uint64)
    high, low = _product(m, E, limbs, shift)
    for e, mi, h, lo in zip(E.tolist(), m.tolist(), high.tolist(),
                            low.tolist()):
        mul = sum(int(limbs[i, e]) << 32 * i for i in range(4))
        exact = mi * mul >> int(shift[e])
        assert (h, lo) == (exact >> 64, exact & (2 ** 64 - 1))


def test_a_low_word_on_a_carry_boundary_takes_repr(monkeypatch):
    # vp and vm come from the product's low word plus or minus a tabled
    # margin; where that sum is all ones or zero, the carry is unknown and
    # the cell must take repr
    step_lo = _build_tables()[5]
    values = np.random.default_rng(11).uniform(0.1, 0.9, 8)
    E = (values.view(np.uint64) >> np.uint64(52)).astype(np.intp)
    real = _shortest._product

    def product(*args):
        high, low = real(*args)
        low[0] = np.uint64(2 ** 64 - 1) - step_lo[2 * E[0] + 1]
        low[1] = step_lo[2 * E[1] + 1]
        return high, low

    monkeypatch.setattr(_shortest, "_product", product)
    assert set(_decimal(values.view(np.uint64))[2]) == {0, 1}
    _assert_like_fmt(values)


def test_no_table_is_built_at_import():
    code = ("import spoonarm.cli, spoonarm._shortest as s; "
            "assert s._tables is None")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_rows_end_in_newlines_and_cells_in_commas():
    block = np.array([[0.5, -1.25, math.nan], [1e-7, 2.0, -0.0]])
    assert csv_rows(block) == b"0.5,-1.25,nan\n1e-07,2.0,-0.0\n"
    assert csv_rows(np.empty((0, 3))) == b""


SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-5,
           0.1 + 0.2, -1.25, 12345.678, 0.001, 2.5, 1e300]


def _edges(width):
    # partial blocks of 511-513 rows, then one row before, on and after the
    # width's first block edge, and one row into its third block
    rows = block_rows(width)
    return [511, 512, 513, rows - 1, rows, rows + 1, 2 * rows + 1]


@pytest.mark.parametrize("width,n", [(width, n) for width in (1, 3, 7, 18)
                                     for n in _edges(width)])
def test_tables_of_each_width_on_block_edges(tmp_path, width, n):
    rng = np.random.default_rng(width * 1000 + n)
    cells = rng.standard_normal((n, width)) * 10.0 ** rng.integers(
        -8, 8, (n, width))
    picks = rng.random((n, width)) < 0.2
    cells[picks] = rng.choice(SPECIAL, size=picks.sum())
    # runs of equal cells, each formatted once: alternating zeros, NaNs of
    # two payloads side by side, 0.5 (which takes repr), a run across the
    # first block edge, and a constant column, broken across that edge by
    # runs of 0.5, -0.0 and a NaN, which take repr beside Ryu's columns
    rows = block_rows(width)
    cells[:8, 0] = [0.0, -0.0] * 4
    cells[8:12, 0] = _bits(*[0x7FF8000000000000] * 2,
                           *[0x7FF8000000000001] * 2)
    cells[12:20, 0] = 0.5
    cells[rows - 5:rows + 5, 0] = 0.1 + 0.2
    if width > 1:
        cells[:, -1] = 12345.678
        edge = cells[rows - 6:rows + 6, -1]
        edge[:] = np.repeat([0.5, -0.0, math.nan], 4)[:edge.size]
    # a 1-D first column beside 2-D arrays, as write_sim_csv passes them
    columns = [cells[:, 0]] + np.array_split(cells[:, 1:], 3, axis=1)
    columns = [c for c in columns if c.size]
    header = ",".join(f"c{i}" for i in range(width))
    path = tmp_path / "table.csv"
    _write_table(path, header, columns)
    want = [header] + [",".join(map(fmt, row)) for row in cells.tolist()]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def test_a_write_takes_the_same_memory_however_long_the_table(tmp_path):
    # an 18-column table of 2 blocks and one of 20: the block, not the
    # table, sets a write's peak
    rng = np.random.default_rng(18)
    peaks = []
    for blocks in (2, 20):
        cells = rng.standard_normal((blocks * block_rows(18), 18))
        header = ",".join(f"c{i}" for i in range(18))
        tracemalloc.start()
        try:
            _write_table(tmp_path / "table.csv", header, (cells,))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] == pytest.approx(peaks[0], rel=0.1)


def test_rows_per_block_follow_the_cell_budget(tmp_path, monkeypatch):
    assert [block_rows(w) for w in (1, 3, 4, 7, 18)] == [
        16384, 5461, 4096, 2340, 910]
    assert block_rows(CSV_BLOCK_CELLS) == block_rows(CSV_BLOCK_CELLS + 1) == 1
    blocks = []

    def spy(block):
        blocks.append(block.shape)
        return csv_rows(block)

    monkeypatch.setattr(serialize, "csv_rows", spy)
    # a 3-column table one row into its third block, and a table wider
    # than the budget, written one row a block
    cells = np.arange(3.0 * (2 * block_rows(3) + 1)).reshape(-1, 3) / 7
    wide = np.arange(3.0 * (CSV_BLOCK_CELLS + 1)).reshape(3, -1) / 7
    for table in (cells, wide):
        header = ",".join(f"c{i}" for i in range(table.shape[1]))
        path = tmp_path / "table.csv"
        _write_table(path, header, (table[:, 0], table[:, 1:]))
        want = [header] + [",".join(map(fmt, row)) for row in table.tolist()]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()
    assert blocks == [(5461, 3), (5461, 3), (1, 3)] + [(1, 16385)] * 3
