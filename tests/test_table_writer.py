"""entrate.sweep.write_table against the csv.writer/json.dump reference, and
its float kernel against "%.17g" and float.__repr__."""

import csv
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrate import cli, floattext, sweep
from table_reference import write_table as reference_write_table

SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                  -2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308, 1e-308,
                  0.1, 1.0, 123456789.0, 3.1415926535897931, 2.0**-24, 1e-11, 1e15, 1e17]
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
number_cells = st.one_of(floats, floats.map(np.float64))
ints = st.one_of(st.integers(-2**80, 2**80), st.integers(-2**63, 2**63 - 1).map(np.int64))
bools = st.one_of(st.booleans(), st.booleans().map(np.bool_))
# the characters csv.writer and json.dump treat specially, and non-ASCII ones
text = st.text(st.one_of(st.sampled_from(',"\n\r%\\ \t\x00é∑ 😀'), st.characters()),
               max_size=8)
#: A column's cells by kind; "mixed" is a JSON column of any cells json.dump
#: writes with default=float, the floats among them
COLUMN_CELLS = {"text": text, "number": number_cells, "int": ints, "bool": bools,
                "mixed": st.one_of(number_cells, ints, bools, st.none(), text,
                                   st.floats(width=32).map(np.float32))}


@st.composite
def tables(draw):
    """(formats, header, columns): one to four columns of one kind of
    COLUMN_CELLS each, zero to twelve rows; header names may repeat. A
    table with a mixed column is JSON only, as CSV has no such column."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS)), min_size=1, max_size=4))
    header = [draw(st.one_of(st.sampled_from(["a", "E", "omega [kappa]", "%s"]), text))
              for _ in kinds]
    n = draw(st.integers(0, 12))
    col_type = draw(st.sampled_from([list, tuple]))
    formats = ("json",) if "mixed" in kinds else ("csv", "json")
    return formats, header, [col_type(draw(st.lists(COLUMN_CELLS[kind], min_size=n, max_size=n)))
                             for kind in kinds]


def render(writer, header, columns, fmt):
    fh = io.StringIO()
    writer(fh, header, columns, fmt)
    return fh.getvalue()


class TestWriteTable:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tables(), st.sampled_from([1, 2, 5, 7, sweep._BLOCK_CELLS]))
    def test_byte_identical_to_reference(self, table, block_cells):
        """Every column kind, with the blocks of a mixed JSON column split
        between the float and the text path."""
        formats, *table = table
        with mock.patch.object(sweep, "_BLOCK_CELLS", block_cells):
            for fmt in formats:
                assert (render(sweep.write_table, *table, fmt)
                        == render(reference_write_table, *table, fmt))

    def test_blocks_join_on_a_long_table(self):
        """Several blocks of floats in and out of the kernel's exact range,
        NaN and infinities, next to strings that need quoting or escaping;
        float columns as arrays and as lists."""
        rng = np.random.default_rng(5)
        n = 2 * (sweep._BLOCK_CELLS // 4) + 3
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        y[::11] = np.nan
        y[5::13] = np.inf
        y[7::17] = -np.inf
        y[9::19] = -0.0
        status = [f"failed: row {i}, \"x\"\r\n\x00é∑😀" if i % 7 else "ok" for i in range(n)]
        columns = [rng.standard_normal(n), status, y, y.tolist()]
        header = ["x [kappa]", "status", "y", "y as list"]
        for fmt in ("csv", "json"):
            assert (render(sweep.write_table, header, columns, fmt)
                    == render(reference_write_table, header, columns, fmt))

    def test_json_cells_that_are_not_floats(self):
        """ints, bools, None and numpy scalars next to floats in one column."""
        columns = [[1.5, 2, True, None, np.int64(3), np.float32(0.1), "s", math.nan],
                   np.array([1, 2, 3, 4, 5, 6, 7, 8])]
        assert (render(sweep.write_table, ["a", "b"], columns, "json")
                == render(reference_write_table, ["a", "b"], columns, "json"))

    def test_empty_table(self):
        assert render(sweep.write_table, ["a", "b"], [[], []], "json") == "[]\n"
        assert render(sweep.write_table, ["a", "b"], [[], []], "csv") == "# schema=1\na,b\n"

    def test_csv_floats_are_17_digits(self):
        assert (render(sweep.write_table, ["x"], [[math.pi, 1.0]], "csv")
                == "# schema=1\nx\n3.1415926535897931\n1\n")


def kernel_lines(x: np.ndarray, json_: bool) -> list[str]:
    slots = floattext.float_slots(x, json_)
    flat = np.column_stack([slots, np.full(len(x), ord("\n"), np.uint8)]).ravel()
    return flat[flat != 0].tobytes().decode().splitlines()


JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def assert_kernel_exact(x: np.ndarray) -> None:
    """The kernel's text of every float equals "%.17g" % x (CSV) and
    float.__repr__ (JSON), with no tolerance."""
    values = x.tolist()
    for json_, reference in ((False, "%.17g".__mod__), (True, float.__repr__)):
        expected = [JSON_NONFINITE.get(t, t) if json_ else t for t in map(reference, values)]
        got = kernel_lines(x, json_)
        bad = [(v, g, e) for v, g, e in zip(values, got, expected) if g != e]
        assert not bad and len(got) == len(values), (json_, bad[:5])


def ulp_neighbours(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


class TestFloatKernel:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_bit_patterns(self, seed):
        """2**19 patterns per seed with the exponent field across the
        exact range and beyond, 2**16 with all 64 bits random."""
        rng = np.random.default_rng(seed)
        for _ in range(4):
            bits = rng.integers(0, 2**64, 2**17, dtype=np.uint64)
            exponent = rng.integers(1023 - 45, 1023 + 65, bits.size).astype(np.uint64)
            bits = bits & np.uint64(0x800F_FFFF_FFFF_FFFF) | exponent << np.uint64(52)
            assert_kernel_exact(bits.view(np.float64))
        assert_kernel_exact(rng.integers(0, 2**64, 2**16, dtype=np.uint64).view(np.float64))

    def test_special_values(self):
        tiny = np.array([5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308])
        big = np.array([1.7976931348623157e308, 1e308])
        assert_kernel_exact(np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                                      *tiny, *-tiny, *big, *-big]))

    def test_powers_of_two_and_ten(self):
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        x = ulp_neighbours(np.concatenate([twos, tens]))
        assert_kernel_exact(np.concatenate([x, -x]))

    def test_exact_ties(self):
        """a * 2**-m with a odd whose decimal has 16 digits (a tie between
        two 15-digit decimals), 17 digits (between two 16-digit ones) or 18
        digits (between two 17-digit ones)."""
        assert kernel_lines(np.array([2.0**-24]), True) == ["5.960464477539063e-08"]
        x = []
        for m in range(1, 60):
            for lo, hi in ((10**15, 10**16), (10**16, 10**17), (10**17, 10**18)):
                first = -(-lo // 5**m) | 1
                last = min(hi // 5**m, 2**53 - 1)
                a = np.unique(np.linspace(first, last, 200).astype(np.int64) | 1)
                a = a[(a >= first) & (a <= last)]
                x.append(np.ldexp(a.astype(np.float64), -m))
        x = ulp_neighbours(np.concatenate(x))
        assert_kernel_exact(np.concatenate([x, -x]))

    # the remainder's shift r = 1075 - b - s is largest at the bottom of the
    # exact range: 62 on [1e-11, 2**-36), 61 and 60 on the binades above
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(min_value=1e-11, max_value=1e-9) | st.floats())
    @example(float(floattext._LOW))
    @example(1.2345678901234567e-11)
    @example(float(np.nextafter(2.0**-36, 0.0)))
    @example(2.0**-36)
    @example(1.5e-11)
    @example(2.0**-35 * 1.5)
    @example(2.0**-34 - 2.0**-87)
    @example(1.4e-11)
    def test_any_float(self, x):
        assert_kernel_exact(np.array([x, -x]))

    def test_shift_stays_below_64(self, monkeypatch):
        """The exact range's floats reach r = 62 and never more (the bound
        in _scaled's docstring), so no shift in the kernel reaches 64."""
        shifts, scaled = [], floattext._scaled

        def spy(f, e, s):
            product = scaled(f, e, s)
            shifts.append(product[-1].max())
            return product
        monkeypatch.setattr(floattext, "_scaled", spy)
        x = np.geomspace(1e-11, 1e17, 100_000)
        for json_ in (False, True):
            floattext.float_slots(np.concatenate([x, ulp_neighbours(floattext._LOW[None])]), json_)
        assert max(shifts) == 62

    def test_one_product_per_float(self, monkeypatch):
        """Each float of a table goes through _scaled's product once, in
        CSV and in JSON, and so do only the floats in the exact range."""
        products, scaled = [], floattext._scaled
        monkeypatch.setattr(floattext, "_scaled",
                            lambda f, e, s: products.append(f.size) or scaled(f, e, s))
        rng = np.random.default_rng(3)
        n = 2 * (sweep._BLOCK_CELLS // 2) + 5
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-13, 19, n)
        y[::7] = 10.0 ** rng.integers(-11, 17, y[::7].size)        # powers of ten
        columns = [rng.standard_normal(n), y]
        for fmt, high in (("csv", 1e17), ("json", 1e15)):
            products.clear()
            render(sweep.write_table, ["x", "y"], columns, fmt)
            exact = sum(((np.abs(c) >= floattext._LOW) & (np.abs(c) < high)).sum() for c in columns)
            assert sum(products) == exact and len(products) == 3

    def test_ends_of_the_exact_range(self):
        """Four ulps each side of 10**-11, 10**15 and 10**17 (and of the
        powers of ten next to them)."""
        ends = np.array([1e-11, 1e-10, 1e14, 1e15, 1e16, 1e17, 1e18])
        bits = ends.view(np.int64)[:, None] + np.arange(-4, 5)
        x = bits.ravel().view(np.float64)
        assert floattext._LOW in x
        assert_kernel_exact(np.concatenate([x, -x]))


class TestCliTables:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_full_size_entanglement_table(self, tmp_path, monkeypatch, fmt):
        """A 20001-row entanglement table, four blocks of two columns, equals
        the reference writer's byte for byte."""
        argv = ["entanglement", "--omega-steps", "20001", "--format", fmt, "--output"]
        blocks, block_text = [], sweep._block_text
        monkeypatch.setattr(sweep, "_block_text",
                            lambda block, *rest: blocks.append(len(block[0])) or block_text(block, *rest))
        assert cli.main([*argv, str(tmp_path / "got")]) == 0
        monkeypatch.setattr(cli, "write_table", reference_write_table)
        assert cli.main([*argv, str(tmp_path / "reference")]) == 0
        assert (tmp_path / "got").read_bytes() == (tmp_path / "reference").read_bytes()
        assert len(blocks) == 4 and sum(blocks) == 20001


class TestCliJson:
    def test_spectrum_json_is_the_csv_rows_dumped(self, tmp_path):
        argv = ["spectrum", "--delta", "10", "--nth", "50", "--omega-min", "-3",
                "--omega-max", "13", "--omega-steps", "41"]
        paths = {fmt: tmp_path / f"spec.{fmt}" for fmt in ("csv", "json")}
        for fmt, path in paths.items():
            assert cli.main([*argv, "--format", fmt, "--output", str(path)]) == 0
        with open(paths["csv"], encoding="utf-8") as fh:
            rows = [{k: float(v) for k, v in row.items()}
                    for row in csv.DictReader(line for line in fh if not line.startswith("#"))]
        assert len(rows) == 41
        assert paths["json"].read_text(encoding="utf-8") == json.dumps(rows, indent=2) + "\n"
