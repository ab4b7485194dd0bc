"""entrate.sweep.write_table against the csv.writer/json.dump reference."""

import csv
import io
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entrate import cli, sweep
from table_reference import write_table as reference_write_table

SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                  -2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308, 1e-308,
                  0.1, 1.0, 123456789.0, 3.1415926535897931]
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
number_cells = st.one_of(floats, floats.map(np.float64))
# the characters csv.writer and json.dump treat specially, and non-ASCII ones
text = st.text(st.one_of(st.sampled_from(',"\n\r%\\ \té∑ 😀'), st.characters()),
               max_size=8)


@st.composite
def tables(draw):
    """(header, rows): one to four columns of numbers or strings, zero to
    twelve rows; header names may repeat."""
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    header = [draw(st.one_of(st.sampled_from(["a", "E", "omega [kappa]", "%s"]), text))
              for _ in kinds]
    n = draw(st.integers(0, 12))
    cols = [draw(st.lists(text if is_text else number_cells, min_size=n, max_size=n))
            for is_text in kinds]
    row_type = draw(st.sampled_from([list, tuple]))
    return header, [row_type(r) for r in zip(*cols)]


def render(writer, header, rows, fmt):
    fh = io.StringIO()
    writer(fh, header, rows, fmt)
    return fh.getvalue()


class TestWriteTable:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tables(), st.sampled_from([1, 2, 5, sweep._BLOCK_ROWS]))
    def test_byte_identical_to_reference(self, table, block_rows):
        with mock.patch.object(sweep, "_BLOCK_ROWS", block_rows):
            for fmt in ("csv", "json"):
                assert (render(sweep.write_table, *table, fmt)
                        == render(reference_write_table, *table, fmt))

    def test_blocks_join_on_a_long_table(self):
        rng = np.random.default_rng(5)
        n = 2 * sweep._BLOCK_ROWS + 3
        rows = list(zip(rng.standard_normal(n).tolist(),
                        [f"failed: row {i}, \"x\"" if i % 7 else "ok" for i in range(n)],
                        (rng.standard_normal(n) * 1e-300).tolist()))
        header = ["x [kappa]", "status", "y"]
        for fmt in ("csv", "json"):
            assert (render(sweep.write_table, header, rows, fmt)
                    == render(reference_write_table, header, rows, fmt))

    def test_empty_table(self):
        assert render(sweep.write_table, ["a", "b"], [], "json") == "[]\n"
        assert render(sweep.write_table, ["a", "b"], [], "csv") == "# schema=1\na,b\n"


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
