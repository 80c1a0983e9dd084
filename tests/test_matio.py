"""Tests for matrix file parsing and serialization."""

import numpy as np
import pytest

from edmp import DistanceMatrix, ParseError
from edmp.cli import main
from edmp.matio import (
    fmt_float,
    matrix_to_csv,
    matrix_to_json,
    parse_matrix_text,
    report_json,
)
from conftest import TRIANGLE


def test_csv_with_comments_and_blank_lines():
    text = "# header\n\n0,1,3\n1,0,1\n\n3,1,0\n"
    d = parse_matrix_text(text)
    assert np.array_equal(d.d, TRIANGLE)


def test_json_with_extra_keys():
    text = '{"n": 3, "d": [[0,1,3],[1,0,1],[3,1,0]], "meta": {"seed": 1}}'
    d = parse_matrix_text(text)
    assert np.array_equal(d.d, TRIANGLE)


def test_empty_file_rejected():
    with pytest.raises(ParseError):
        parse_matrix_text("   \n  ")


def test_nonsquare_csv_rejected():
    with pytest.raises(ParseError):
        parse_matrix_text("0,1\n1,0\n0,0\n")


def test_json_missing_keys_rejected():
    with pytest.raises(ParseError):
        parse_matrix_text('{"n": 3}')


def test_json_shape_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_matrix_text('{"n": 4, "d": [[0,1],[1,0]]}')


@pytest.mark.parametrize("n", ["3.7", "1e400", "true", '"3"', "null", "[3]"])
def test_json_order_must_be_an_integer(n):
    # A float was once truncated (3.7 -> 3), true read as 1, and 1e400
    # overflowed int() past the parser.
    with pytest.raises(ParseError, match='"n" must be a JSON integer'):
        parse_matrix_text(f'{{"n": {n}, "d": [[0,1,3],[1,0,1],[3,1,0]]}}')


def test_deeply_nested_json_rejected():
    deep = "[" * 200_000 + "]" * 200_000
    with pytest.raises(ParseError):
        parse_matrix_text(f'{{"n": 3, "d": {deep}}}')


def test_non_numeric_cell_rejected():
    with pytest.raises(ParseError):
        parse_matrix_text("0,a,1\na,0,1\n1,1,0\n")


@pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11", "1 # c"])
def test_cell_syntax_float_alone_would_read_is_rejected(capsys, tmp_path, cell):
    # float() reads '1_0' as 10 and the Arabic-Indic and fullwidth one as 1;
    # numpy's tokenizer takes neither, and with comments=None a trailing
    # '# c' stays part of its cell.
    text = f"0,{cell},3\n{cell},0,1\n3,1,0\n"
    with pytest.raises(ParseError, match="invalid matrix content"):
        parse_matrix_text(text)
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_bad_cell_is_placed_at_its_line_of_the_file():
    # A comment and a blank line above the bad row: the message counts the
    # file's lines, not the data rows, and columns from 1.
    text = "# n=3\n0,1,3\n\n1,0,1_0\n3,1,0\n"
    with pytest.raises(ParseError, match=r"'1_0' to float64 at line 4, column 3$"):
        parse_matrix_text(text)


def test_ragged_csv_is_not_square():
    with pytest.raises(ParseError, match="CSV matrix is not square"):
        parse_matrix_text("0,1,3\n1,0\n3,1,0\n")


def test_fmt_float_round_trips_doubles():
    rng = np.random.default_rng(6)
    for x in rng.uniform(-1e6, 1e6, size=200):
        assert float(fmt_float(float(x))) == float(x)
    for x in (0.1, 1 / 3, np.pi, 2.0**-52):
        assert float(fmt_float(x)) == x


def test_csv_round_trip_bit_exact():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(4, 3))
    g = pts @ pts.T
    d = DistanceMatrix(np.add.outer(np.diag(g), np.diag(g)) - 2 * g)
    again = parse_matrix_text(matrix_to_csv(d, comments=("generated",)))
    assert np.array_equal(d.d, again.d)


def test_csv_round_trip_bit_exact_at_n512():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(512, 256))
    g = pts @ pts.T
    d = DistanceMatrix(np.add.outer(np.diag(g), np.diag(g)) - 2 * g)
    again = parse_matrix_text(matrix_to_csv(d, comments=("n=512",)))
    assert again.d.shape == (512, 512)
    assert np.array_equal(d.d.view(np.int64), again.d.view(np.int64))


def test_json_round_trip_bit_exact():
    d = parse_matrix_text(matrix_to_csv(DistanceMatrix(TRIANGLE)))
    again = parse_matrix_text(matrix_to_json(d, meta={"k": 1}))
    assert np.array_equal(d.d, again.d)


def test_report_json_sorted_and_typed():
    doc = {"b": np.float64(1.5), "a": {"z": np.bool_(True), "y": np.int64(3)},
           "c": (1, 2)}
    text = report_json(doc)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "true" in text and "1.5" in text


def test_report_json_rejects_what_json_cannot_write():
    with pytest.raises(TypeError):
        report_json({"a": object()})
    with pytest.raises(TypeError):
        report_json({"a": np.zeros(2)})
