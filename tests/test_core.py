"""Tests for the helpers shared across modules: the dense linear algebra
kernel, the CSV and JSON writers, and the JSON reader and type check."""

import csv
import json
import math
import struct

import numpy as np
import pytest

from ratekit.core import (
    checked, default_names, gram, permutation, read_json, text_file, write_csv, write_json,
    write_text,
)


class TestGram:
    def test_identity(self):
        np.testing.assert_array_equal(gram(np.eye(4)), np.eye(4))

    def test_outer_product(self):
        g = np.array([[1.0], [2.0]])
        np.testing.assert_array_equal(gram(g), [[1.0, 2.0], [2.0, 4.0]])

    def test_psd_cholesky_pivots(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((5, 3))
        a = gram(g)
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() >= -1e-10 * np.trace(a)

    def test_exact_symmetry(self):
        # tall, transposed (Fortran-ordered) and wide inputs alike
        rng = np.random.default_rng(9)
        for g in (
            rng.standard_normal((12, 5)),
            rng.standard_normal((300, 40)).T,
            rng.standard_normal((40, 300)),
        ):
            a = gram(g)
            assert np.array_equal(a, a.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_row(self, bad):
        g = np.ones((4, 3))
        g[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite row"):
            gram(g)

    def test_refuses_an_overflowing_row(self):
        # every entry is finite, but the row's squared norm is not
        g = np.ones((3, 2))
        g[1] = 1e200
        with pytest.raises(ValueError, match="squared norm overflows"):
            gram(g)


class TestWriters:
    def test_float_cells_read_back_bit_for_bit(self, tmp_path):
        values = [-0.0, 0.0, 1e-300, 5e-324, 1e16, 0.1, 1 / 3, -1.7976931348623157e308]
        path = tmp_path / "floats.csv"
        write_csv(path, ["v"], [[v] for v in values])
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["v"]
        assert [struct.pack("<d", float(cell)) for (cell,) in rows] == [
            struct.pack("<d", v) for v in values
        ]

    def test_cells_and_lines(self, tmp_path):
        # None is an empty cell, a name holding a comma or a quote is quoted,
        # every line ends in "\n", and the rows may come from a generator
        path = tmp_path / "cells.csv"
        rows = [["a,b", 1, None], ['say "hi"', 0.5, 2.0]]
        write_csv(path, ["name", "value", "mi"], (row for row in rows))
        assert path.read_bytes() == b'name,value,mi\n"a,b",1,\n"say ""hi""",0.5,2.0\n'

    def test_json_is_sorted_and_ends_in_a_newline(self, tmp_path):
        doc = {"b": [1.5, None, True], "a": {"z": 0.1, "y": "\u00e9"}, "c": -0.0}
        path = tmp_path / "doc.json"
        write_json(path, doc)
        assert path.read_bytes() == (json.dumps(doc, sort_keys=True) + "\n").encode("ascii")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_refuses_a_value_standard_json_cannot_hold(self, tmp_path, bad):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            write_json(tmp_path / "doc.json", {"kld": bad})

    def test_a_byte_order_mark_is_skipped_on_read_and_never_written(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_bytes(b"\xef\xbb\xbfname,\xc3\xa9\n")
        with text_file(path) as fh:
            assert fh.read() == "name,\u00e9\n"
        write_text(path, "name,\u00e9\n")
        assert path.read_bytes() == b"name,\xc3\xa9\n"

    def test_default_names(self):
        assert default_names(3) == ("f1", "f2", "f3")
        assert default_names(0) == ()

    def test_given_names_are_kept_when_there_is_one_per_feature(self):
        assert default_names(2, ["a", "b"]) == ("a", "b")
        assert default_names(2, ()) == default_names(2, None) == ("f1", "f2")
        with pytest.raises(ValueError, match=r"feature_names has 1 names, expected one per feature \(2\)"):
            default_names(2, ("a",))


class TestPermutation:
    @pytest.mark.parametrize("values", [
        [2, 0, 1], (2, 0, 1), np.array([2, 0, 1]), [np.int64(2), np.int32(0), 1],
    ])
    def test_integer_entries_are_an_int_array(self, values):
        perm = permutation(values, 3, "ranking")
        assert perm.dtype == int
        assert perm.tolist() == [2, 0, 1]

    @pytest.mark.parametrize("values", [
        [0.7, 1.2, 2.9],  # floats that truncate to 0, 1, 2
        [0.0, 1.0, 2.0],
        np.array([0.0, 1.0, 2.0]),
        [True, False, 2],  # bools that count as 1 and 0
        [0, 1, 1],
        [0, 1, 3],
        [0, 1],
        [[0, 1, 2]],
        3,
        "012",
    ])
    def test_anything_else_is_refused_naming_what_was_checked(self, values):
        with pytest.raises(ValueError) as err:
            permutation(values, 3, "ranking")
        assert str(err.value) == "ranking must be a permutation of the 3 indices 0, ..., 2"


class TestJsonInput:
    @pytest.mark.parametrize("value, kinds", [
        (1, (float,)), (1.5, (float,)), (False, (bool,)), (None, (None, int)), (3, (None, int)),
        ({}, (dict,)), ([], (list,)), ("", (str, None)),
    ])
    def test_checked_returns_a_value_of_its_kind(self, value, kinds):
        assert checked(value, "k", *kinds) is value

    @pytest.mark.parametrize("value, kinds, message", [
        (True, (int,), "must be an integer, got true or false"),
        (False, (float,), "must be a number, got true or false"),
        (1, (bool,), "must be true or false, got an integer"),
        (1.0, (int,), "must be an integer, got a number"),
        (None, (str,), "must be a string, got null"),
        ("1", (None, int), "must be null or an integer, got a string"),
        ([], (dict,), "must be an object, got a list"),
        ({}, (list,), "must be a list, got an object"),
    ])
    def test_checked_names_the_key_path_and_both_kinds(self, value, kinds, message):
        with pytest.raises(ValueError) as info:
            checked(value, "a.b[0]", *kinds)
        assert str(info.value) == f"a.b[0] {message}"

    def test_read_json_returns_the_object(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2.5, null, "\u00e9"]}', encoding="utf-8")
        assert read_json(path) == {"a": [1, 2.5, None, "\u00e9"]}

    def test_read_json_accepts_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b'\xef\xbb\xbf{"a": 1}')
        assert read_json(path) == {"a": 1}

    @pytest.mark.parametrize("data, message", [
        (b'{"a": 1,', "Expecting property name enclosed in double quotes"),
        (b"", "Expecting value"),
        (b"[1, 0]", "the document must be an object, got a list"),
        (b'"text"', "the document must be an object, got a string"),
        (b'{"a": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ])
    def test_read_json_refusal_starts_with_the_path(self, tmp_path, data, message):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read_json(path)
        assert str(info.value).startswith(f"{path}: {message}")
