"""Tests for the value domain (DataType validation and literal coercion)."""

from __future__ import annotations

import pytest

from repro.errors import TypeMismatchError
from repro.relational.datatypes import DataType


class TestDataTypeValidation:
    def test_integer_accepts_int(self):
        assert DataType.INTEGER.validate(5) == 5

    def test_integer_rejects_string(self):
        with pytest.raises(TypeMismatchError):
            DataType.INTEGER.validate("5")

    def test_integer_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            DataType.INTEGER.validate(True)

    def test_float_coerces_int(self):
        value = DataType.FLOAT.validate(3)
        assert value == 3.0
        assert isinstance(value, float)

    def test_text_accepts_string(self):
        assert DataType.TEXT.validate("seat 5A") == "seat 5A"

    def test_text_rejects_number(self):
        with pytest.raises(TypeMismatchError):
            DataType.TEXT.validate(12)

    def test_boolean_strict(self):
        assert DataType.BOOLEAN.validate(True) is True
        with pytest.raises(TypeMismatchError):
            DataType.BOOLEAN.validate(1)

    def test_null_always_accepted(self):
        for datatype in DataType:
            assert datatype.validate(None) is None

    def test_any_accepts_scalars(self):
        for value in (1, 2.5, "x", False):
            assert DataType.ANY.validate(value) == value

    def test_any_rejects_containers(self):
        with pytest.raises(TypeMismatchError):
            DataType.ANY.validate([1, 2])

    def test_error_message_names_column(self):
        with pytest.raises(TypeMismatchError, match="seat"):
            DataType.INTEGER.validate("x", column="seat")
