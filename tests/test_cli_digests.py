"""Byte-identity guard for the command line (see `cli_digests.py`)."""

import pytest

from cli_digests import COMMANDS, digest, recorded


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=" ".join(argv),
                 marks=[pytest.mark.slow] if slow else [])
    for argv, slow in COMMANDS])
def test_cli_output_is_byte_identical(argv):
    assert digest(argv) == recorded()[" ".join(argv)]


def test_every_guarded_command_is_recorded():
    assert sorted(recorded()) == sorted(" ".join(a) for a, _ in COMMANDS)
