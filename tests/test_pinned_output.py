"""The full CSV files of the headline commands, pinned byte for byte.

`sweep --n 3` and `crossings --n 3` and `--n 4` at small M, header comments,
every value and every residual cell included, against the files recorded in
`tests/pinned/`.  The sweep asks for more openings than its grid has rays,
so several requests snap to each ray.  A refactor that claims to leave the
numbers alone must leave these files alone.  A change that moves any value
on purpose (a new stencil, snapping rule or root step) must say so and
record the files again from its own output."""

from pathlib import Path

import pytest

from crackspec.cli import main

PINNED = Path(__file__).parent / "pinned"


@pytest.mark.parametrize("name, argv", [
    ("sweep-n3", ["sweep", "--n", "3", "--steps", "30", "-M", "24", "-k", "3"]),
    ("crossings-n3", ["crossings", "--n", "3", "--steps", "12", "-M", "30", "-k", "6",
                      "--rank", "3"]),
    ("crossings-n4", ["crossings", "--n", "4", "--steps", "12", "-M", "30", "-k", "6",
                      "--rank", "3"]),
])
def test_headline_output_is_pinned(tmp_path, name, argv):
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--r1", "auto", "--output", str(out)]) == 0
    assert out.read_text() == (PINNED / f"{name}.csv").read_text()
