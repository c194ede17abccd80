"""The full CSV files of the headline commands, pinned byte for byte.

`sweep --n 3` and `crossings --n 3` and `--n 4` at small M, header comments,
every value and every residual cell included, against the files recorded in
`tests/pinned/`.  The sweep asks for more openings than its grid has rays,
so several requests snap to each ray.  A refactor that claims to leave the
numbers alone must leave these files alone.  A change that moves any value
on purpose (a new stencil, snapping rule or root step) must say so and
record the files again from its own output.

Two of the README's commands are pinned at the paper's size, M = 180: the
whole output of `crossings --n 3`, and every column of `solve --n 3` but
the residual, whose last digits move with any change of the root step's
round-off while its eigenvalues do not."""

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


def test_paper_size_crossings_are_pinned(tmp_path):
    out = tmp_path / "crossings-n3-M180.csv"
    assert main(["crossings", "--n", "3", "--r1", "auto", "--steps", "30", "-M", "180",
                 "-k", "6", "--rank", "3", "--output", str(out)]) == 0
    assert out.read_text() == (PINNED / "crossings-n3-M180.csv").read_text()


def test_paper_size_eigenvalues_are_pinned(tmp_path):
    out = tmp_path / "solve-n3-M180.csv"
    assert main(["solve", "--n", "3", "--epsilon", "0.29", "--r1", "auto", "--r2", "1",
                 "-M", "180", "-k", "6", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header].split(",") == ["epsilon", "sector", "index", "lambda", "residual"]
    got = lines[:header] + [",".join(line.split(",")[:4]) for line in lines[header:]]
    assert got == (PINNED / "solve-n3-M180-lambda.csv").read_text().splitlines()
