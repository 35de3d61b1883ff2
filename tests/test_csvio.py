"""`csvio.csv_text` formats a whole table from one row template; these
tests hold it to the per-cell formatter it replaced, byte for byte."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from klbasis import cli, csvio

SRC = Path(__file__).resolve().parents[1] / "src"


def old_csv_text(header, rows) -> str:
    """The per-cell formatter `csv_text` replaced: strings as they are,
    anything else through float() with 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else f"{float(c):.17g}" for c in row))
    return "\n".join(lines) + "\n"


SPECIAL = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308]
)
DOUBLES = st.one_of(SPECIAL, st.floats())
# Each column kind draws its cells from one strategy, so a column keeps one type.
COLUMNS = {
    "float": DOUBLES,
    "int": st.integers(-(10**20), 10**20),
    "np.float64": DOUBLES.map(np.float64),
    "np.float32": st.floats(width=32).map(np.float32),
    "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "str": st.text(st.characters(blacklist_characters=",\n\r"), max_size=8),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 6))
    rows = [[draw(COLUMNS[kind]) for kind in kinds] for _ in range(n_rows)]
    return [f"c{j}" for j in range(len(kinds))], rows


@given(tables())
def test_matches_per_cell_formatter(table):
    header, rows = table
    assert csvio.csv_text(header, rows) == old_csv_text(header, rows)
    assert csvio.csv_text(header, iter(rows)) == old_csv_text(header, rows)


@given(st.integers(0, 6), st.integers(1, 5), st.data())
def test_array_matches_per_cell_formatter(n_rows, n_cols, data):
    size = n_rows * n_cols
    array = np.array(data.draw(st.lists(DOUBLES, min_size=size, max_size=size)))
    array = array.reshape(n_rows, n_cols)
    header = [f"c{j}" for j in range(n_cols)]
    text = csvio.csv_text(header, array)
    assert isinstance(text, str)
    assert text == old_csv_text(header, array)


def test_int_index_column_prints_as_integer():
    rows = np.column_stack((np.arange(3), [0.5, -0.0, math.nan]))
    assert csvio.csv_text(["index", "value"], rows) == "index,value\n0,0.5\n1,-0\n2,nan\n"


def test_zero_rows_is_the_header_line():
    assert csvio.csv_text(["a", "b"], []) == "a,b\n"
    assert csvio.csv_text(["a", "b"], np.empty((0, 2))) == "a,b\n"


@given(st.lists(DOUBLES, min_size=1, max_size=40))
def test_read_back_bit_for_bit(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    csvio.write_text(path, csvio.csv_text(["v"], np.array(values)[:, None]))
    header, rows = csvio.read_csv(path)
    assert header == ["v"]
    back = np.array([float(row[0]) for row in rows])
    sent = np.array(values)
    nan = np.isnan(sent)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back[~nan].view(np.int64), sent[~nan].view(np.int64))


EXCITED_2P = {"problem": {"n": 2, "l": 1, "E": -0.125, "E_range": [-0.2, -0.05], "b": 20.0}}


@pytest.mark.parametrize("command", ["gen-basis", "solve", "scan-energy", "compare-bases"])
@pytest.mark.parametrize("doc", [{}, EXCITED_2P], ids=["default", "excited2p"])
def test_artifacts_match_per_cell_formatter(tmp_path, monkeypatch, command, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"  # one directory, since report.json records it

    def artifacts() -> dict:
        argv = [command, "--config", str(config), "--out-dir", str(out), "--seed", "7"]
        assert cli.main(argv) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return files

    new = artifacts()
    monkeypatch.setattr(csvio, "csv_text", old_csv_text)
    old = artifacts()
    assert any(name.endswith(".csv") for name in new)
    assert new == old


_PARSER_PROBE = """
import argparse, contextlib, io, json, tempfile
from pathlib import Path

built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting

import klbasis.cli as cli
at_import = len(built)
seeds, after_call = [], []
with tempfile.TemporaryDirectory() as tmp:
    for k, extra in enumerate((["--seed", "3"], [], [])):
        out = Path(tmp, str(k))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gen-basis", "--out-dir", str(out), *extra])
        assert code == 0, code
        seeds.append(json.loads((out / "basis.json").read_text())["config"]["seed"])
        after_call.append(len(built))
print(json.dumps({"at_import": at_import, "after_call": after_call, "seeds": seeds}))
"""


def test_parser_built_once_per_process():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", _PARSER_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    probe = json.loads(out.stdout.splitlines()[-1])
    assert probe["at_import"] == 0
    first = probe["after_call"][0]
    assert first > 0
    assert probe["after_call"] == [first] * 3
    assert probe["seeds"] == [3, cli.DEFAULT_CONFIG["seed"], cli.DEFAULT_CONFIG["seed"]]
