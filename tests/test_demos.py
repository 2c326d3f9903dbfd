"""The narrated demos and the README's library quick start run against the
installed package.

Each script under demos/ is executed in-process with runpy, the way
``python demos/<name>.py`` would run it, and each ```python block of
README.md is executed as written, so an API change that breaks a demo or
the documented quick start fails here.
"""

import contextlib
import io
import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert [p.name for p in DEMOS] == [
        "delocalized_gradient_measures.py",
        "localized_measures.py",
        "phase_boundary_scan.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_quick_start():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.M | re.S)
    assert len(blocks) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})
    # what the comments promise: True, ~5e-14; 0.997075...; 2
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    certified, residual = lines[0].split()
    assert certified == "True" and float(residual) < 1e-12
    assert lines[1].startswith("0.997075")
    assert lines[2] == "2"
