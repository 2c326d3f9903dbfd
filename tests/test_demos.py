"""The narrated demos run to completion against the installed package.

Each script under demos/ is executed in-process with runpy, the way
``python demos/<name>.py`` would run it, so an API change that breaks a
demo fails here.
"""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
