"""The README's demos run to completion."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_quantizer_tour.py",
    "02_outlier_tradeoff.py",
    "03_ssm_error_propagation.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
