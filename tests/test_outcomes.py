"""Frozen outcomes of the report entry points: one row per (form, recipe).

A row's outcome is the sha256 of the result's values, or the error's class,
message and ``.index``. Values are hashed as Python floats (``float.hex``),
never as numpy reprs, which differ between numpy versions. The SSM report's
output fields come from BLAS products whose bits vary by CPU, so they are
stored as floats and compared at rel <= 1e-12, as
``test_golden_reports.py::test_ssm_scan_report_matches_loop`` compares them.

Every recipe is an explicit construction: no RNG stream, no transcendental
function. ``tests/outcomes.json`` holds the table; ``tests/freeze_outcomes.py``
rewrites it. A change that alters an outcome on purpose re-freezes the table
and names the rows that changed.
"""

import dataclasses
import enum
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from softedge import (compare_quantizers, derive_config, mse,
                      region_breakdown, sqnr_db, sweep)
from softedge.codec import BLOCK
from softedge.ssm import SsmRunReport, make_params, run_report

TABLE = Path(__file__).with_name("outcomes.json")

_CFG = derive_config(1.0)
# Its large row rounds 1e300 to a multiple of 4e37, beyond binary32.
_BIG = derive_config(1e37)
_PARAMS = make_params(3, 1)

# Each form takes a recipe's value v and its pair operand w (None for an
# operand of v's shape, all zeros, or all ones as the reference of an
# approximation).
FORMS = {
    "mse_ref": lambda v, w: mse(v, _pair(v, w, 0.0)),
    "mse_approx": lambda v, w: mse(_pair(v, w, 0.0), v),
    "sqnr_db_ref": lambda v, w: sqnr_db(v, _pair(v, w, 0.0)),
    "sqnr_db_approx": lambda v, w: sqnr_db(_pair(v, w, 1.0), v),
    "compare_quantizers": lambda v, w: compare_quantizers(v, _CFG),
    "compare_quantizers_big": lambda v, w: compare_quantizers(v, _BIG),
    "region_breakdown": lambda v, w: region_breakdown(v, _CFG),
    "region_breakdown_big": lambda v, w: region_breakdown(v, _BIG),
    "sweep": lambda v, w: sweep(v, [99, 100]),
    "sweep_grid": lambda v, w: sweep(v, [50, 99.9, 100], (1.0, 4.0),
                                     (1.0, 4.0, 16.0)),
    "run_report": lambda v, w: run_report(_PARAMS, v, _CFG),
    "run_report_big": lambda v, w: run_report(_PARAMS, v, _BIG),
}


def _pair(v, w, fill):
    return np.full(np.shape(v), fill) if w is None else w


def _base(n: int = 2 * BLOCK + 3) -> np.ndarray:
    """n float64 values over all three regions of ``_CFG`` from integer
    arithmetic and one correctly rounded division: |x| <= 4, every 13th
    times 10 and every 97th times 40."""
    i = np.arange(n)
    x = ((i * 7919) % 2001 - 1000) / 250.0
    x[::13] *= 10.0
    x[::97] *= 40.0
    return x


def _overflowing() -> np.ndarray:
    """``_base()`` times 1e36, and 1e160 at every 4099th element, in every
    leaf: the p99.9 H is 1.55e38, within binary32, and p100 puts 1e160 at H,
    so no leaf holds an element above it."""
    x = _base() * 1e36
    x[::4099] = 1e160
    return x


def _at(position: int, value: float) -> np.ndarray:
    x = _base()
    x[position] = value
    return x


_LD_MAX = np.longdouble(np.finfo(np.float64).max)
_LD_WIDE = np.finfo(np.longdouble).max > _LD_MAX

# name: (v, w). Each value is built when the table is read, not at import.
RECIPES = {
    **{f"dtype_{dt}": (lambda dt=dt: (np.array([0, 1, 0, 1], dt) if dt == "?"
                                      else np.arange(-3, 9).astype(dt), None))
       for dt in ("?", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8",
                  "f2", "f4", "f8")},
    "dtype_int_extremes": lambda: (np.array(
        [np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max]), None),
    "dtype_uint_max": lambda: (np.array([0, 1, np.iinfo(np.uint64).max],
                                        np.uint64), None),
    "longdouble_finite": lambda: (np.array([1.5, -2.25, 1e10, 3e300],
                                           np.longdouble), None),
    # above binary64's max by one longdouble ulp: it rounds to that max
    "longdouble_round_to_max": lambda: (np.array(
        [1.0, _LD_MAX + np.ldexp(np.longdouble(1), 960), 1.0]), None),
    "longdouble_beyond": lambda: (np.array(
        [1.0, np.longdouble("1e400"), 1.0]), None),
    **{f"{name}_at_{label}": (lambda p=p, v=v: (_at(p, v), None))
       for name, v in (("nan", np.nan), ("inf", np.inf), ("neg_inf", -np.inf))
       for label, p in (("0", 0), ("B-1", BLOCK - 1), ("B", BLOCK),
                        ("2B+2", 2 * BLOCK + 2))},
    "binary32_signalling_nan": lambda: (np.frombuffer(
        bytes.fromhex("0000803f0100807f0000803f"), "<f4"), None),
    "multi_leaf": lambda: (_base(), None),
    "multi_leaf_f4": lambda: (_base().astype(np.float32), None),
    # squares overflow, so every form reruns scaled; a sweep's p99.9 coarse
    # twins overflow binary32 where the row before them does not
    "multi_leaf_overflow": lambda: (_overflowing(), None),
    "empty": lambda: (np.array([]), None),
    "zero_d": lambda: (np.array(2.5), None),
    "two_d": lambda: (np.arange(-12.0, 12.0).reshape(4, 6) * 1.75, None),
    "list": lambda: ([1.0, -20.0, 0.5, 200.0], None),
    "complex": lambda: (np.array([1 + 2j, 0.5, 3.0]), None),
    "empty_complex": lambda: (np.array([], np.complex128), None),
    "str": lambda: (np.array(["1.5", "2", "3"]), None),
    "object": lambda: (np.array([1.0, 2.0, 3.0], dtype=object), None),
    "datetime": lambda: (np.array(["2020-01-01", "2020-01-02"],
                                  dtype="datetime64[D]"), None),
    "shape_mismatch": lambda: (np.arange(3.0), np.zeros(4)),
    "shape_mismatch_nan": lambda: (np.arange(3.0), np.array([0, np.nan, 0, 0])),
    "huge_pair": lambda: (np.array([1e308, -1e308, 1.0]),
                          np.array([-1e308, 1e308, 1.0])),
    "beyond_binary32": lambda: (np.array([1.0, 1e300, -5.0]), None),
    "zeros": lambda: (np.zeros(5), None),
    "tiny": lambda: (np.array([1e-170, -3e-171]), None),
}


def _plain(v):
    """v as JSON-able Python values, each float as its exact ``float.hex``."""
    if dataclasses.is_dataclass(v):
        return {f.name: _plain(getattr(v, f.name))
                for f in dataclasses.fields(v)}
    if isinstance(v, tuple) and hasattr(v, "_asdict"):
        return _plain(v._asdict())
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    raise TypeError(f"no plain form for {type(v).__name__}")


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


_SSM_OUTPUTS = [f"output_{stat}_{which}" for stat in ("mse", "sqnr_db")
                for which in ("soft_edge", "int8")]


def outcome(form: str, recipe: str) -> dict:
    """The outcome of one row, with every warning an error, as in tier-1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = FORMS[form](*RECIPES[recipe]())
        except Exception as e:  # the error itself is the outcome
            return {"error": [type(e).__name__, str(e),
                              getattr(e, "index", None)]}
    doc = _plain(result)
    if not isinstance(result, SsmRunReport):
        return {"value": _digest(doc)}
    return {"value": _digest({k: v for k, v in doc.items()
                              if k not in _SSM_OUTPUTS}),
            "ssm_outputs": [doc[k] for k in _SSM_OUTPUTS]}


def table() -> dict:
    return {recipe: {form: outcome(form, recipe) for form in FORMS}
            for recipe in RECIPES}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(TABLE.read_text())


def test_table_has_a_row_for_each_recipe_and_form(frozen):
    assert sorted(frozen) == sorted(RECIPES)
    assert all(sorted(row) == sorted(FORMS) for row in frozen.values())


@pytest.mark.parametrize("recipe", RECIPES)
def test_outcomes_are_frozen(recipe, frozen):
    if recipe.startswith("longdouble") and not _LD_WIDE:
        pytest.skip("longdouble is binary64 on this platform")
    changed = {}
    for form, want in frozen[recipe].items():
        got = outcome(form, recipe)
        if "ssm_outputs" in want and "ssm_outputs" in got:
            expect = [float.fromhex(v) for v in want["ssm_outputs"]]
            near = [float.fromhex(v) for v in got["ssm_outputs"]]
            if near == pytest.approx(expect, rel=1e-12, abs=0):
                got["ssm_outputs"] = want["ssm_outputs"]
        if got != want:
            changed[form] = (want, got)
    assert not changed
