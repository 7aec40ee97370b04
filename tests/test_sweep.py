import json
import math
import re

import numpy as np
import pytest

from cryptoflow import (
    FULL_5X5,
    LIQUIDITY_2X2,
    SENTIMENT_3X3,
    Axis,
    Method,
    ModelParams,
    StabilityMap,
    SweepSpec,
    Verdict,
    boundary_cells,
    export_map,
    map_from_json,
    run_sweep,
)
from cryptoflow.stability import STABLE, UNSTABLE


def liq_spec(method=Method.EIGEN, q=(0.0, 5.0, 26), ratio=(0.2, 3.0, 15)):
    return SweepSpec(
        variant=LIQUIDITY_2X2,
        fixed=ModelParams(q=0.5, tau0=1.0, c=1.0),
        axis1=Axis("q", *q),
        axis2=Axis("c_over_tau0", *ratio),
        method=method,
    )


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("bogus", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        Axis("q", 1.0, 1.0, 5)
    with pytest.raises(ValueError):
        Axis("q", 0.0, 1.0, 1)
    for steps in (2.0, True):
        message = f"axis q: steps must be an integer, got {steps!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Axis("q", 0.0, 1.0, steps)


def test_a_numpy_integer_steps_gives_the_map_of_a_python_int(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1609459200")
    axis = Axis("q", 0.0, 1.0, np.int64(3))
    assert type(axis.steps) is int
    spec = liq_spec(q=(0.0, 1.0, 3), ratio=(0.5, 1.5, 2))
    numpy_spec = SweepSpec(spec.variant, spec.fixed, axis, spec.axis2, spec.method)
    assert run_sweep(numpy_spec).to_json() == run_sweep(spec).to_json()


@pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                   (0.0, math.nan), (-1e308, 1e308),
                                   pytest.param(0, 10**400, id="0-huge_int"),
                                   pytest.param(0, 10**5000, id="0-int_5001_digits")])
def test_axis_rejects_non_finite_bounds_and_overflowing_spans(lo, hi):
    with pytest.raises(ValueError, match="finite|overflows") as refusal:
        Axis("q", lo, hi, 3)
    if hi == 10**5000:  # too long for Python to write in decimal
        assert str(refusal.value) == \
            "axis q: bounds must be finite, got 0, an int of 5001 digits"


def test_an_int_bound_beyond_int64_gives_the_csv_of_its_float(monkeypatch):
    # numpy holds 10**20 in no integer type, so a linspace over it was an
    # object array that the cell arithmetic could not subtract
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1609459200")
    spec = liq_spec(q=(0.0, 1e20, 2), ratio=(0.5, 1.5, 2))
    doc = json.loads(run_sweep(spec).to_json())
    doc["axis1"]["max"] = 10**20
    loaded = map_from_json(json.dumps(doc))
    assert loaded.spec.axis1.max == 10**20 and type(loaded.spec.axis1.max) is int
    assert loaded.to_csv() == run_sweep(spec).to_csv()
    int_spec = liq_spec(q=(0, 10**20, 2), ratio=(0.5, 1.5, 2))
    assert run_sweep(int_spec).to_csv() == run_sweep(spec).to_csv()


def test_overflowing_cells_are_invalid_not_finite():
    # c = ratio * tau0 overflows to inf at the two larger ratios
    spec = SweepSpec(LIQUIDITY_2X2, ModelParams(tau0=1e300), Axis("q", 0.0, 1.0, 2),
                     Axis("c_over_tau0", 1.0, 1e10, 3), Method.EIGEN)
    result = run_sweep(spec)
    assert result.reasons.tolist() == [[None, "NonFiniteParameter", "NonFiniteParameter"]] * 2


def test_spec_rejects_duplicate_axes():
    with pytest.raises(ValueError):
        SweepSpec(LIQUIDITY_2X2, ModelParams(), Axis("q", 0, 1, 3),
                  Axis("q", 2, 3, 3), Method.EIGEN)


# Each pair, in either order, overwrites a field the other axis writes or holds.
_HOLDS_Q1 = "axis 'q1' writes q1, which axis 'K' holds at its fixed value"
_HOLDS_TAU0 = "axis 'tau0' writes tau0, which axis 'c_over_tau0' holds at its fixed value"
CONFLICTS = [("K", "q", "axes 'K' and 'q' both write q"),
             ("q", "K", "axes 'q' and 'K' both write q"),
             ("K", "q1", _HOLDS_Q1), ("q1", "K", _HOLDS_Q1),
             ("c_over_tau0", "tau0", _HOLDS_TAU0), ("tau0", "c_over_tau0", _HOLDS_TAU0)]


@pytest.mark.parametrize("variant", [FULL_5X5, SENTIMENT_3X3, LIQUIDITY_2X2],
                         ids=lambda v: v.value)
@pytest.mark.parametrize("first,second,message", CONFLICTS,
                         ids=[f"{a}x{b}" for a, b, _ in CONFLICTS])
def test_spec_rejects_axes_that_write_the_same_or_a_held_field(variant, first, second,
                                                               message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SweepSpec(variant, ModelParams(), Axis(first, 0, 1, 3), Axis(second, 1, 2, 3),
                  Method.EIGEN)


@pytest.mark.parametrize("pair", [("K", "tau0"), ("q", "c_over_tau0"),
                                  ("K", "c_over_tau0")], ids="x".join)
def test_spec_accepts_the_benchmark_axis_pairs(pair):
    for first, second in (pair, pair[::-1]):
        for variant in (FULL_5X5, SENTIMENT_3X3, LIQUIDITY_2X2):
            SweepSpec(variant, ModelParams(), Axis(first, 0, 1, 3),
                      Axis(second, 1, 2, 3), Method.EIGEN)


def test_run_sweep_rejects_bad_dead_bands():
    # The command line's messages, before any cell is evaluated.
    for bad, message in [({"eps": math.nan}, "eps must be >= 0, got nan"),
                         ({"eps": math.inf}, "eps must be finite, got inf"),
                         ({"band": -1.0}, "band must be >= 0, got -1.0"),
                         ({"band": math.inf}, "band must be finite, got inf")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_sweep(liq_spec(), **bad)


def test_two_by_two_csv_layout():
    spec = liq_spec(q=(0.5, 1.0, 2), ratio=(1.0, 2.0, 2))
    result = run_sweep(spec)
    lines = result.to_csv().strip().split("\n")
    assert lines[0] == "axis1,axis2,max_real_or_margin,verdict"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.5 and float(first[1]) == 1.0


def test_export_deterministic_and_round_trips(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1609459200")
    result = run_sweep(liq_spec(q=(0.0, 2.0, 5), ratio=(0.5, 1.5, 4)))
    assert result.metadata["created"] == "2021-01-01T00:00:00+00:00"
    assert export_map(result, "csv") == export_map(result, "csv")
    text = export_map(result, "json")
    assert text == export_map(result, "json")
    assert map_from_json(text) == result


def _reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def test_json_writes_infinite_values_as_strings_and_round_trips():
    # 1/tau0 overflows at tau0 = 1e-320, so the closed-form margin is inf there
    spec = SweepSpec(LIQUIDITY_2X2, ModelParams(), Axis("tau0", 1e-320, 1e-300, 3),
                     Axis("q", 0.0, 1.0, 3), Method.CLOSED_FORM)
    result = run_sweep(spec)
    assert np.isposinf(result.values[0]).all()
    text = export_map(result, "json")
    doc = json.loads(text, parse_constant=_reject_constant)
    assert doc["values"][0] == ["inf", "inf", "inf"]
    assert map_from_json(text) == result


def test_json_writes_non_finite_fixed_fields_and_metadata_as_json():
    # Fields an axis writes are not validated, and library callers may hold
    # q1 at inf under a K axis, so fixed and metadata may hold NaN or inf.
    spec = SweepSpec(LIQUIDITY_2X2, ModelParams(q=math.nan, q1=math.inf),
                     Axis("K", 0.0, 1.0, 2), Axis("tau0", 1.0, 2.0, 2), Method.EIGEN)
    result = run_sweep(spec)
    result.metadata["eps"] = math.inf
    text = export_map(result, "json")
    doc = json.loads(text, parse_constant=_reject_constant)
    assert doc["fixed"]["q"] is None and doc["fixed"]["q1"] == "inf"
    assert doc["metadata"]["eps"] == doc["metadata"]["k_axis_holds_q1"] == "inf"
    back = map_from_json(text)
    assert math.isnan(back.spec.fixed.q) and back.spec.fixed.q1 == math.inf
    assert back.metadata == result.metadata


def test_eigen_and_closed_form_agree_off_the_band():
    eig = run_sweep(liq_spec(Method.EIGEN, q=(0.0, 4.0, 21), ratio=(0.2, 3.0, 15)))
    closed = run_sweep(liq_spec(Method.CLOSED_FORM, q=(0.0, 4.0, 21), ratio=(0.2, 3.0, 15)))
    for a_row, b_row in zip(eig.verdicts, closed.verdicts):
        for a, b in zip(a_row, b_row):
            if Verdict.MARGINAL in (a, b) or Verdict.INVALID in (a, b):
                continue
            assert a is b


def test_k_axis_marks_negative_q_invalid():
    spec = SweepSpec(
        variant=FULL_5X5,
        fixed=ModelParams(q1=0.5, q2=0.0, tau0=1.0, c=1.0, c1=1.0, c2=1.0, c3=1.0),
        axis1=Axis("K", 0.0, 2.0, 5),
        axis2=Axis("q2", 0.0, 1.0, 2),
        method=Method.CLOSED_FORM,
    )
    result = run_sweep(spec)
    assert result.metadata["k_axis_holds_q1"] == 0.5
    for j in range(2):
        assert result.verdicts[0][j] is Verdict.INVALID
        assert result.reasons[0, j] == "q_negative_from_K"
        assert result.verdicts[1][j] is Verdict.INVALID
    assert result.verdicts[2][0] is not Verdict.INVALID
    assert np.isnan(result.values[0][0])


def test_zero_ratio_cell_is_invalid_not_fatal():
    result = run_sweep(liq_spec(ratio=(0.0, 1.0, 3)))
    assert result.verdicts[0][0] is Verdict.INVALID
    assert result.reasons[0, 0] == "NonPositiveTimeScale"
    assert result.metadata["ratio_axis_holds_tau0"] == 1.0


def test_boundary_empty_on_uniform_map():
    result = run_sweep(liq_spec(q=(0.0, 0.5, 4), ratio=(1.0, 2.0, 4)))
    assert all(v is Verdict.STABLE for row in result.verdicts for v in row)
    assert boundary_cells(result) == []


def test_boundary_of_half_plane_split():
    spec = liq_spec(q=(0.0, 1.0, 4), ratio=(0.5, 1.0, 3))
    base = run_sweep(spec)
    codes = np.repeat(np.array([STABLE, STABLE, UNSTABLE, UNSTABLE], dtype=np.int8)[:, None],
                      3, axis=1)
    split = StabilityMap(spec=spec, values=base.values, codes=codes,
                         reasons=base.reasons, metadata=base.metadata)
    expected = [(1, j) for j in range(3)] + [(2, j) for j in range(3)]
    assert sorted(boundary_cells(split)) == expected


def test_boundary_traces_the_threshold_line():
    result = run_sweep(liq_spec())
    cells = boundary_cells(result)
    assert cells
    qs = result.spec.axis1.values()
    rs = result.spec.axis2.values()
    diag = np.hypot(qs[1] - qs[0], rs[1] - rs[0])
    for i, j in cells:
        distance = abs(qs[i] - 1.0 - rs[j]) / np.sqrt(2.0)
        assert distance <= diag


def test_full_variant_stable_set_grows_with_q2():
    spec = SweepSpec(
        variant=FULL_5X5,
        fixed=ModelParams(q=0.0, q1=0.0, q2=0.0, tau0=1.0, c=1.0, c1=1.0,
                          c2=1.0, c3=1.0),
        axis1=Axis("K", 0.0, 6.0, 25),
        axis2=Axis("q2", 0.0, 3.0, 13),
        method=Method.CLOSED_FORM,
    )
    result = run_sweep(spec)
    for row in result.verdicts:
        stable = [v is Verdict.STABLE for v in row]
        if any(stable):
            first = stable.index(True)
            assert all(stable[first:])


def test_refinement_keeps_shared_lattice_points():
    coarse = run_sweep(liq_spec(Method.CLOSED_FORM, q=(0.0, 4.0, 6), ratio=(0.5, 2.5, 6)))
    fine = run_sweep(liq_spec(Method.CLOSED_FORM, q=(0.0, 4.0, 11), ratio=(0.5, 2.5, 11)))
    assert np.array_equal(coarse.codes, fine.codes[::2, ::2])


def test_svg_smoke():
    result = run_sweep(liq_spec(q=(0.0, 2.0, 4), ratio=(0.5, 1.5, 3)))
    svg = result.to_svg()
    assert svg.count("<rect") == 12
    assert "#2166ac" in svg and "#b2182b" in svg


def test_metadata_records_tolerances():
    result = run_sweep(liq_spec(q=(0.5, 1.0, 2), ratio=(1.0, 2.0, 2)),
                       eps=1e-7, band=1e-5)
    assert result.metadata["eps"] == 1e-7
    assert result.metadata["band"] == 1e-5
    assert "version" in result.metadata
