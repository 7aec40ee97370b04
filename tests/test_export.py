"""Streamed exports: every exporter writes the bytes of its string form to a
stream, in bounded chunks, and streaming holds no whole-text buffer."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from cryptoflow import (
    FULL_5X5,
    LIQUIDITY_2X2,
    SENTIMENT_3X3,
    Axis,
    BlowUp,
    GbmParams,
    Method,
    ModelParams,
    SimConfig,
    StabilityMap,
    StateOutOfDomain,
    SweepSpec,
    Trajectory,
    Verdict,
    export_map,
    gbm_path_csv,
    gbm_simulate,
    integrate,
    map_from_json,
    run_sweep,
)
from cryptoflow.gbm import CSV_ROWS_PER_WRITE as PATH_ROWS_PER_WRITE
from cryptoflow.inputs import write_json
from cryptoflow.simulate import CSV_ROWS_PER_WRITE
from cryptoflow.stability import INVALID, MARGINAL, STABLE, UNSTABLE

FORMATS = ("csv", "json", "svg")


class _Recorder:
    """A text stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


class _Discard:
    def write(self, text):
        return len(text)


def _streamed(export, *args):
    stream = _Recorder()
    assert export(*args, stream) is None
    return stream.writes


def _lines(text):
    return text.count("\n")


# ------------------------------------------------------------- references
# The exporters as they were before streaming: one list of lines, joined once.

def _reference_map_csv(m):
    lines = ["axis1,axis2,max_real_or_margin,verdict"]
    a1, a2 = m.spec.axis1.values(), m.spec.axis2.values()
    verdicts = m.verdicts
    for i in range(m.spec.axis1.steps):
        for j in range(m.spec.axis2.steps):
            lines.append(f"{a1[i]:.17g},{a2[j]:.17g},{m.values[i, j]:.17g},"
                         f"{verdicts[i][j].value}")
    return "\n".join(lines) + "\n"


_COLORS = {Verdict.STABLE: "#2166ac", Verdict.MARGINAL: "#fee08b",
           Verdict.UNSTABLE: "#b2182b", Verdict.INVALID: "#bdbdbd"}


def _reference_map_svg(m):
    n1, n2 = m.shape
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{n1 * 8}" '
             f'height="{n2 * 8}" viewBox="0 0 {n1 * 8} {n2 * 8}">',
             f"<title>{m.spec.variant.value} {m.spec.method.value} "
             f"{m.spec.axis1.name} vs {m.spec.axis2.name}</title>"]
    verdicts = m.verdicts
    for i in range(n1):
        for j in range(n2):
            parts.append(f'<rect x="{i * 8}" y="{(n2 - 1 - j) * 8}" width="8" '
                         f'height="8" fill="{_COLORS[verdicts[i][j]]}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _reference_map_json(text):
    # the writer's bytes are json.dumps of the document they hold
    return json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _reference_gbm_csv(params, path):
    lines = ["t,P"]
    for i, p in enumerate(path):
        lines.append(f"{i * params.dt:.17g},{p:.17g}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- maps

def _odd_map(n1=23, n2=17, seed=3):
    """A map whose values hold NaN, +-inf, -0.0, subnormals and huge numbers,
    with invalid cells flagged, and NaN and inf in its fixed fields."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n1, n2)) * 10.0 ** rng.integers(-320, 300, (n1, n2))
    values.flat[::7] = math.nan
    values.flat[1::11] = math.inf
    values.flat[2::13] = -math.inf
    values.flat[3::17] = -0.0
    codes = np.select([np.isnan(values), values == 0.0, values > 0.0],
                      [INVALID, MARGINAL, UNSTABLE], STABLE).astype(np.int8)
    reasons = np.where(codes == INVALID, "NonFiniteParameter", None)
    spec = SweepSpec(LIQUIDITY_2X2, ModelParams(q=math.nan, q1=math.inf),
                     Axis("K", -1.0 / 3.0, 7.1, n1), Axis("tau0", 1e-300, 2.0, n2),
                     Method.EIGEN)
    return StabilityMap(spec=spec, values=values, codes=codes, reasons=reasons,
                        metadata={"created": "2021-01-01T00:00:00+00:00", "version": "x",
                                  "eps": math.inf, "band": 1e-9,
                                  "k_axis_holds_q1": math.inf})


def _swept_maps():
    # K leaves q negative on the first rows (invalid cells)
    k_axis = SweepSpec(FULL_5X5, ModelParams(q1=0.5, tau0=1.0, c=1.0, c1=1.0, c2=1.0,
                                             c3=1.0),
                       Axis("K", 0.0, 5.0, 31), Axis("c_over_tau0", 0.0, 3.0, 17),
                       Method.EIGEN)
    # 1/tau0 overflows at tau0 = 1e-320, so the closed-form margin is inf there
    inf_margin = SweepSpec(LIQUIDITY_2X2, ModelParams(), Axis("tau0", 1e-320, 1e-300, 3),
                           Axis("q", 0.0, 1.0, 3), Method.CLOSED_FORM)
    return [run_sweep(k_axis), run_sweep(inf_margin)]


@pytest.fixture(scope="module")
def maps():
    return [_odd_map(), *_swept_maps()]


def test_the_maps_hold_every_kind_of_cell(maps):
    values = np.concatenate([m.values.ravel() for m in maps])
    assert np.isnan(values).any() and np.isposinf(values).any()
    assert np.isneginf(values).any()
    verdicts = {v for m in maps for row in m.verdicts for v in row}
    assert verdicts == set(Verdict)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_streamed_map_has_the_bytes_of_its_text(monkeypatch, maps, fmt):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1609459200")
    reference = {"csv": _reference_map_csv, "svg": _reference_map_svg}
    for m in maps:
        text = export_map(m, fmt)
        assert "".join(_streamed(getattr(m, f"to_{fmt}"))) == text
        assert "".join(_streamed(export_map, m, fmt)) == text
        if fmt == "json":
            assert text == _reference_map_json(text)
        else:
            assert text == reference[fmt](m)


def test_json_text_round_trips_through_map_from_json(maps):
    for m in maps:
        text = m.to_json()
        back = map_from_json(text)
        assert back == m
        assert back.to_json() == text


# A valid 2 x 3 map document; each malformed case below breaks one key of it.
_MAP_DOC = {
    "type": "stability_map", "variant": "liquidity2x2", "method": "eigen",
    "axis1": {"name": "q", "min": 0.0, "max": 1.0, "steps": 2},
    "axis2": {"name": "tau0", "min": 0.5, "max": 1.5, "steps": 3},
    "fixed": {"q": 0.5, "q1": 0.5, "q2": 0.5, "tau0": 1.0, "c": 1.0, "c1": 1.0,
              "c2": 1.0, "c3": 10.0},
    "values": [[-1.0, "-inf", None], [0.5, 1.0, "inf"]],
    "verdicts": [["stable", "stable", "invalid"], ["unstable"] * 3],
    "flags": [[[], [], ["NonPositiveTimeScale"]], [[], [], []]],
    "metadata": {"band": 1e-6, "created": "2021-01-01T00:00:00+00:00", "eps": 1e-8,
                 "version": "x"},
}

MALFORMED = {
    "fixed_list": ("fixed", []),
    "fixed_string_field": ("fixed", {**_MAP_DOC["fixed"], "q": "x"}),
    "fixed_huge_integer": ("fixed", {**_MAP_DOC["fixed"], "q": 10**400}),
    "metadata_list": ("metadata", []),
    "axis_without_fields": ("axis1", {}),
    "axis_with_extra_field": ("axis2", {**_MAP_DOC["axis2"], "extra": 1}),
    "axis_float_steps": ("axis1", {**_MAP_DOC["axis1"], "steps": 2.0}),
    "axis_huge_integer": ("axis1", {**_MAP_DOC["axis1"], "min": 10**400}),
    "values_number": ("values", 5),
    "values_row_short": ("values", [[-1.0, -0.5, None], [0.5, 1.0]]),
    "values_row_missing": ("values", [[-1.0, -0.5, None]]),
    "values_string_cell": ("values", [[-1.0, -0.5, None], [0.5, 1.0, "x"]]),
    "values_huge_integer": ("values", [[-1.0, -0.5, None], [0.5, 1.0, 10**400]]),
    "verdicts_row_short": ("verdicts", [["stable", "stable", "invalid"], ["unstable"] * 2]),
    "verdicts_unknown": ("verdicts", [["stable", "stable", "invalid"], ["stable", "x", "x"]]),
    "flags_row_short": ("flags", [[[], [], ["NonPositiveTimeScale"]], [[], []]]),
    "flags_two_reasons": ("flags", [[[], [], ["a", "b"]], [[], [], []]]),
    "flags_number_reason": ("flags", [[[], [], [5]], [[], [], []]]),
    "flags_bare_reason": ("flags", [[[], [], "NonPositiveTimeScale"], [[], [], []]]),
}


@pytest.mark.parametrize("text,message", [
    ("[]", "^not a stability map document$"),
    ("null", "^not a stability map document$"),
    ('"x"', "^not a stability map document$"),
    ('{"type": "trajectory"}', "^not a stability map document$"),
    ('{"type": "stability_map"}', "^stability map document has no 'variant' key$"),
    *((json.dumps(_MAP_DOC | {key: value}),
       f"^stability map document has a malformed {key!r} key: ")
      for key, value in MALFORMED.values()),
], ids=["list", "null", "string", "other_type", "missing_key", *MALFORMED])
def test_map_from_json_rejects_a_non_map_document(text, message):
    assert map_from_json(json.dumps(_MAP_DOC)).shape == (2, 3)
    with pytest.raises(ValueError, match=message):
        map_from_json(text)


@pytest.mark.parametrize("fmt", ("csv", "svg"))
def test_a_streamed_map_writes_one_axis1_row_at_a_time(maps, fmt):
    m = maps[0]
    n1, n2 = m.shape
    writes = _streamed(getattr(m, f"to_{fmt}"))
    rows = [w for w in writes if _lines(w) == n2]
    assert len(rows) == n1
    assert max(map(_lines, writes)) == n2


def test_export_map_rejects_an_unknown_format_before_writing(maps):
    stream = _Recorder()
    with pytest.raises(ValueError) as refusal:
        export_map(maps[0], "xml", stream)
    assert str(refusal.value) == "unknown format 'xml'; choose from ('csv', 'json', 'svg')"
    assert stream.writes == []


# ----------------------------------------------------- trajectories, paths

def _partial(error, variant, params, initial, step):
    with pytest.raises(error) as err:
        integrate(variant, params, np.array(initial), SimConfig(step=step, horizon=100.0))
    return err.value.partial


def _trajectories():
    return [
        # a stage state leaves the blow-up guard
        _partial(BlowUp, LIQUIDITY_2X2, ModelParams(q=3.6, tau0=1.5, c=1.2),
                 [0.885, 1.0], 0.01),
        # a growing spiral drives P into the price floor
        _partial(StateOutOfDomain, SENTIMENT_3X3,
                 ModelParams(q=2.0, q1=1.0, tau0=1.0, c=1.0, c1=1.0),
                 [1.0001, 1.0, 0.0], 0.002),
        # a completed run that ends on a partial step
        integrate(FULL_5X5, ModelParams(), np.array([1.01, 1.0, 1.0, 0.0, 0.0]),
                  SimConfig(step=0.01, horizon=20.005)),
    ]


def test_a_streamed_trajectory_has_the_bytes_of_its_text():
    for traj in _trajectories():
        assert len(traj.times) > CSV_ROWS_PER_WRITE
        text = traj.to_csv()
        assert text == "t," + ",".join(traj.variant.labels) + "\n" + "".join(
            f"{t:.17g}," + ",".join(f"{x:.17g}" for x in row) + "\n"
            for t, row in zip(traj.times, traj.states))
        writes = _streamed(traj.to_csv)
        assert "".join(writes) == text
        assert max(map(_lines, writes)) == CSV_ROWS_PER_WRITE
        assert len(writes) == 1 + math.ceil(len(traj.times) / CSV_ROWS_PER_WRITE)


def test_a_streamed_gbm_path_has_the_bytes_of_its_text():
    params = GbmParams(mu=0.01, sigma=0.02, dt=0.3, n=2500, seed=4)
    path = gbm_simulate(params, p0=1.7)
    text = gbm_path_csv(params, path)
    assert text == _reference_gbm_csv(params, path)
    writes = _streamed(gbm_path_csv, params, path)
    assert "".join(writes) == text
    assert max(map(_lines, writes)) == PATH_ROWS_PER_WRITE


# ---------------------------------------------------------- memory guards
# Streaming holds a bounded chunk of text, never the whole export: these
# fail when an exporter builds its whole text before writing it.

STREAM_PEAK_BYTES = 1 << 20


def _peak_bytes(export, *args):
    tracemalloc.start()
    try:
        export(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _lattice_map(n):
    """n x n cells; about 9 MB of CSV at n = 401."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal((n, n))
    codes = np.where(values > 0.0, UNSTABLE, STABLE).astype(np.int8)
    spec = SweepSpec(FULL_5X5, ModelParams(), Axis("q", 0.0, 5.0, n),
                     Axis("tau0", 0.5, 2.0, n), Method.EIGEN)
    return StabilityMap(spec=spec, values=values, codes=codes,
                        reasons=np.full((n, n), None, dtype=object),
                        metadata={"created": "2021-01-01T00:00:00+00:00", "version": "x",
                                  "eps": 1e-8, "band": 1e-9})


def test_streaming_a_long_trajectory_holds_a_bounded_chunk():
    rows = 200_001
    traj = Trajectory(FULL_5X5, np.arange(rows) * 0.005,
                      np.random.default_rng(1).standard_normal((rows, 5)))
    assert _peak_bytes(traj.to_csv, _Discard()) < STREAM_PEAK_BYTES


@pytest.mark.parametrize("fmt", ("csv", "svg"))
def test_streaming_a_large_map_holds_one_row(fmt):
    big_map = _lattice_map(401)
    assert _peak_bytes(export_map, big_map, fmt, _Discard()) < STREAM_PEAK_BYTES


def test_streaming_a_long_gbm_path_holds_a_bounded_chunk():
    params = GbmParams(sigma=0.02, n=200_000, seed=2)
    path = gbm_simulate(params)
    assert _peak_bytes(gbm_path_csv, params, path, _Discard()) < STREAM_PEAK_BYTES


def test_streaming_json_holds_no_copy_of_the_text():
    # json.dump's document is as large as the map; only the text is saved
    lattice = _lattice_map(101)
    text = lattice.to_json()
    streamed = _peak_bytes(lattice.to_json, _Discard())
    assert streamed + len(text) <= _peak_bytes(lattice.to_json)


def test_write_json_spells_nan_and_inf_as_the_verbs_and_maps_did():
    doc = {"b": {"t": (1.5, math.nan, -math.inf), "z": -0.0}, "a": [math.inf, 3, "s"]}

    def refuse(token):
        raise ValueError(f"non-standard token {token}")

    for nan in ("nan", None):
        sanitized = {"b": {"t": [1.5, nan, "-inf"], "z": -0.0}, "a": ["inf", 3, "s"]}
        stream = io.StringIO()
        write_json(doc, stream, nan)
        text = stream.getvalue()
        assert text == json.dumps(sanitized, sort_keys=True, indent=2) + "\n"
        assert json.loads(text, parse_constant=refuse) == sanitized
