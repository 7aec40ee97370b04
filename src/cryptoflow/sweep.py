"""Two-parameter stability sweeps and their serialized maps.

A sweep evaluates a verdict on an inclusive rectangular lattice, either from
eigenvalues of the equilibrium Jacobian or from the variant's closed-form
criterion.  All cells go through one batched evaluation
(``criteria.evaluate_points``).  Cells that cannot be evaluated (invalid
parameters, out of scope, no solvable spectrum) become Invalid cells instead
of aborting the sweep.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np

from . import __version__
from .criteria import closed_forms, evaluate_points
from .inputs import (
    DEFAULT_BAND,
    DEFAULT_EPS,
    FORMATS,
    Axis,
    Method,
    ModelParams,
    SweepSpec,
    Variant,
    check_dead_band,
    timestamp,
)
from .stability import INVALID, VERDICTS, Verdict


@dataclass(frozen=True, eq=False)
class StabilityMap:
    """Sweep result: value, verdict code and Invalid reason per lattice cell.

    Arrays are shaped (axis1 steps, axis2 steps).  ``values`` holds max
    Re(lambda) (eigen method) or the criterion margin (closed-form method),
    NaN on Invalid cells; ``codes`` (int8) index ``stability.VERDICTS``;
    ``reasons`` holds what made a cell Invalid, else None.
    """

    spec: SweepSpec
    values: np.ndarray
    codes: np.ndarray
    reasons: np.ndarray
    metadata: dict

    @property
    def shape(self) -> tuple[int, int]:
        return self.spec.axis1.steps, self.spec.axis2.steps

    @property
    def verdicts(self) -> tuple[tuple[Verdict, ...], ...]:
        """The verdict of each cell, one tuple per axis1 row."""
        return tuple(tuple(VERDICTS[code] for code in row) for row in self.codes.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, StabilityMap):
            return NotImplemented
        return (
            self.spec == other.spec
            and np.array_equal(self.values, other.values, equal_nan=True)
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.reasons, other.reasons)
            and self.metadata == other.metadata
        )

    def to_csv(self, stream: TextIO | None = None) -> str | None:
        """Row-major CSV, one line per cell, 17 significant digits.

        Writes to ``stream``, one axis1 row of the lattice per write, and
        returns None; without a stream, returns the text.
        """
        out = io.StringIO() if stream is None else stream
        out.write("axis1,axis2,max_real_or_margin,verdict\n")
        a2 = [f"{y:.17g}" for y in self.spec.axis2.values().tolist()]
        for x, values, codes in zip(self.spec.axis1.values().tolist(), self.values,
                                    self.codes):
            out.write("".join([f"{x:.17g},{y},{v:.17g},{_NAMES[code]}\n"
                               for y, v, code in zip(a2, values.tolist(), codes.tolist())]))
        return out.getvalue() if stream is None else None

    def to_json(self, stream: TextIO | None = None) -> str | None:
        """RFC 8259 JSON of the whole map, which ``map_from_json`` reads back.

        Writes to ``stream`` in ``json.dump``'s chunks and returns None;
        without a stream, returns the text.
        """
        doc = {
            "type": "stability_map",
            "variant": self.spec.variant.value,
            "method": self.spec.method.value,
            "axis1": asdict(self.spec.axis1),
            "axis2": asdict(self.spec.axis2),
            "fixed": {k: _json_number(v) for k, v in asdict(self.spec.fixed).items()},
            "values": [[_json_number(v) for v in row] for row in self.values.tolist()],
            "verdicts": [[_NAMES[code] for code in row] for row in self.codes.tolist()],
            "flags": [[[] if reason is None else [reason] for reason in row]
                      for row in self.reasons.tolist()],
            "metadata": {k: _json_number(v) if isinstance(v, float) else v
                         for k, v in self.metadata.items()},
        }
        out = io.StringIO() if stream is None else stream
        json.dump(doc, out, sort_keys=True, indent=2, allow_nan=False)
        out.write("\n")
        return out.getvalue() if stream is None else None

    def to_svg(self, stream: TextIO | None = None) -> str | None:
        """Minimal heat-map rendering of the verdict lattice.

        Writes to ``stream``, one axis1 row of the lattice per write, and
        returns None; without a stream, returns the text.
        """
        n1, n2 = self.shape
        cell = 8
        width, height = n1 * cell, n2 * cell
        out = io.StringIO() if stream is None else stream
        out.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            f"<title>{self.spec.variant.value} {self.spec.method.value} "
            f"{self.spec.axis1.name} vs {self.spec.axis2.name}</title>\n"
        )
        for i, codes in enumerate(self.codes):
            # axis1 runs left to right, axis2 bottom to top
            out.write("".join([
                f'<rect x="{i * cell}" y="{(n2 - 1 - j) * cell}" width="{cell}" '
                f'height="{cell}" fill="{_COLORS[code]}"/>\n'
                for j, code in enumerate(codes.tolist())]))
        out.write("</svg>\n")
        return out.getvalue() if stream is None else None


# Indexed by verdict code: the name each exporter writes and the SVG fill.
_NAMES = tuple(verdict.value for verdict in VERDICTS)
_COLORS = ("#2166ac", "#fee08b", "#b2182b", "#bdbdbd")

# RFC 8259 JSON has no NaN or infinity: a map writes NaN as null and +-inf as
# the strings the other verbs use, and map_from_json reads them back.
_NON_FINITE = {None: math.nan, "inf": math.inf, "-inf": -math.inf}


def _json_number(x: float) -> float | str | None:
    if math.isnan(x):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _cell_params(spec: SweepSpec) -> tuple[ModelParams, np.ndarray]:
    """Parameters of every cell in row-major order (fields no axis writes
    stay floats), and the cells whose K axis value leaves q negative."""
    n1, n2 = spec.axis1.steps, spec.axis2.steps
    columns = asdict(spec.fixed)
    q_negative = np.zeros(n1 * n2, dtype=bool)
    for axis, values in ((spec.axis1, np.repeat(spec.axis1.values(), n2)),
                         (spec.axis2, np.tile(spec.axis2.values(), n1))):
        # A value that overflows to inf makes its cell Invalid (NonFiniteParameter).
        with np.errstate(over="ignore"):
            if axis.name == "K":
                # K sweeps q while q1 is held at its fixed value.
                values = values - 2.0 * spec.fixed.q1
                q_negative |= values < 0.0
            elif axis.name == "c_over_tau0":
                # The ratio sweeps c while tau0 is held at its fixed value.
                values = values * spec.fixed.tau0
        for name in axis.fields(spec.variant):
            columns[name] = values
    return ModelParams(**columns), q_negative


def run_sweep(
    spec: SweepSpec,
    eps: float = DEFAULT_EPS,
    band: float = DEFAULT_BAND,
) -> StabilityMap:
    """Evaluate every cell of the sweep lattice in one batch.

    Raises:
        ValueError: ``eps`` or ``band`` is negative, NaN or infinite.
    """
    check_dead_band("eps", eps)
    check_dead_band("band", band)
    metadata = {
        "created": timestamp(),
        "version": __version__,
        "eps": eps,
        "band": band,
    }
    if "K" in (spec.axis1.name, spec.axis2.name):
        metadata["k_axis_holds_q1"] = spec.fixed.q1
    if "c_over_tau0" in (spec.axis1.name, spec.axis2.name):
        metadata["ratio_axis_holds_tau0"] = spec.fixed.tau0

    params, q_negative = _cell_params(spec)
    if spec.method is Method.EIGEN:
        result = evaluate_points(spec.variant, params, None, eps)
    else:
        criterion, _ = closed_forms(spec.variant)[0]
        result = evaluate_points(spec.variant, params, criterion, band)
    reasons = np.full(result.errors.shape, None, dtype=object)
    for error in set(result.errors.tolist()) - {None}:
        reasons[result.errors == error] = error.__name__
    result.values[q_negative] = np.nan
    result.codes[q_negative] = INVALID
    reasons[q_negative] = "q_negative_from_K"

    shape = spec.axis1.steps, spec.axis2.steps
    return StabilityMap(
        spec=spec,
        values=result.values.reshape(shape),
        codes=result.codes.reshape(shape),
        reasons=reasons.reshape(shape),
        metadata=metadata,
    )


def boundary_cells(stability_map: StabilityMap) -> list[tuple[int, int]]:
    """Cells sitting on a verdict frontier, in row-major order.

    A cell qualifies when it is not Invalid and some 4-neighbour holds a
    different verdict that is also not Invalid; both sides of a frontier
    qualify.
    """
    codes = stability_map.codes
    valid = codes != INVALID
    # Frontiers between neighbours along axis1, then along axis2.
    rows = (codes[1:] != codes[:-1]) & valid[1:] & valid[:-1]
    columns = (codes[:, 1:] != codes[:, :-1]) & valid[:, 1:] & valid[:, :-1]
    on = np.zeros(codes.shape, dtype=bool)
    on[1:] |= rows
    on[:-1] |= rows
    on[:, 1:] |= columns
    on[:, :-1] |= columns
    return list(map(tuple, np.argwhere(on).tolist()))


def export_map(stability_map: StabilityMap, fmt: str,
               stream: TextIO | None = None) -> str | None:
    """Serialize a map in a format of ``FORMATS`` by its ``to_{fmt}`` method:
    to ``stream`` when given (returning None), else as the returned text."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")
    return getattr(stability_map, f"to_{fmt}")(stream)


def map_from_json(text: str) -> StabilityMap:
    """Inverse of StabilityMap.to_json, reconstructing an equal map.

    Keys it does not read are ignored, so maps written by earlier versions,
    which carry one more key, still load.  A document that is not a JSON
    object of type "stability_map" raises ValueError, and so does a map
    document that lacks a key the map needs or holds a malformed one (a
    value of the wrong type, a number that does not convert to a float, or
    a lattice not of the axes' shape), naming the key.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("type") != "stability_map":
        raise ValueError("not a stability map document")

    def read(key, parse, *args):
        if key not in doc:
            raise ValueError(f"stability map document has no {key!r} key")
        try:
            return parse(doc[key], *args)
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"stability map document has a malformed {key!r} key: {exc}") from None

    spec = SweepSpec(
        variant=read("variant", Variant),
        fixed=read("fixed", lambda d: ModelParams(**{k: _number(v) for k, v in d.items()})),
        axis1=read("axis1", lambda d: Axis(**d)),
        axis2=read("axis2", lambda d: Axis(**d)),
        method=read("method", Method),
    )
    shape = spec.axis1.steps, spec.axis2.steps
    return StabilityMap(
        spec=spec,
        values=read("values", _lattice, shape, _number, float),
        codes=read("verdicts", _lattice, shape, lambda v: VERDICTS.index(Verdict(v)),
                   np.int8),
        reasons=read("flags", _lattice, shape, _reason, object),
        metadata=read("metadata",
                      lambda d: {k: _NON_FINITE.get(v, v) for k, v in d.items()}),
    )


def _number(v) -> float:
    """A JSON number, or the token ``_json_number`` writes for NaN or +-inf."""
    v = _NON_FINITE.get(v, v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    float(v)  # an int beyond the float range raises OverflowError
    return v  # an int stays an int, so the map writes it back as read


def _reason(cell: list) -> str | None:
    match cell:
        case []:
            return None
        case [str(reason)]:
            return reason
    raise ValueError(f"a flags cell holds [] or one reason, got {cell!r}")


def _lattice(rows: list, shape: tuple[int, int], cell, dtype) -> np.ndarray:
    """Nested JSON lists as an array of ``shape``, each cell read by ``cell``."""
    cells = [[cell(v) for v in row] for row in rows]
    if len(cells) != shape[0] or any(len(row) != shape[1] for row in cells):
        raise ValueError(f"expected {shape[0]} rows of {shape[1]} cells")
    return np.array(cells, dtype=dtype)
