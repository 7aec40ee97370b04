"""Two-parameter stability sweeps and their serialized maps.

A sweep evaluates a verdict on an inclusive rectangular lattice, either from
eigenvalues of the closed-form Jacobian or from the variant's closed-form
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
    Axis,
    Method,
    ModelParams,
    SweepSpec,
    Variant,
    check_dead_band,
    timestamp,
)
from .stability import Verdict


@dataclass(frozen=True, eq=False)
class StabilityMap:
    """Sweep result: verdict, stored value, and flags per lattice cell.

    The stored value is max Re(lambda) under the eigen method and the
    criterion margin under the closed-form method; Invalid cells store NaN
    and carry a reason flag.
    """

    spec: SweepSpec
    values: np.ndarray
    verdicts: tuple[tuple[Verdict, ...], ...]
    flags: tuple[tuple[tuple[str, ...], ...], ...]
    metadata: dict

    @property
    def shape(self) -> tuple[int, int]:
        return self.spec.axis1.steps, self.spec.axis2.steps

    def __eq__(self, other) -> bool:
        if not isinstance(other, StabilityMap):
            return NotImplemented
        return (
            self.spec == other.spec
            and np.array_equal(self.values, other.values, equal_nan=True)
            and self.verdicts == other.verdicts
            and self.flags == other.flags
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
        for x, values, verdicts in zip(self.spec.axis1.values().tolist(), self.values,
                                       self.verdicts):
            out.write("".join([f"{x:.17g},{y},{v:.17g},{verdict.value}\n"
                               for y, v, verdict in zip(a2, values.tolist(), verdicts)]))
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
            "verdicts": [[v.value for v in row] for row in self.verdicts],
            "flags": [[list(cell) for cell in row] for row in self.flags],
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
        colors = {
            Verdict.STABLE: "#2166ac",
            Verdict.MARGINAL: "#fee08b",
            Verdict.UNSTABLE: "#b2182b",
            Verdict.INVALID: "#bdbdbd",
        }
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
        for i, verdicts in enumerate(self.verdicts):
            # axis1 runs left to right, axis2 bottom to top
            out.write("".join([
                f'<rect x="{i * cell}" y="{(n2 - 1 - j) * cell}" width="{cell}" '
                f'height="{cell}" fill="{colors[verdict]}"/>\n'
                for j, verdict in enumerate(verdicts)]))
        out.write("</svg>\n")
        return out.getvalue() if stream is None else None


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
    values = result.values
    verdicts = result.verdicts
    flags = [() if error is None else (error.__name__,) for error in result.errors]
    for i in np.flatnonzero(q_negative):
        values[i] = np.nan
        verdicts[i] = Verdict.INVALID
        flags[i] = ("q_negative_from_K",)

    n1, n2 = spec.axis1.steps, spec.axis2.steps
    return StabilityMap(
        spec=spec,
        values=values.reshape(n1, n2),
        verdicts=tuple(tuple(verdicts[i * n2:(i + 1) * n2]) for i in range(n1)),
        flags=tuple(tuple(flags[i * n2:(i + 1) * n2]) for i in range(n1)),
        metadata=metadata,
    )


def boundary_cells(stability_map: StabilityMap) -> list[tuple[int, int]]:
    """Cells sitting on a verdict frontier, in row-major order.

    A cell qualifies when it is not Invalid and some 4-neighbour holds a
    different verdict that is also not Invalid; both sides of a frontier
    qualify.
    """
    n1, n2 = stability_map.shape
    verdicts = stability_map.verdicts
    out = []
    for i in range(n1):
        for j in range(n2):
            mine = verdicts[i][j]
            if mine is Verdict.INVALID:
                continue
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ni, nj = i + di, j + dj
                if not (0 <= ni < n1 and 0 <= nj < n2):
                    continue
                other = verdicts[ni][nj]
                if other is not Verdict.INVALID and other is not mine:
                    out.append((i, j))
                    break
    return out


def export_map(stability_map: StabilityMap, fmt: str,
               stream: TextIO | None = None) -> str | None:
    """Serialize a map as 'csv', 'json', or 'svg': to ``stream`` when given
    (returning None), else as the returned text."""
    if fmt == "csv":
        return stability_map.to_csv(stream)
    if fmt == "json":
        return stability_map.to_json(stream)
    if fmt == "svg":
        return stability_map.to_svg(stream)
    raise ValueError(f"unknown format {fmt!r}; choose csv, json, or svg")


def map_from_json(text: str) -> StabilityMap:
    """Inverse of StabilityMap.to_json, reconstructing an equal map.

    Keys it does not read are ignored, so maps written by earlier versions,
    which carry one more key, still load.  A document that is not a JSON
    object of type "stability_map", or one that lacks a key the map needs,
    raises ValueError.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("type") != "stability_map":
        raise ValueError("not a stability map document")
    try:
        spec = SweepSpec(
            variant=Variant(doc["variant"]),
            fixed=ModelParams(**{k: _NON_FINITE.get(v, v) for k, v in doc["fixed"].items()}),
            axis1=Axis(**doc["axis1"]),
            axis2=Axis(**doc["axis2"]),
            method=Method(doc["method"]),
        )
        values = np.array(
            [[_NON_FINITE.get(v, v) for v in row] for row in doc["values"]]
        )
        verdicts = tuple(tuple(Verdict(v) for v in row) for row in doc["verdicts"])
        flags = tuple(
            tuple(tuple(cell) for cell in row) for row in doc["flags"]
        )
        metadata = {k: _NON_FINITE.get(v, v) for k, v in doc["metadata"].items()}
    except KeyError as missing:
        raise ValueError(f"stability map document has no {missing} key") from None
    return StabilityMap(
        spec=spec, values=values, verdicts=verdicts, flags=flags, metadata=metadata,
    )
