"""File formats: CSV datasets, JSON models/graphs/configs, CSV exports.

All schemas are documented with worked examples in FORMATS.md. JSON floats
are written with Python's shortest round-trip representation, so a saved and
reloaded structure is bit-for-bit identical. Angle CSVs hold trials in rows
and channels in columns.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circular import wrap_angle
from .exceptions import DomainError, ParseError, SchemaError
from .inference import CORRECTIONS, MODES, EdgeTest, _graph_of
from .model import Family, TorusGraphParams, param_dim
from .simulation import GeneratorSpec

SCHEMA_VERSION = 1

UNITS_RADIANS = "radians"
UNITS_DEGREES = "degrees"


@dataclass(frozen=True)
class Dataset:
    """Loaded angle matrix with channel names; values stored wrapped radians."""

    angles: np.ndarray
    channel_names: tuple

    def __post_init__(self):
        angles = np.array(self.angles, dtype=float)
        if angles.ndim != 2:
            raise ParseError("dataset must be a 2-D trials x channels matrix")
        if len(self.channel_names) != angles.shape[1]:
            raise ParseError("channel name count does not match column count")
        if len(set(self.channel_names)) != len(self.channel_names):
            raise ParseError("channel names must be unique")
        angles.flags.writeable = False
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))

    @property
    def n(self):
        return self.angles.shape[0]

    @property
    def d(self):
        return self.angles.shape[1]


def _looks_numeric(cells):
    for c in cells:
        try:
            float(c)
        except ValueError:
            return False
    return True


def load_csv(path, units=UNITS_RADIANS, header="auto", delimiter=","):
    """Read a trials x channels angle CSV.

    Angles are wrapped to [0, 2pi) (converted from degrees first when
    ``units="degrees"``). ``header`` may be True, False, or "auto" (treat the
    first row as names when it does not parse as numbers); generated names
    are "ch01", "ch02", ... Malformed content raises ParseError with the
    offending row/column (1-based, counting the header); so do unknown units
    and a ``delimiter`` that is not exactly one character.
    """
    units = units.lower()
    if units not in (UNITS_RADIANS, UNITS_DEGREES):
        raise ParseError(f"unknown units {units!r}")
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ParseError(f"delimiter must be exactly one character, got {delimiter!r}")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh, delimiter=delimiter):
            if row and not all(c.strip() == "" for c in row):
                rows.append([c.strip() for c in row])
    if not rows:
        raise ParseError(f"{path}: file is empty")
    names = None
    if header == "auto":
        header = not _looks_numeric(rows[0])
    if header:
        if len(rows) < 2:
            raise ParseError(f"{path}: no data rows after the header")
        names = rows[0]
        rows = rows[1:]
        offset = 2
    else:
        offset = 1
    width = len(rows[0])
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(
                f"{path}: expected {width} columns, found {len(row)}", row=i + offset
            )
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell {cell!r}", row=i + offset, column=j + 1
                ) from None
    if not np.all(np.isfinite(data)):
        raise ParseError(f"{path}: non-finite values present")
    if units == UNITS_DEGREES:
        data = np.deg2rad(data)
    if names is None:
        names = [f"ch{j + 1:02d}" for j in range(width)]
    return Dataset(angles=wrap_angle(data), channel_names=tuple(names))


def save_samples_csv(path, angles, channel_names=None):
    """Write an angle matrix as CSV with a header row of channel names."""
    X = np.atleast_2d(np.asarray(angles, dtype=float))
    if channel_names is None:
        channel_names = [f"ch{j + 1:02d}" for j in range(X.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(channel_names)
        for row in X:
            writer.writerow([repr(float(v)) for v in row])


def _require(doc, key, kind=None):
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    # JSON true/false parse as bool, a subclass of int: only a bool field takes them
    if kind is not None and (not isinstance(doc[key], kind)
                             or (isinstance(doc[key], bool) and kind is not bool)):
        raise SchemaError(f"field {key!r} has the wrong type")
    return doc[key]


def _check_version(doc):
    version = _require(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version}")


def params_to_dict(params):
    return {
        "schema_version": SCHEMA_VERSION,
        "d": params.d,
        "family": params.family.value,
        "phi": [float(v) for v in params.phi],
    }


def params_from_dict(doc):
    _check_version(doc)
    d = _require(doc, "d", int)
    family = _require(doc, "family", str)
    phi = _require(doc, "phi", list)
    try:
        family = Family(family)
    except ValueError as exc:
        raise SchemaError(f"unknown family {family!r}") from exc
    if len(phi) != param_dim(d):
        raise SchemaError(f"phi must have {param_dim(d)} entries for d={d}, got {len(phi)}")
    try:
        return TorusGraphParams(d=d, phi=np.array(phi, dtype=float), family=family)
    except Exception as exc:
        raise SchemaError(str(exc)) from exc


def save_model(path, params):
    Path(path).write_text(json.dumps(params_to_dict(params), indent=2) + "\n", encoding="utf-8")


def load_model(path):
    return params_from_dict(_read_json(path))


def graph_to_dict(graph):
    edges = []
    for t in graph.tests:
        j, k = t.edge
        edges.append(
            {
                "j": int(j),
                "k": int(k),
                "x2": float(t.x2),
                "df": int(t.df),
                "p": float(t.p),
                "p_corrected": float(graph.pvals[j, k]),
                "significant": bool(graph.adjacency[j, k]),
                "mode": t.mode,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "d": graph.d,
        "alpha": graph.alpha,
        "correction": graph.correction,
        "edges": edges,
    }


def graph_from_dict(doc):
    _check_version(doc)
    d = _require(doc, "d", int)
    alpha = float(_require(doc, "alpha", (int, float)))
    correction = _require(doc, "correction", str)
    tests, p_corr, significant = [], [], []
    for e in _require(doc, "edges", list):
        tests.append(
            EdgeTest(
                edge=(_require(e, "j", int), _require(e, "k", int)),
                x2=float(_require(e, "x2", (int, float))),
                df=int(_require(e, "df", int)),
                p=float(_require(e, "p", (int, float))),
                mode=e.get("mode", "full"),
            )
        )
        p_corr.append(float(_require(e, "p_corrected", (int, float))))
        significant.append(_require(e, "significant", bool))
    try:
        return _graph_of(d, tests, p_corr, significant, alpha, correction)
    except Exception as exc:
        raise SchemaError(str(exc)) from exc


def save_graph(path, graph):
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2) + "\n", encoding="utf-8")


def load_graph(path):
    return graph_from_dict(_read_json(path))


def save_adjacency_csv(path, graph, channel_names=None):
    """Adjacency matrix as 0/1 CSV with channel names in header and row labels."""
    names = list(channel_names) if channel_names else [f"ch{j + 1:02d}" for j in range(graph.d)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + names)
        for j in range(graph.d):
            writer.writerow([names[j]] + [int(v) for v in graph.adjacency[j]])


def save_density_csv(path, grids):
    """Write named density grids sharing one support: columns w, then names."""
    names = list(grids)
    support = grids[names[0]].support
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w"] + names)
        for i, w in enumerate(support):
            writer.writerow([repr(float(w))] + [repr(float(grids[n].values[i])) for n in names])


def load_groups(path):
    """Read a named channel-grouping JSON: {"groups": {name: [indices...]}}.

    Each group is a nonempty list of integer channel indices (JSON true/false
    are not indices), and no channel is listed twice, in one group or two.
    """
    doc = _read_json(path)
    _check_version(doc)
    groups = _require(doc, "groups", dict)
    out = {}
    owner = {}
    for name, members in groups.items():
        if not isinstance(members, list) or not members:
            raise SchemaError(f"group {name!r} must be a nonempty list")
        if not all(isinstance(m, int) and not isinstance(m, bool) for m in members):
            raise SchemaError(f"group {name!r} must list integer channel indices")
        for m in members:
            if owner.get(m) == name:
                raise SchemaError(f"group {name!r} lists channel {m} twice")
            if owner.setdefault(m, name) != name:
                raise SchemaError(f"groups {owner[m]!r} and {name!r} share channel {m}; "
                                  "groups must be disjoint")
        out[name] = list(members)
    return out


def load_experiment_config(path):
    """Read a benchmark configuration; returns (GeneratorSpec, settings dict).

    Unknown generator kinds, missing or unknown generator options, option
    values of the wrong type (:class:`GeneratorSpec`) and a non-integer ``d``
    or Gibbs setting are SchemaError; values out of range
    (d < 2, alpha outside (0, 1), burn_in < 0, thin < 1) are DomainError, as
    is a negative seed (raised by ``draw_replicates``), all before any data is
    drawn.
    """
    doc = _read_json(path)
    _check_version(doc)
    gen_doc = _require(doc, "generator", dict)
    kind = _require(gen_doc, "kind", str)
    if kind not in GeneratorSpec._KINDS:
        raise SchemaError(f"unknown generator kind {kind!r}; expected one of {GeneratorSpec._KINDS}")
    options = {k: v for k, v in gen_doc.items() if k != "kind"}
    if "d" in options:
        _require(options, "d", int)
    spec = GeneratorSpec(kind=kind, options=options)  # checks the option names and values
    settings = {
        "n_reps": _require(doc, "n_reps", int),
        "N": _require(doc, "N", int),
        "alpha": float(_require(doc, "alpha", (int, float))),
        "correction": _require(doc, "correction", str),
        "seed": _require(doc, "seed", int),
        "methods": doc.get("methods", ["torus", "plv"]),
        "family": doc.get("family", "full"),
        "mode": doc.get("mode", "full"),
    }
    if not isinstance(settings["methods"], list) or not settings["methods"]:
        raise SchemaError("methods must be a nonempty list")
    for m in settings["methods"]:
        if m not in ("torus", "plv"):
            raise SchemaError(f"unknown method {m!r}")
    if settings["correction"] not in CORRECTIONS:
        raise SchemaError(f"unknown correction {settings['correction']!r}")
    if not 0 < settings["alpha"] < 1:
        raise DomainError(f"alpha must be in (0, 1), got {settings['alpha']!r}")
    try:
        Family(settings["family"])
    except ValueError as exc:
        raise SchemaError(f"unknown family {settings['family']!r}") from exc
    if settings["mode"] not in MODES:
        raise SchemaError(f"unknown mode {settings['mode']!r}")
    return spec, settings


def save_experiment_results(out_dir, results):
    """Write benchmark outputs: summary.json plus one ROC CSV per method."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"schema_version": SCHEMA_VERSION, "methods": {}}
    for method, res in results.items():
        summary["methods"][method] = {
            "auc": _json_float(res.auc),
            "fpr_at_alpha": _json_float(res.fpr_at_alpha),
            "fnr_at_alpha": _json_float(res.fnr_at_alpha),
            "n_reps": res.n_reps,
            "param_mse": _json_float(res.param_mse) if res.param_mse is not None else None,
        }
        with open(out / f"roc_{method}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fpr", "tpr"])
            for fpr, tpr in res.roc:
                writer.writerow([repr(float(fpr)), repr(float(tpr))])
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return out / "summary.json"


def _json_float(v):
    v = float(v)
    return None if math.isnan(v) else v


def _read_json(path):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level JSON value must be an object")
    return doc
