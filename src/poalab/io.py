"""Game-spec files, result persistence, and run manifests.

Games travel as versioned JSON documents (``"schema": 1``): a structure block
with arcs and per-O/D entries (id, demand, explicit paths as arc lists) and a
costs block mapping each arc to its cost's ``family`` name and dataclass
fields as params.  Sweep and rate results are written as plain CSV with fixed
column contracts so that any plotting tool can consume them; rows are sorted
and floats use shortest round-trip formatting, which makes repeated runs
byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .convergence import RatePoint
from .costs import FAMILIES, CostFunction
from .games import Game, GameValidationError, Structure
from .metric import MetricValue
from .sensitivity import SweepRecord
from .solvers import TOL

__all__ = [
    "InputError",
    "cost_to_dict",
    "cost_from_dict",
    "game_to_dict",
    "game_from_dict",
    "load_game",
    "save_game",
    "write_sweep_csv",
    "read_sweep_csv",
    "write_rate_csv",
    "read_rate_csv",
    "RunManifest",
]

SCHEMA_VERSION = 1


InputError = GameValidationError  # one input-error class: `code` names schema or game failures


def cost_to_dict(cost: CostFunction) -> dict:
    if cost.family is None:
        raise InputError("schema", f"unsupported cost family {type(cost).__name__}")
    return {"family": cost.family,
            "params": {f.name: _param_to_json(getattr(cost, f.name)) for f in fields(cost)}}


def _param_to_json(value):
    if isinstance(value, CostFunction):
        return cost_to_dict(value)
    return list(value) if isinstance(value, tuple) else value


def cost_from_dict(doc: dict, where: str = "costs") -> CostFunction:
    """A cost from its JSON document; a param typed CostFunction is a nested document."""
    try:
        family = doc["family"]
        params = doc.get("params", {})
        cls = FAMILIES.get(family)
        if cls is not None:
            return cls(**{f.name: cost_from_dict(params[f.name], where)
                          if f.type == "CostFunction" else params[f.name]
                          for f in fields(cls)})
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("schema", f"{where}: bad cost definition: {exc}") from exc
    raise InputError("schema", f"{where}: unknown cost family {family!r}")


def game_to_dict(game: Game) -> dict:
    st = game.structure
    return {
        "schema": SCHEMA_VERSION,
        "structure": {
            "arcs": list(st.arcs),
            "od_pairs": [
                {
                    "id": st.od_pairs[k],
                    "demand": float(game.demands[k]),
                    "paths": [list(p) for p in st.paths[k]],
                }
                for k in range(len(st.od_pairs))
            ],
        },
        "costs": {arc: cost_to_dict(c) for arc, c in zip(st.arcs, game.costs)},
    }


def game_from_dict(doc: dict) -> Game:
    if not isinstance(doc, dict):
        raise InputError("schema", "top level must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise InputError("schema", f"expected \"schema\": {SCHEMA_VERSION}")
    try:
        st_doc = doc["structure"]
        arcs = [str(a) for a in st_doc["arcs"]]
        od_docs = st_doc["od_pairs"]
        od_ids = [str(od["id"]) for od in od_docs]
        demands = [float(od["demand"]) for od in od_docs]
        paths = tuple(tuple(tuple(str(a) for a in p) for p in od["paths"])
                      for od in od_docs)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("schema", f"structure: {exc}") from exc
    structure = Structure(tuple(arcs), tuple(od_ids), paths)
    costs_doc = doc.get("costs")
    if not isinstance(costs_doc, dict):
        raise InputError("schema", "costs: must map each arc to a cost definition")
    missing = [a for a in arcs if a not in costs_doc]
    if missing:
        raise InputError("schema", f"costs: missing arcs {missing}")
    costs = tuple(cost_from_dict(costs_doc[a], where=f"costs[{a!r}]") for a in arcs)
    return Game(structure, costs, np.asarray(demands))


def load_game(path) -> Game:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError as exc:
        raise InputError("schema", f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            "schema", f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return game_from_dict(doc)


def save_game(game: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(game_to_dict(game), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _optional(empty):  # the reader of a float column whose empty cell reads `empty`
    return lambda cell: float(cell) if cell else empty


# a table's columns as (name, cell reader); a float column's cells are written by _fmt
_NAN, _NONE = _optional(math.nan), _optional(None)
SWEEP_COLUMNS = (("seed", int), ("kind", str), ("dist", _NAN), ("dist_err", _NAN),
                 ("base_poa", _NAN), ("pert_poa", _NAN), ("delta", _NAN), ("cert_bound", _NONE))
RATE_COLUMNS = (("T", _NAN), ("poa_minus_one", _NAN), ("bound", _NONE))


def _fmt(name: str, read, value: float | None) -> str:
    """A float cell in shortest round-trip form; None or NaN only as the empty cell of a
    column that reads it back as that value, else a ValueError that names the column."""
    if value is not None and value == value:
        return repr(float(value))
    empty = read("")
    if not (empty is value or (empty != empty and value != value)):  # None, or NaN for NaN
        raise ValueError(f"column {name!r} cannot hold {value!r}: its empty cell reads {empty!r}")
    return ""


def _write_table(path, columns, rows) -> None:
    """A CSV of the columns' names, then one line per row, written once every cell is formed."""
    lines = [[v if read in (int, str) else _fmt(name, read, v)
              for (name, read), v in zip(columns, row)] for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([name for name, _ in columns])
        writer.writerows(lines)


def _read_table(path, columns) -> list[dict]:
    """The rows of a CSV of exactly these columns, each a dict of its cells as read."""
    names = tuple(name for name, _ in columns)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != names:
            raise InputError("schema", f"{path}: expected columns {names}")
        return [{name: read(row[name]) for name, read in columns} for row in reader]


def write_sweep_csv(records, path) -> None:
    _write_table(path, SWEEP_COLUMNS, [
        (r.seed, r.kind, r.dist.value, r.dist.error_bound, r.base_poa, r.pert_poa, r.delta,
         r.certificate_bound) for r in sorted(records, key=lambda r: (r.seed, r.radius))])


def read_sweep_csv(path) -> list[SweepRecord]:
    """Sweep records of a sweep CSV, which has no radius or dist parts (NaN).  Each solve_tol
    is TOL, the loosest a sweep solves at (``_sweep_tol``): no row's fit floor is below its own."""
    return [SweepRecord(
        seed=row["seed"], kind=row["kind"], radius=math.nan,
        dist=MetricValue(row["dist"], math.nan, math.nan, row["dist_err"]),
        base_poa=row["base_poa"], pert_poa=row["pert_poa"], delta=row["delta"],
        certificate_bound=row["cert_bound"], solve_tol=TOL)
        for row in _read_table(path, SWEEP_COLUMNS)]


def write_rate_csv(points, path) -> None:
    _write_table(path, RATE_COLUMNS, [(p.total_demand, p.poa_minus_one, p.bound) for p in points])


def read_rate_csv(path) -> list[RatePoint]:
    return [RatePoint(total_demand=row["T"], poa_minus_one=row["poa_minus_one"],
                      bound=row["bound"]) for row in _read_table(path, RATE_COLUMNS)]


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to experiment outputs."""

    command: str
    seed: int | None
    tolerances: dict
    input_hash: str
    tool_version: str
    timestamp: str

    @classmethod
    def create(cls, command: str, seed: int | None, tolerances: dict,
               input_path) -> "RunManifest":
        digest = hashlib.sha256()
        with open(input_path, "rb") as handle:
            digest.update(handle.read())
        return cls(
            command=command,
            seed=seed,
            tolerances=dict(tolerances),
            input_hash=digest.hexdigest(),
            tool_version=__version__,
            timestamp=datetime.now(timezone.utc).isoformat(),
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(asdict(self), handle, indent=2, sort_keys=True)
            handle.write("\n")
