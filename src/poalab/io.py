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


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


SWEEP_COLUMNS = ("seed", "kind", "dist", "dist_err", "base_poa", "pert_poa",
                 "delta", "cert_bound")


def write_sweep_csv(records, path) -> None:
    rows = sorted(records, key=lambda r: (r.seed, r.radius))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_COLUMNS)
        for r in rows:
            writer.writerow([
                r.seed, r.kind, _fmt(r.dist.value), _fmt(r.dist.error_bound),
                _fmt(r.base_poa), _fmt(r.pert_poa), _fmt(r.delta),
                _fmt(r.certificate_bound),
            ])


def read_sweep_csv(path) -> list[SweepRecord]:
    """Sweep records of a sweep CSV, which has no radius, dist parts (NaN) or solve_tol (0)."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != SWEEP_COLUMNS:
            raise InputError("schema", f"{path}: expected columns {SWEEP_COLUMNS}")
        for row in reader:
            out.append(SweepRecord(
                seed=int(row["seed"]),
                kind=row["kind"],
                radius=math.nan,
                dist=MetricValue(float(row["dist"]), math.nan, math.nan, float(row["dist_err"])),
                base_poa=float(row["base_poa"]),
                pert_poa=float(row["pert_poa"]) if row["pert_poa"] else math.nan,
                delta=float(row["delta"]) if row["delta"] else math.nan,
                certificate_bound=float(row["cert_bound"]) if row["cert_bound"] else None,
                solve_tol=0.0,
            ))
    return out


RATE_COLUMNS = ("T", "poa_minus_one", "bound")


def write_rate_csv(points, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RATE_COLUMNS)
        for p in points:
            writer.writerow([_fmt(p.total_demand), _fmt(p.poa_minus_one), _fmt(p.bound)])


def read_rate_csv(path) -> list[RatePoint]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != RATE_COLUMNS:
            raise InputError("schema", f"{path}: expected columns {RATE_COLUMNS}")
        for row in reader:
            out.append(RatePoint(
                total_demand=float(row["T"]),
                poa_minus_one=float(row["poa_minus_one"]),
                bound=float(row["bound"]) if row["bound"] else None,
            ))
    return out


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
