"""File formats: CSV prediction matrices, JSON population models, utility specs."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .audit import PopulationModel
from .errors import ValidationError
from .types import PredictionMatrix, UtilitySpec


def load_prediction_matrix(path) -> PredictionMatrix:
    """Load a CSV matrix: one row per individual, one probability column per label.

    An optional header row `label_1,...,label_L` is accepted and skipped; a first
    row counts as a header only when none of its cells parses as a number.
    Errors name the offending row (1-based data row) and column.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    with path.open(newline="") as fh:
        records = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    if not records:
        raise ValidationError(f"{path}: empty file")
    if not any(_is_number(cell) for cell in records[0]):
        records = records[1:]
        if not records:
            raise ValidationError(f"{path}: header but no data rows")

    width = len(records[0])
    rows = np.empty((len(records), width))
    for r, record in enumerate(records, start=1):
        if len(record) != width:
            raise ValidationError(
                f"{path}: row {r} has {len(record)} columns, expected {width}"
            )
        for c, cell in enumerate(record, start=1):
            try:
                rows[r - 1, c - 1] = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: row {r}, column {c}: cannot parse '{cell.strip()}'"
                ) from None
    try:
        return PredictionMatrix(rows)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_population_model(path) -> PopulationModel:
    """Load a JSON population model.

    Schema:
      {
        "labels": L,
        "types": [{"name", "weight", "groundTruth": [...], "predicted": [...]}],
        "groups": [{"name", "members": [type names]}]
      }
    The full-domain group is added automatically if absent.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    return population_model_from_dict(doc, source=str(path))


def population_model_from_dict(doc: dict, source: str = "population model") -> PopulationModel:
    """Build a population model from a parsed JSON document; errors count types from 1."""
    types = doc.get("types") if isinstance(doc, dict) else None
    if not isinstance(types, list) or not types:
        raise ValidationError(f"{source}: 'types' must be a nonempty list")
    L = doc.get("labels")
    names, weights, gt, pred = [], [], [], []
    for idx, t in enumerate(types, start=1):
        if not isinstance(t, dict):
            raise ValidationError(f"{source}: type {idx} must be an object, got {t!r}")
        for key in ("name", "weight", "groundTruth", "predicted"):
            if key not in t:
                raise ValidationError(f"{source}: type {idx} is missing '{key}'")
        names.append(str(t["name"]))
        for key, out in (("weight", weights), ("groundTruth", gt), ("predicted", pred)):
            try:
                out.append(float(t[key]) if key == "weight" else [float(v) for v in t[key]])
            except (TypeError, ValueError):
                raise ValidationError(f"{source}: type {idx}: '{key}' is not numeric: {t[key]!r}") from None
        L = len(gt[-1]) if L is None else L
        if len(gt[-1]) != L or len(pred[-1]) != L:
            raise ValidationError(f"{source}: type '{names[-1]}' has {len(gt[-1])} labels, expected {L}")
    if len(set(names)) != len(names):
        raise ValidationError(f"{source}: duplicate type names")

    by_name = {name: i for i, name in enumerate(names)}
    groups = {}
    for g in doc.get("groups", []):
        if not isinstance(g, dict) or "name" not in g or "members" not in g:
            raise ValidationError(f"{source}: each group needs 'name' and 'members'")
        members = []
        for m in g["members"]:
            if str(m) not in by_name:
                raise ValidationError(f"{source}: group '{g['name']}' references unknown type '{m}'")
            members.append(by_name[str(m)])
        groups[str(g["name"])] = tuple(members)
    try:
        return PopulationModel(
            type_names=tuple(names),
            weights=np.array(weights),
            ground_truth=np.array(gt),
            predicted=np.array(pred),
            groups=groups,
        )
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from None


def load_utility_spec(n: int, L: int, values: str | None, weights: str | None) -> UtilitySpec:
    """Build a utility spec from CLI-style arguments.

    `values` is a comma-separated list (default 1..L); `weights` is either
    'dcg' (default) or a path to a file with one weight per line.
    """
    if values is None:
        v = np.arange(1, L + 1, dtype=np.float64)
    else:
        try:
            v = np.array([float(x) for x in values.split(",")])
        except ValueError:
            raise ValidationError(f"cannot parse label values '{values}'") from None
        if v.size != L:
            raise ValidationError(f"got {v.size} label values for L={L} labels")
    if weights is None or weights == "dcg":
        return UtilitySpec.dcg(n, label_values=v)
    wpath = Path(weights)
    if not wpath.exists():
        raise ValidationError(f"no such weights file: {wpath}")
    try:
        w = np.array([float(line) for line in wpath.read_text().split()])
    except ValueError:
        raise ValidationError(f"{wpath}: cannot parse position weights") from None
    if w.size < n:
        raise ValidationError(f"{wpath}: {w.size} position weights for n={n} individuals")
    return UtilitySpec(v, w[:n])


def serialize_structured(payload: dict) -> str:
    """Deterministic JSON for audit artifacts: sorted keys, full float precision."""
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(obj):
    """Plain Python values for numpy arrays and scalars; json handles the rest."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def format_matrix(M: np.ndarray, precision: int = 6) -> str:
    """Aligned human-readable matrix table."""
    cells = [[f"{v:.{precision}f}" for v in row] for row in np.asarray(M)]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)
