"""File formats: CSV prediction matrices, JSON population models, utility specs."""

from __future__ import annotations

import csv
import json
import os
import stat
from io import StringIO
from pathlib import Path

import numpy as np

from .audit import PopulationModel
from .errors import ValidationError
from .types import PredictionMatrix, UtilitySpec

# Characters of a report encoded per write: a few hundred kB of bytes at most, which
# the heap reuses, where one encoding of a 12 MB report takes fresh pages each time.
_WRITE_SLICE = 2**16


def load_prediction_matrix(path) -> PredictionMatrix:
    """Load a CSV matrix: one row per individual, one probability column per label.

    An optional header row `label_1,...,label_L` is accepted and skipped; a first
    row counts as a header only when none of its cells parses as a number.
    Errors name the offending row (1-based data row) and column.

    numpy's C reader parses the text; it converts each cell as float() does, bit
    for bit.  A text it refuses (a ragged row, an unparsable or blank row, a lone
    CR line end, a cell such as `1_0` that float() takes) and one whose first line
    holds a lone CR take the csv module, which parses or names the cell.  When the
    first line holds a quote, the csv module reads only the first record, which may
    span lines, for the header rule, and numpy parses the text as before.
    """
    path = Path(path)
    text = _read_text(path, newline="")  # both readers split lines themselves, keeping quoted newlines
    rows = _loadtxt(text)
    if rows is None:
        rows = _parse_csv(path, text)
    try:
        return PredictionMatrix(rows)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _loadtxt(text: str) -> np.ndarray | None:
    """numpy's parse of the text after the header rule, or None when the csv module must decide."""
    if any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        return None  # numpy strips these ASCII separators around a number; float() refuses them
    end = text.find("\n")
    head = text if end < 0 else text[:end].removesuffix("\r")
    if "\r" in head:  # a lone CR ends a csv record
        return None
    if '"' in head:  # a quote may span lines or hide a comma: the csv module reads the first record
        lines = StringIO(text, newline="")
        try:
            record = next(csv.reader(lines), [])
        except csv.Error:
            return None
        if not "".join(record).strip():
            return None  # the csv module skips a blank record and takes the header rule to the next
        rest = text[lines.tell():]
    else:
        # With no quote or CR, the first line is the first csv record.  A blank one, which the csv module
        # skips, is dropped as a header is; numpy refuses a header on the next line, and the csv module decides.
        record, rest = head.split(","), "" if end < 0 else text[end + 1:]
    if not any(_is_number(cell) for cell in record):
        text = rest
    if not text or text.isspace():
        return None  # numpy would warn "input contained no data"
    try:
        return np.loadtxt(StringIO(text), delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=np.float64)
    except ValueError:
        return None


def _parse_csv(path: Path, text: str) -> np.ndarray:
    """The rows of the text as the csv module reads them, raising for an empty file or a bad row."""
    records = [row for row in csv.reader(StringIO(text, newline="")) if "".join(row).strip()]
    if not records:
        raise ValidationError(f"{path}: empty file")
    if not any(_is_number(cell) for cell in records[0]):
        records = records[1:]
        if not records:
            raise ValidationError(f"{path}: header but no data rows")

    try:  # numpy parses str cells as float() does; a ragged or unparsable file takes the loop below
        return np.array(records, dtype=np.float64)
    except ValueError:
        return _parse_cells(path, records)


def _read_text(path: Path, newline: str | None = None) -> str:
    """The file's text as UTF-8, without a leading byte order mark (a spreadsheet's
    BOM is not data).  A file that cannot be opened or decoded, such as a missing
    file, a directory or a UTF-16 export, is a ValidationError naming the path and reason."""
    try:
        with path.open(encoding="utf-8-sig", newline=newline) as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {path}: not UTF-8 text ({exc})") from None


def _write_text(path: str, text: str) -> None:
    """Write the text to the file as UTF-8, as `Path.write_text` does, but over an
    existing file in place: open it without O_TRUNC, write, then cut a regular file
    that is longer at the bytes written.  ext4 flushes a file truncated to zero when
    it is closed, which costs more than writing a small report; cutting at the end
    does not.  The inode, mode and links stay, a new file gets 0o666 less the umask,
    and a FIFO, terminal or /dev/null is not cut.  A write that fails part way is cut
    at the bytes it wrote, so no tail of the old file follows them, and is a
    ValidationError naming the path as given and the reason, as is a file that
    cannot be opened.  The file opened is `Path(path)`'s, which drops a trailing
    slash.  The text is encoded _WRITE_SLICE characters at a time; a slice ends
    between code points, so the bytes are `text.encode("utf-8")`'s."""
    try:
        with open(os.open(Path(path), os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            try:
                for start in range(0, len(text), _WRITE_SLICE):
                    fh.write(text[start : start + _WRITE_SLICE].encode("utf-8"))
                fh.flush()
            finally:  # cut past the bytes written; cutting at the same length would cost a setattr
                fd = fh.fileno()
                held = os.fstat(fd)
                if stat.S_ISREG(held.st_mode) and held.st_size > (end := os.lseek(fd, 0, os.SEEK_CUR)):
                    os.ftruncate(fd, end)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _parse_cells(path: Path, records: list) -> np.ndarray:
    """The records as floats, cell by cell, raising for the first ragged row or bad cell."""
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
    return rows


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
    Group names are unique and members are listed once; a group named `all` must
    be the full domain, which is added under that name when no group covers it.
    """
    path = Path(path)
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    return population_model_from_dict(doc, source=str(path))


def population_model_from_dict(doc: dict, source: str = "population model") -> PopulationModel:
    """Build a population model from a parsed JSON document; errors count types from 1."""
    types = doc.get("types") if isinstance(doc, dict) else None
    if not isinstance(types, list) or not types:
        raise ValidationError(f"{source}: 'types' must be a nonempty list")
    L = doc.get("labels")
    if L is not None and (type(L) is not int or L < 1):  # bool is an int subclass, not a count
        raise ValidationError(f"{source}: 'labels' must be a positive integer, got {L!r}")
    names, weights, gt, pred = [], [], [], []
    for idx, t in enumerate(types, start=1):
        if not isinstance(t, dict):
            raise ValidationError(f"{source}: type {idx} must be an object, got {t!r}")
        for key in ("name", "weight", "groundTruth", "predicted"):
            if key not in t:
                raise ValidationError(f"{source}: type {idx} is missing '{key}'")
        names.append(_utf8_name(t["name"], f"{source}: type {idx}"))
        for key, out in (("weight", weights), ("groundTruth", gt), ("predicted", pred)):
            try:
                out.append(_json_float(t[key]) if key == "weight" else [_json_float(v) for v in t[key]])
            except (TypeError, ValueError):
                raise ValidationError(f"{source}: type {idx}: '{key}' is not numeric: {t[key]!r}") from None
        L = len(gt[-1]) if L is None else L
        if len(gt[-1]) != L or len(pred[-1]) != L:
            raise ValidationError(f"{source}: type '{names[-1]}' has {len(gt[-1])} labels, expected {L}")
    if len(set(names)) != len(names):
        raise ValidationError(f"{source}: duplicate type names")

    by_name = {name: i for i, name in enumerate(names)}
    groups, listed = {}, doc.get("groups", [])
    if not isinstance(listed, list):
        raise ValidationError(f"{source}: 'groups' must be a list, got {listed!r}")
    for idx, g in enumerate(listed, start=1):
        if not isinstance(g, dict) or "name" not in g or "members" not in g:
            raise ValidationError(f"{source}: each group needs 'name' and 'members'")
        name = _utf8_name(g["name"], f"{source}: group {idx}")
        if not isinstance(g["members"], list):
            raise ValidationError(f"{source}: group '{g['name']}': 'members' must be a list, got {g['members']!r}")
        members = []
        for m in g["members"]:
            if str(m) not in by_name:
                raise ValidationError(f"{source}: group '{g['name']}' references unknown type '{m}'")
            members.append(by_name[str(m)])
        if name in groups:
            raise ValidationError(f"{source}: duplicate group name '{name}'")
        groups[name] = tuple(members)
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


def _utf8_name(name, what: str) -> str:
    """`str(name)`, refused when UTF-8 cannot encode it, as with a lone surrogate such as the
    JSON string "\\ud800": a report may print the name, and every report is UTF-8 text."""
    name = str(name)
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"{what}: name {name!r} does not encode as UTF-8") from None
    return name


def _json_float(v) -> float:
    """A JSON number as a float; `float()` would also take true, false and numeric strings."""
    if isinstance(v, (bool, str)):
        raise TypeError
    return float(v)


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
    lines = _read_text(wpath).split()
    try:
        w = np.array([float(line) for line in lines])
    except ValueError:
        raise ValidationError(f"{wpath}: cannot parse position weights") from None
    if w.size < n:
        raise ValidationError(f"{wpath}: {w.size} position weights for n={n} individuals")
    return UtilitySpec(v, w[:n])


def serialize_structured(payload: dict) -> str:
    """Deterministic JSON for audit artifacts: sorted keys, full float precision.

    The text is exactly `json.dumps(payload, sort_keys=True, indent=2)` with
    numpy values as lists.  `indent` forces json's pure-Python encoder, so each
    nonempty numeric 2-d array at the top level (a ranking matrix) is written by
    `_matrix_parts` instead and joined into the text in one pass, laid out as
    `indent=2` lays it out.  A cell is its `float.__repr__` or `int.__repr__`
    from json's C encoder, as the pure-Python encoder writes it.  JSON has no
    NaN or infinity: a payload holding one is a ValidationError.
    """
    bulk = {k: v for k, v in payload.items() if isinstance(k, str) and isinstance(v, np.ndarray)
            and v.ndim == 2 and v.size and v.dtype.kind in "biuf"}
    cells = json.JSONEncoder(separators=(",\n      ", ":"), allow_nan=False)
    try:
        text = json.dumps({**payload, **dict.fromkeys(bulk)}, sort_keys=True, indent=2,
                          default=_json_default, allow_nan=False) + "\n"
        for key, M in bulk.items():
            parts = _matrix_parts(M, ",\n      ", "\n    ],\n    [\n      ", cells.encode,
                                  lambda r: cells.encode(r)[1:-1])
            before, head, after = text.partition(f"\n  {json.dumps(key)}: ")
            parts[0] = f"{before}{head}[\n    [\n      {parts[0]}"
            parts[-1] = f"{parts[-1]}\n    ]\n  ]{after.removeprefix('null')}"
            text = "".join(parts)  # the one copy of the matrix text
    except ValueError as exc:
        raise ValidationError(f"cannot write structured output: {exc}") from None
    return text


def _json_default(obj):
    """Plain Python values for numpy arrays and scalars; json handles the rest."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _matrix_parts(M: np.ndarray, sep: str, row_sep: str, cell, row) -> list:
    """Strings whose concatenation is the text of the nonempty 2-d M: the cell
    `cell(v)` of each cell's value `v` followed by `sep`, or by `row_sep` at the
    end of a row, or, as one string, the rows `row(r)` of `M.tolist()` joined by
    `row_sep`.  Cells are equal when their bits are (a float's float64 bits, so
    0.0 and -0.0 stay apart), and the text takes one of three paths:

    - runs: when the rows' runs of equal adjacent cells number at most a sixth
      of the cells, as with `opt`'s rows of at most three runs, a run of k
      cells is a few references to shared strings of its value: its cell and
      `sep` repeated 1, 2, 4, ... times for the bits of k, or of k - 1 and
      then its cell and `row_sep` when it ends a row.  Each string is built
      once per value and size.  At 10^6 cells it ties the other paths where
      runs are a quarter of the cells and is 16-36% faster where they are a
      sixth (2-vCPU VM);
    - lookup: else, when at most a quarter of the floats are distinct (`pl`
      with s samples holds at most s + 1 values), each distinct value is found
      with `np.sort` (`np.unique`'s argsort costs ten times as much at 10^6
      cells) and formatted once, and every cell is a reference to its string;
    - rows: else (`ua`, `mix`), one row string per row.

    The runs are found with one `!=` over adjacent columns and counted before
    anything is allocated per run.  Runs and cells reference shared strings
    rather than join their own: a thousand fresh 10 kB strings grow the malloc
    heap, and how much of it a later call finds still held then varies from
    run to run.
    """
    if M.dtype.kind == "f":
        M = np.ascontiguousarray(M, dtype=np.float64)
    keys = M.view(np.uint64) if M.dtype.kind == "f" else M
    starts = np.ones(M.shape, dtype=bool)  # a run starts each row and wherever a cell differs from its left
    np.not_equal(keys[:, 1:], keys[:, :-1], out=starts[:, 1:])
    if 6 * np.count_nonzero(starts) <= M.size:
        return _run_parts(M, keys, starts, sep, row_sep, cell)
    if M.dtype.kind == "f":
        distinct = np.sort(keys, axis=None)
        distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
        if 4 * distinct.size <= M.size:
            text = [cell(v) for v in distinct.view(np.float64).tolist()]
            ends = np.array([t + sep for t in text] + [t + row_sep for t in text] + text, dtype=object)
            at = np.searchsorted(distinct, keys)
            at[:, -1] += distinct.size  # a row's last cell ends with row_sep,
            at[-1, -1] += distinct.size  # and the matrix's last cell with nothing
            return ends[at].ravel().tolist()
    return [row_sep.join([row(r) for r in M.tolist()])]


def _run_parts(M: np.ndarray, keys: np.ndarray, starts: np.ndarray, sep: str, row_sep: str, cell) -> list:
    """`_matrix_parts`'s runs path, where `starts` marks each run's first cell."""
    first = np.flatnonzero(starts)  # np.nonzero's row and column arrays cost seven times as much
    distinct, value = np.unique(keys[np.divmod(first, M.shape[1])], return_inverse=True)
    text = [cell(v) for v in (distinct.view(np.float64) if M.dtype.kind == "f" else distinct).tolist()]
    length = np.diff(first, append=M.size)
    ends_row = (first + length) % M.shape[1] == 0  # runs stop at row ends
    reps = length - ends_row
    # Piece j < B of a value is its cell and sep repeated 2^j times, piece B its cell and row_sep.
    B = int(reps.max()).bit_length()
    piece = np.empty((value.size, B + 1), dtype=bool)
    piece[:, :B] = (reps[:, None] >> np.arange(B)) & 1
    piece[:, B] = ends_row
    run, j = np.nonzero(piece)
    ids = value[run] * (B + 1) + j  # run by run, the row end last
    shared = np.empty(len(text) * (B + 1), dtype=object)
    used = np.zeros(shared.size, dtype=bool)
    used[ids] = True
    for i in np.flatnonzero(used).tolist():
        v, j = divmod(i, B + 1)
        shared[i] = (text[v] + sep) * (1 << j) if j < B else text[v] + row_sep
    parts = shared[ids].tolist()
    parts[-1] = text[value[-1]]  # the matrix's last cell ends with nothing
    return parts


def format_matrix(M: np.ndarray) -> str:
    """Aligned human-readable matrix table of finite entries, six decimals per cell.

    Every cell is right-aligned to the widest `.6f` cell.  Within one sign that
    length grows with |v|, so the widest cell is the maximum's or the
    minimum's, or "-0.000000" when -0.0 is the only negative-signed entry; one
    `%{width}.6f` cell format then pads exactly as `f"{v:.6f}".rjust(width)`,
    applied by `_matrix_parts` once per distinct value or once per row.
    """
    return _table(M, "")


def table_report(M: np.ndarray) -> str:
    """The table report `rank` writes: `format_matrix(M)` and a newline, joined
    in one pass, so a 10 MB table is not copied a second time to end it."""
    return _table(M, "\n")


def _table(M: np.ndarray, end: str) -> str:
    M = np.asarray(M)
    ends = (M.min(), M.max(), -0.0 if np.signbit(M).any() else 0.0)
    cell = f"%{max(len(f'{v:.6f}') for v in ends)}.6f"
    row = "  ".join([cell] * M.shape[1])
    parts = _matrix_parts(M, "  ", "\n", cell.__mod__, lambda r: row % tuple(r))
    parts.append(end)
    return "".join(parts)
