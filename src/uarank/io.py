"""File formats: CSV prediction matrices, JSON population models, utility specs."""

from __future__ import annotations

import csv
import json
import os
import stat
import sys
from io import StringIO
from pathlib import Path

import numpy as np

from . import rankers
from .errors import ValidationError
from .types import PopulationModel, PredictionMatrix, RankingDistribution, UtilitySpec, _check_scalar


def load_prediction_matrix(path) -> PredictionMatrix:
    """Load a CSV matrix: one row per individual, one probability column per label.

    An optional header row `label_1,...,label_L` is accepted and skipped; a first
    row counts as a header only when none of its cells parses as a number.
    Errors name the offending row (1-based data row) and column.

    numpy's C reader parses the text; it converts each cell as float() does, bit
    for bit.  A text it refuses (a ragged row, an unparsable or blank row, a lone
    CR line end, a cell such as `1_0` that float() takes) and one whose first line
    holds a lone CR or a quote take the csv module, whose records float() parses
    cell by cell, naming the first ragged row or bad cell.
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
    if '"' in head or "\r" in head:  # a quote may span lines or hide a comma; a lone CR ends a csv record
        return None
    # With no quote or CR, the first line is the first csv record.  A blank one, which the csv module
    # skips, is dropped as a header is; numpy refuses a header on the next line, and the csv module decides.
    if not any(_is_number(cell) for cell in head.split(",")):
        text = "" if end < 0 else text[end + 1:]
    if not text or text.isspace():
        return None  # numpy would warn "input contained no data"
    try:
        return np.loadtxt(StringIO(text), delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=np.float64)
    except ValueError:
        return None


def _parse_csv(path: Path, text: str) -> np.ndarray:
    """The rows of the text as the csv module reads them, floats cell by cell, raising for
    an empty file, the first ragged row or the first bad cell."""
    records = [row for row in csv.reader(StringIO(text, newline="")) if "".join(row).strip()]
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
            raise ValidationError(f"{path}: row {r} has {len(record)} columns, expected {width}")
        for c, cell in enumerate(record, start=1):
            try:
                rows[r - 1, c - 1] = float(cell)
            except ValueError:
                raise ValidationError(f"{path}: row {r}, column {c}: cannot parse '{cell.strip()}'") from None
    return rows


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


def _write_text(path: str, chunks) -> None:
    """Write the texts `chunks` gives to the file as UTF-8, as `Path.write_text`
    writes their concatenation, but over an existing file in place: open it
    without O_TRUNC, write, then cut a regular file that is longer at the bytes
    written.  ext4 flushes a file truncated to zero when it is closed, which
    costs more than writing a small report; cutting at the end does not.  The
    inode, mode and links stay, a new file gets 0o666 less the umask, and a
    FIFO, terminal or /dev/null is not cut.  A write that fails part way is cut
    at the bytes it wrote, so no tail of the old file follows them, and is a
    ValidationError naming the path as given and the reason, as is a file that
    cannot be opened.  The file opened is `Path(path)`'s, which drops a
    trailing slash.  Each text is encoded whole, so the bytes are
    `"".join(chunks).encode("utf-8")`'s; `write_report` gives one row block at a time."""
    try:
        with open(os.open(Path(path), os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            try:
                for text in chunks:
                    fh.write(text.encode("utf-8"))
                fh.flush()
            finally:  # cut past the bytes written; cutting at the same length would cost a setattr
                fd = fh.fileno()
                held = os.fstat(fd)
                if stat.S_ISREG(held.st_mode) and held.st_size > (end := os.lseek(fd, 0, os.SEEK_CUR)):
                    os.ftruncate(fd, end)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


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
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except (RecursionError, ValueError) as exc:  # ValueError: a JSONDecodeError, or an integer too long to parse
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    return population_model_from_dict(doc, source=str(path))


def population_model_from_dict(doc: dict, source: str = "population model") -> PopulationModel:
    """Build a population model from a parsed JSON document; errors count types from 1."""
    types = doc.get("types") if isinstance(doc, dict) else None
    if not isinstance(types, list) or not types:
        raise ValidationError(f"{source}: 'types' must be a nonempty list")
    L = doc.get("labels")
    if L is not None:
        _check_scalar(L, f"{source}: 'labels'", "[1, inf)", integer=True)
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
            except (TypeError, ValueError, OverflowError):  # OverflowError: an integer beyond float64
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


def structured_parts(payload: dict) -> list:
    """Deterministic JSON for audit artifacts, as `write_report` takes it: the
    text of `json.dumps(payload, sort_keys=True, indent=2)` with numpy values
    as lists, and a newline, given as texts and, in the place of each
    `RankingDistribution` at the top level (as its `entries`),
    `_matrix_parts`' iterator over its row blocks.

    `indent` forces json's pure-Python encoder, so `json.dumps` writes such a
    ranking as null and the blocks lay it out as `indent=2` lays it out.  A
    cell is its `float.__repr__` from json's C encoder, as the pure-Python
    encoder writes it, and a row that encoder's text of the list without its
    brackets.  Every other value, arrays too, takes json's own path through
    `_json_default`.  JSON has no NaN or infinity: a payload holding
    one is a ValidationError, raised here, before any block is made, so a
    report that cannot be written writes nothing.  A ranking's cells are
    finite by construction (its doubly stochastic check, or its order, makes
    them so).
    """
    bulk = {k: v for k, v in payload.items() if isinstance(k, str) and isinstance(v, RankingDistribution)}
    cells = json.JSONEncoder(separators=(",\n      ", ":"), allow_nan=False)
    try:
        rest = json.dumps({**payload, **dict.fromkeys(bulk)}, sort_keys=True, indent=2,
                          default=_json_default, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"cannot write structured output: {exc}") from None

    def row(values):
        return cells.encode(values)[1:-1]

    parts = []
    for key in sorted(bulk):  # in the order sort_keys writes them
        head = f"\n  {json.dumps(key)}: "
        before, _, rest = rest.partition(head + "null")
        parts += [f"{before}{head}[\n    [\n      ",
                  _matrix_parts(bulk[key], ",\n      ", "\n    ],\n    [\n      ", cells.encode, row)]
        rest = "\n    ]\n  ]" + rest
    parts.append(rest)
    return parts


def write_report(out: str | None, parts: list) -> None:
    """Write a report given as texts and iterators over a matrix's row blocks
    (`structured_parts`, `table_parts`), block by block as the iterators make
    them: to the file `out` through `_write_text`, or to stdout when `out` is
    None or "".  The report is never held whole.  A report that stdout's
    encoding cannot hold is a ValidationError before anything is written: the
    texts are tried first, and a matrix's blocks hold only ASCII."""
    if out:
        _write_text(out, _chunks(parts))
        return
    encoding = sys.stdout.encoding  # None for a StringIO, which takes any text
    try:
        if encoding:
            for part in parts:
                if isinstance(part, str):
                    part.encode(encoding, sys.stdout.errors or "strict")
        for chunk in _chunks(parts):
            sys.stdout.write(chunk)
    except UnicodeEncodeError as exc:
        raise ValidationError(f"stdout's encoding {encoding} cannot write "
                              f"{exc.object[exc.start:exc.end]!r}; --out writes UTF-8") from None


def _chunks(parts: list):
    """A report's texts in order, as `write_report` writes them: each text, and each
    block's strings joined."""
    for part in parts:
        if isinstance(part, str):
            yield part
        else:
            for block in part:
                yield "".join(block)


def _json_default(obj):
    """Plain Python values for numpy arrays and scalars; json handles the rest."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _matrix_parts(R: RankingDistribution, sep: str, row_sep: str, cell, row):
    """Yield the text of the ranking R's `entries` in blocks of
    max(1, _CHUNK_CELLS // n) whole rows: 2^16 cells, the kernel's and the
    audits' chunk.  A block comes as a list of strings that `write_report`
    joins.  The text is the cells `cell(v)` of each cell's value `v`, each
    followed by `sep`, or by `row_sep` at the end of a row but the last; a
    block ends at a row end, so its text ends with `row_sep` unless it is the
    last.  `row(r)` is the text of the cells of the row `r`, a list of
    floats, each followed by `sep` but the last.  Cells are equal when their
    float64 bits are, so 0.0 and -0.0 stay apart, and before its first block
    the text takes one of three paths:

    - order: for a ranking that keeps its order (`opt`, `min`), whose rows
      hold a 1.0 among 0.0s, from that order in O(n) without building
      `entries` (`_order_parts`), formatting 0.0 and 1.0 once each;
    - lookup: else, when at most a quarter of the floats are distinct (`pl`
      with s samples holds at most s + 1 values, `mix --phi 0` two), from
      the distinct floats, gathered block by block, which stops past a
      quarter of the cells.  Each is formatted once, and every cell is a
      reference to its string, found with `np.searchsorted`;
    - rows: else (`ua`, `mix`, `oracle`), each row is `row(r)` of the
      block's `tolist()`.

    Cells reference shared strings rather than join their own: a thousand
    fresh 10 kB strings grow the malloc heap, and how much of it a later call
    finds still held then varies from run to run.  Beside `entries` or the
    order, a call holds the distinct values (at most a quarter of the cells)
    or the order's inverse, and one block's arrays and text.
    """
    n = R.n
    step = max(1, rankers._CHUNK_CELLS // n)
    blocks = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    if R.order is not None:
        yield from _order_parts(R.order, blocks, sep, row_sep, cell)
        return
    M = np.ascontiguousarray(R.entries)
    keys = M.view(np.uint64)
    distinct = _distinct_floats(keys, blocks)
    if distinct is not None:
        text = [cell(v) for v in distinct.view(np.float64).tolist()]
        ends = np.array([t + sep for t in text] + [t + row_sep for t in text] + text, dtype=object)
        for lo, hi in blocks:
            at = np.searchsorted(distinct, keys[lo:hi])
            at[:, -1] += distinct.size  # a row's last cell ends with row_sep,
            if hi == n:
                at[-1, -1] += distinct.size  # and the matrix's last cell with nothing
            yield ends[at].ravel().tolist()
        return
    for lo, hi in blocks:
        rows = [row(r) for r in M[lo:hi].tolist()]
        if hi < n:
            rows.append("")  # the block ends with row_sep
        yield [row_sep.join(rows)]


def _order_parts(order: np.ndarray, blocks: list, sep: str, row_sep: str, cell):
    """`_matrix_parts`' order path: the 0/1 matrix with a 1.0 at [order[k], k], whose row i is
    pos[i] zero cells, the 1.0, then n - 1 - pos[i] zero cells, pos the inverse of order.  A row
    is references to B + 3 strings that every block shares, B = (n - 1).bit_length(): its zeros
    before the 1.0 and those after it but the last as (zero + sep) * 2^j for the bits j of their
    count, the 1.0 with `sep`, or with `row_sep` when it ends the row, and else zero + row_sep."""
    n = order.size
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    zero, one = cell(0.0), cell(1.0)
    B = (n - 1).bit_length()
    shared = np.array([(zero + sep) * (1 << j) for j in range(B)] + [one + sep, one + row_sep, zero + row_sep],
                      dtype=object)
    bits = 1 << np.arange(B)
    piece = np.r_[:B, B, B + 1, :B, B + 2]  # the shared string of each column of a block's mask
    for lo, hi in blocks:
        p = pos[lo:hi, None]
        ends = p == n - 1
        mask = np.hstack([(p & bits) > 0, ~ends, ends, (np.maximum(n - 2 - p, 0) & bits) > 0, ~ends])
        parts = shared[piece[np.nonzero(mask)[1]]].tolist()
        if hi == n:
            parts[-1] = one if ends[-1, 0] else zero  # the matrix's last cell ends with nothing
        yield parts


def _distinct_floats(keys: np.ndarray, blocks: list) -> np.ndarray | None:
    """The sorted distinct float64 bits of the cells, or None once they outnumber a quarter of the cells."""
    distinct = np.empty(0, dtype=np.uint64)
    for lo, hi in blocks:  # np.unique costs seven times this sort on 2^16 cells (numpy 2.4)
        distinct = np.sort(np.concatenate((distinct, keys[lo:hi]), axis=None))
        distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
        if 4 * distinct.size > keys.size:
            return None
    return distinct


def table_parts(R: RankingDistribution) -> list:
    """The table report `rank` writes, as `write_report` takes it: the ranking
    R's `entries` as an aligned human-readable table, six decimals per cell,
    in row blocks, then a newline.  A ranking that keeps its order is written
    from it, its `entries` never built.

    Every cell is right-aligned to the widest `.6f` cell.  Within one sign that
    length grows with |v|, so the widest cell is the maximum's or the
    minimum's, or "-0.000000" when -0.0 is the only negative-signed entry; one
    `%{width}.6f` cell format then pads exactly as `f"{v:.6f}".rjust(width)`,
    applied by `_matrix_parts` once per distinct value or once per row.  The
    width is fixed before the first block: from 0.0 and 1.0 for an order, and
    else from the matrix's minimum and maximum, with its signs read only when
    the minimum is zero.
    """
    if R.order is not None:
        ends = (0.0, 1.0)
    else:
        lo, hi = R.entries.min(), R.entries.max()
        ends = (lo, hi, -0.0 if lo == 0 and np.signbit(R.entries).any() else 0.0)
    cell = f"%{max(len(f'{v:.6f}') for v in ends)}.6f"
    row = "  ".join([cell] * R.n)
    return [_matrix_parts(R, "  ", "\n", cell.__mod__, lambda r: row % tuple(r)), "\n"]
