"""File ingestion: sparse matrix-market, dense CSV, labels, log1p.

Errors during parsing carry the file path and 1-based line number of
the offending content. Matrix files may be gzip-compressed (suffix
``.gz``). The canonical orientation is rows = features, columns =
samples; ``IngestSpec.transpose`` flips a file stored the other way.
"""

from __future__ import annotations

import gzip
import io
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .errors import InputError, ParseError
from .linalg import DataMatrix, stored

MM_HEADER = "%%MatrixMarket matrix coordinate real general"
_MM_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
# stored entries, on average, per column block that write_matrix formats at
# once; the block's strings cost about 200 bytes per entry while it does
_WRITE_BLOCK_ENTRIES = 1 << 12

FORMATS = ("auto", "matrix-market", "csv")
NORMALIZATIONS = ("none", "log1p")


@dataclass
class IngestSpec:
    """What to read and how to interpret it."""

    matrix: Union[str, Path]
    fmt: str = "auto"
    labels: Optional[Union[str, Path]] = None
    normalization: str = "none"
    transpose: bool = False

    def __post_init__(self):
        if self.fmt not in FORMATS:
            raise InputError(f"format must be one of {FORMATS}, got {self.fmt!r}")
        if self.normalization not in NORMALIZATIONS:
            raise InputError(
                f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}"
            )

    def resolved_format(self) -> str:
        if self.fmt != "auto":
            return self.fmt
        name = str(self.matrix)
        if name.endswith(".gz"):
            name = name[:-3]
        if name.endswith((".mtx", ".mm")):
            return "matrix-market"
        if name.endswith(".csv") or name.endswith(".tsv") or name.endswith(".txt"):
            return "csv"
        raise InputError(f"cannot infer format from {self.matrix}; pass one explicitly")


def _open_binary(path):
    """A binary stream over a plain or gzip file."""
    path = str(path)
    try:
        return gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _numbered_lines(fh, path) -> Iterator[Tuple[int, str]]:
    """(1-based line number, text) of each line of a binary stream.

    Lines are decoded one at a time, so a byte that is not UTF-8, or a
    compressed stream that breaks off, is a ParseError naming its line.
    """
    line_no = 0
    try:
        for line_no, raw in enumerate(fh, 1):
            yield line_no, raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"not UTF-8 text: byte {raw[exc.start]:#04x} at column {exc.start + 1}",
            path=path,
            line=line_no,
        ) from None
    except (OSError, EOFError, zlib.error) as exc:
        raise ParseError(f"cannot read: {exc}", path=path, line=line_no + 1) from None


# what numpy's text reader raises on malformed text, undecodable bytes
# (UnicodeDecodeError is a ValueError) or a broken compressed stream
_READ_ERRORS = (ValueError, OSError, EOFError, zlib.error)


def _loadtxt(fh, **kwargs) -> np.ndarray:
    """numpy's C text reader over the rest of a binary stream, as UTF-8."""
    text = io.TextIOWrapper(fh, encoding="utf-8")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(text, comments=None, **kwargs)
    finally:
        text.detach()


def _read_mm_preamble(lines, path) -> Tuple[int, int, int, int]:
    """Check the header and read the size line: (d, n, nnz, size line number)."""
    first = next(((no, text.strip()) for no, text in lines if text.strip()), None)
    if first is None:
        raise ParseError("empty file", path=path, line=1)
    position, header = first
    if header.lower() != MM_HEADER.lower():
        raise ParseError(
            f"expected header {MM_HEADER!r}, got {header!r}", path=path, line=position
        )
    for position, text in lines:
        stripped = text.strip()
        if stripped and not stripped.startswith("%"):
            break
    else:
        raise ParseError("missing size line", path=path, line=position)
    size_fields = text.split()
    if len(size_fields) != 3:
        raise ParseError("size line needs three integers", path=path, line=position)
    try:
        d, n, nnz = (int(f) for f in size_fields)
    except ValueError as exc:
        raise ParseError(f"bad size line: {exc}", path=path, line=position) from exc
    if d < 1 or n < 1 or nnz < 0:
        raise ParseError("declared dimensions must be positive", path=path, line=position)
    return d, n, nnz, position


def _entry_lines(path, size_line: int) -> Iterator[Tuple[int, List[str]]]:
    """(line number, fields) of each non-blank line after the size line, streamed."""
    with _open_binary(path) as fh:
        for line_no, text in _numbered_lines(fh, path):
            fields = text.split()
            if line_no > size_line and fields:
                yield line_no, fields


def _entry_line(path, size_line: int, index: int) -> int:
    """Line number of the index-th (0-based) entry."""
    line_no = size_line
    for t, (line_no, _) in enumerate(_entry_lines(path, size_line)):
        if t == index:
            break
    return line_no


def _entry_error(path, size_line: int, exc: Exception) -> ParseError:
    """The first entry line the text reader could not take, found by a line scan."""
    for line_no, fields in _entry_lines(path, size_line):
        if len(fields) != 3:
            message = f"expected 3 fields, found {len(fields)}"
        elif not (_is_number(fields[0], int) and _is_number(fields[1], int)):
            message = f"non-integer coordinate in entry {' '.join(fields)!r}"
        elif not _is_number(fields[2]):
            message = f"non-numeric entry {' '.join(fields)!r}"
        else:
            continue
        return ParseError(message, path=path, line=line_no)
    return ParseError(f"unreadable entries: {exc}", path=path)


def _parse_matrix_market(path) -> sp.csc_array:
    with _open_binary(path) as fh:
        d, n, nnz, size_line = _read_mm_preamble(_numbered_lines(fh, path), path)
        try:
            entries = _loadtxt(fh, dtype=_MM_ENTRY, ndmin=1)
        except _READ_ERRORS as exc:
            raise _entry_error(path, size_line, exc) from None
    if len(entries) != nnz:
        found = len(entries)
        # the last entry when some are missing, the first surplus one otherwise
        line = _entry_line(path, size_line, min(found - 1, nnz)) if found else size_line
        raise ParseError(f"declared {nnz} entries, found {found}", path=path, line=line)
    rows, cols = entries["row"], entries["col"]
    bad = (rows < 1) | (rows > d) | (cols < 1) | (cols > n)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise ParseError(
            f"coordinate ({rows[index]}, {cols[index]}) outside declared {d} x {n}",
            path=path,
            line=_entry_line(path, size_line, index),
        )
    # column-major linear position; a stable sort keeps file order among repeats
    key = cols - 1
    key *= d
    key += rows
    key -= 1
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeat = np.flatnonzero(key[1:] == key[:-1])
    if repeat.size:
        index = int(order[repeat[0] + 1])
        raise ParseError(
            f"duplicate coordinate ({rows[index]}, {cols[index]})",
            path=path,
            line=_entry_line(path, size_line, index),
        )
    values = entries["value"][order]
    del entries, rows, cols, order
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * d)
    np.remainder(key, d, out=key)
    return sp.csc_array((values, key, indptr), shape=(d, n))


def _parse_csv(path) -> np.ndarray:
    with _open_binary(path) as fh:
        first = next(
            ((no, text) for no, text in _numbered_lines(fh, path) if text.strip()), None
        )
        if first is None:
            raise ParseError("empty file", path=path, line=1)
        header_line = first[0] if not all(map(_is_number, first[1].split(","))) else 0
        if not header_line:
            fh.seek(0)
        try:
            values = _loadtxt(fh, dtype=np.float64, delimiter=",", ndmin=2)
        except _READ_ERRORS as exc:
            raise _csv_error(path, header_line, exc) from None
    if values.shape[0] == 0:
        raise ParseError("no data rows", path=path, line=1)
    return values


def _csv_error(path, header_line: int, exc: Exception) -> ParseError:
    """The first data line the text reader could not take, found by a line scan."""
    width = None
    with _open_binary(path) as fh:
        for line_no, text in _numbered_lines(fh, path):
            text = text.rstrip("\r\n")
            if line_no <= header_line or not text:
                continue
            fields = text.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                return ParseError(
                    f"expected {width} fields, found {len(fields)}", path=path, line=line_no
                )
            culprit = next((f for f in fields if not _is_number(f)), None)
            if culprit is not None:
                return ParseError(
                    f"non-numeric entry {culprit.strip()!r}", path=path, line=line_no
                )
    return ParseError(f"unreadable rows: {exc}", path=path)


def _is_number(token: str, kind=float) -> bool:
    """Whether numpy's text reader takes the token: what ``kind`` parses,
    less the underscores and non-ASCII digits only Python accepts."""
    if not token.isascii() or "_" in token:
        return False
    try:
        kind(token)
        return True
    except ValueError:
        return False


def load_labels(path, n: Optional[int] = None) -> Tuple[np.ndarray, List[str]]:
    """Read labels, either one per line or the second field of a CSV.

    Distinct label strings map to ids 0, 1, ... in order of first
    appearance. Returns the id array and the name of each id.
    """
    with _open_binary(path) as fh:
        numbered = [
            (line_no, text.strip())
            for line_no, text in _numbered_lines(fh, path)
            if text.strip()
        ]
    if not numbered:
        raise ParseError("empty labels file", path=path, line=1)
    two_column = "," in numbered[0][1]
    tokens = []
    for line_no, line in numbered:
        fields = line.split(",")
        if two_column:
            if len(fields) != 2:
                raise ParseError(
                    f"expected 2 fields, found {len(fields)}", path=path, line=line_no
                )
            tokens.append(fields[1].strip())
        else:
            if len(fields) != 1:
                raise ParseError(
                    "unexpected comma in single-column labels", path=path, line=line_no
                )
            tokens.append(line)
    if n is not None and len(tokens) != n:
        raise InputError(f"{path}: {len(tokens)} labels for {n} samples")
    names: List[str] = []
    index = {}
    ids = np.empty(len(tokens), dtype=np.int64)
    for t, token in enumerate(tokens):
        if token not in index:
            index[token] = len(names)
            names.append(token)
        ids[t] = index[token]
    return ids, names


def load_matrix(spec: IngestSpec) -> Tuple[DataMatrix, List[str]]:
    """Read a matrix (and labels, when given) per the ingest spec.

    Returns the DataMatrix and the label names (empty when no labels
    file was given). Sparse input stays sparse through normalization.
    """
    fmt = spec.resolved_format()
    if fmt == "matrix-market":
        values = _parse_matrix_market(spec.matrix)
    else:
        values = _parse_csv(spec.matrix)
    if spec.transpose:
        values = values.T
    labels, names = (None, [])
    if spec.labels is not None:
        labels, names = load_labels(spec.labels, n=values.shape[1])
    try:
        A = DataMatrix(values, labels=labels)
    except InputError as exc:
        # a file's values the matrix rejects, such as NaN or infinity
        raise InputError(f"{spec.matrix}: {exc}") from None
    if spec.normalization == "log1p":
        A = log_normalize(A)
    return A, names


def log_normalize(A: DataMatrix) -> DataMatrix:
    """Elementwise natural log(1+x); zeros stay zero.

    Entries must be nonnegative; the error names the first offending
    coordinate, 1-based.
    """
    data = stored(A.values)
    if data.size and data.min() < 0:
        # the first minimum in storage order: row-major for a dense matrix,
        # column-major for a CSC one
        coo = sp.coo_array(A.values)
        bad = int(np.argmin(coo.data))
        raise InputError(
            f"negative entry {coo.data[bad]:g} at ({coo.row[bad] + 1}, {coo.col[bad] + 1})"
        )
    # a copy that keeps a dense matrix's memory order, so no product's bits move
    out = A.values.astype(np.float64)
    np.log1p(stored(out), out=stored(out))
    return DataMatrix(out, labels=A.labels)


def write_matrix(A: DataMatrix, path) -> None:
    """Write in matrix-market coordinate form, column-major entries.

    Values are written as ``repr`` of the float, which reads back
    bit-identical. A dense matrix or bits write their nonzeros, a sparse
    one its stored entries.
    """
    values, nnz = A.values, A.nnz
    width = max(1, _WRITE_BLOCK_ENTRIES * A.n // max(nnz, 1))
    path = str(path)
    opener = gzip.open(path, "wt", encoding="utf-8") if path.endswith(".gz") else open(
        path, "w", encoding="utf-8"
    )
    with opener as fh:
        fh.write(f"{MM_HEADER}\n{A.d} {A.n} {nnz}\n")
        for start in range(0, A.n, width):
            # a CSC block lists its entries column by column, rows ascending
            # float64, so a bit is written 1.0
            block = sp.csc_array(values[:, start : start + width], dtype=np.float64).sorted_indices()
            rows = (block.indices + 1).tolist()
            cols = np.repeat(np.arange(start, start + block.shape[1]) + 1, np.diff(block.indptr))
            entries = zip(rows, cols.tolist(), block.data.tolist())
            fh.write("".join(f"{r} {c} {v!r}\n" for r, c, v in entries))


def write_labels(labels: Sequence, path, names: Optional[List[str]] = None) -> None:
    """One label per line; integer ids unless names are supplied."""
    path = str(path)
    opener = gzip.open(path, "wt", encoding="utf-8") if path.endswith(".gz") else open(
        path, "w", encoding="utf-8"
    )
    with opener as fh:
        for value in labels:
            token = names[int(value)] if names else str(int(value))
            fh.write(token + "\n")
