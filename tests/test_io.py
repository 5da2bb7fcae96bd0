"""File ingestion tests: matrix-market, CSV, labels, log1p."""

import gzip
import math
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from pcacompress import cli
from pcacompress.errors import InputError, ParseError
from pcacompress.io import (
    MM_HEADER,
    IngestSpec,
    load_labels,
    load_matrix,
    log_normalize,
    write_labels,
    write_matrix,
)
from pcacompress.linalg import DataMatrix
from pcacompress.models import NoiseSpec, RandomVectorModel, generate_dataset

MM_LINES = [
    "%%MatrixMarket matrix coordinate real general",
    "% a comment",
    "3 4 5",
    "1 1 1.5",
    "3 1 -2.0",
    "2 2 0.25",
    "1 3 7.0",
    "3 4 1e-3",
]


def write_text(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def mm_bytes(lines):
    return ("\n".join(lines) + "\n").encode()


def replaced(index, *new):
    """MM_LINES with the line at ``index`` replaced by ``new`` lines."""
    return mm_bytes(MM_LINES[:index] + list(new) + MM_LINES[index + 1 :])


# (name, file content, line the error names, fragment of its message)
MALFORMED_MATRIX_MARKET = [
    ("wrong-header", replaced(0, "%%MatrixMarket matrix array real general"), 1, "expected header"),
    ("pattern-header", replaced(0, "%%MatrixMarket matrix coordinate pattern general"), 1,
     "expected header"),
    ("missing-size-line", mm_bytes(MM_LINES[:2]), 2, "missing size line"),
    ("two-field-size-line", replaced(2, "3 4"), 3, "size line needs three integers"),
    ("non-integer-size-line", replaced(2, "3 4 five"), 3, "bad size line"),
    ("non-positive-dimensions", replaced(2, "0 4 5"), 3, "must be positive"),
    ("too-few-entries", mm_bytes(MM_LINES[:-1]), 7, "declared 5 entries, found 4"),
    ("too-many-entries", mm_bytes(MM_LINES + ["2 3 1.0"]), 9, "declared 5 entries, found 6"),
    ("non-numeric-value", replaced(6, "1 3 seven"), 7, "non-numeric entry '1 3 seven'"),
    ("fractional-coordinate", replaced(4, "1.5 1 -2.0"), 5, "non-integer coordinate"),
    ("out-of-range-coordinate", replaced(4, "4 1 -2.0"), 5, "(4, 1) outside declared 3 x 4"),
    ("duplicate-coordinate", replaced(7, "1 1 9.0"), 8, "duplicate coordinate (1, 1)"),
    ("four-fields", replaced(5, "2 2 0.25 9"), 6, "expected 3 fields, found 4"),
    ("entry-wrapped-over-two-lines", replaced(5, "2 2", "0.25"), 6, "expected 3 fields, found 2"),
    ("non-utf8-byte", mm_bytes(MM_LINES).replace(b"7.0", b"7.\xff"), 7, "not UTF-8"),
]


# a file the command is pointed at but that is not there
NO_FILE = object()
GOOD_CSV = b"1,2,3\n4,5,6\n"
# (name, matrix content, labels content or None for no --labels, the file
# the error names, the line it names or None, fragment of its message)
MALFORMED_CSV_AND_LABELS = [
    ("ragged-row", b"1,2,3\n4,5\n", None, "matrix", 2, "expected 3 fields, found 2"),
    ("non-numeric-cell", b"1,2,3\n4,x,6\n", None, "matrix", 2, "non-numeric entry 'x'"),
    ("empty-file", b"", None, "matrix", 1, "empty file"),
    ("blank-lines-only", b"\n\n\n", None, "matrix", 1, "empty file"),
    ("header-only", b"a,b,c\n", None, "matrix", 1, "no data rows"),
    ("nan-cell", b"1,2,3\n4,nan,6\n", None, "matrix", None, "non-finite entries"),
    ("inf-cell", b"1,2,3\n4,inf,6\n", None, "matrix", None, "non-finite entries"),
    ("too-few-labels", GOOD_CSV, b"a\nb\n", "labels", None, "2 labels for 3 samples"),
    ("too-many-labels", GOOD_CSV, b"a\nb\na\nb\n", "labels", None, "4 labels for 3 samples"),
    ("empty-labels-file", GOOD_CSV, b"", "labels", 1, "empty labels file"),
    ("missing-matrix-file", NO_FILE, None, "matrix", None, "cannot read"),
    ("missing-labels-file", GOOD_CSV, NO_FILE, "labels", None, "cannot read"),
]


def _truncated_gzip():
    blob = gzip.compress(mm_bytes(MM_LINES))
    return blob[: len(blob) // 2]


class TestIngestSpec:
    @pytest.mark.parametrize(
        "choice, message",
        [({"fmt": "hdf5"}, "format must be one of"),
         ({"normalization": "zscore"}, "normalization must be one of")],
        ids=["format", "normalization"],
    )
    def test_unknown_choice_is_input_error(self, choice, message):
        # the command line offers only the known choices; a library caller may not
        with pytest.raises(InputError, match=message):
            IngestSpec("m.mtx", **choice)


class TestMatrixMarket:
    def test_reads_coordinates_one_based(self, tmp_path):
        path = write_text(tmp_path / "m.mtx", MM_LINES)
        A, names = load_matrix(IngestSpec(path))
        assert A.is_sparse
        assert names == []
        expected = np.zeros((3, 4))
        expected[0, 0] = 1.5
        expected[2, 0] = -2.0
        expected[1, 1] = 0.25
        expected[0, 2] = 7.0
        expected[2, 3] = 1e-3
        np.testing.assert_array_equal(A.values.toarray(), expected)

    def test_gzip_suffix_transparently_decompresses(self, tmp_path):
        path = tmp_path / "m.mtx.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("\n".join(MM_LINES) + "\n")
        A, _ = load_matrix(IngestSpec(path))
        assert A.values.shape == (3, 4)
        assert A.values.nnz == 5

    def test_integer_field_reads_as_real(self, tmp_path):
        # Cell Ranger writes counts as matrix.mtx.gz under the integer field
        entries = ["3 4 5", "1 1 2", "3 1 17", "2 2 1", "1 3 300", "3 4 9007199254740993"]
        real = write_text(tmp_path / "real.mtx", [MM_LINES[0], *entries])
        integer = tmp_path / "matrix.mtx.gz"
        integer.write_bytes(gzip.compress(mm_bytes([MM_LINES[0].replace("real", "integer"), *entries])))
        want, got = (load_matrix(IngestSpec(path))[0].values for path in (real, integer))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.toarray(), want.toarray())
        assert got.nnz == want.nnz == 5

    def test_wrong_header_is_rejected_at_line_one(self, tmp_path):
        lines = ["%%MatrixMarket matrix array real general"] + MM_LINES[2:]
        path = write_text(tmp_path / "m.mtx", lines)
        with pytest.raises(ParseError) as info:
            load_matrix(IngestSpec(path))
        assert info.value.line == 1

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_matrix(IngestSpec(path))

    def test_out_of_bounds_coordinate_names_its_line(self, tmp_path):
        lines = list(MM_LINES)
        lines[4] = "4 1 -2.0"  # row 4 of a 3-row matrix
        path = write_text(tmp_path / "m.mtx", lines)
        with pytest.raises(ParseError) as info:
            load_matrix(IngestSpec(path))
        assert info.value.line == 5
        assert "(4, 1)" in str(info.value)

    def test_non_numeric_value_names_its_line(self, tmp_path):
        lines = list(MM_LINES)
        lines[6] = "1 3 seven"
        path = write_text(tmp_path / "m.mtx", lines)
        with pytest.raises(ParseError) as info:
            load_matrix(IngestSpec(path))
        assert info.value.line == 7
        assert "seven" in str(info.value)

    def test_duplicate_coordinate_reports_second_occurrence(self, tmp_path):
        lines = list(MM_LINES)
        lines[7] = "1 1 9.0"  # repeats the entry on line 4
        path = write_text(tmp_path / "m.mtx", lines)
        with pytest.raises(ParseError) as info:
            load_matrix(IngestSpec(path))
        assert info.value.line == 8
        assert "(1, 1)" in str(info.value)

    def test_entry_count_must_match_declaration(self, tmp_path):
        path = write_text(tmp_path / "m.mtx", MM_LINES[:-1])
        with pytest.raises(ParseError, match="declared 5 entries, found 4"):
            load_matrix(IngestSpec(path))

    def test_transpose_flag_flips_orientation(self, tmp_path):
        path = write_text(tmp_path / "m.mtx", MM_LINES)
        plain, _ = load_matrix(IngestSpec(path))
        flipped, _ = load_matrix(IngestSpec(path, transpose=True))
        assert flipped.values.shape == (4, 3)
        np.testing.assert_array_equal(
            flipped.values.toarray(), plain.values.toarray().T
        )

    def test_explicit_zero_entries_are_kept(self, tmp_path):
        lines = MM_LINES[:3] + ["1 1 0.0", "2 2 1.0", "3 3 0.0", "1 4 2.0", "2 4 3.0"]
        path = write_text(tmp_path / "m.mtx", lines)
        A, _ = load_matrix(IngestSpec(path))
        assert A.values.nnz == 5


class TestMalformedMatrixMarketCli:
    """Every malformed matrix file exits 2 with a message naming file:line."""

    def _analyze(self, path, tmp_path, capsys):
        code = cli.main(
            ["analyze", "--matrix", str(path), "--pcs", "1", "--out-dir", str(tmp_path / "out")]
        )
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, line, message",
        [case[1:] for case in MALFORMED_MATRIX_MARKET],
        ids=[case[0] for case in MALFORMED_MATRIX_MARKET],
    )
    def test_malformed_file_exits_two_naming_its_line(
        self, content, line, message, tmp_path, capsys
    ):
        path = tmp_path / "m.mtx"
        path.write_bytes(content)
        code, err = self._analyze(path, tmp_path, capsys)
        assert code == 2
        assert f"{path}:{line}: " in err
        assert message in err

    @pytest.mark.parametrize(
        "content",
        [b"not a gzip stream\n", _truncated_gzip()],
        ids=["not-gzip", "truncated-gzip"],
    )
    def test_corrupt_gzip_exits_two_naming_a_line(self, content, tmp_path, capsys):
        path = tmp_path / "m.mtx.gz"
        path.write_bytes(content)
        code, err = self._analyze(path, tmp_path, capsys)
        assert code == 2
        assert re.search(rf"{re.escape(str(path))}:\d+: cannot read", err)


class TestMalformedCsvAndLabelsCli:
    """Every malformed CSV or labels file exits 2 with a message naming the file."""

    @pytest.mark.parametrize(
        "matrix, labels, named, line, message",
        [case[1:] for case in MALFORMED_CSV_AND_LABELS],
        ids=[case[0] for case in MALFORMED_CSV_AND_LABELS],
    )
    def test_malformed_file_exits_two_naming_it(
        self, matrix, labels, named, line, message, tmp_path, capsys
    ):
        paths = {"matrix": tmp_path / "m.csv", "labels": tmp_path / "l.txt"}
        argv = ["analyze", "--matrix", str(paths["matrix"]), "--pcs", "1",
                "--out-dir", str(tmp_path / "out")]
        if labels is not None:
            argv += ["--labels", str(paths["labels"])]
        for role, content in (("matrix", matrix), ("labels", labels)):
            if content not in (None, NO_FILE):
                paths[role].write_bytes(content)
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        where = f"{paths[named]}:{line}: " if line is not None else f"{paths[named]}: "
        assert where in err
        assert message in err
        assert "Traceback" not in err


class TestMatrixMarketAgainstScipy:
    """The parser against ``scipy.io.mmread``, compared to the bit."""

    LINES = [
        "%%MatrixMarket matrix coordinate real general",
        "% explicit zeros, negatives and exponent forms, out of column order",
        "4 3 9",
        "2 3 -0.0",
        "1 1 0.0",
        "4 1 -1.5e-300",
        "3 2 2.5E+10",
        "1 3 4.9e-324",
        "4 3 0.30000000000000004",
        "2 1 -7",
        "1 2 1E5",
        "3 3 -123456.789e-2",
    ]

    @pytest.mark.parametrize("suffix", [".mtx", ".mtx.gz"])
    def test_bit_identical_to_mmread(self, suffix, tmp_path):
        path = tmp_path / f"m{suffix}"
        content = mm_bytes(self.LINES)
        path.write_bytes(gzip.compress(content) if suffix.endswith(".gz") else content)
        plain = tmp_path / "plain.mtx"
        plain.write_bytes(content)
        ours, _ = load_matrix(IngestSpec(path))
        theirs = sp.csc_array(scipy.io.mmread(str(plain)))
        theirs.sort_indices()
        assert ours.values.shape == theirs.shape
        assert ours.values.nnz == theirs.nnz == 9
        np.testing.assert_array_equal(ours.values.indptr, theirs.indptr)
        np.testing.assert_array_equal(ours.values.indices, theirs.indices)
        np.testing.assert_array_equal(
            ours.values.data.view(np.int64), theirs.data.view(np.int64)
        )

    def test_parse_memory_per_entry_is_bounded(self, tmp_path):
        # about 1 M entries; a fresh process, so the high-water mark before
        # the call is the imports' alone
        rng = np.random.default_rng(5)
        A = DataMatrix(sp.random_array((2000, 5000), density=0.1, format="csc", rng=rng))
        path = tmp_path / "big.mtx"
        write_matrix(A, path)
        script = textwrap.dedent(
            """
            import resource, sys
            from pcacompress.io import IngestSpec, load_matrix

            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            A, _ = load_matrix(IngestSpec(sys.argv[1]))
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(A.values.nnz, (after - before) * 1024.0 / A.values.nnz)
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        nnz, bytes_per_entry = done.stdout.split()
        assert int(nnz) == A.values.nnz
        assert float(bytes_per_entry) < 120.0


class TestDenseCsv:
    def test_plain_numeric_grid(self, tmp_path):
        path = write_text(tmp_path / "m.csv", ["1,2,3", "4,5,6"])
        A, _ = load_matrix(IngestSpec(path))
        assert not A.is_sparse
        np.testing.assert_array_equal(A.values, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_header_row_is_skipped(self, tmp_path):
        path = write_text(tmp_path / "m.csv", ["s1,s2,s3", "1,2,3", "4,5,6"])
        A, _ = load_matrix(IngestSpec(path))
        assert A.values.shape == (2, 3)

    def test_ragged_row_names_its_line(self, tmp_path):
        path = write_text(tmp_path / "m.csv", ["1,2,3", "4,5"])
        with pytest.raises(ParseError) as info:
            load_matrix(IngestSpec(path))
        assert info.value.line == 2

    def test_non_numeric_cell_names_its_line(self, tmp_path):
        path = write_text(tmp_path / "m.csv", ["1,2,3", "4,x,6"])
        with pytest.raises(ParseError) as info:
            load_matrix(IngestSpec(path))
        assert info.value.line == 2
        assert "'x'" in str(info.value)

    def test_non_utf8_cell_names_its_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2,3\n4,\xff,6\n")
        with pytest.raises(ParseError, match="not UTF-8") as info:
            load_matrix(IngestSpec(path))
        assert info.value.line == 2

    def test_header_only_file_is_rejected(self, tmp_path):
        path = write_text(tmp_path / "m.csv", ["a,b,c"])
        with pytest.raises(ParseError, match="no data rows"):
            load_matrix(IngestSpec(path))

    def test_format_inference_needs_known_suffix(self, tmp_path):
        path = write_text(tmp_path / "m.data", ["1,2", "3,4"])
        with pytest.raises(InputError, match="infer"):
            load_matrix(IngestSpec(path))
        A, _ = load_matrix(IngestSpec(path, fmt="csv"))
        assert A.values.shape == (2, 2)


class TestLabels:
    def test_single_column_first_appearance_order(self, tmp_path):
        path = write_text(tmp_path / "l.txt", ["B", "B", "A", "C", "A"])
        ids, names = load_labels(path)
        np.testing.assert_array_equal(ids, [0, 0, 1, 2, 1])
        assert names == ["B", "A", "C"]

    def test_two_column_csv_uses_second_field(self, tmp_path):
        path = write_text(tmp_path / "l.csv", ["s1,T", "s2,B", "s3,T"])
        ids, names = load_labels(path)
        np.testing.assert_array_equal(ids, [0, 1, 0])
        assert names == ["T", "B"]

    def test_count_mismatch_is_input_error(self, tmp_path):
        matrix = write_text(tmp_path / "m.csv", ["1,2,3", "4,5,6"])
        labels = write_text(tmp_path / "l.txt", ["a", "b"])
        with pytest.raises(InputError, match="2 labels for 3 samples"):
            load_matrix(IngestSpec(matrix, labels=labels))

    def test_labels_attach_to_matrix_columns(self, tmp_path):
        matrix = write_text(tmp_path / "m.csv", ["1,2,3", "4,5,6"])
        labels = write_text(tmp_path / "l.txt", ["a", "b", "a"])
        A, names = load_matrix(IngestSpec(matrix, labels=labels))
        np.testing.assert_array_equal(A.labels, [0, 1, 0])
        assert names == ["a", "b"]

    def test_empty_labels_file_is_rejected(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("\n\n")
        with pytest.raises(ParseError, match="empty"):
            load_labels(path)

    def test_non_utf8_label_names_its_line(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_bytes(b"a\nb\xff\nc\n")
        with pytest.raises(ParseError, match="not UTF-8") as info:
            load_labels(path)
        assert info.value.line == 2

    def test_three_fields_in_csv_row_rejected(self, tmp_path):
        path = write_text(tmp_path / "l.csv", ["s1,T,extra"])
        with pytest.raises(ParseError) as info:
            load_labels(path)
        assert info.value.line == 1


class TestLogNormalize:
    def test_reference_values(self):
        A = DataMatrix(np.array([[0.0, math.e - 1.0], [1.0, 1.0]]))
        out = log_normalize(A)
        np.testing.assert_allclose(
            out.values,
            [[0.0, 1.0], [math.log(2.0), math.log(2.0)]],
            rtol=0.0,
            atol=1e-12,
        )

    def test_zero_entries_stay_exactly_zero_and_sparse(self):
        values = sp.csc_array(np.array([[0.0, 2.0], [3.0, 0.0]]))
        out = log_normalize(DataMatrix(values))
        assert out.is_sparse
        assert out.values.nnz == 2
        np.testing.assert_allclose(
            out.values.toarray(),
            [[0.0, math.log(3.0)], [math.log(4.0), 0.0]],
        )

    def test_negative_entry_error_names_coordinate(self):
        dense = DataMatrix(np.array([[1.0, 2.0], [3.0, -0.5]]))
        with pytest.raises(InputError, match=r"\(2, 2\)"):
            log_normalize(dense)
        sparse = DataMatrix(sp.csc_array(np.array([[0.0, 0.0], [-4.0, 0.0]])))
        with pytest.raises(InputError, match=r"\(2, 1\)"):
            log_normalize(sparse)

    def test_applying_twice_differs_from_once(self):
        A = DataMatrix(np.array([[math.e - 1.0, 0.0]]))
        once = log_normalize(A)
        twice = log_normalize(once)
        assert abs(once.values[0, 0] - twice.values[0, 0]) > 0.1

    def test_labels_survive_normalization(self):
        A = DataMatrix(np.array([[1.0, 2.0]]), labels=np.array([0, 1]))
        out = log_normalize(A)
        np.testing.assert_array_equal(out.labels, [0, 1])

    def test_load_matrix_applies_requested_normalization(self, tmp_path):
        path = write_text(tmp_path / "m.csv", ["0,1"])
        raw, _ = load_matrix(IngestSpec(path))
        cooked, _ = load_matrix(IngestSpec(path, normalization="log1p"))
        np.testing.assert_array_equal(raw.values, [[0.0, 1.0]])
        np.testing.assert_allclose(cooked.values, [[0.0, math.log(2.0)]])


class TestRoundTrip:
    def test_generated_dataset_survives_write_read(self, tmp_path):
        model = RandomVectorModel(
            centers=np.vstack([np.full(12, 0.3), np.full(12, 0.7)]),
            sizes=[5, 7],
            noise=[NoiseSpec("uniform-symmetric", 0.25)] * 2,
        )
        A = generate_dataset(model, seed=3)
        mpath = tmp_path / "data.mtx"
        lpath = tmp_path / "labels.txt"
        write_matrix(A, mpath)
        write_labels(A.labels, lpath)
        back, _ = load_matrix(IngestSpec(mpath, labels=lpath))
        np.testing.assert_array_equal(
            np.asarray(back.values.todense()), np.asarray(A.values)
        )
        np.testing.assert_array_equal(back.labels, A.labels)

    def test_sparse_matrix_round_trip_keeps_structure(self, tmp_path):
        rng = np.random.default_rng(7)
        dense = np.where(rng.random((9, 6)) < 0.3, rng.random((9, 6)), 0.0)
        A = DataMatrix(sp.csc_array(dense))
        path = tmp_path / "sparse.mtx"
        write_matrix(A, path)
        back, _ = load_matrix(IngestSpec(path))
        assert back.values.nnz == A.values.nnz
        np.testing.assert_array_equal(back.values.toarray(), dense)

    def test_gzip_round_trip(self, tmp_path):
        A = DataMatrix(np.array([[1.25, 0.0], [0.0, -3.5]]))
        path = tmp_path / "data.mtx.gz"
        write_matrix(A, path)
        back, _ = load_matrix(IngestSpec(path))
        np.testing.assert_array_equal(back.values.toarray(), A.values)

    def test_label_names_round_trip(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("left\nright\nright\nleft\n")
        ids, names = load_labels(path)
        np.testing.assert_array_equal(ids, [0, 1, 1, 0])
        assert names == ["left", "right"]

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_written_file_matches_independent_formatting(self, sparse, tmp_path):
        # about 9600 entries, so the writer goes through several column blocks
        rng = np.random.default_rng(11)
        d, n = 40, 600
        scale = 10.0 ** rng.integers(-30, 30, (d, n))
        dense = np.where(rng.random((d, n)) < 0.4, rng.standard_normal((d, n)) * scale, 0.0)
        if sparse:
            values = sp.csc_array(dense)
            values.data[5] = 0.0  # an explicit zero is a stored entry
            coo = sp.coo_array(values)
            entries = sorted(zip(coo.col.tolist(), coo.row.tolist(), coo.data.tolist()))
        else:
            values = dense
            entries = [
                (c, r, float(dense[r, c])) for c in range(n) for r in range(d) if dense[r, c] != 0.0
            ]
        path = tmp_path / "w.mtx"
        write_matrix(DataMatrix(values), path)
        expected = [MM_HEADER, f"{d} {n} {len(entries)}"]
        expected += [f"{r + 1} {c + 1} {v!r}" for c, r, v in entries]
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_written_values_are_bit_identical(self, tmp_path):
        tricky = np.array([[0.1 + 0.2, 1e-17], [np.pi, -2.0 ** -40]])
        A = DataMatrix(tricky)
        path = tmp_path / "t.mtx"
        write_matrix(A, path)
        back, _ = load_matrix(IngestSpec(path))
        np.testing.assert_array_equal(back.values.toarray(), tricky)
