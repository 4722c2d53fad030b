"""Literal bytes of every text file the engine writes, and the shared text
codecs in pdcnn.tensor that read and write them."""

import os
from functools import partial

import pytest

from pdcnn.cli import main
from pdcnn.data import ManifestRecord, gen_synthetic, write_manifest
from pdcnn.diag import write_convergence_csv, write_variance_csv
from pdcnn.optim import EpochRecord, write_curve_csv
from pdcnn.search import (CandidateEval, SearchRound, SearchTrace,
                          write_trace_csv)
from pdcnn.tensor import (format_int_list, format_kv_lines, parse_int_list,
                          parse_kv_file, parse_kv_lines, read_table, read_text,
                          write_table)

CURVE = [EpochRecord(1, 0.6931471805599453, 0.5, 0.4375, 1.25),
         EpochRecord(2, 0.4012345678, 0.25, 1 / 3, 12.3456789)]


# --- byte pins: fixed inputs, literal expected text ---

def test_write_manifest_bytes(tmp_path):
    path = tmp_path / "m.csv"
    write_manifest(path, [ManifestRecord("img_00000.pdt", 1, "synthetic"),
                          ManifestRecord("dir,x/b.pdt", 0, 'say "hi"')])
    assert path.read_bytes() == (
        b"path,label,category\n"
        b"img_00000.pdt,1,synthetic\n"
        b'"dir,x/b.pdt",0,"say ""hi"""\n')


def test_write_curve_csv_bytes_with_timing(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(CURVE, path, timing=True)
    assert path.read_bytes() == (
        b"epoch,train_loss,train_error,test_error,seconds\n"
        b"1,0.693147,0.500000,0.437500,1.250\n"
        b"2,0.401235,0.250000,0.333333,12.346\n")


def test_write_curve_csv_bytes_without_timing(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(CURVE, path, timing=False)
    assert path.read_bytes() == (
        b"epoch,train_loss,train_error,test_error,seconds\n"
        b"1,0.693147,0.500000,0.437500,0.000\n"
        b"2,0.401235,0.250000,0.333333,0.000\n")


def test_emit_variance_report_bytes(tmp_path):
    path = tmp_path / "v.csv"
    write_variance_csv([("branch1", "conv1", 0.0076421234),
                        ("branch2", "conv1", 1 / 3)],
                       (0.0076421234 + 1 / 3) / 2, path)
    assert path.read_bytes() == (
        b"branch,layer,variance\n"
        b"branch1,conv1,0.00764212\n"
        b"branch2,conv1,0.333333\n"
        b"mean,,0.170488\n")
    write_variance_csv([], None, path)
    assert path.read_bytes() == b"branch,layer,variance\n"


def test_emit_convergence_report_bytes(tmp_path):
    path = tmp_path / "c.csv"
    write_convergence_csv(8.32633, 3, 967, 24155, path)
    assert path.read_bytes() == b"t,n,e,T\n8.32633,3,967,24155\n"


def test_emit_search_trace_bytes(tmp_path):
    path = tmp_path / "s.csv"
    write_trace_csv(SearchTrace(
        rounds=[SearchRound(1, (CandidateEval((3,), 0.09916),
                                CandidateEval((4,), 0.08571)), (4,)),
                SearchRound(2, (CandidateEval((4, 3), 0.0823531234),
                                CandidateEval((4, 5), 0.107653)), None)],
        winner=(4,), winner_error=0.08571), path)
    assert path.read_bytes() == (
        b"round,candidate_depths,error,chosen\n"
        b"1,3,0.09916,4\n"
        b"1,4,0.08571,4\n"
        b'2,"4,3",0.0823531,stop\n'
        b'2,"4,5",0.107653,stop\n'
        b"winner,4,0.08571,\n")


def test_train_zero_epochs_report_bytes(tmp_path):
    gen_synthetic(2, 20, 0.0, 3, tmp_path / "data")
    arch = tmp_path / "arch.txt"
    arch.write_text("conv1_stride=2\npool_window=2\npool_stride=2\n"
                    "filter_scale=0.05\ninput_size=20\n", encoding="utf-8")
    argv = ["train", "--manifest", str(tmp_path / "data" / "manifest.csv"),
            "--depths", "4,3", "--arch", str(arch), "--epochs", "0"]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    expected = (b"best_test_error=none\n"
                b"best_epoch=none\n"
                b"convergence_epoch=none\n"
                b"param_count=2264\n"
                b"epochs_run=0\n"
                b"test_protocol=center_crop_no_flip\n")
    assert (tmp_path / "a" / "report.txt").read_bytes() == expected
    assert main([*argv, "--timing", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "report.txt").read_bytes() == \
        expected + b"train_seconds=0.000\n"


# --- the shared codecs ---

def test_read_text_names_file_and_offset_of_a_bad_byte(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("é=1\n".encode() + b"\x80")
    with pytest.raises(ValueError) as err:
        read_text(path)
    assert str(err.value) == f"{path}: not UTF-8 text (byte 5)"
    path.write_bytes(b"a=1\r\nb=2\n")
    assert read_text(path) == "a=1\r\nb=2\n"
    assert parse_kv_file(path, {"a": str, "b": str}) == {"a": "1", "b": "2"}


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("read", [
    read_text,
    partial(read_table, header=["name", "n"], parsers=(str, int)),
    partial(parse_kv_file, parsers={"a": str}),
], ids=["read_text", "read_table", "parse_kv_file"])
def test_text_readers_refuse_a_file_that_is_not_regular(read):
    # /dev/null would read as empty text, and /dev/zero without end
    with pytest.raises(OSError) as err:
        read("/dev/null")
    assert str(err.value) == "/dev/null: not a regular file"


def test_int_lists_round_trip():
    assert parse_int_list("4, 3,,4,") == [4, 3, 4]
    assert parse_int_list("") == []
    assert format_int_list((4, 3, 4)) == "4,3,4"
    assert parse_int_list(format_int_list([5])) == [5]
    with pytest.raises(ValueError):
        parse_int_list("4,x")


def test_format_kv_lines_inverts_parse_kv_lines():
    d = {"depths": [4, 3, 4], "input_size": 56, "lrn_k": 2.0, "dtype": "float32"}
    text = format_kv_lines(d)
    assert text == "depths=4,3,4\ninput_size=56\nlrn_k=2.0\ndtype=float32\n"
    parsers = {"depths": parse_int_list, "input_size": int, "lrn_k": float,
               "dtype": str}
    assert parse_kv_lines(text.splitlines(), "t", parsers) == d
    assert format_kv_lines({}) == ""


def test_table_round_trip_and_blank_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["name", "n"], [["a,b", 1], ['q"uote', 2], ["", 3]])
    assert path.read_bytes() == b'name,n\n"a,b",1\n"q""uote",2\n,3\n'
    assert read_table(path, ["name", "n"], (str, int)) == \
        [["a,b", 1], ['q"uote', 2], ["", 3]]
    path.write_bytes(b"name,n\r\n\r\nx,1\r\n\n")
    assert read_table(path, ["name", "n"], (str, int)) == [["x", 1]]
    write_table(path, ["name", "n"], [])
    assert read_table(path, ["name", "n"], (str, int)) == []


@pytest.mark.parametrize("body,message", [
    (b"", ":1: expected header ['name', 'n'], got None"),
    (b"name,count\n", ":1: expected header ['name', 'n'], got ['name', 'count']"),
    (b"name,n\nx,1\n\ny\n", ":4: expected 2 columns, got 1"),
    (b"name,n\nx,1,2\n", ":2: expected 2 columns, got 3"),
    (b"name,n\nx,one\n", ":2: n: invalid literal for int() with base 10: 'one'"),
    (b'name,n\n"x\ny",z\n', ":3: n: invalid literal for int() with base 10: 'z'"),
    (b"name,n\n" + b"x" * 200000 + b",1\n",
     ":2: field larger than field limit (131072)"),
], ids=["empty", "header", "short", "long", "value", "quoted-newline",
        "csv-error"])
def test_read_table_errors_name_file_and_line(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_bytes(body)
    with pytest.raises(ValueError) as err:
        read_table(path, ["name", "n"], (str, int))
    assert str(err.value) == f"{path}{message}"
