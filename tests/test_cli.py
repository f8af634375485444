"""Command-line interface: outputs, formats, and exit codes."""

import contextlib
import gc
import hashlib
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from basket3 import certificates, cli
from basket3.baskets import Basket
from basket3.cli import main
from basket3.enumeration import (
    Candidate,
    EnumConstraints,
    ExplicitK3,
    MinimalK3Search,
    attach_invariants,
    enumerate_baskets,
    enumerate_candidates,
)
from basket3.rationals import format_fraction
from basket3.riemann_roch import ThreefoldInvariants, k3_from_p2, plurigenus
from oracles import basket_lines_by_candidate, hypersurface_h0, verify_both_ways

X10_DOC = {"chi": -3, "k3": "2", "basket": []}
# The line of 2/5 in the INEQ2 certificate at r_max 12, its 12th line.
SPLIT_25 = ("2/5 split 1/2,1/3 cfdet=1 offsets=5:-1,7:-1,10:-2,12:-2 net=0"
            " xidelta=-28 xibar=0 target=0\n")


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    # Every certificate file verified here is also verified as it is read
    # and after reading it, which must agree.
    if argv[0] == "verify" and os.path.isfile(argv[1]):
        verify_both_ways(argv[1])
    return code, captured.out, captured.err


class TestPluri:
    def test_x10_table(self, tmp_path, capsys):
        doc = write_json(tmp_path, "x10.json", X10_DOC)
        code, out, _ = run(capsys, ["pluri", doc, "--m-from", "2", "--m-to", "9"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["p_m"] for row in rows] == [hypersurface_h0(m) for m in range(2, 10)]

    def test_csv_format(self, tmp_path, capsys):
        doc = write_json(tmp_path, "x10.json", X10_DOC)
        code, out, _ = run(
            capsys, ["pluri", doc, "--m-to", "3", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines() == [
            "m,chi_mk,integral,p_m",
            "2,10,true,10",
            "3,20,true,20",
        ]

    def test_p2_document_equivalent(self, tmp_path, capsys):
        via_k3 = write_json(tmp_path, "a.json", X10_DOC)
        via_p2 = write_json(tmp_path, "b.json", {"chi": -3, "p2": 10, "basket": []})
        _, out_k3, _ = run(capsys, ["pluri", via_k3, "--m-to", "8"])
        _, out_p2, _ = run(capsys, ["pluri", via_p2, "--m-to", "8"])
        assert out_k3 == out_p2

    def test_malformed_fraction(self, tmp_path, capsys):
        doc = write_json(tmp_path, "bad.json", {"chi": 1, "k3": "2/0", "basket": []})
        code, _, err = run(capsys, ["pluri", doc])
        assert code == 2 and err

    def test_decimal_string_volume_rejected(self, tmp_path, capsys):
        doc = write_json(tmp_path, "bad.json", {"chi": 1, "k3": "0.5", "basket": []})
        code, out, err = run(capsys, ["pluri", doc])
        assert code == 2 and not out and "'0.5'" in err

    # The one spelling of each value is the one the CLI writes.
    @pytest.mark.parametrize("k3", ["04/2", "2/1", "02", "-0", "0/3"])
    def test_non_canonical_volume_rejected(self, tmp_path, capsys, k3):
        doc = write_json(tmp_path, "bad.json", {"chi": 1, "k3": k3, "basket": []})
        code, out, err = run(capsys, ["pluri", doc])
        assert code == 2 and not out and repr(k3) in err

    def test_float_volume_rejected(self, tmp_path, capsys):
        doc = write_json(tmp_path, "bad.json", {"chi": 1, "k3": 5.5, "basket": []})
        code, _, err = run(capsys, ["pluri", doc])
        assert code == 2 and "float" in err

    def test_requires_exactly_one_volume_field(self, tmp_path, capsys):
        for payload in ({"chi": 1, "basket": []},
                        {"chi": 1, "k3": "2", "p2": 3, "basket": []}):
            doc = write_json(tmp_path, "doc.json", payload)
            code, _, err = run(capsys, ["pluri", doc])
            assert code == 2 and "k3" in err

    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ({"chi": -3.9, "k3": "2", "basket": [[1.7, 2.2]]}, "chi"),
            ({"chi": -3, "k3": "2", "basket": [[1, 2.0]]}, "r"),
            ({"chi": True, "k3": "2", "basket": []}, "chi"),
            ({"chi": "1", "k3": "2", "basket": []}, "chi"),
            ({"k3": "2", "basket": []}, "chi"),
            ({"chi": 1, "p2": 3.0, "basket": []}, "p2"),
        ],
    )
    def test_inexact_values_rejected(self, tmp_path, capsys, payload, field):
        doc = write_json(tmp_path, "doc.json", payload)
        code, out, err = run(capsys, ["pluri", doc])
        assert code == 2 and not out
        assert repr(field) in err

    def test_unknown_key_named(self, tmp_path, capsys):
        doc = write_json(tmp_path, "doc.json", {**X10_DOC, "kk3": "2"})
        for argv in (["pluri", doc], ["ineq", doc, "--which", "3"]):
            code, out, err = run(capsys, argv)
            assert code == 2 and not out
            assert "unknown key 'kk3'" in err

    def test_invalid_basket_pair(self, tmp_path, capsys):
        doc = write_json(tmp_path, "doc.json", {"chi": 1, "k3": "2", "basket": [[3, 5]]})
        code, _, _ = run(capsys, ["pluri", doc])
        assert code == 2

    def test_document_on_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(X10_DOC)))
        code, out, _ = run(capsys, ["pluri", "-", "--m-to", "3"])
        assert code == 0
        assert [row["p_m"] for row in json.loads(out)["rows"]] == [10, 20]


class TestIneq:
    def test_form_three_two_five(self, capsys):
        code, out, _ = run(capsys, ["ineq", "--which", "3", "--basket", "[[2,5]]"])
        assert code == 0
        verdict = json.loads(out)
        assert verdict["pass"] and verdict["slack"] == "0"

    def test_form_four_slope_boundary(self, capsys):
        code, out, _ = run(capsys, ["ineq", "--which", "4", "--basket", "[[1,13]]"])
        assert code == 0
        assert json.loads(out)["slack"] == "0"

    def test_form_four_additive_slack(self, capsys):
        code, out, _ = run(
            capsys, ["ineq", "--which", "4", "--basket", "[[1,5],[1,6]]"]
        )
        assert code == 0
        assert json.loads(out)["slack"] == "7"

    def test_form_one_document(self, tmp_path, capsys):
        doc = write_json(tmp_path, "x10.json", X10_DOC)
        code, out, _ = run(capsys, ["ineq", doc, "--which", "1"])
        assert code == 0
        assert json.loads(out)["value"] == "0"

    def test_form_one_inconsistent_document(self, tmp_path, capsys):
        doc = write_json(tmp_path, "bad.json", {"chi": 1, "k3": "1", "basket": []})
        code, _, err = run(capsys, ["ineq", doc, "--which", "1"])
        assert code == 2 and "non-integral" in err

    def test_form_one_needs_document(self, capsys):
        code, _, err = run(capsys, ["ineq", "--which", "1", "--basket", "[[2,5]]"])
        assert code == 2 and "document" in err

    # A document and --basket together are refused, not one of them dropped.
    @pytest.mark.parametrize("which", ["1", "2", "3", "4"])
    def test_document_and_basket_together_rejected(self, tmp_path, capsys, which):
        doc = write_json(tmp_path, "doc.json", {"chi": 1, "k3": "1", "basket": [[2, 5]]})
        code, out, err = run(capsys, ["ineq", "--which", which, doc, "--basket", "[[1,13]]"])
        assert code == 2 and not out
        assert repr(doc) in err and "--basket '[[1,13]]'" in err

    # Forms 3 and 4 read only the basket of a document, but each other field
    # that is given must pass the rules of forms 1 and 2.
    @pytest.mark.parametrize("which", ["3", "4"])
    @pytest.mark.parametrize(
        ("payload", "named"),
        [
            ({"chi": 1.5, "k3": "0.5", "p2": 3, "basket": [[2, 5]]}, "'chi'"),
            ({"k3": "0.5", "basket": [[2, 5]]}, "'0.5'"),
            ({"p2": True, "basket": [[2, 5]]}, "'p2'"),
            ({"k3": "2", "p2": 3, "basket": [[2, 5]]}, "'p2'"),
        ],
    )
    def test_per_basket_document_fields_checked(
        self, tmp_path, capsys, which, payload, named
    ):
        doc = write_json(tmp_path, "doc.json", payload)
        code, out, err = run(capsys, ["ineq", doc, "--which", which])
        assert code == 2 and not out
        assert named in err

    @pytest.mark.parametrize(
        ("which", "stdout"),
        [
            ("3", '{"pass": true, "slack": "0", "target": "0", "value": "0", "which": 3}\n'),
            ("4", '{"pass": true, "slack": "0", "target": "0", "value": "0", "which": 4}\n'),
        ],
    )
    def test_basket_only_document_passes(self, tmp_path, capsys, which, stdout):
        doc = write_json(tmp_path, "doc.json", {"basket": [[2, 5]]})
        assert run(capsys, ["ineq", doc, "--which", which]) == (0, stdout, "")
        assert run(capsys, ["ineq", "--which", which, "--basket", "[[2,5]]"])[1] == stdout


class TestReplay:
    def test_summary_and_certificate(self, tmp_path, capsys):
        out_path = tmp_path / "cert.txt"
        code, out, _ = run(
            capsys,
            ["replay", "--which", "1", "--r-max", "12", "--out", str(out_path)],
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["min_slack"] == "0"
        assert summary["attained_count"] == 13
        assert {"1/2", "1/3", "1/4", "2/5"} <= set(summary["attained"])
        assert out_path.exists()

    def test_verify_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "2", "--r-max", "15", "--out", str(out_path)])
        code, out, _ = run(capsys, ["verify", str(out_path)])
        assert code == 0
        assert json.loads(out)["ok"]

    def test_verify_detects_tampering(self, tmp_path, capsys):
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "1", "--r-max", "12", "--out", str(out_path)])
        text = out_path.read_text().replace("xidelta=-4", "xidelta=-3")
        out_path.write_text(text)
        code, out, _ = run(capsys, ["verify", str(out_path)])
        assert code == 1
        assert not json.loads(out)["ok"]

    def test_verify_checks_cf_orientation(self, tmp_path, capsys):
        # 1/2 is the truncation parent of 2/5 and the high one, so cfdet is +1.
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "2", "--r-max", "12", "--out", str(out_path)])
        text = out_path.read_text()
        flipped = text.replace("2/5 split 1/2,1/3 cfdet=1 ", "2/5 split 1/2,1/3 cfdet=-1 ")
        assert flipped != text
        out_path.write_text(flipped)
        code, out, _ = run(capsys, ["verify", str(out_path)])
        assert code == 1
        report = json.loads(out)
        assert not report["ok"]
        assert any(issue.startswith("2/5: ") for issue in report["issues"])

    def test_jobs_do_not_change_bytes(self, tmp_path, capsys):
        one = tmp_path / "one.txt"
        two = tmp_path / "two.txt"
        run(capsys, ["replay", "--which", "2", "--r-max", "40", "--out", str(one)])
        run(
            capsys,
            ["replay", "--which", "2", "--r-max", "40", "--out", str(two),
             "--jobs", "2"],
        )
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3", "+1", "0_1", " 1"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        argv = ["replay", "--which", "1", "--r-max", "12",
                "--out", str(tmp_path / "cert.txt"), "--jobs", jobs]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "cert.txt").exists()

    def test_malformed_certificate_is_invalid_input(self, tmp_path, capsys):
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "1", "--r-max", "12", "--out", str(out_path)])
        lines = out_path.read_text().splitlines(keepends=True)
        out_path.write_text("".join(line for line in lines if not line.startswith("nodes:")))
        code, _, err = run(capsys, ["verify", str(out_path)])
        assert code == 2 and "nodes" in err

    @pytest.mark.parametrize(
        ("old", "new", "named"),
        [
            ("xibar=0 target=0", "xibar=0 target=0 xidelta=-4", "xidelta=-4"),
            ("xibar=0 target=0", "xibar=0 target=0 bogus=7", "bogus=7"),
            ("xibar=0 target=0", "xibar=0 target=0 declared=-2", "declared=-2"),
            ("xibar=0 target=0", "xibar=0.0 target=0", "0.0"),
            ("net=0 xidelta=-4", "xidelta=-4 net=0", "xidelta=-4"),
            (" target=0", "", "target"),
            ("r-max: 12\n", "r-max: 12\nr-max: 12\n", "r-max"),
            ("r-max: 12\n", "r-max: 12\ncomment: hi\n", "comment"),
        ],
        ids=["duplicate", "unknown", "declared", "decimal", "reordered", "missing",
             "repeated-header", "unknown-header"],
    )
    def test_malformed_node_or_header_is_invalid_input(
        self, tmp_path, capsys, old, new, named
    ):
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "1", "--r-max", "12", "--out", str(out_path)])
        text = out_path.read_text()
        line = next(line for line in text.splitlines() if line.startswith("2/5 "))
        if old.endswith("\n"):
            tampered = text.replace(old, new, 1)
        else:
            tampered = text.replace(line, line.replace(old, new, 1))
        assert tampered != text
        out_path.write_text(tampered)
        code, out, err = run(capsys, ["verify", str(out_path)])
        assert code == 2 and not out and named in err

    # Each edit keeps the value int() would read, so only a strict reader
    # refuses it: "+1", "0_0" and "1_2" are the same numbers to int().
    @pytest.mark.parametrize(
        ("old", "new", "named"),
        [
            ("2/5 split", "0_2/5 split", "0_2/5"),
            ("1/2,1/3 ", "1/2,1/+3 ", "1/+3"),
            ("cfdet=1 ", "cfdet=+1 ", "+1"),
            ("offsets=5:-1,", "offsets=+5:-1,", "+5"),
            ("7:-1,", "7:-0_1,", "-0_1"),
            ("net=0 ", "net=0_0 ", "0_0"),
            ("xidelta=-28", "xidelta=-2_8", "-2_8"),
            ("r-max: 12\n", "r-max: 1_2\n", "1_2"),
            ("nodes: 23\n", "nodes: +23\n", "+23"),
            ("low-slope-floor: 14\n", "low-slope-floor: 1_4\n", "1_4"),
            ("coefficients: -9,1,", "coefficients: -9,+1,", "+1"),
        ],
        ids=["point", "parent", "cfdet", "offset-j", "offset-v", "net", "xidelta",
             "r-max", "nodes", "low-slope-floor", "coefficients"],
    )
    def test_loose_integer_is_invalid_input(self, tmp_path, capsys, old, new, named):
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "2", "--r-max", "12", "--out", str(out_path)])
        text = out_path.read_text()
        tampered = text.replace(old, new, 1)
        assert tampered != text
        out_path.write_text(tampered)
        code, out, err = run(capsys, ["verify", str(out_path)])
        assert code == 2 and not out and repr(named) in err

    # Each edit spells a value the reader could take some other way, so a
    # certificate has exactly one spelling: no leading zero, no "-0", a
    # reduced xibar over a divisor of 2r without "/1", an integer target.
    @pytest.mark.parametrize(
        ("old", "new", "named"),
        [
            ("2/5 split", "02/5 split", "02/5"),
            ("1/2,1/3 ", "1/2,1/03 ", "1/03"),
            ("cfdet=1 offsets=5", "cfdet=01 offsets=5", "01"),
            ("offsets=5:-1,", "offsets=5:-01,", "-01"),
            ("1/5 leaf xidelta=-12 xibar=2 ", "1/5 leaf xidelta=-12 xibar=4/2 ", "4/2"),
            ("1/5 leaf xidelta=-12 xibar=2 ", "1/5 leaf xidelta=-12 xibar=2/1 ", "2/1"),
            ("2/5 split 1/2,1/3 cfdet=1 offsets=5:-1,7:-1,10:-2,12:-2 net=0 xidelta=-28 xibar=0",
             "2/5 split 1/2,1/3 cfdet=1 offsets=5:-1,7:-1,10:-2,12:-2 net=0 xidelta=-28 xibar=0/5",
             "0/5"),
            ("1/2 leaf xidelta=-14 xibar=0 ", "1/2 leaf xidelta=-14 xibar=-0 ", "-0"),
            ("1/2 leaf xidelta=-14 xibar=0 ", "1/2 leaf xidelta=-14 xibar=1/3 ", "1/3"),
            ("1/2 leaf xidelta=-14 xibar=0 target=0", "1/2 leaf xidelta=-14 xibar=0 target=-0",
             "-0"),
            ("1/12 leaf xidelta=0 xibar=14 target=14", "1/12 leaf xidelta=0 xibar=14 target=14/1",
             "14/1"),
            ("slope-cut: 1/12\n", "slope-cut: 2/24\n", "2/24"),
            ("r-max: 12\n", "r-max: 012\n", "012"),
        ],
        ids=["point", "parent", "cfdet", "offset-v", "xibar-unreduced", "xibar-over-one",
             "xibar-zero-over", "xibar-minus-zero", "xibar-not-over-2r", "target-minus-zero",
             "target-fraction", "slope-cut", "r-max"],
    )
    def test_non_canonical_spelling_is_invalid_input(self, tmp_path, capsys, old, new, named):
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "2", "--r-max", "12", "--out", str(out_path)])
        text = out_path.read_text()
        tampered = text.replace(old, new, 1)
        assert tampered != text
        out_path.write_text(tampered)
        code, out, err = run(capsys, ["verify", str(out_path)])
        assert code == 2 and not out and repr(named) in err

    # Each edit keeps every value and changes only the layout, so a reader
    # that split on any whitespace, skipped blank lines or took the header
    # keys in any order would read the same certificate.
    @pytest.mark.parametrize(
        ("edit", "named"),
        [
            (lambda t: t.replace(" net=0 xidelta=-28", "  net=0 xidelta=-28", 1), "line 12:"),
            (lambda t: t.replace(" net=0 xidelta=-28", "\tnet=0 xidelta=-28", 1), "line 12:"),
            (lambda t: t.replace(SPLIT_25, SPLIT_25[:-1] + " \n"),
             "line 12:"),
            (lambda t: t.replace(SPLIT_25, SPLIT_25 + "\n"), "line 13:"),
            (lambda t: t.replace("\n\n", "\n\n\n", 1), "line 8:"),
            (lambda t: t.replace("\n", "\r\n"), "'1\\r'"),
            (lambda t: t[:-1], "line 30:"),
            (lambda t: t.replace("low-slope-floor: 14\nslope-cut: 1/12\n",
                                 "slope-cut: 1/12\nlow-slope-floor: 14\n"), "line 3:"),
            (lambda t: t.replace(",0,-1\n", ",0,-1,0\n", 1), "line 2:"),
            (lambda t: t.replace("offsets=5:-1,7:-1,", "offsets=7:-1,5:-1,"), "'7:-1,5:-1,"),
            (lambda t: t.replace("offsets=5:-1,7:-1,", "offsets=5:-1,5:-1,7:-1,"),
             "'5:-1,5:-1,"),
            (lambda t: t.replace("offsets=5:-1,7:-1,", "offsets=4:0,5:-1,7:-1,"), "'4:0'"),
        ],
        ids=["double-space", "tab", "trailing-space", "blank-in-body", "second-blank",
             "crlf", "no-final-newline", "swapped-header", "coefficient-zero",
             "offsets-reordered", "offsets-repeated", "offset-zero"],
    )
    def test_non_canonical_layout_is_invalid_input(self, tmp_path, capsys, edit, named):
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "2", "--r-max", "12", "--out", str(out_path)])
        text = out_path.read_text()
        assert SPLIT_25 in text.splitlines(keepends=True)
        tampered = edit(text)
        assert tampered != text
        out_path.write_bytes(tampered.encode("ascii"))
        code, out, err = run(capsys, ["verify", str(out_path)])
        assert code == 2 and not out and named in err

    # Each point or parent is spelled canonically but is no basket point.
    @pytest.mark.parametrize(
        ("new", "named"),
        [("2/5 split 1/2,2/6 ", "2/6"), ("4/10 split 1/2,1/3 ", "4/10")],
        ids=["parent", "point"],
    )
    def test_non_basket_point_is_invalid_input(self, tmp_path, capsys, new, named):
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "2", "--r-max", "12", "--out", str(out_path)])
        text = out_path.read_text()
        tampered = text.replace("2/5 split 1/2,1/3 ", new, 1)
        assert tampered != text
        out_path.write_text(tampered)
        code, out, err = run(capsys, ["verify", str(out_path)])
        assert code == 2 and not out and repr(named) in err

    # No replay has r_max below 2, so a header that says so is refused,
    # even with no nodes to check against it.
    @pytest.mark.parametrize("r_max", ["1", "-5"])
    def test_r_max_below_two_is_invalid_input(self, tmp_path, capsys, r_max):
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "1", "--r-max", "12", "--out", str(out_path)])
        header = out_path.read_text().split("\n")[:4]
        out_path.write_text("\n".join(header + [f"r-max: {r_max}", "nodes: 0", ""]) + "\n")
        code, out, err = run(capsys, ["verify", str(out_path)])
        assert code == 2 and not out and f"r-max {r_max!r}" in err

    # A header value the reader refuses is named with its line, as every
    # other reader error is, and so is a node count that the header misstates.
    @pytest.mark.parametrize(
        ("old", "new", "line", "named"),
        [
            ("nodes: 23\n", "nodes: 023\n", 6, "'023'"),
            ("r-max: 12\n", "r-max: 1_2\n", 5, "'1_2'"),
            ("low-slope-floor: 14\n", "low-slope-floor: x\n", 3, "'x'"),
            ("coefficients: -9,", "coefficients: -09,", 2, "'-09'"),
            ("nodes: 23\n", "nodes: 22\n", 6, "node count 23 != declared 22"),
        ],
        ids=["nodes", "r-max", "low-slope-floor", "coefficients", "node-count"],
    )
    def test_header_value_error_names_its_line(
        self, tmp_path, capsys, old, new, line, named
    ):
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "2", "--r-max", "12", "--out", str(out_path)])
        text = out_path.read_text()
        tampered = text.replace(old, new, 1)
        assert tampered != text
        out_path.write_text(tampered)
        code, out, err = run(capsys, ["verify", str(out_path)])
        assert code == 2 and not out
        assert err.startswith(f"error: certificate line {line}: ") and named in err

    # The format and the slope cut are fixed, so a header that gives another
    # one is refused, even where the nodes agree with it: with the cut at
    # 1/1000 no target is nonzero, and every other value stays right.
    @pytest.mark.parametrize(
        ("old", "new", "named"),
        [
            ("slope-cut: 1/12\n", "slope-cut: 1/1000\n", "'1/1000'"),
            ("basket3-certificate: 1\n", "basket3-certificate: 2\n", "'2'"),
        ],
        ids=["slope-cut", "format"],
    )
    def test_other_fixed_header_is_invalid_input(self, tmp_path, capsys, old, new, named):
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "2", "--r-max", "30", "--out", str(out_path)])
        text = out_path.read_text()
        zeroed = re.subn(r"target=[1-9][0-9]*$", "target=0", text, flags=re.M)
        assert zeroed[1] == 22
        out_path.write_text(zeroed[0].replace(old, new, 1))
        code, out, err = run(capsys, ["verify", str(out_path)])
        assert code == 2 and not out and named in err

    def test_missing_certificate_is_io_failure(self, tmp_path, capsys):
        code, _, err = run(capsys, ["verify", str(tmp_path / "absent.txt")])
        assert code == 3 and err

    def test_non_ascii_byte_names_its_line(self, tmp_path, capsys):
        # Each line is decoded on its own, so a byte that is not ASCII is
        # named with its line, as every other reader error is.
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "2", "--r-max", "12", "--out", str(out_path)])
        data = out_path.read_bytes()
        tampered = data.replace(b" net=0 xidelta=-28 ", b" n\xc3\xa9t=0 xidelta=-28 ", 1)
        assert tampered != data
        out_path.write_bytes(tampered)
        code, out, err = run(capsys, ["verify", str(out_path)])
        assert (code, out) == (2, "")
        assert err == (
            "error: certificate line 12: 'ascii' codec can't decode byte 0xc3"
            " in position 57: ordinal not in range(128)\n"
        )

    # Which error wins.  The 2/5 line is doctored to an issue first, which
    # alone exits 1.  A reader error still exits 2 wherever it stands: a
    # bad line after the issue, or a node count that is only known wrong at
    # the end.  A missing final newline is named before everything else.
    @pytest.mark.parametrize(
        ("edit", "error"),
        [
            (lambda t: t.replace(" xibar=14 target=14\n", " xibar=14 target=x\n", 1),
             "certificate line 29: malformed value 'x' in node field 'target=x';"
             " want 'target={int}'"),
            (lambda t: t.replace("nodes: 23\n", "nodes: 24\n", 1),
             "certificate line 6: node count 23 != declared 24"),
            (lambda t: t.replace("basket3-certificate: 1\n", "basket3-certificate: 2\n")[:-1],
             "certificate line 30: no newline at its end"),
        ],
        ids=["bad-line-after-issue", "count-after-issue", "newline-before-header"],
    )
    def test_reader_error_wins_over_issues(self, tmp_path, capsys, edit, error):
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "2", "--r-max", "12", "--out", str(out_path)])
        issue = out_path.read_text().replace(
            SPLIT_25, SPLIT_25.replace("xidelta=-28", "xidelta=-27")
        )
        out_path.write_text(issue)
        code, out, _ = run(capsys, ["verify", str(out_path)])
        assert code == 1
        assert json.loads(out)["issues"] == ["2/5: recorded xidelta -27 != -28"]
        tampered = edit(issue)
        assert tampered != issue
        out_path.write_text(tampered)
        assert run(capsys, ["verify", str(out_path)]) == (2, "", f"error: {error}\n")

    def test_certificate_from_a_pipe(self, tmp_path, capsys):
        # A file that cannot seek is read whole first, so a certificate on a
        # pipe gets the report of the same file, the coverage walk included.
        out_path = tmp_path / "cert.txt"
        run(capsys, ["replay", "--which", "2", "--r-max", "12", "--out", str(out_path)])
        doctored = out_path.read_text().replace("nodes: 23\n", "nodes: 22\n", 1).replace(
            "1/3 leaf xidelta=-14 xibar=0 target=0\n", "", 1
        )
        out_path.write_text(doctored)
        code, out, _ = run(capsys, ["verify", str(out_path)])
        assert code == 1 and "coverage mismatch" in out
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "from basket3.cli import entry; entry()",
             "verify", "/dev/stdin"],
            input=doctored.encode("ascii"), capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (1, out, b"")


class TestEnumerate:
    def test_sigma_one_candidates(self, tmp_path, capsys):
        constraints = write_json(
            tmp_path,
            "c.json",
            {"chi_min": 0, "chi_max": 0, "sigma_max": 1, "m_max": 6,
             "k3": {"search": {}}},
        )
        code, out, _ = run(capsys, ["enumerate", constraints])
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 11
        assert lines[0]["basket"] == []
        assert [line["basket"] for line in lines[1:]] == [
            [[1, r]] for r in range(2, 12)
        ]

    def test_explicit_policy(self, tmp_path, capsys):
        constraints = write_json(
            tmp_path,
            "c.json",
            {"chi_min": -3, "chi_max": -3, "sigma_max": 0, "m_max": 5,
             "k3": {"explicit": "2"}},
        )
        code, out, _ = run(capsys, ["enumerate", constraints])
        assert code == 0
        (line,) = [json.loads(line) for line in out.splitlines()]
        assert line["pm"] == [10, 20, 35, 57]

    @pytest.mark.parametrize(
        ("update", "field"),
        [
            ({"require_sigma12_zero": "false"}, "require_sigma12_zero"),
            ({"require_nonneg_pm": 0}, "require_nonneg_pm"),
            ({"sigma_max": 1.5}, "sigma_max"),
            ({"m_max": True}, "m_max"),
            ({"k3": {"search": {"denominator": "8"}}}, "denominator"),
        ],
    )
    def test_inexact_constraints_rejected(self, tmp_path, capsys, update, field):
        data = {"chi_min": 0, "chi_max": 0, "sigma_max": 1, "m_max": 6}
        constraints = write_json(tmp_path, "c.json", {**data, **update})
        code, out, err = run(capsys, ["enumerate", constraints])
        assert code == 2 and not out
        assert repr(field) in err

    @pytest.mark.parametrize(
        ("update", "names"),
        [
            ({"max_index": 3}, ("max_index", "require_sigma12_zero")),
            ({"max_index": 3, "require_sigma12_zero": True},
             ("max_index", "require_sigma12_zero")),
            ({"max_index": -5, "require_sigma12_zero": False}, ("max_index",)),
        ],
    )
    def test_unused_or_negative_max_index_rejected(
        self, tmp_path, capsys, update, names
    ):
        data = {"chi_min": 0, "chi_max": 0, "sigma_max": 2, **update}
        constraints = write_json(tmp_path, "c.json", data)
        code, out, err = run(capsys, ["enumerate", constraints])
        assert code == 2 and not out
        assert all(name in err for name in names)

    @pytest.mark.parametrize("k3", ["04/2", "-0", "2/1"])
    def test_non_canonical_explicit_volume_rejected(self, tmp_path, capsys, k3):
        data = {"chi_min": -3, "chi_max": -3, "sigma_max": 0, "k3": {"explicit": k3}}
        constraints = write_json(tmp_path, "c.json", data)
        code, out, err = run(capsys, ["enumerate", constraints])
        assert code == 2 and not out and repr(k3) in err

    def test_missing_constraint_field_named(self, tmp_path, capsys):
        constraints = write_json(tmp_path, "c.json", {"chi_min": 0, "sigma_max": 1})
        code, _, err = run(capsys, ["enumerate", constraints])
        assert code == 2 and "'chi_max'" in err

    @pytest.mark.parametrize(
        ("update", "key"),
        [
            ({"m_mx": 30}, "m_mx"),
            ({"k3": {"search": {}, "explict": "2"}}, "explict"),
            ({"k3": {"search": {"denom": 8}}}, "denom"),
        ],
    )
    def test_unknown_key_named(self, tmp_path, capsys, update, key):
        data = {"chi_min": 0, "chi_max": 0, "sigma_max": 0}
        constraints = write_json(tmp_path, "c.json", {**data, **update})
        code, out, err = run(capsys, ["enumerate", constraints])
        assert code == 2 and not out
        assert f"unknown key {key!r}" in err

    # Pinned bytes: any change to the candidate stream fails here.
    @pytest.mark.parametrize(
        ("constraints", "lines", "digest"),
        [
            (
                {"chi_min": -3, "chi_max": 3, "sigma_max": 2, "m_max": 30,
                 "k3": {"search": {}}},
                532,
                "b9c62770a19bd4bbc86c059c3b5eb4b18eaf9ed3bccf001a6146a332514db5c0",
            ),
            (
                {"chi_min": -2, "chi_max": 2, "sigma_max": 2, "m_max": 13,
                 "require_sigma12_zero": False, "max_index": 30,
                 "require_nonneg_pm": False,
                 "k3": {"search": {"denominator": 720}}},
                700,
                "24ec29ed4d70ae511a3eb52db93f0c25a8d81f7abcb460605bab9c6a29052765",
            ),
            (
                {"chi_min": -4, "chi_max": 4, "sigma_max": 3, "m_max": 20,
                 "require_nonneg_pm": False, "k3": {"explicit": "7/2"}},
                36,
                "49447f50483eac9b52ec7d766154d0cfa1adf482b167ac82a1bab74b3d1573f9",
            ),
        ],
    )
    def test_stream_is_pinned(self, tmp_path, capsys, constraints, lines, digest):
        path = write_json(tmp_path, "c.json", constraints)
        code, out, _ = run(capsys, ["enumerate", path])
        assert code == 0
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # The same digests check the installed console script in CI.
    PINNED = Path(__file__).parent / "data" / "enumerate"

    @pytest.mark.parametrize(
        ("digest", "out"),
        [
            pytest.param(*line.split(), id=line.split()[1])
            for line in (PINNED / "SHA256SUMS").read_text().splitlines()
        ],
    )
    def test_stream_file_is_pinned(self, capsys, digest, out):
        constraints = self.PINNED / out.replace(".out", ".json")
        code, out, _ = run(capsys, ["enumerate", str(constraints)])
        assert code == 0 and out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_closed_pipe_ends_quietly(self, tmp_path):
        # Far more output than a pipe buffers, so the writer meets the
        # closed pipe while it still has lines to print.
        constraints = write_json(
            tmp_path, "c.json",
            {"chi_min": -8, "chi_max": 8, "sigma_max": 2, "m_max": 30},
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-c", "from basket3.cli import entry; entry()",
             "enumerate", constraints],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
        assert json.loads(first)["basket"] == []
        assert err == b""


# The sweep workload's constraints, and the files of the pinned streams.
SWEEP = {"chi_min": -8, "chi_max": 8, "sigma_max": 3, "m_max": 30,
         "require_sigma12_zero": True, "require_nonneg_pm": True,
         "k3": {"search": {}}}
SWEEP_SHA256 = "11fbfce0168406f3"
PINNED_CONSTRAINTS = sorted(TestEnumerate.PINNED.glob("*.json"))
# A patch made in this process reaches the workers only when they fork.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="workers see a patched function only through fork",
)


class TestEnumerateJobs:
    """``enumerate --jobs``: one stream and one exit code for every value."""

    def stream(self, capsys, constraints, jobs):
        code = main(["enumerate", constraints, "--jobs", str(jobs)])
        return code, capsys.readouterr().out

    @pytest.mark.parametrize(
        "constraints",
        [pytest.param(str(path), id=path.stem) for path in PINNED_CONSTRAINTS]
        + [pytest.param(None, id="sweep")],
    )
    def test_jobs_do_not_change_the_stream(
        self, tmp_path, capsys, monkeypatch, constraints
    ):
        # Four CPUs, so --jobs 3 runs three workers and --jobs 64 four.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        constraints = constraints or write_json(tmp_path, "c.json", SWEEP)
        streams = [self.stream(capsys, constraints, jobs) for jobs in (1, 2, 3, 64)]
        assert streams[0][0] == 0 and streams[0][1]
        assert all(stream == streams[0] for stream in streams)
        assert not multiprocessing.active_children()

    def test_pool_takes_whole_baskets_in_order(
        self, tmp_path, capsys, monkeypatch, pool_log
    ):
        # The stand-in pool runs the tasks in this process and logs them.
        constraints = write_json(tmp_path, "c.json", SWEEP)
        expected = self.stream(capsys, constraints, 1)
        for cpus, jobs, sizes in ((2, 2, [2]), (2, 64, [2]), (1, 64, []), (3, 2, [2])):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
            pool_log.update(sizes=[], tasks=[], maps=[], shutdowns=[], in_flight=0)
            assert self.stream(capsys, constraints, jobs) == expected
            assert pool_log["sizes"] == sizes
            if sizes:
                chunks = [baskets for _, baskets in pool_log["tasks"]]
                assert {len(chunk) for chunk in chunks[:-1]} == {cli._CHUNK_BASKETS}
                baskets = list(cli.enumerate_baskets(cli._constraints_from_json(SWEEP)))
                assert [b for chunk in chunks for b in chunk] == baskets
                # No more chunks are submitted and not yet yielded than
                # _CHUNKS_PER_WORKER per worker, and the pool is shut down once.
                assert pool_log["in_flight"] == sizes[0] * cli._CHUNKS_PER_WORKER
                assert pool_log["shutdowns"] == [True]

    def test_one_worker_starts_no_pool(self, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("one worker runs in this process")

        monkeypatch.setattr(certificates, "ProcessPoolExecutor", no_pool)
        constraints = write_json(tmp_path, "c.json", SWEEP)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        for jobs in (1, 2, 64):
            code, out = self.stream(capsys, constraints, jobs)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest().startswith(SWEEP_SHA256)

    @pytest.mark.parametrize("jobs", ["0", "-1", "+1", "1_0"])
    def test_malformed_jobs_rejected(self, tmp_path, capsys, jobs):
        constraints = write_json(tmp_path, "c.json", SWEEP)
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", constraints, "--jobs", jobs])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def patch_one_basket(self, monkeypatch, change):
        """Route the row checks of one basket, in a late chunk, through ``change``.

        ``change(basket, chi, report)`` sees each report of that basket; the
        basket is the first entry of the basket half the check is given.
        """
        baskets = list(cli.enumerate_baskets(cli._constraints_from_json(SWEEP)))
        target = baskets[3 * cli._CHUNK_BASKETS + 5]
        check = cli._row_report

        def patched(half, pm, chi, k3, *args):
            report = check(half, pm, chi, k3, *args)
            return change(half[0], chi, report) if half[0] == target else report

        monkeypatch.setattr(cli, "_row_report", patched)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        return target

    @needs_fork
    def test_failed_form_check_is_the_same_at_every_jobs(
        self, tmp_path, capsys, monkeypatch
    ):
        constraints = write_json(tmp_path, "c.json", SWEEP)
        _, clean = self.stream(capsys, constraints, 1)
        self.patch_one_basket(
            monkeypatch,
            lambda basket, chi, report: replace(report, target=report.p_form + 1),
        )
        one, two = (self.stream(capsys, constraints, jobs) for jobs in (1, 2))
        assert one == two == (1, clean)

    @needs_fork
    def test_raising_form_check_is_the_same_at_every_jobs(
        self, tmp_path, capsys, monkeypatch
    ):
        def fail(basket, chi, report):
            raise ArithmeticError(f"forced at {basket.pairs()} chi {chi}")

        target = self.patch_one_basket(monkeypatch, fail)
        constraints = write_json(tmp_path, "c.json", SWEEP)
        texts = []
        for jobs in (1, 2):
            with pytest.raises(ArithmeticError) as exc:
                main(["enumerate", constraints, "--jobs", str(jobs)])
            texts.append(str(exc.value))
            # The pool is shut down before the error leaves the command.
            assert not multiprocessing.active_children()
        assert texts[0] == texts[1] == f"forced at {target.pairs()} chi -8"

    @pytest.mark.parametrize("end", ["closed-pipe", "raising-check"])
    def test_an_early_end_shuts_the_pool_down_once(
        self, tmp_path, capsys, monkeypatch, pool_log, end
    ):
        # A writer that meets a closed pipe, or a form check that raises in
        # a late chunk, ends the stream before its last chunk is submitted;
        # either way the pool is shut down once, its queued tasks cancelled.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                if self.tell():
                    raise BrokenPipeError("closed")
                return super().write(text)

        def fail(basket, chi, report):
            raise ArithmeticError("forced")

        constraints = write_json(tmp_path, "c.json", SWEEP)
        argv = ["enumerate", constraints, "--jobs", "2"]
        if end == "closed-pipe":
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(argv) == cli.IO_FAILURE
        else:
            self.patch_one_basket(monkeypatch, fail)
            with pytest.raises(ArithmeticError, match="^forced$"):
                main(argv)
        chunks = len(list(cli.enumerate_baskets(cli._constraints_from_json(SWEEP))))
        assert len(pool_log["tasks"]) < chunks / cli._CHUNK_BASKETS
        assert pool_log["sizes"] == [2] and pool_log["shutdowns"] == [True]

    def test_closed_pipe_stops_the_workers(self, tmp_path):
        # As test_closed_pipe_ends_quietly, with two workers: the process
        # still ends by SIGPIPE, silently, and none of its workers is left.
        # Forked workers share its command line, which names the
        # constraints file.  stderr goes to a file, which a worker left
        # behind would not keep open as it would a pipe.
        constraints = write_json(tmp_path, "jobs-pipe.json", SWEEP)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        with open(tmp_path / "err", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c",
                 "import os; os.cpu_count = lambda: 2;"
                 " from basket3.cli import entry; entry()",
                 "enumerate", constraints, "--jobs", "2"],
                stdout=subprocess.PIPE, stderr=err, env=env,
            )
            first = [proc.stdout.readline() for _ in range(2)]
            proc.stdout.close()
            code = proc.wait(timeout=60)
        left = []
        for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
            with contextlib.suppress(OSError):
                if constraints.encode() in cmdline.read_bytes():
                    left.append(int(cmdline.parent.name))
        for pid in left:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
        assert not left
        assert code == -signal.SIGPIPE
        assert [json.loads(line)["chi"] for line in first] == [-8, -7]
        assert (tmp_path / "err").read_bytes() == b""

    def test_peak_memory_is_flat_in_sigma_max(self, tmp_path):
        # The in-process stream keeps one basket's lines at a time: the
        # traced peak at sigma_max 4 (1,956 lines) is within a small
        # constant of the one at sigma_max 3 (416 lines), where keeping the
        # stream would add over 600 kB.  Objects freed to the interpreter's
        # free lists stay traced, so a run's peak also holds what the free
        # lists lacked when it started: after one untraced run, five traced
        # runs of the same constraints peaked anywhere from 34 to 105 kB.
        # So, with the collector off, five untraced runs fill the free lists
        # and each sigma_max takes the least peak of two traced runs.
        peaks = []
        for sigma in (3, 4):
            constraints = write_json(
                tmp_path, f"s{sigma}.json",
                {"chi_min": 0, "chi_max": 0, "sigma_max": sigma, "m_max": 12},
            )
            runs = []
            gc.collect()
            gc.disable()
            try:
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    for _ in range(5):
                        assert main(["enumerate", constraints]) == 0
                    for _ in range(2):
                        tracemalloc.start()
                        assert main(["enumerate", constraints]) == 0
                        runs.append(tracemalloc.get_traced_memory()[1])
                        tracemalloc.stop()
            finally:
                tracemalloc.stop()
                gc.enable()
            peaks.append(min(runs))
        assert abs(peaks[1] - peaks[0]) <= 16 * 1024


# Run in a fresh interpreter with src first on sys.path and two CPUs: each
# command, then the pool modules loaded after it, as one JSON line.
START_UP = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
os.cpu_count = lambda: 2
import basket3, basket3.cli
work = sys.argv[2]
for argv in map(json.loads, sys.argv[3:]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = basket3.cli.main([arg.format(work=work) for arg in argv])
    loaded = sorted(m for m in sys.modules if m.startswith(("concurrent", "multiprocessing")))
    print(json.dumps([code, out.getvalue(), loaded]))
"""


class TestPoolImport:
    """The worker-pool stack is imported by the first pool, not with the CLI."""

    def test_one_worker_commands_never_load_it(self, tmp_path):
        constraints = write_json(tmp_path, "c.json", SWEEP)
        replay = ["replay", "--which", "2", "--r-max", "40", "--out"]
        steps = [
            replay + ["{work}/jobs1.txt", "--jobs", "1"],
            ["verify", "{work}/jobs1.txt"],
            ["enumerate", constraints],
            ["ineq", "--which", "3", "--basket", "[[2,5]]"],
            ["constants", "120"],
            replay + ["{work}/jobs2.txt", "--jobs", "2"],
            ["enumerate", constraints, "--jobs", "2"],
        ]
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", START_UP, str(src), str(tmp_path)]
            + [json.dumps(argv) for argv in steps],
            capture_output=True, text=True, timeout=120, check=True,
        )
        results = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [code for code, _, _ in results] == [0] * len(steps)
        assert [loaded for _, _, loaded in results[:5]] == [[]] * 5
        for _, _, loaded in results[5:]:
            assert {"concurrent.futures.process", "multiprocessing"} <= set(loaded)
        assert (tmp_path / "jobs1.txt").read_bytes() == (tmp_path / "jobs2.txt").read_bytes()
        assert results[0][1] == results[5][1]
        assert results[2][1] == results[6][1]
        assert hashlib.sha256(results[6][1].encode()).hexdigest().startswith(SWEEP_SHA256)

    def test_the_attribute_is_the_pool_class(self):
        from concurrent.futures import ProcessPoolExecutor

        assert certificates.ProcessPoolExecutor is ProcessPoolExecutor
        message = "module 'basket3.certificates' has no attribute 'nope'"
        with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
            certificates.nope

    @pytest.mark.parametrize("command", ["replay", "enumerate"])
    def test_the_next_pool_is_what_the_attribute_names(self, command, tmp_path, monkeypatch):
        # Both commands make their pool from certificates.ProcessPoolExecutor.
        class Started(Exception):
            pass

        def pool(max_workers):
            raise Started(max_workers)

        monkeypatch.setattr(certificates, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = {
            "replay": ["replay", "--which", "2", "--r-max", "40",
                       "--out", str(tmp_path / "cert.txt"), "--jobs", "2"],
            "enumerate": ["enumerate", write_json(tmp_path, "c.json", SWEEP), "--jobs", "2"],
        }[command]
        with pytest.raises(Started) as exc:
            main(argv)
        assert exc.value.args == (2,)


@pytest.mark.parametrize("command", ["replay-1", "replay-2", "verify", "enumerate"])
def test_a_second_call_leaves_no_cyclic_garbage(command, tmp_path):
    # With the collector off and every object it finds kept, a call after
    # a first one must leave nothing behind for it: the parser is built
    # once, and the call's own objects are freed by their reference counts.
    cert = str(tmp_path / "cert.txt")
    replay = ["replay", "--which", "2", "--r-max", "30", "--out", cert]
    argv = {
        "replay-1": [*replay, "--jobs", "1"],
        "replay-2": [*replay, "--jobs", "2"],
        "verify": ["verify", cert],
        "enumerate": [
            "enumerate",
            write_json(tmp_path, "c.json", {"chi_min": 0, "chi_max": 0, "sigma_max": 2}),
        ],
    }[command]
    enabled = gc.isenabled()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(replay) == 0
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 0
            gc.collect()
            garbage = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
    assert garbage == []


def run_stdin(argv, doc):
    """Exit code and stdout of ``main(argv)`` reading ``doc`` as JSON on stdin."""
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


NON_OBJECTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=3),
)
SMALL_OBJECTS = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
NOT_INT = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=2),
    SMALL_OBJECTS,
)
NOT_INT_OR_NULL = st.one_of(st.none(), NOT_INT)
NOT_FRACTION = NOT_INT_OR_NULL.filter(lambda v: not isinstance(v, str))
NOT_BOOL = st.one_of(
    st.none(), st.integers(), st.floats(allow_nan=False), st.text(max_size=5)
)


def with_field(valid, fields):
    """``valid`` with one of ``fields`` (name -> strategy) set to a bad value."""
    return st.sampled_from(sorted(fields)).flatmap(
        lambda name: fields[name].map(lambda value: {**valid, name: value})
    )


def with_unknown_key(valid, known):
    """``valid`` plus one key outside ``known``, with any JSON value."""
    key = st.text(max_size=8).filter(lambda k: k not in known)
    value = st.one_of(NON_OBJECTS, SMALL_OBJECTS)
    return st.tuples(key, value).map(lambda kv: {**valid, kv[0]: kv[1]})


DOC_KEYS = ("chi", "k3", "p2", "basket")
PLURI_VALID = {"chi": 1, "k3": "11/2", "basket": [[1, 2]]}
PLURI_VALID_P2 = {"chi": 1, "p2": 0, "basket": [[1, 2]]}
BAD_BASKET = st.one_of(
    NOT_INT_OR_NULL.filter(lambda v: not isinstance(v, list)),
    NOT_INT.map(lambda b: [[b, 2]]),
    NOT_INT.map(lambda r: [[1, r]]),
    st.lists(st.integers(1, 5), max_size=3).filter(lambda p: len(p) != 2).map(
        lambda p: [p]
    ),
)
MALFORMED_PLURI = st.one_of(
    NON_OBJECTS,
    with_unknown_key(PLURI_VALID, DOC_KEYS),
    with_field(
        PLURI_VALID, {"chi": NOT_INT_OR_NULL, "k3": NOT_FRACTION, "basket": BAD_BASKET}
    ),
    with_field(PLURI_VALID_P2, {"p2": NOT_INT_OR_NULL}),
)

CONSTRAINT_KEYS = (
    "chi_min", "chi_max", "sigma_max", "require_sigma12_zero", "k3", "m_max",
    "require_nonneg_pm", "max_index",
)
ENUM_VALID = {"chi_min": 0, "chi_max": 0, "sigma_max": 0, "m_max": 4}
BAD_K3_POLICY = st.one_of(
    NON_OBJECTS,
    st.just({}),
    st.just({"explicit": "2", "search": {}}),
    with_unknown_key({"search": {}}, ("explicit", "search")),
    NOT_FRACTION.map(lambda v: {"explicit": v}),
    NON_OBJECTS.map(lambda v: {"search": v}),
    with_unknown_key({}, ("denominator",)).map(lambda search: {"search": search}),
    st.one_of(NOT_INT, st.integers(max_value=0)).map(
        lambda v: {"search": {"denominator": v}}
    ),
)
MALFORMED_ENUMERATE = st.one_of(
    NON_OBJECTS,
    with_unknown_key(ENUM_VALID, CONSTRAINT_KEYS),
    with_field(
        ENUM_VALID,
        {
            "chi_min": NOT_INT_OR_NULL,
            "chi_max": NOT_INT_OR_NULL,
            "sigma_max": NOT_INT_OR_NULL,
            "m_max": NOT_INT_OR_NULL,
            # null is allowed: no bound.  Any bound is refused beside the
            # default require_sigma12_zero, which leaves it unread.
            "max_index": st.one_of(NOT_INT, st.integers()),
            "require_sigma12_zero": NOT_BOOL,
            "require_nonneg_pm": NOT_BOOL,
            "k3": BAD_K3_POLICY,
        },
    ),
)


class TestMalformedDocuments:
    def test_valid_documents_pass(self):
        for doc in (PLURI_VALID, PLURI_VALID_P2):
            assert run_stdin(["pluri", "-", "--m-to", "3"], doc)[0] == 0
        assert run_stdin(["enumerate", "-"], ENUM_VALID)[0] == 0

    @settings(max_examples=60, deadline=None)
    @given(MALFORMED_PLURI)
    def test_pluri_exits_invalid(self, doc):
        code, out = run_stdin(["pluri", "-", "--m-to", "3"], doc)
        assert code == 2 and not out

    @settings(max_examples=60, deadline=None)
    @given(MALFORMED_ENUMERATE)
    def test_enumerate_exits_invalid(self, doc):
        code, out = run_stdin(["enumerate", "-"], doc)
        assert code == 2 and not out


def candidate_groups():
    """Baskets, each with its candidates' (chi, P_2, row length) triples.

    K^3 = 2(P_2 + 3 chi - l(2)) makes P_2 an integer, so every row has one.
    """
    points = st.integers(2, 24).flatmap(
        lambda r: st.sampled_from([b for b in range(1, r // 2 + 1) if gcd(b, r) == 1])
        .map(lambda b: (b, r))
    )
    basket = st.lists(points, max_size=4).map(Basket.from_pairs)
    row = st.tuples(st.integers(-10**4, 10**4), st.integers(-10**9, 10**9),
                    st.integers(1, 12))
    return st.lists(st.tuples(basket, st.lists(row, min_size=1, max_size=3)), max_size=4)


def candidate(basket, chi, p2, length):
    """The candidate whose row is P_2 .. P_{length + 1}, up to the first non-integer."""
    inv = ThreefoldInvariants(k3_from_p2(chi, basket, p2), chi, basket)
    pm = []
    for m in range(2, length + 2):
        rep = plurigenus(inv, m)
        if not rep.is_integral:
            break
        pm.append(rep.p_m)
    return Candidate(basket, chi, inv.k3, tuple(pm), len(pm) + 1)


def run_stream(cands):
    """``run_stdin`` of ``enumerate`` with ``cands`` as the candidate stream."""
    with mock.patch.object(cli, "enumerate_candidates", lambda _: iter(cands)):
        return run_stdin(["enumerate", "-"], ENUM_VALID)


class TestCandidateLine:
    # ``enumerate`` writes each line from a per-basket head; it must be the
    # line json.dumps writes for the record.  The form checks read each
    # row, so the rows are true P_m of the drawn (K^3, chi).
    @settings(max_examples=80, deadline=None)
    @given(candidate_groups())
    @example([(Basket(), [(-3, 10, 2)])])
    @example([(Basket.from_pairs([(1, 2), (2, 5), (2, 5)]), [(-1, -1, 1)]),
              (Basket.from_pairs([(3, 7)]), [(0, 0, 2)])])
    def test_line_is_the_sorted_json_record(self, groups):
        cands = [
            candidate(basket, chi, p2, length)
            for basket, rows in groups
            for chi, p2, length in rows
        ]
        _, out = run_stream(cands)
        assert out == "".join(
            json.dumps(
                {"basket": c.basket.pairs(), "chi": c.chi,
                 "k3": format_fraction(c.k3), "pm": c.pm},
                sort_keys=True,
            ) + "\n"
            for c in cands
        )


class TestRowFormat:
    # Each P_m row is written by the format of its own length; the text must
    # be the list's, as json.dumps writes a list of ints.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-10**15, 10**15), min_size=1, max_size=40).map(tuple))
    @example((0,))
    @example((-1, 10, -200, 3000, 10**40))
    def test_row_is_written_as_its_list(self, pm):
        text = cli._row_format(len(pm)) % pm
        assert text == str(list(pm)) == json.dumps(list(pm))


class TestFormChecksReadThePrintedRow:
    """``enumerate`` checks both forms on the P_m each line prints.

    A printed P_m that is off by one fails the check when the m is in a
    form's support: 2 .. 7 for form 1; 2, 3, 5 .. 8 and 10 .. 13 for form
    2.  P_9 and every P_m above 13 are in neither, so a wrong one there is
    printed and passes: the checks cover the forms, not the whole row.
    """

    CONSTRAINTS = EnumConstraints(-2, 2, 2, m_max=20)

    def stream(self, m=None):
        # The candidates, with P_m of the middle one raised by one.
        cands = list(enumerate_candidates(self.CONSTRAINTS))
        if m is not None:
            i = len(cands) // 2
            pm = list(cands[i].pm)
            pm[m - 2] += 1
            cands[i] = replace(cands[i], pm=tuple(pm))
        return cands

    @pytest.mark.parametrize(("m", "which"), [(2, 1), (4, 1), (7, 1), (8, 2), (13, 2)])
    def test_a_wrong_p_m_in_a_form_raises(self, m, which):
        with pytest.raises(ArithmeticError, match=f"form {which} evaluations disagree"):
            run_stream(self.stream(m))

    @pytest.mark.parametrize("m", [9, 14, 20])
    def test_a_wrong_p_m_outside_both_forms_passes(self, m):
        code, out = run_stream(self.stream())
        wrong_code, wrong_out = run_stream(self.stream(m))
        assert wrong_code == code == 0
        assert wrong_out != out
        assert len(wrong_out.splitlines()) == len(out.splitlines())

    def test_form_two_is_checked_where_form_one_fails(self, monkeypatch):
        # With form 1 failing on the basket of a wrong P_8 (in form 2's
        # support only), the stream exits 1 on the true rows and still
        # reports the wrong P_8.
        cands = self.stream(8)
        target = cands[len(cands) // 2].basket
        check = cli._row_report

        def form_one_fails(half, *args):
            report = check(half, *args)
            if half[0] == target and report.which == 1:
                return replace(report, target=report.p_form + 1)
            return report

        monkeypatch.setattr(cli, "_row_report", form_one_fails)
        assert run_stream(self.stream())[0] == cli.VIOLATION
        with pytest.raises(ArithmeticError, match="form 2 evaluations disagree"):
            run_stream(cands)


# P_m of either form: 2 .. 7 for form 1; 2, 3, 5 .. 8 and 10 .. 13 for form 2.
FORM_SUPPORT = (2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13)


@st.composite
def sweep_constraints(draw):
    """Small constraints: chi in -3..3, sigma_max 0..2 and m_max 2..20.

    Rows shorter than 7 or 13 leave some P_m of a form to be computed.
    The volume is explicit, or searched with the default denominator or
    with 1, 2 or 8.
    """
    chi_min = draw(st.integers(-3, 3))
    explicit = st.one_of(
        st.integers(1, 40), st.fractions(Fraction(1, 8), 40, max_denominator=8)
    ).map(ExplicitK3)
    search = st.sampled_from([None, 1, 2, 8]).map(MinimalK3Search)
    return EnumConstraints(
        chi_min=chi_min,
        chi_max=draw(st.integers(chi_min, 3)),
        sigma_max=draw(st.integers(0, 2)),
        k3_policy=draw(st.one_of(explicit, search)),
        m_max=draw(st.integers(2, 20)),
        require_nonneg_pm=draw(st.booleans()),
    )


class TestBasketLinesMatchPerCandidateCalls:
    """``_basket_lines`` takes each form's basket half once per basket.

    Its text, verdict and errors must be those of one
    ``verify_plurigenus_form`` call per candidate and form.
    """

    @settings(max_examples=60, deadline=None)
    @given(sweep_constraints(), st.lists(st.integers(0, 999), min_size=3, max_size=3))
    @example(EnumConstraints(-1, 1, 2, m_max=6), [5, 1, 3])
    @example(EnumConstraints(0, 2, 1, k3_policy=ExplicitK3(4), m_max=12,
                             require_nonneg_pm=False), [0, 2, 6])
    def test_text_verdict_and_errors_match(self, constraints, picks):
        groups = [
            (basket, list(attach_invariants(basket, constraints)))
            for basket in enumerate_baskets(constraints)
        ]
        for basket, cands in groups:
            expected = basket_lines_by_candidate(basket, cands)
            assert cli._basket_lines(basket, cands) == expected
        groups = [(basket, cands) for basket, cands in groups if cands]
        if not groups:
            return
        # One P_m in a form's support raised by one, in a candidate that
        # ``picks`` chooses: the same error from both.
        basket, cands = groups[picks[0] % len(groups)]
        i = picks[1] % len(cands)
        support = [m for m in FORM_SUPPORT if m <= constraints.m_max]
        m = support[picks[2] % len(support)]
        pm = list(cands[i].pm)
        pm[m - 2] += 1
        cands[i] = replace(cands[i], pm=tuple(pm))
        errors = []
        for lines in (cli._basket_lines, basket_lines_by_candidate):
            with pytest.raises(ArithmeticError, match="evaluations disagree") as exc:
                lines(basket, cands)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


class TestConstantsAndLemmas:
    def test_constants_outputs(self, capsys):
        code, out, _ = run(capsys, ["constants", "120"])
        assert code == 0
        data = json.loads(out)
        assert data["c_general"] == 55296000
        assert data["c1"] == "1/240"
        assert data["c_prime"] == "1/445456"
        assert data["published_c_prime"] == "5/89168"
        assert data["published_m1"] == 112

    def test_lemmas_clean(self, capsys):
        code, out, _ = run(capsys, ["lemmas", "--r1-max", "10", "--r2-max", "10"])
        assert code == 0
        data = json.loads(out)
        assert data["mismatch_count"] == 0
        assert data["nodiff_checked"] > 0 and data["diff_checked"] > 0

    def test_lemmas_default_stdout_is_pinned(self, capsys):
        code, out, _ = run(capsys, ["lemmas"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4be0c9fac7532ead44e84c6b88c8777b57a109b48ec5ebcb1b5c7ef9d0cfd49b"
        )

    def test_lemmas_least_split(self, capsys):
        code, out, _ = run(capsys, ["lemmas", "--r1-max", "2", "--r2-max", "3"])
        assert code == 0 and json.loads(out)["pairs"] == 1

    @pytest.mark.parametrize("bounds", [("-3", "0"), ("2", "2"), ("1", "25")])
    def test_lemmas_empty_sweep_rejected(self, capsys, bounds):
        code, out, err = run(capsys, ["lemmas", "--r1-max", bounds[0], "--r2-max", bounds[1]])
        assert code == 2 and not out
        assert f"--r1-max {bounds[0]} and --r2-max {bounds[1]}" in err

    def test_no_floats_anywhere(self, capsys):
        code, out, _ = run(capsys, ["constants", "120"])
        assert code == 0
        assert "." not in out


# Every integer on the command line has the one spelling 0 or -?[1-9][0-9]*.
@pytest.mark.parametrize(
    ("argv", "bad"),
    [
        (["replay", "--which", "1", "--r-max", "0_12", "--out", "{tmp}/cert.txt"], "0_12"),
        (["replay", "--which", "01", "--r-max", "12", "--out", "{tmp}/cert.txt"], "01"),
        (["constants", "0120"], "0120"),
        (["ineq", "--which", "+3", "--basket", "[[2,5]]"], "+3"),
        (["pluri", "{tmp}/doc.json", "--m-to", " 3"], " 3"),
        (["pluri", "{tmp}/doc.json", "--m-from", "-0"], "-0"),
        (["lemmas", "--r1-max", "1_0"], "1_0"),
        (["lemmas", "--r2-max", "010"], "010"),
    ],
)
def test_non_canonical_argv_integer_rejected(tmp_path, capsys, argv, bad):
    write_json(tmp_path, "doc.json", X10_DOC)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and not captured.out
    assert repr(bad) in captured.err
    assert not (tmp_path / "cert.txt").exists()
