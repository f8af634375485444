"""Command-line interface: outputs, formats, and exit codes."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from basket3.cli import main
from oracles import hypersurface_h0

X10_DOC = {"chi": -3, "k3": "2", "basket": []}


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
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

    def test_missing_certificate_is_io_failure(self, tmp_path, capsys):
        code, _, err = run(capsys, ["verify", str(tmp_path / "absent.txt")])
        assert code == 3 and err


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

    def test_missing_constraint_field_named(self, tmp_path, capsys):
        constraints = write_json(tmp_path, "c.json", {"chi_min": 0, "sigma_max": 1})
        code, _, err = run(capsys, ["enumerate", constraints])
        assert code == 2 and "'chi_max'" in err

    def test_no_jobs_flag(self, tmp_path, capsys):
        constraints = write_json(
            tmp_path, "c.json", {"chi_min": 0, "chi_max": 0, "sigma_max": 0}
        )
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", constraints, "--jobs", "2"])
        assert exc.value.code == 2

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

    def test_no_floats_anywhere(self, capsys):
        code, out, _ = run(capsys, ["constants", "120"])
        assert code == 0
        assert "." not in out
