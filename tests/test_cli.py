"""End-to-end CLI behaviour: subcommands, file outputs, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bfmi import cli, verify
from bfmi.boolfn import Dictator, make_class
from bfmi.cli import main
from bfmi.karamata import MajorizationCertificate
from bfmi.mi import MIResult, binary_entropy, mutual_information


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_dictator_sits_on_the_bound(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "3", "--function", "dictator:j=1", "--p", "1/4")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"mi_bits", "bound_bits", "margin_bits"}
        assert abs(doc["margin_bits"]) <= 1e-12

    def test_dump_joint(self, capsys, tmp_path):
        path = tmp_path / "joint.csv"
        code, *_ = run(
            capsys,
            "compute", "--n", "2", "--function", "class1:i=0", "--p", "1/4",
            "--dump-joint", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "y_index,p0_num,p0_den,p1_num,p1_den"
        assert len(lines) == 5

    def test_table_file_input(self, capsys, tmp_path):
        table = make_class(3, Dictator(2))
        path = tmp_path / "table.json"
        path.write_text(table.to_json())
        code, out, _ = run(capsys, "compute", "--table", str(path), "--p", "1/8")
        assert code == 0
        assert abs(json.loads(out)["margin_bits"]) <= 1e-12

    def test_table_dimension_mismatch_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(make_class(2, Dictator(1)).to_json())
        code, _, err = run(capsys, "compute", "--table", str(path), "--n", "3", "--p", "1/8")
        assert code == 2
        assert "disagrees" in err

    def test_missing_p_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "--n", "2", "--function", "class1")
        assert code == 2
        assert "needs --p" in err


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--classes", "class1,class3", "--n-max", "3", "--p-den", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["version"] == 1
        assert all(r["status"] == "pass" for r in doc["reports"])

    def test_all_classes_expand_r_per_n_without_warnings(self, capsys, caplog):
        with caplog.at_level("WARNING"):
            code, out, _ = run(
                capsys, "verify", "--classes", "all", "--n-min", "2", "--n-max", "8", "--p-den", "4"
            )
        assert code == 0
        assert not caplog.records
        reports = json.loads(out)["reports"]
        # class1 and class2, plus class3/class4 for r = 1..n-1: 2n checks per (n, p)
        assert len(reports) == sum(2 * n for n in range(2, 9)) * 3
        assert [r["class_spec"] for r in reports[:3]] == ["class1:i=0"] * 3

    def test_explicit_spec_that_does_not_fit_still_warns(self, capsys, caplog):
        with caplog.at_level("WARNING"):
            code, out, _ = run(
                capsys, "verify", "--classes", "class3:r=3", "--n-min", "2", "--n-max", "4", "--p", "1/4"
            )
        assert code == 0
        assert [r["n"] for r in json.loads(out)["reports"]] == [4]
        [skip] = [rec for rec in caplog.records if "skipping" in rec.message]
        assert "class3:r=3:prefix=0 at n=2, 3:" in skip.message

    def test_csv_format_and_out_file(self, capsys, tmp_path):
        path = tmp_path / "reports.csv"
        code, out, _ = run(
            capsys,
            "verify", "--classes", "dictator", "--n-max", "2", "--p", "1/4",
            "--format", "csv", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        assert path.read_text().splitlines()[0].startswith("class_spec,")

    def test_lemma_spot_checks(self, capsys):
        code, _, err = run(
            capsys,
            "verify", "--classes", "class1", "--n-max", "2", "--p", "1/4",
            "--lemma-samples", "5", "--seed", "3",
        )
        assert code == 0
        assert "5/5 ok" in err


class TestKaramata:
    def test_certificate_and_dump(self, capsys, tmp_path):
        path = tmp_path / "sums.csv"
        code, out, _ = run(capsys, "karamata", "--n", "2", "--p", "1/4", "--dump-sums", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True
        assert doc["sub_inequalities"]["two_wmax_le_a_plus_c"] is True
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,SL_num,SL_den,SR_num,SR_den,ok"
        assert len(lines) == 13  # 2^2 * (2^2 - 1) prefixes
        # grand totals agree at the last prefix
        last = lines[-1].split(",")
        assert last[1:5] == ["3", "1", "3", "1"]
        assert all(line.endswith("True") for line in lines[1:])

    def test_grid_mode_certifies_every_point(self, capsys):
        code, out, _ = run(capsys, "karamata", "--n", "3", "--p-den", "8")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["certificates"]) == 5
        assert all(c["holds"] for c in doc["certificates"])

    def test_dump_sums_needs_single_p(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "karamata", "--n", "2", "--dump-sums", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "single --p" in err

    def test_no_dimension_ceiling(self, capsys):
        # 2^40 * (2^40 - 1) prefixes: longer than sys.maxsize
        code, out, _ = run(capsys, "karamata", "--n", "40", "--p", "13/64")
        assert code == 0
        assert json.loads(out)["holds"] is True


class TestExhaustive:
    def test_n2_json(self, capsys):
        code, out, _ = run(capsys, "exhaustive", "--n", "2", "--p", "1/4")
        assert code == 0
        doc = json.loads(out)
        assert doc["summaries"][0]["num_functions_scanned"] == 16


class TestSweepAndReduce:
    def test_sweep_rows(self, capsys):
        code, out, _ = run(capsys, "sweep", "--function", "dictator:j=1", "--n", "2", "--p-den", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,mi_bits,bound_bits,margin_bits"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "0"

    def test_sweep_honours_single_p(self, capsys):
        code, out, _ = run(capsys, "sweep", "--function", "dictator:j=1", "--n", "2", "--p", "1/4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "1/4"

    def test_reduce_check(self, capsys):
        code, out, _ = run(capsys, "reduce-check", "--n", "4", "--r", "2", "--p", "1/8")
        assert code == 0
        assert json.loads(out)["abs_diff"] <= 1e-12


@pytest.fixture
def failing_margin(monkeypatch):
    """Every MI result reports a margin of -1e-6, just past the pass tolerance."""

    def fake(joint):
        r = mutual_information(joint)
        return MIResult(mi_bits=r.mi_bits, bound_bits=r.bound_bits, margin_bits=-1e-6)

    monkeypatch.setattr(cli, "mutual_information", fake)
    monkeypatch.setattr(verify, "mutual_information", fake)


class TestVerdicts:
    """A failed check exits 1 from every subcommand, after writing the whole report."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--n", "3", "--function", "dictator:j=1", "--p", "1/4"],
            ["sweep", "--function", "dictator:j=1", "--n", "3", "--p-den", "4"],
            ["verify", "--classes", "dictator", "--n-max", "3", "--p", "1/4"],
        ],
        ids=["compute", "sweep", "verify"],
    )
    def test_failing_margin_exits_1(self, capsys, failing_margin, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert "-1e-06" in out

    def test_exhaustive_max_above_the_bound_exits_1(self, capsys, monkeypatch):
        def stub(args):
            n, grid, start, stop = args
            return [(stop - start, 1 - binary_entropy(p) + 1e-6, [(0b0011, 1 - binary_entropy(p) + 1e-6)])
                    for p in grid]

        monkeypatch.setattr(verify, "_scan_chunk", stub)
        code, out, _ = run(capsys, "exhaustive", "--n", "2", "--p", "1/4")
        assert code == 1
        [entry] = json.loads(out)["summaries"]
        assert entry["max_margin"] < -verify.PASS_MARGIN_TOLERANCE

    def test_karamata_grid_exits_1_when_any_certificate_fails(self, capsys, monkeypatch):
        real = cli.certify_instance
        monkeypatch.setattr(
            cli, "certify_instance",
            lambda inst: MajorizationCertificate(holds=False) if inst.p == Fraction(1, 4) else real(inst),
        )
        code, out, _ = run(capsys, "karamata", "--n", "3", "--p-den", "8")
        assert code == 1
        assert [c["holds"] for c in json.loads(out)["certificates"]] == [True, True, False, True, True]
        code, out, _ = run(capsys, "karamata", "--n", "3", "--p", "1/4")
        assert code == 1
        assert json.loads(out)["holds"] is False

    def test_reduce_check_past_the_identity_tolerance_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "class3_reduction_check", lambda n, r, p: (0.5, 0.5 + 1e-9))
        code, out, _ = run(capsys, "reduce-check", "--n", "4", "--r", "2", "--p", "1/8")
        assert code == 1
        assert json.loads(out)["abs_diff"] > verify.IDENTITY_TOLERANCE

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "compute", "--n", "2", "--function", "class1", "--p", "1/4",
            "--out", str(tmp_path / "missing" / "mi.json"),
        )
        assert code == 2
        assert not out
        assert err.startswith("mi: error:")


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_malformed_p_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n", "2", "--function", "class1", "--p", "0.7"])
        assert exc.value.code == 2

    def test_zero_grid_denominator_is_usage_error(self, capsys):
        code, _, err = run(capsys, "karamata", "--n", "3", "--p-den", "0")
        assert code == 2
        assert "1..4096" in err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_is_usage_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["exhaustive", "--n", "2", "--p", "1/4", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_option_the_subcommand_does_not_read_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n", "2", "--function", "class1", "--p", "1/4", "--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--n-min", "5", "--n-max", "3"], "--n-min"),
            (["--classes", ","], "--classes"),
            (["--lemma-samples", "-1"], "--lemma-samples"),
            (["--n-min", "0", "--n-max", "1"], "--n-min"),
            (["--n-min", "24", "--n-max", "25"], "--n-max"),
        ],
        ids=["n-min-above-n-max", "empty-classes", "negative-lemma-samples",
             "n-min-below-1", "n-max-above-max-n"],
    )
    def test_bad_verify_input_names_the_option(self, capsys, argv, option):
        code, out, err = run(capsys, "verify", "--p", "1/4", *argv)
        assert code == 2
        assert not out
        assert option in err

    @pytest.mark.parametrize(
        "doc",
        ['{"n": -1}', '{"n": 2.7, "bits_hex": "0f"}', '{"n": true, "bits_hex": "00"}',
         '{"n": 100, "bits_hex": "00"}'],
        ids=["negative", "float", "bool", "above-max-n"],
    )
    def test_bad_table_n_is_named(self, capsys, tmp_path, doc):
        path = tmp_path / "table.json"
        path.write_text(doc)
        code, out, err = run(capsys, "compute", "--table", str(path), "--p", "1/4")
        assert code == 2
        assert not out
        assert "truth-table n must be an integer in 1..24" in err

    def test_bad_class_spec_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "--n", "2", "--function", "clazz9", "--p", "1/4")
        assert code == 2
        assert "error" in err

    def test_missing_class_key_is_named(self, capsys):
        code, _, err = run(capsys, "compute", "--n", "4", "--function", "class3:prefix=1", "--p", "1/4")
        assert code == 2
        assert "missing required key 'r'" in err


class TestEntryPoint:
    def test_module_invocation(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "bfmi.cli", "compute", "--n", "2",
             "--function", "dictator:j=1", "--p", "0"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["mi_bits"] == 1.0
