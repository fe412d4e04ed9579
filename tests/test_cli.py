"""End-to-end CLI behaviour: subcommands, file outputs, exit codes."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from bfmi import cli, verify
from bfmi.boolfn import Dictator, canonical_form, make_class
from bfmi.channel import joint_yz
from bfmi.cli import main
from bfmi.karamata import MajorizationCertificate
from bfmi.mi import MIResult, binary_entropy, mi_class1_closed


SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_process(*argv):
    """(exit code, stdout, stderr) of ``mi`` run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "bfmi.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=env)
    return proc.returncode, proc.stdout, proc.stderr


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

    @pytest.mark.parametrize("n", [20, 22, 24])
    @pytest.mark.parametrize("spec", ["class1:i=77", "class2:i=5"])
    def test_large_n_class_tables_match_the_closed_form(self, capsys, spec, n):
        # the output complement swaps the joint table's columns, so class 2 has class 1's MI
        code, out, _ = run(capsys, "compute", "--n", str(n), "--function", spec, "--p", "3/8")
        assert code == 0
        assert abs(json.loads(out)["mi_bits"] - mi_class1_closed(n, Fraction(3, 8))) <= 1e-12

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


class TestJointTables:
    """Class checks reduce closed-form profile histograms; only ``--table``, ``lex`` and
    ``--dump-joint`` build a joint table, and only ``lex`` and ``--dump-joint`` a truth table."""

    @pytest.mark.parametrize(
        "argv, joints, tables",
        [
            (["verify", "--classes", "all,dictator", "--n-min", "1", "--n-max", "5"], 0, 0),
            (["sweep", "--function", "class4:r=2", "--n", "4", "--p-den", "8"], 0, 0),
            (["compute", "--n", "6", "--function", "class3:r=2:prefix=3", "--p", "1/3"], 0, 0),
            (["reduce-check", "--n", "6", "--r", "3", "--p", "1/3"], 0, 0),
            (["verify", "--classes", "lex:n1=5", "--n-min", "3", "--n-max", "4", "--p", "1/4"], 2, 2),
            (["compute", "--n", "4", "--function", "class1", "--p", "1/4", "--dump-joint", "{tmp}/j.csv"], 1, 1),
            (["compute", "--table", "{tmp}/t.json", "--p", "1/4"], 1, 0),
        ],
        ids=["verify", "sweep", "compute", "reduce-check", "lex", "dump-joint", "table"],
    )
    def test_joint_yz_runs_only_without_a_histogram(self, capsys, monkeypatch, tmp_path, argv, joints, tables):
        (tmp_path / "t.json").write_text(make_class(4, Dictator(3)).to_json())
        calls = {joint_yz: [], make_class: []}

        def counted(fn):
            def call(*args):
                calls[fn].append(args)
                return fn(*args)
            return call

        for module in (cli, verify):
            monkeypatch.setattr(module, "joint_yz", counted(joint_yz))
            monkeypatch.setattr(module, "make_class", counted(make_class))
        code, *_ = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
        assert (code, len(calls[joint_yz]), len(calls[make_class])) == (0, joints, tables)

    @pytest.mark.parametrize(
        "argv",
        [["compute", "--n", "24", "--function", "class2"],
         ["verify", "--classes", "all", "--n-min", "24", "--n-max", "24"]],
        ids=["compute", "verify"],
    )
    def test_class_checks_at_n_24_build_no_mask(self, capsys, argv):
        # a class 2 mask at n = 24 is 2 MiB
        tracemalloc.start()
        try:
            code, *_ = run(capsys, *argv, "--p", "3/8")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1 << 20


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

    def test_dump_sums_past_2_to_the_24_rows_exits_2_and_writes_nothing(self, capsys, tmp_path):
        # n = 13 has 2^13·(2^13 - 1) prefixes; n = 12 (16 773 120 rows) is the largest dump
        path = tmp_path / "sums.csv"
        code, out, err = run(capsys, "karamata", "--n", "13", "--p", "1/4", "--dump-sums", str(path))
        assert code == 2 and not out
        assert err.count("\n") == 1 and f"{8192 * 8191} rows" in err
        assert not path.exists()

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

    def test_non_dyadic_p_finds_the_dictator(self, capsys):
        # at this p the float mass of the all-ones profile rounds below p_Y
        code, out, _ = run(capsys, "exhaustive", "--n", "2", "--p", "3/10")
        assert code == 0
        assert "Infinity" not in out
        [summary] = json.loads(out)["summaries"]
        dictator = json.loads(canonical_form(make_class(2, Dictator(1))).to_json())
        assert summary["argmax_canonical_tables"] == [dictator]
        assert 0.0 <= summary["max_margin"] <= 1e-12


class TestCsvIsJson:
    """Each CSV report is its JSON record: every shared field is ``str()`` of the JSON value."""

    @staticmethod
    def both(capsys, *argv):
        """(CSV rows as dicts, JSON document) of one ``mi`` command."""
        rows = list(csv.DictReader(io.StringIO(run(capsys, *argv, "--format", "csv")[1])))
        return rows, json.loads(run(capsys, *argv, "--format", "json")[1])

    def test_verify(self, capsys):
        rows, doc = self.both(capsys, "verify", "--classes", "all,dictator,lex:n1=3",
                              "--n-min", "2", "--n-max", "5", "--p-den", "8")
        records = doc["reports"]
        assert len(rows) == len(records)
        certs = [rec.pop("karamata_certificate") for rec in records]
        assert None in certs and any(c is not None for c in certs)
        for row, rec, cert in zip(rows, records, certs):
            assert row.pop("certificate_holds") == ("" if cert is None else str(cert["holds"]))
            assert row == {key: str(value) for key, value in rec.items()}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, capsys, n):
        rows, doc = self.both(capsys, "exhaustive", "--n", str(n), "--p-den", "8")
        records = doc["summaries"]
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            tables = rec.pop("argmax_canonical_tables")
            assert row.pop("argmax_bits_hex") == ";".join(t["bits_hex"] for t in tables)
            assert row == {key: str(value) for key, value in rec.items()}

    def test_sweep_projects_the_verify_record(self, capsys):
        _, out, _ = run(capsys, "sweep", "--function", "class3:r=2", "--n", "4", "--p-den", "8")
        rows = list(csv.DictReader(io.StringIO(out)))
        _, out, _ = run(capsys, "verify", "--classes", "class3:r=2", "--n-min", "4", "--n-max", "4", "--p-den", "8")
        columns = ("p", "mi_bits", "bound_bits", "margin_bits")
        assert rows and list(rows[0]) == list(columns)
        assert rows == [{key: str(rec[key]) for key in columns} for rec in json.loads(out)["reports"]]


class TestRecordsAreTheirFields:
    def test_json_keys_are_the_field_names_in_order(self, capsys):
        # every record lists its dataclass fields in field order; only the
        # derived keys (verify's status, karamata's n and p) are added
        def names(record_type):
            return [f.name for f in fields(record_type)]

        _, out, _ = run(capsys, "verify", "--classes", "class1", "--n-max", "2", "--p", "1/4")
        [report] = json.loads(out)["reports"]
        assert list(report) == names(verify.VerifyReport) + ["status"]
        assert list(report["karamata_certificate"]) == names(MajorizationCertificate)
        _, out, _ = run(capsys, "exhaustive", "--n", "2", "--p", "1/4")
        assert list(json.loads(out)["summaries"][0]) == names(verify.ExhaustiveSummary)
        _, out, _ = run(capsys, "compute", "--n", "2", "--function", "class1", "--p", "1/4")
        assert list(json.loads(out)) == names(MIResult)
        _, out, _ = run(capsys, "karamata", "--n", "2", "--p-den", "4")
        entry = json.loads(out)["certificates"][0]
        assert list(entry) == ["n", "p"] + names(MajorizationCertificate)


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
    """Every MI result, from a joint table or a profile histogram, reports a margin of -1e-6,
    just past the pass tolerance."""

    def failing(real):
        def fake(*args):
            r = real(*args)
            return MIResult(mi_bits=r.mi_bits, bound_bits=r.bound_bits, margin_bits=-1e-6)

        return fake

    for module in (cli, verify):
        for name in ("mutual_information", "histogram_mutual_information"):
            monkeypatch.setattr(module, name, failing(getattr(module, name)))


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
        real = cli.certify
        monkeypatch.setattr(
            cli, "certify",
            lambda n, p: MajorizationCertificate(holds=False) if p == Fraction(1, 4) else real(n, p),
        )
        code, out, _ = run(capsys, "karamata", "--n", "3", "--p-den", "8")
        assert code == 1
        assert [c["holds"] for c in json.loads(out)["certificates"]] == [True, True, False, True, True]
        code, out, _ = run(capsys, "karamata", "--n", "3", "--p", "1/4")
        assert code == 1
        assert json.loads(out)["holds"] is False

    def test_sweep_fails_on_a_failed_certificate(self, capsys, monkeypatch):
        # sweep reads the same report status as verify: margin and certificate
        monkeypatch.setattr(verify, "certify", lambda n, p: MajorizationCertificate(holds=False))
        code, out, _ = run(capsys, "sweep", "--function", "class1", "--n", "3", "--p", "1/4")
        assert code == 1
        assert out.startswith("p,mi_bits,bound_bits,margin_bits")

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

    def test_stdout_and_stderr_on_one_closed_pipe_exit_2(self, monkeypatch):
        class ClosedPipe(io.StringIO):
            """A text stream whose reader is gone: every write raises as a closed pipe does."""

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(sys, "stderr", ClosedPipe())
        assert main(["verify", "--classes", "class1", "--n-min", "2", "--n-max", "9", "--p", "1/4"]) == 2

    @pytest.mark.parametrize("command, shared, buffered", [
        ("verify", True, True), ("verify", True, False), ("verify", False, True),
        # a report this small stays in stdout's buffer until a flush
        ("compute", True, True), ("compute", False, True),
    ], ids=["verify-stderr-shared", "verify-stderr-shared-unbuffered", "verify-stderr-open",
            "compute-stderr-shared", "compute-stderr-open"])
    def test_a_fresh_process_on_a_closed_pipe_exits_2(self, command, shared, buffered):
        # the reader end is closed before the child starts, so its first write to stdout fails
        argv = {"verify": ["verify", "--classes", "class1", "--n-min", "2", "--n-max", "9", "--p", "1/4"],
                "compute": ["compute", "--n", "4", "--function", "class1", "--p", "1/4"]}[command]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(SRC), **({} if buffered else {"PYTHONUNBUFFERED": "1"}))
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, "-m", "bfmi.cli", *argv],
                                  stdout=w, stderr=w if shared else subprocess.PIPE, timeout=120, env=env)
        finally:
            os.close(w)
        assert proc.returncode == 2
        if not shared:
            assert proc.stderr == b"mi: error: [Errno 32] Broken pipe\n"


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "p, message", [("0.7", "p must be in [0, 1/2], got 7/10"), ("abc", "not a rational: 'abc'")],
        ids=["above-half", "not-a-rational"],
    )
    def test_malformed_p_exits_2(self, capsys, p, message):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n", "2", "--function", "class1", "--p", p])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert not out.out
        assert message in out.err

    def test_zero_grid_denominator_is_usage_error(self, capsys):
        code, _, err = run(capsys, "karamata", "--n", "3", "--p-den", "0")
        assert code == 2
        assert "1..4096" in err

    @pytest.mark.parametrize(
        "jobs, message",
        [("0", "must be at least 1, got 0"), ("-2", "must be at least 1, got -2"), ("x", "not an integer: 'x'")],
        ids=["0", "-2", "x"],
    )
    def test_non_positive_jobs_is_usage_error(self, capsys, jobs, message):
        with pytest.raises(SystemExit) as exc:
            main(["exhaustive", "--n", "2", "--p", "1/4", "--jobs", jobs])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert not out.out
        assert f"--jobs: {message}" in out.err

    def test_one_job_is_accepted(self, capsys):
        code, out, _ = run(capsys, "exhaustive", "--n", "2", "--p", "1/4", "--jobs", "1")
        assert code == 0
        assert json.loads(out)["summaries"][0]["num_functions_scanned"] == 16

    def test_option_the_subcommand_does_not_read_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n", "2", "--function", "class1", "--p", "1/4", "--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--n-min", "5", "--n-max", "3"], "--n-min"),
            (["--classes", ","], "--classes"),
            (["--n-min", "0", "--n-max", "1"], "--n-min"),
            (["--n-min", "24", "--n-max", "25"], "--n-max"),
        ],
        ids=["n-min-above-n-max", "empty-classes", "n-min-below-1", "n-max-above-max-n"],
    )
    def test_bad_verify_input_names_the_option(self, capsys, argv, option):
        code, out, err = run(capsys, "verify", "--p", "1/4", *argv)
        assert code == 2
        assert not out
        assert option in err

    @pytest.mark.parametrize(
        "argv",
        [["compute", "--n", "64", "--function", "class2"],
         ["sweep", "--n", "64", "--function", "dictator"],
         ["reduce-check", "--n", "64", "--r", "1"]],
        ids=["compute", "sweep", "reduce-check"],
    )
    def test_n_beyond_max_n_is_one_error_line(self, capsys, argv):
        # make_class checks n before it builds a 2^64-bit mask
        code, out, err = run(capsys, *argv, "--p", "1/4")
        assert (code, out, err) == (2, "", "mi: error: n must be in 1..24, got 64\n")

    @pytest.mark.parametrize(
        "argv, message",
        [(["compute", "--p", "1/4"], "provide --function or --table"),
         (["compute", "--function", "class1", "--p", "1/4"], "--n is required with --function"),
         (["reduce-check", "--n", "4", "--r", "2"], "reduce-check needs --p")],
        ids=["compute-no-source", "compute-function-no-n", "reduce-check-no-p"],
    )
    def test_a_missing_input_is_one_error_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"mi: error: {message}\n")

    @pytest.mark.parametrize(
        "spec, message",
        [("class3:r=0", "r must be in 1..n-1, got r=0 for n=2"),
         ("class1:i=5000", "witness_index 5000 out of range for n=2")],
        ids=["class3-r0", "class1-i5000"],
    )
    def test_verify_of_a_spec_absent_at_every_n_is_usage_error(self, capsys, spec, message):
        code, out, err = run(capsys, "verify", "--classes", spec, "--n-min", "2", "--n-max", "4", "--p", "1/4")
        assert code == 2
        assert not out
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--classes", "class3", "--n-min", "1", "--n-max", "1"],
         ["verify", "--classes", "class4", "--n-min", "1", "--n-max", "1"],
         ["verify", "--classes", "class3:r=0", "--n-min", "2", "--n-max", "4"]],
        ids=["class3-family", "class4-family", "class3-r0"],
    )
    def test_a_class_with_no_member_in_range_is_one_error_line(self, argv):
        # a fresh process, so that a logged skip warning would reach stderr too
        code, out, err = fresh_process(*argv, "--p", "1/4")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("mi: error: ")

    @pytest.mark.parametrize("family", ["class3", "class4"])
    def test_a_bare_family_at_n_max_2_reports_its_r1_member(self, capsys, family):
        code, out, err = run(capsys, "verify", "--classes", family, "--n-max", "2", "--p", "1/4")
        assert (code, err) == (0, "")
        reports = json.loads(out)["reports"]
        assert [(r["class_spec"], r["n"], r["status"]) for r in reports] == [(f"{family}:r=1:prefix=0", 2, "pass")]

    def test_a_bare_family_needs_a_member_but_all_keeps_class1_and_class2(self, capsys):
        for family in ("class3", "class4"):
            code, out, err = run(capsys, "verify", "--classes", family, "--n-min", "1", "--n-max", "1", "--p", "1/4")
            assert (code, out) == (2, "")
            assert f"{family} has no member at n <= 1" in err
        code, out, _ = run(capsys, "verify", "--classes", "all", "--n-min", "1", "--n-max", "1", "--p", "1/4")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [(r["class_spec"], r["n"]) for r in reports] == [("class1:i=0", 1), ("class2:i=0", 1)]

    @pytest.mark.parametrize("den", ["8", "64"])
    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["karamata", "--n", "3"], ["exhaustive", "--n", "2"], ["sweep", "--function", "class1", "--n", "3"]],
        ids=["verify", "karamata", "exhaustive", "sweep"],
    )
    def test_p_with_p_den_is_usage_error(self, capsys, argv, den):
        # 64 is the default grid, so it must be told apart from an absent --p-den
        code, out, err = run(capsys, *argv, "--p", "1/4", "--p-den", den)
        assert (code, out) == (2, "")
        assert "--p-den is not allowed with --p" in err

    def test_function_and_table_together_exit_2(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(make_class(3, Dictator(2)).to_json())
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n", "3", "--function", "dictator", "--table", str(path), "--p", "1/4"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_sweep_of_a_class_absent_at_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--function", "class3:r=9", "--n", "7", "--p", "1/4")
        assert code == 2
        assert not out
        assert "r must be in 1..n-1" in err

    @pytest.mark.parametrize("option", ["--lemma-samples", "--seed"])
    def test_removed_verify_options_exit_2(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", "1/4", option, "1"])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err

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


def readme_commands():
    """The ``mi`` lines of README's Command line block, as argv lists.

    Continuation lines are joined, and comments and bracketed (optional)
    options dropped.
    """
    block = README.read_text().split("## Command line", 1)[1].split("```\n", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [re.sub(r"\[[^]]*\]", "", line.split("#", 1)[0]).split() for line in lines]


# scans all 2^32 tables at n = 5: about a quarter of a core-hour
SLOW_EXAMPLE = ["mi", "exhaustive", "--n", "5"]


class TestReadmeExamples:
    def test_the_block_holds_mi_lines_and_the_slow_one(self):
        commands = readme_commands()
        assert len(commands) >= 8 and all(argv[0] == "mi" for argv in commands)
        assert sum(argv[:4] == SLOW_EXAMPLE for argv in commands) == 1

    @pytest.mark.parametrize("argv", [a for a in readme_commands() if a[:4] != SLOW_EXAMPLE], ids=" ".join)
    def test_each_example_exits_0(self, argv, capsys, tmp_path, monkeypatch):
        (tmp_path / "table.json").write_text(make_class(3, Dictator(1)).to_json())
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv[1:])
        assert code == 0, err
        assert out and not err


class TestEntryPoint:
    def test_module_invocation(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "bfmi.cli", "compute", "--n", "2",
             "--function", "dictator:j=1", "--p", "0"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["mi_bits"] == 1.0


class TestRepeatedCalls:
    """``main`` keeps no state between calls: each answers as a fresh ``mi`` would."""

    @pytest.mark.parametrize(
        "calls, codes",
        [
            ([["exhaustive", "--n", "2", "--p", "1/4", "--jobs", "0"],
              ["exhaustive", "--n", "2", "--p", "1/4"]], [2, 0]),
            ([["verify", "--p", "1/4", "--n-min", "0", "--n-max", "1"],
              ["verify", "--p", "1/4", "--n-max", "3"]], [2, 0]),
            ([["karamata", "--n", "3", "--p", "1/4"],
              ["compute", "--n", "3", "--function", "dictator:j=2", "--p", "1/4"]], [0, 0]),
        ],
        ids=["argparse-error-then-good", "value-error-then-good", "two-subcommands"],
    )
    def test_repeated_calls_match_a_fresh_process(self, capsys, monkeypatch, calls, codes):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines at the terminal width
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
            out = capsys.readouterr()
            seen.append((code, out.out, out.err))
        assert [code for code, _, _ in seen] == codes
        assert seen == [fresh_process(*argv) for argv in calls]

    def test_the_parser_built_once_answers_as_a_freshly_built_one(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")
        table = tmp_path / "t.json"
        table.write_text(make_class(3, Dictator(2)).to_json())
        calls = [
            ["compute", "--n", "3", "--function", "class1", "--table", str(table), "--p", "1/4"],
            ["verify", "--classes", "class1,class4", "--n-max", "3", "--p", "1/4"],
            ["compute", "--table", str(table), "--p", "1/4"],
        ]

        def answers(fresh):
            seen = []
            for argv in calls:
                if fresh:
                    cli._build_parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's own usage errors
                    code = exc.code
                out = capsys.readouterr()
                seen.append((code, out.out, out.err))
            return seen

        cli._build_parser.cache_clear()
        once = answers(fresh=False)
        assert cli._build_parser.cache_info().misses == 1
        assert [code for code, _, _ in once] == [2, 0, 0]
        assert "not allowed with argument" in once[0][2]
        assert once == answers(fresh=True)
