"""End-to-end CLI behaviour: subcommands, file outputs, exit codes."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from bfmi import _scan, channel, cli, verify
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
    env = dict(os.environ, PYTHONPATH=str(SRC))
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

    @pytest.mark.parametrize("name", ["ALL", "Class3", " CLASS4 ", "Class3:R=2"])
    def test_class_names_are_case_insensitive(self, capsys, name):
        argv = ["verify", "--n-max", "4", "--p-den", "4", "--classes"]
        code, out, err = run(capsys, *argv, name)
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, *argv, name.strip().lower())

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

        # the table branches import joint_yz from channel when they run
        monkeypatch.setattr(channel, "joint_yz", counted(joint_yz))
        for module in (cli, verify):
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


# runs each argv of the JSON list in argv[1] through cli.main in this one interpreter and prints,
# per command, its exit code and which watched modules bfmi's imports have loaded so far.  A
# finder first on sys.meta_path sees each import of a module not loaded yet, so what the
# interpreter held before bfmi never counts; nor does what NumPy imports itself (it loads
# inspect): of the frames that import a module, the innermost one of bfmi or NumPy decides.
IMPORTS_AFTER_EACH = """
import contextlib, io, json, sys
WATCHED = {"numpy", "multiprocessing", "dataclasses", "inspect", "logging"}
loaded = set()

class Watch:
    @staticmethod
    def find_spec(name, path=None, target=None):
        frame = sys._getframe(1) if name in WATCHED else None
        while frame is not None:
            owner = frame.f_globals.get("__name__", "").partition(".")[0]
            if owner in ("bfmi", "numpy"):
                if owner == "bfmi":
                    loaded.add(name)
                break
            frame = frame.f_back
        return None

sys.meta_path.insert(0, Watch)
from bfmi.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen.append([code, sorted(loaded)])
print(json.dumps(seen))
"""


def imports_after_each(cwd, *commands):
    """[exit code, heavy modules loaded] after each command, all run in one new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORTS_AFTER_EACH, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120, env=env, cwd=cwd, check=True)
    return json.loads(proc.stdout)


class TestExactPathsImportNoNumpy:
    """The class checks and certificates start without NumPy; the table commands and the scan load what they need."""

    def test_exact_commands_load_neither_numpy_nor_multiprocessing(self, tmp_path):
        # nor dataclasses, inspect or logging: bfmi's records build no code at import,
        # and verify imports logging only to warn about a skipped n
        commands = [
            ["karamata", "--n", "12", "--p-den", "64"],
            ["karamata", "--n", "5", "--p", "3/8"],
            ["karamata", "--n", "5", "--p", "3/8", "--dump-sums", "sums.csv"],
            ["verify", "--classes", "all", "--n-min", "2", "--n-max", "6", "--p-den", "8"],
            ["verify", "--classes", "class1,class4", "--n-max", "5", "--p-den", "8", "--format", "csv"],
            ["sweep", "--n", "6", "--function", "class2", "--p-den", "8"],
            ["compute", "--n", "8", "--function", "class3:r=2", "--p", "3/8"],
            ["reduce-check", "--n", "8", "--r", "3", "--p", "1/3"],
        ]
        assert imports_after_each(tmp_path, *commands) == [[0, []]] * len(commands)
        assert (tmp_path / "sums.csv").stat().st_size > 0

    @pytest.mark.parametrize(
        "argv",
        [["compute", "--table", "t.json", "--p", "1/4"],
         ["compute", "--n", "4", "--function", "lex:n1=3", "--p", "1/4"],
         ["exhaustive", "--n", "2", "--p-den", "8"]],
        ids=["table", "lex", "exhaustive"],
    )
    def test_table_commands_still_run_and_load_numpy(self, tmp_path, argv):
        (tmp_path / "t.json").write_text(make_class(4, Dictator(3)).to_json())
        [[code, loaded]] = imports_after_each(tmp_path, argv)
        assert code == 0 and loaded == ["numpy"]  # an n <= 4 scan is one in-process chunk: no multiprocessing

    def test_a_skipped_n_still_warns_once_in_a_fresh_process(self):
        code, out, err = fresh_process("verify", "--classes", "class3:r=3", "--n-min", "2", "--n-max", "4",
                                       "--p", "1/4")
        assert code == 0 and len(json.loads(out)["reports"]) == 1
        assert err == "skipping class3:r=3:prefix=0 at n=2, 3: r must be in 1..n-1, got r=3 for n=2\n"

    def test_a_scan_worker_loads_no_exact_side_module_but_boolfn(self):
        # a worker started by spawn imports bfmi._scan to run its chunks
        code = "import sys, bfmi._scan; print(sorted(m for m in sys.modules if m.startswith('bfmi')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
        assert proc.stdout == "['bfmi', 'bfmi._orbit', 'bfmi._scan', 'bfmi.boolfn']\n"


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
        # every record lists its fields, its class's annotations, in field order;
        # only the derived keys (verify's status, karamata's n and p) are added
        def names(record_type):
            return list(record_type.__annotations__)

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

        monkeypatch.setattr(_scan, "_scan_chunk", stub)
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

    def test_reduce_check_of_unequal_conditional_rows_exits_1(self, capsys, monkeypatch):
        # the exact verdict decides, even where the two floats agree
        monkeypatch.setattr(cli, "class3_reduction_check", lambda n, r, p: (0.5, 0.5, False))
        code, out, _ = run(capsys, "reduce-check", "--n", "4", "--r", "2", "--p", "1/8")
        assert code == 1
        assert json.loads(out) == {"mi_full": 0.5, "mi_reduced": 0.5, "abs_diff": 0.0}

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


# argv -> the message of the one stderr line that bad input prints: first the
# errors argparse finds, then those the commands find
USAGE_ERRORS = {
    "no-arguments": ([], "the following arguments are required: command"),
    "unknown-command": (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from "
                        "'compute', 'verify', 'karamata', 'exhaustive', 'sweep', 'reduce-check')"),
    "p-above-half": (["compute", "--n", "2", "--function", "class1", "--p", "0.7"],
                     "argument --p: p must be in [0, 1/2], got 7/10"),
    "p-not-a-rational": (["compute", "--n", "2", "--function", "class1", "--p", "abc"],
                         "argument --p: not a rational: 'abc'"),
    "n-min-below-1": (["verify", "--p", "1/4", "--n-min", "0", "--n-max", "1"],
                      "argument --n-min: must be at least 1, got 0"),
    # every integer option has the one parser and the one message
    **{f"{option[2:]}-not-an-integer": ([*argv, option, "x"], f"argument {option}: not an integer: 'x'")
       for argv, option in [(["karamata", "--p", "1/4"], "--n"), (["verify", "--p", "1/4"], "--n-max"),
                            (["reduce-check", "--n", "4", "--p", "1/4"], "--r")]},
    "option-not-read": (["compute", "--n", "2", "--function", "class1", "--p", "1/4", "--format", "csv"],
                        "unrecognized arguments: --format csv"),
    **{f"removed{option}": (["verify", "--p", "1/4", option, "1"], f"unrecognized arguments: {option} 1")
       for option in ("--lemma-samples", "--seed")},
    "exhaustive-removed--jobs": (["exhaustive", "--n", "2", "--p", "1/4", "--jobs", "2"],
                                 "unrecognized arguments: --jobs 2"),
    # 64 is the default grid, so it must be told apart from an absent --p-den
    **{f"{argv[0]}-p-with-p-den-{den}": ([*argv, "--p", "1/4", "--p-den", den],
                                         "argument --p-den: not allowed with argument --p")
       for argv in (["verify"], ["karamata", "--n", "3"], ["exhaustive", "--n", "2"],
                    ["sweep", "--function", "class1", "--n", "3"])
       for den in ("8", "64")},
    "function-and-table": (["compute", "--n", "3", "--function", "dictator", "--table", "t.json", "--p", "1/4"],
                           "argument --table: not allowed with argument --function"),
    "compute-no-source": (["compute", "--p", "1/4"], "one of the arguments --function --table is required"),
    "compute-no-p": (["compute", "--n", "2", "--function", "class1"], "the following arguments are required: --p"),
    "reduce-check-no-p": (["reduce-check", "--n", "4", "--r", "2"], "the following arguments are required: --p"),
    "compute-function-no-n": (["compute", "--function", "class1", "--p", "1/4"], "--n is required with --function"),
    "n-min-above-n-max": (["verify", "--p", "1/4", "--n-min", "5", "--n-max", "3"],
                          "--n-min 5 is greater than --n-max 3"),
    "empty-classes": (["verify", "--p", "1/4", "--classes", ","], "--classes names no class: ','"),
    "n-max-above-max-n": (["verify", "--p", "1/4", "--n-min", "24", "--n-max", "25"],
                          "--n-max must be at most 24, got 25"),
    "zero-grid-denominator": (["karamata", "--n", "3", "--p-den", "0"],
                              "argument --p-den: grid denominator must be in 1..4096, got 0"),
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_bad_input_is_one_error_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"mi: error: {message}\n")

    @pytest.mark.parametrize("case", ["no-arguments", "n-min-below-1", "function-and-table", "compute-function-no-n"])
    def test_a_fresh_process_prints_the_same_line(self, case):
        argv, message = USAGE_ERRORS[case]
        assert fresh_process(*argv) == (2, "", f"mi: error: {message}\n")

    @pytest.mark.parametrize("argv", [["--help"], *([command, "--help"] for command in cli._COMMANDS)],
                             ids=["mi", *cli._COMMANDS])
    def test_help_prints_usage_and_exits_0(self, capsys, argv):
        # the one SystemExit left: argparse's help action ends the process after printing
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 0
        assert out.out.startswith(" ".join(["usage: mi", *argv[:-1]]) + " ")
        assert not out.err

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

    def test_sweep_of_a_class_absent_at_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--function", "class3:r=9", "--n", "7", "--p", "1/4")
        assert code == 2
        assert not out
        assert "r must be in 1..n-1" in err

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


def readme_quick_start():
    """The Python block of README's Library quick start."""
    return README.read_text().split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


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

    def test_the_library_quick_start_runs(self, capsys):
        exec(compile(readme_quick_start(), "README.md", "exec"), {})
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and out[-1] == "True"


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
            ([["verify", "--p", "1/4", "--n-min", "0", "--n-max", "1"],
              ["exhaustive", "--n", "2", "--p", "1/4"]], [2, 0]),
            ([["verify", "--p", "1/4", "--n-min", "5", "--n-max", "3"],
              ["verify", "--p", "1/4", "--n-max", "3"]], [2, 0]),
            ([["karamata", "--n", "3", "--p", "1/4"],
              ["compute", "--n", "3", "--function", "dictator:j=2", "--p", "1/4"]], [0, 0]),
        ],
        ids=["argparse-error-then-good", "value-error-then-good", "two-subcommands"],
    )
    def test_repeated_calls_match_a_fresh_process(self, capsys, calls, codes):
        seen = [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in seen] == codes
        assert seen == [fresh_process(*argv) for argv in calls]

    def test_the_parser_built_once_answers_as_a_freshly_built_one(self, capsys, tmp_path):
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
                seen.append(run(capsys, *argv))
            return seen

        cli._build_parser.cache_clear()
        once = answers(fresh=False)
        assert cli._build_parser.cache_info().misses == 1
        assert [code for code, _, _ in once] == [2, 0, 0]
        assert "not allowed with argument" in once[0][2]
        assert once == answers(fresh=True)
