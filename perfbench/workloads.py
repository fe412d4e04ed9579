"""Workload inputs and the oracles that check bfmi's outputs.

A workload is a sequence of passes.  Every pass does the same amount of
work (same n set, same p denominators) on inputs drawn afresh from
(workload, seed, pass index), so nothing computed for one pass can be
reused by the next.  A pass is a list of ``mi`` calls, each short (tens
to hundreds of milliseconds) so that the reference loop timed between
calls tracks the machine's speed closely.  Calls of the same ``kind``
do the same work in every pass.

Oracles read only the files the commands wrote and never run inside a
timed call.  Each oracle returns the number of checks that failed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

P_DEN = 64
# p = k/64 with k odd stays in lowest terms (denominator 64) and avoids
# the degenerate endpoints 0 and 1/2.
ODD_K = tuple(range(1, P_DEN // 2, 2))
GRID = tuple(Fraction(k, P_DEN) for k in range(P_DEN // 2 + 1))
CLOSED_FORM_TOL = 1e-12
FLOAT_ORACLE_TOL = 1e-9


@dataclass
class Call:
    kind: str
    argv: list
    checks: int
    oracle: Callable[[], int]  # failed checks; runs after the timed call


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def binary_entropy(p: Fraction) -> float:
    return -sum(float(q) * math.log2(float(q)) for q in (p, 1 - p) if q > 0)


def _load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# structured-grid: mi verify over classes 1-4
# ---------------------------------------------------------------------------


class StructuredGrid:
    """Classes 1-4 at n = 8..10 over the 64ths grid, one ``mi verify --p`` per (n, p)."""

    name = "structured-grid"
    n_set = (8, 9, 10)

    def __init__(self, mi_class1_closed):
        self._closed = mi_class1_closed
        self._expected = {}

    def expected_mi(self, n: int, p: Fraction) -> float:
        key = (n, p)
        if key not in self._expected:
            self._expected[key] = self._closed(n, p)
        return self._expected[key]

    def make_pass(self, seed: int, index: int, work: Path) -> list:
        rng = pass_rng(self.name, seed, index)
        calls = []
        for n in self.n_set:
            r = n // 2
            specs = {
                f"class1:i={rng.randrange(1 << n)}": n,
                f"class2:i={rng.randrange(1 << n)}": n,
                f"class3:r={r}:prefix={rng.randrange(1 << r)}": r,
                f"class4:r={r}:prefix={rng.randrange(1 << r)}": r,
            }
            for k, p in enumerate(GRID):
                out = work / f"verify_n{n}_k{k}.json"
                argv = ["verify", "--classes", ",".join(specs), "--n-min", str(n), "--n-max", str(n),
                        "--p", str(p), "--out", str(out)]
                calls.append(Call(f"n={n} p={k}/{P_DEN}", argv, len(specs),
                                  self._oracle(out, n, p, specs)))
        return calls

    def _oracle(self, out, n, p, specs):
        def check() -> int:
            reports = _load(out)["reports"]
            if len(reports) != len(specs):
                return len(specs)
            failed = 0
            for rep in reports:
                spec = rep["class_spec"]
                cert = rep["karamata_certificate"]
                ok = (
                    rep["status"] == "pass"
                    and rep["n"] == n
                    and Fraction(rep["p"]) == p
                    and spec in specs
                    and (cert["holds"] if spec.startswith(("class1", "class2")) else cert is None)
                    and abs(rep["mi_bits"] - self.expected_mi(specs[spec], p)) <= CLOSED_FORM_TOL
                )
                failed += not ok
            return failed

        return check


# ---------------------------------------------------------------------------
# random-tables: mi compute --table on seeded random truth tables
# ---------------------------------------------------------------------------


def xor_conv_mi(n: int, mask: int, p: Fraction) -> float:
    """MI(Y; f(X)) in float64 from the xor convolution p1 = f * h.

    The Walsh-Hadamard transform of h(v) = (1-p)^(n-|v|) p^|v| / 2^n is
    (1-2p)^|w| / 2^n, so p1 = H(H f . (1-2p)^|w|) / 4^n with the
    unnormalised transform H.
    """
    import numpy as np

    size = 1 << n
    raw = np.frombuffer(mask.to_bytes(size // 8, "little"), dtype=np.uint8)
    f = np.unpackbits(raw, bitorder="little").astype(np.float64)

    def wht(v):
        h = 1
        while h < size:
            v = v.reshape(-1, 2, h)
            v = np.concatenate((v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]), axis=1)
            h *= 2
        return v.reshape(size)

    weight = np.bitwise_count(np.arange(size, dtype=np.uint32))
    p1 = wht(wht(f) * float(1 - 2 * p) ** weight) / float(size) ** 2
    py = 1.0 / size
    p1 = np.clip(p1, 0.0, py)
    p0 = py - p1
    ones = mask.bit_count()
    total = 0.0
    for col, pz in ((p1, ones / size), (p0, 1.0 - ones / size)):
        nz = col[col > 0]
        if nz.size:
            total += float(np.sum(nz * np.log2(nz / (py * pz))))
    return total


def check_joint_csv(path, n: int, ones: int) -> bool:
    """Every row sums exactly to 1/2^n and the p1 column sums to ones/2^n."""
    size = 1 << n
    p1_terms = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows) != ["y_index", "p0_num", "p0_den", "p1_num", "p1_den"]:
            return False
        for y, row in enumerate(rows):
            idx, a, b, c, d = map(int, row)
            # a/b + c/d == 1/2^n, exactly
            if idx != y or a < 0 or c < 0 or (a * d + c * b) << n != b * d:
                return False
            p1_terms.append((c, d))
    if len(p1_terms) != size:
        return False
    den = math.lcm(*(d for _, d in p1_terms))
    return sum(c * (den // d) for c, d in p1_terms) << n == ones * den


class RandomTables:
    """Seeded random tables at n = 13..15, ``mi compute --table``; two of three dump the joint table."""

    name = "random-tables"
    plan = ((13, True), (14, False), (15, True))

    def make_pass(self, seed: int, index: int, work: Path) -> list:
        rng = pass_rng(self.name, seed, index)
        calls = []
        for n, dump in self.plan:
            size = 1 << n
            density = rng.uniform(0.1, 0.9)
            bits = "".join("1" if rng.random() < density else "0" for _ in range(size))
            mask = int(bits[::-1], 2)
            table = work / f"table_n{n}.json"
            table.write_text(json.dumps({"n": n, "bits_hex": mask.to_bytes(size // 8, "little").hex()}))
            p = Fraction(rng.choice(ODD_K), P_DEN)
            out = work / f"compute_n{n}.json"
            argv = ["compute", "--table", str(table), "--p", str(p), "--out", str(out)]
            joint = None
            if dump:
                joint = work / f"joint_n{n}.csv"
                argv += ["--dump-joint", str(joint)]
            calls.append(Call(f"n={n}", argv, 1, self._oracle(out, joint, n, mask, p)))
        return calls

    @staticmethod
    def _oracle(out, joint, n, mask, p):
        def check() -> int:
            doc = _load(out)
            ok = abs(doc["mi_bits"] - xor_conv_mi(n, mask, p)) <= FLOAT_ORACLE_TOL
            if joint is not None:
                ok = ok and check_joint_csv(joint, n, mask.bit_count())
            return int(not ok)

        return check


# ---------------------------------------------------------------------------
# certificate-grid: mi karamata over n = 2..20
# ---------------------------------------------------------------------------


def check_sums_csv(path, n: int) -> bool:
    """Every prefix row is ``ok`` and the last row has SL = SR."""
    size = 1 << n
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows) != ["k", "SL_num", "SL_den", "SR_num", "SR_den", "ok"]:
            return False
        k = 0
        last = None
        for row in rows:
            k += 1
            if int(row[0]) != k or row[5] != "True":
                return False
            last = row
    return k == size * (size - 1) and last[1:3] == last[3:5]


class CertificateGrid:
    """``mi karamata --n N --p-den 64`` for n = 2..20, plus dense prefix-sum dumps at n = 5, 6."""

    name = "certificate-grid"
    n_range = range(2, 21)
    dump_n = (5, 6)

    def make_pass(self, seed: int, index: int, work: Path) -> list:
        rng = pass_rng(self.name, seed, index)
        calls = []
        for n in self.n_range:
            out = work / f"karamata_n{n}.json"
            argv = ["karamata", "--n", str(n), "--p-den", str(P_DEN), "--out", str(out)]
            calls.append(Call(f"n={n}", argv, len(GRID), self._grid_oracle(out, n)))
        for n in self.dump_n:
            p = Fraction(rng.choice(ODD_K), P_DEN)
            out = work / f"karamata_dump_n{n}.json"
            sums = work / f"sums_n{n}.csv"
            argv = ["karamata", "--n", str(n), "--p", str(p), "--dump-sums", str(sums), "--out", str(out)]
            calls.append(Call(f"dump n={n}", argv, 1, self._dump_oracle(out, sums, n)))
        return calls

    @staticmethod
    def _grid_oracle(out, n):
        def check() -> int:
            certs = _load(out)["certificates"]
            if [Fraction(c["p"]) for c in certs] != list(GRID):
                return len(GRID)
            return sum(not (c["holds"] and c["n"] == n) for c in certs)

        return check

    @staticmethod
    def _dump_oracle(out, sums, n):
        def check() -> int:
            return int(not (_load(out)["holds"] and check_sums_csv(sums, n)))

        return check


# ---------------------------------------------------------------------------
# exhaustive-scan: mi exhaustive --n 4
# ---------------------------------------------------------------------------


def dictator_canonical_hex(n: int) -> str:
    """bits_hex of the lexicographically smallest table among x_j and 1 - x_j.

    Those 2n tables are the whole symmetry orbit of a dictator.
    """
    size = 1 << n
    orbit = []
    for j in range(n):
        bits = tuple((i >> (n - 1 - j)) & 1 for i in range(size))
        orbit += [bits, tuple(1 - b for b in bits)]
    best = min(orbit)
    mask = sum(b << i for i, b in enumerate(best))
    return mask.to_bytes((size + 7) // 8, "little").hex()


class ExhaustiveScan:
    """``mi exhaustive --n 4 --p P``: all 65536 tables at each point of the 64ths grid."""

    name = "exhaustive-scan"
    n = 4

    def make_pass(self, seed: int, index: int, work: Path) -> list:
        per_p = 1 << (1 << self.n)
        calls = []
        for k, p in enumerate(GRID):
            out = work / f"exhaustive_k{k}.json"
            argv = ["exhaustive", "--n", str(self.n), "--p", str(p), "--out", str(out)]
            calls.append(Call(f"p={k}/{P_DEN}", argv, per_p, self._oracle(out, p, per_p)))
        return calls

    def _oracle(self, out, p, per_p):
        dictator = dictator_canonical_hex(self.n)

        def check() -> int:
            [s] = _load(out)["summaries"]
            ok = (
                Fraction(s["p"]) == p
                and s["num_functions_scanned"] == per_p
                and abs(s["max_mi_bits"] - (1.0 - binary_entropy(p))) <= CLOSED_FORM_TOL
            )
            if 0 < p < Fraction(1, 2):
                ok = ok and dictator in [t["bits_hex"] for t in s["argmax_canonical_tables"]]
            return 0 if ok else per_p

        return check


def make_workload(name: str, mi_class1_closed=None):
    if name == StructuredGrid.name:
        return StructuredGrid(mi_class1_closed)
    for cls in (RandomTables, CertificateGrid, ExhaustiveScan):
        if cls.name == name:
            return cls()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (StructuredGrid.name, RandomTables.name, CertificateGrid.name, ExhaustiveScan.name)
