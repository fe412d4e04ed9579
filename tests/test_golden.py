"""Byte-stable reports: sha256 digests of a fixed set of ``mi`` commands.

Each case runs ``cli.main`` in-process and pins its exit code, the
sha256 of its stdout and the sha256 of every file it writes.  A change
that alters report bytes on purpose updates the digest here and names
the change in ``CHANGES.md``; a digest is never updated to hide an
unintended change.

Float fields depend on the platform, so the float-carrying digests are
those of the reference machine (Linux x86-64 with AVX-512, Python 3.11,
NumPy 2.4).  Every float depends on its libm alone: the MI kernel
rounds its quotients with IEEE +, -, × and comparisons only, the scan
kernel sums its cell masses in a fixed order with elementwise IEEE
operations (no BLAS), and both take every logarithm with ``math.log2``,
so no digest depends on the SIMD code NumPy dispatches to on the CPU at
hand.  Running this module as a script prints the digests of the
current code in the layout of ``GOLDEN``::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

import pytest

from bfmi.boolfn import TruthTable
from bfmi.cli import main

RANDOM_TABLE_N = 13
RANDOM_TABLE_SEED = 13
SMALL_TABLE_N = 10  # the odd-cofactor dumps: den = 2^a·m with m > 1, or a spanning many words
# At p = 1/3 every cell of a table is ±(ones at even distance - ones at odd distance) mod 3, the
# same for every y.  The small table's difference is 1 mod 3, so no cell shares the factor 3 with
# den; the next seeded table's is -24, so every cell does, and only its dump sees that gcd.


def _cases():
    """(case id, argv with ``{tmp}`` placeholders, names of the files it writes)."""
    cases = []
    for n in range(1, 5):
        for fmt in ("json", "csv"):
            cases.append((f"exhaustive-n{n}-{fmt}", ["exhaustive", "--n", str(n), "--p-den", "64", "--format", fmt], ()))
    for n in range(2, 21):
        cases.append((f"karamata-n{n}", ["karamata", "--n", str(n), "--p-den", "64"], ()))
    for n in (5, 6):
        cases.append((
            f"karamata-dump-n{n}",
            ["karamata", "--n", str(n), "--p", "13/64", "--dump-sums", "{tmp}/sums.csv"],
            ("sums.csv",),
        ))
    for fmt in ("json", "csv"):
        cases.append((
            f"verify-{fmt}",
            ["verify", "--classes", "all,dictator", "--n-min", "2", "--n-max", "9", "--format", fmt],
            (),
        ))
    cases.append((
        "compute-random-dump",
        ["compute", "--table", "{tmp}/table.json", "--p", "13/64", "--dump-joint", "{tmp}/joint.csv"],
        ("joint.csv",),
    ))
    for name, p in (("third", "1/3"), ("12345-100003", "12345/100003"), ("2^-70", "1/1180591620717411303424")):
        cases.append((
            f"compute-small-dump-{name}",
            ["compute", "--table", "{tmp}/small.json", "--p", p, "--dump-joint", "{tmp}/joint.csv"],
            ("joint.csv",),
        ))
    cases.append((
        "compute-cofactor-dump-third",
        ["compute", "--table", "{tmp}/cofactor.json", "--p", "1/3", "--dump-joint", "{tmp}/joint.csv"],
        ("joint.csv",),
    ))
    cases.append(("sweep-class3", ["sweep", "--function", "class3:r=3", "--n", "7", "--p-den", "128"], ()))
    cases.append(("reduce-check", ["reduce-check", "--n", "9", "--r", "4", "--p", "13/64"], ()))
    return cases


CASES = _cases()

# case id -> (exit code, sha256 of stdout, {written file: sha256})
GOLDEN = {
    "exhaustive-n1-json": (
        0,
        "0ec9ec7305d007ee659cd1ffa7d3eaee361be65de332b7939dc76ffc6c8bec87",
        {},
    ),
    "exhaustive-n1-csv": (
        0,
        "442878e8f1c2a148d77026012a4282db502ac9f0dccafb37273277fca752221c",
        {},
    ),
    "exhaustive-n2-json": (
        0,
        "ab485c53000d10f41a58fe63216f2526b8abf6af0d5bec03ccfb51fbb7c9e930",
        {},
    ),
    "exhaustive-n2-csv": (
        0,
        "df3dcb5bc01f1e3da8c4c3520fdda557511d859d12f8e7e4efbd12b7836d57de",
        {},
    ),
    "exhaustive-n3-json": (
        0,
        "f47ee890664bee5ab730ed570ab471f7ea8a919888d14ef5c7a1cf9b871d28ae",
        {},
    ),
    "exhaustive-n3-csv": (
        0,
        "768ef2b5cc50775155288b584a1643f7a16056260d7185a10a16d5b9de560b35",
        {},
    ),
    "exhaustive-n4-json": (
        0,
        "94f834e19c6852992a86aed228ee40d3d7b50907187f3eee57663981698fc993",
        {},
    ),
    "exhaustive-n4-csv": (
        0,
        "ef4c1f201f649477566f4b6fccc5efafc806371d9e7d7b72ff1ba65b2030d694",
        {},
    ),
    "karamata-n2": (
        0,
        "0a67dc3f9d921c7d2f631fe26a7569405e0f31d675ff37ed837e6570d31a98fc",
        {},
    ),
    "karamata-n3": (
        0,
        "fa377934ac4809ae0f5650b6244f9033dd86d79a7082aeeaec4a8afb21b1e65d",
        {},
    ),
    "karamata-n4": (
        0,
        "97f4186dd1d7348baefa5612cff1b598717e328f605c699c264b92beaa94d394",
        {},
    ),
    "karamata-n5": (
        0,
        "a5e4eb0a18fa867fa151f181e8db15732827a09e430df4424a1da2f04a1cd7e2",
        {},
    ),
    "karamata-n6": (
        0,
        "54fc8d308ff3f16f0c487368d96927cb0d172009616db2e37772d9ffed4e1d19",
        {},
    ),
    "karamata-n7": (
        0,
        "323c71b38ccc1d33d33a930d1a44c4072069ddd31542db5fdd6e16b53d11acab",
        {},
    ),
    "karamata-n8": (
        0,
        "a6e80ecca08e9e71459cfa800556740bd83e3b22a798558180fbca815e8abe0e",
        {},
    ),
    "karamata-n9": (
        0,
        "74056ebe0fd1b114249ff25b241e25809809e8cf94ba1aa1a6cae4eef583097a",
        {},
    ),
    "karamata-n10": (
        0,
        "c494829eede2294a87cc8f6664d04c5261932cd829c3c4c0e4af7b7d57d059ed",
        {},
    ),
    "karamata-n11": (
        0,
        "10a0cfa580722ee65a7f885138a1e943a9a3197fb8a3b3e45eff3d76de47223b",
        {},
    ),
    "karamata-n12": (
        0,
        "d2eca3d7f5c466c2f9aae3707369ee86c6e01ed43f89ae09a9af784e50099efc",
        {},
    ),
    "karamata-n13": (
        0,
        "fefe2ccfb4b0edbe20a4b626ccfe068bc97f7e4b7b6c8ae7b2ed760f8b445f66",
        {},
    ),
    "karamata-n14": (
        0,
        "e10e1c4eccf1bdc2481491894d4057e8b27f4885bafe394513c5e9e5f40d223f",
        {},
    ),
    "karamata-n15": (
        0,
        "cbc9907f478519bfe7095ba317031e23f76facd4f24ef25f194604ed002f58f9",
        {},
    ),
    "karamata-n16": (
        0,
        "81b200433a69d50636d2fd5051bf93fc72c7333c4a32af8558515872d52cfab1",
        {},
    ),
    "karamata-n17": (
        0,
        "a53fd8d881030a9111a5de5c6440063b38cf707faaf41aa7d73b5be1eace5ff9",
        {},
    ),
    "karamata-n18": (
        0,
        "4fb68b0e1f05e5f26c7fa7259b8a4731f928df67f1200425af958951b4a0d374",
        {},
    ),
    "karamata-n19": (
        0,
        "4ab4abbb09bf0265e977d1c904c6f0c9b65e1231c50aa3672bcd57aa309f9f4c",
        {},
    ),
    "karamata-n20": (
        0,
        "2d0f180b29b1bcf656433558da5b8698ecc2f42ce91f3a5e3ba170638f68c3cf",
        {},
    ),
    "karamata-dump-n5": (
        0,
        "9ad868d3512bd7b2160e2deec357fdfb475bcb59f72a0dc10b1656ab1843f8ed",
        {'sums.csv': 'ac4952ba4f9b5cafa1e8a40e78cff29c0362e8e1f5dd885baead67ea64e90e17'},
    ),
    "karamata-dump-n6": (
        0,
        "6599d05dbfc0a24aa6f1828c4d101c1b9f0949876de99c2e18a4e137d66a2a06",
        {'sums.csv': '0b218b6f405f697a9ca98cafbfbc0c3002a03a5d1196670a0588562057acf874'},
    ),
    "verify-json": (
        0,
        "e45a235816bda306b26c6f8879f1efe5defd853516a13c360570d2d39148f26d",
        {},
    ),
    "verify-csv": (
        0,
        "d9437bd584f162ad69453e5ec95bc4453c9fa66e955c26d236b629bbd0c3c98d",
        {},
    ),
    "compute-random-dump": (
        0,
        "eb46cbde0a07f69ede4560fba48523aa51c2ef28b0e88476226ee07ebe3d2606",
        {'joint.csv': '2242f968f0db861305b569c760a45d698937dd55df6479c7e8131e4dbc43d05b'},
    ),
    "compute-small-dump-third": (
        0,
        "f36d7f734323e6dc811224f94291c603a7424ab5d61258e88b463209b76c3b33",
        {'joint.csv': '4ff2829159759d57346fb0055a16f748350098104677eecf8a6ed1973638da8c'},
    ),
    "compute-small-dump-12345-100003": (
        0,
        "3ce5a95bb5cf2b98da43c6d173c2596c873ebbc286db7afa569b9b4c97f8c7ca",
        {'joint.csv': '18d477e872e31addff705436c82651902807f982c1391de5aaf82818922aa15d'},
    ),
    "compute-small-dump-2^-70": (
        0,
        "003e8522e9adc7958d20058a3f1df008da93ef520fdc77339e77875b9da222c7",
        {'joint.csv': '7585d875db086b46702922eff6332e5db0c793cd1e935f53a4747e4c95a20164'},
    ),
    "compute-cofactor-dump-third": (
        0,
        "7ed38f8b4d902d4365d638b2ae02e316d7653237ef122ba31900ce65706919c8",
        {'joint.csv': 'f90b5997abdfd09420ef92addafa73d494b39f85ce235ef2fdf91cc244e561e7'},
    ),
    "sweep-class3": (
        0,
        "ff2e33aa9014da7e749313e20969247b26d0eb164918282620f3cebc854e61dc",
        {},
    ),
    "reduce-check": (
        0,
        "27a65517824469b37c34f2b8cedf5556951a3104bc38401308866e86a622a0b3",
        {},
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, written, tmp: Path):
    """Run one case in ``tmp``; return (exit code, stdout digest, file digests)."""
    rng = random.Random(RANDOM_TABLE_SEED)
    table = TruthTable(RANDOM_TABLE_N, rng.getrandbits(1 << RANDOM_TABLE_N))
    (tmp / "table.json").write_text(table.to_json())
    small = TruthTable(SMALL_TABLE_N, rng.getrandbits(1 << SMALL_TABLE_N))
    (tmp / "small.json").write_text(small.to_json())
    cofactor = TruthTable(SMALL_TABLE_N, rng.getrandbits(1 << SMALL_TABLE_N))
    (tmp / "cofactor.json").write_text(cofactor.to_json())
    out = io.StringIO()  # newline="\n": the report's "\r\n" line ends pass through
    with contextlib.redirect_stdout(out):
        code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
    files = {name: _sha256((tmp / name).read_bytes()) for name in written}
    return code, _sha256(out.getvalue().encode()), files


@pytest.mark.parametrize("case_id, argv, written", CASES, ids=[c[0] for c in CASES])
def test_report_bytes_are_pinned(case_id, argv, written, tmp_path):
    assert run_case(argv, written, tmp_path) == GOLDEN[case_id]


def test_every_case_is_pinned():
    assert set(GOLDEN) == {case_id for case_id, _, _ in CASES}


if __name__ == "__main__":
    import tempfile

    for case_id, argv, written in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, files = run_case(argv, written, Path(tmp))
        sys.stdout.write(f'    "{case_id}": (\n        {code},\n        "{stdout}",\n        {files!r},\n    ),\n')
