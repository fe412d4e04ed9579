"""Truth-table representation of Boolean functions f: {0,1}^n -> {0,1}.

Index convention (fixed once, used everywhere): the input vector
x = (x_1, ..., x_n) maps to the integer index  sum_j x_j * 2^(n-j),
i.e. x_1 is the most significant bit.  A function is stored as an
integer bitmask in which bit i (value 2^i) holds f applied to the
binary expansion of i.

The symmetry group acting on truth tables is generated by output
complement, input-coordinate permutations and input-coordinate
negations.  All of these preserve the mutual information between
f(X) and the channel output, so ``canonical_form`` can be used to
deduplicate exhaustive scans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

MAX_N = 24  # bit vectors stay <= 16 Mi entries
CANONICAL_MAX_N = 6  # group size 2 * n! * 2^n; beyond this orbits are too wide


@dataclass(frozen=True)
class TruthTable:
    """A Boolean function of ``n`` variables as a packed bit vector.

    Attributes
    ----------
    n : int
        Number of input variables, 1 <= n <= 24.
    mask : int
        Integer whose bit i is f at input index i (0 <= mask < 2^(2^n)).
    """

    n: int
    mask: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be in 1..{MAX_N}, got {self.n}")
        if not 0 <= self.mask < 1 << (1 << self.n):
            raise ValueError("mask does not fit in 2^n bits")

    @property
    def size(self) -> int:
        """Number of table entries, 2^n."""
        return 1 << self.n

    @property
    def bits(self) -> tuple[int, ...]:
        """The table as a tuple of 0/1 ints, index 0 first."""
        return tuple((self.mask >> i) & 1 for i in range(self.size))

    def value(self, index: int) -> int:
        """f at the given input index."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for n={self.n}")
        return (self.mask >> index) & 1

    def ones_count(self) -> int:
        return self.mask.bit_count()

    def zeros_count(self) -> int:
        return self.size - self.mask.bit_count()

    def ones(self) -> list[int]:
        """Indices of inputs mapped to 1, ascending."""
        return [i for i in range(self.size) if (self.mask >> i) & 1]

    @classmethod
    def from_bits(cls, n: int, bits) -> "TruthTable":
        bits = list(bits)
        if len(bits) != 1 << n:
            raise ValueError(f"expected {1 << n} bits, got {len(bits)}")
        mask = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            mask |= b << i
        return cls(n, mask)

    def to_json(self) -> str:
        """Serialize as ``{"n": ..., "bits_hex": ...}``.

        ``bits_hex`` packs the bit vector little-endian by index (bit i
        goes to byte i // 8, position i % 8) and hex-encodes the bytes.
        """
        nbytes = (self.size + 7) // 8
        return json.dumps({"n": self.n, "bits_hex": self.mask.to_bytes(nbytes, "little").hex()})

    @classmethod
    def from_json(cls, text: str) -> "TruthTable":
        obj = json.loads(text)
        n = obj.get("n") if isinstance(obj, dict) else None
        if type(n) is not int or not 1 <= n <= MAX_N:  # a bool is not an n
            raise ValueError(f"truth-table n must be an integer in 1..{MAX_N}, got {json.dumps(n)}")
        try:
            raw = bytes.fromhex(obj["bits_hex"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed truth-table JSON: {exc}") from exc
        if len(raw) != ((1 << n) + 7) // 8:
            raise ValueError("bits_hex length does not match n")
        return cls(n, int.from_bytes(raw, "little"))


# ---------------------------------------------------------------------------
# Function classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Class1:
    """Exactly one input mapped to 1 (at ``witness_index``), all others to 0."""

    witness_index: int = 0


@dataclass(frozen=True)
class Class2:
    """Exactly one input mapped to 0 (at ``witness_index``), all others to 1."""

    witness_index: int = 0


@dataclass(frozen=True)
class Class3:
    """Indicator of the subcube whose first r coordinates equal ``fixed_prefix``.

    The fixed block sits on the first r coordinates; by symmetry
    invariance the block position does not affect mutual information,
    so the leading block is fixed for determinism.
    """

    r: int
    fixed_prefix: int = 0


@dataclass(frozen=True)
class Class4:
    """Complement of :class:`Class3`: 0 exactly on the fixed-prefix subcube."""

    r: int
    fixed_prefix: int = 0


@dataclass(frozen=True)
class Dictator:
    """f(x) = x_j for coordinate j (1-based)."""

    j: int = 1


@dataclass(frozen=True)
class Lex:
    """1 on the ``ones_count`` lexicographically smallest inputs.

    Plain exploration plumbing; no structural claims attach to it.
    """

    ones_count: int


FunctionClass = Class1 | Class2 | Class3 | Class4 | Dictator | Lex


def make_class(n: int, c: FunctionClass) -> TruthTable:
    """Build the truth table of a parametrized function class.

    Parameters
    ----------
    n : int
        Input dimension.
    c : FunctionClass
        One of Class1/Class2/Class3/Class4/Dictator/Lex.

    Raises
    ------
    ValueError
        If the class parameters are out of range for ``n``.
    """
    size = 1 << n
    if isinstance(c, (Class1, Class2)):
        i = c.witness_index
        if not 0 <= i < size:
            raise ValueError(f"witness_index {i} out of range for n={n}")
        mask = 1 << i
        if isinstance(c, Class2):
            mask ^= (1 << size) - 1
        return TruthTable(n, mask)
    if isinstance(c, (Class3, Class4)):
        if not 1 <= c.r <= n - 1:
            raise ValueError(f"r must be in 1..n-1, got r={c.r} for n={n}")
        if not 0 <= c.fixed_prefix < 1 << c.r:
            raise ValueError(f"fixed_prefix {c.fixed_prefix} needs r={c.r} bits")
        shift = n - c.r
        # the subcube is the contiguous index block fixed_prefix << shift, of length 2^shift
        mask = ((1 << (1 << shift)) - 1) << (c.fixed_prefix << shift)
        if isinstance(c, Class4):
            mask ^= (1 << size) - 1
        return TruthTable(n, mask)
    if isinstance(c, Dictator):
        if not 1 <= c.j <= n:
            raise ValueError(f"dictator coordinate j={c.j} out of range for n={n}")
        width = 1 << (n - c.j)  # x_j sits at bit position n-j of the index
        # one period is width zeros then width ones; double it until it spans the table
        # (doubling, not a repunit division: big-int division is quadratic)
        mask, period = ((1 << width) - 1) << width, 2 * width
        while period < size:
            mask |= mask << period
            period *= 2
        return TruthTable(n, mask)
    if isinstance(c, Lex):
        if not 0 <= c.ones_count <= size:
            raise ValueError(f"ones_count {c.ones_count} out of range for n={n}")
        return TruthTable(n, (1 << c.ones_count) - 1)
    raise TypeError(f"unknown function class: {c!r}")


def parse_class_spec(spec: str) -> FunctionClass:
    """Parse a CLI class spec such as ``class1:i=0`` or ``class3:r=2:prefix=1``.

    Accepted forms: ``class1[:i=K]``, ``class2[:i=K]``,
    ``class3:r=R[:prefix=P]``, ``class4:r=R[:prefix=P]``,
    ``dictator[:j=J]``, ``lex:n1=K``.
    """
    parts = spec.strip().lower().split(":")
    name, args = parts[0], {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"malformed class spec component {part!r} in {spec!r}")
        key, _, val = part.partition("=")
        try:
            args[key] = int(val)
        except ValueError as exc:
            raise ValueError(f"non-integer value in class spec {spec!r}") from exc
    try:
        if name == "class1":
            cls = Class1(args.pop("i", 0))
        elif name == "class2":
            cls = Class2(args.pop("i", 0))
        elif name == "class3":
            cls = Class3(args.pop("r"), args.pop("prefix", 0))
        elif name == "class4":
            cls = Class4(args.pop("r"), args.pop("prefix", 0))
        elif name == "dictator":
            cls = Dictator(args.pop("j", 1))
        elif name == "lex":
            cls = Lex(args.pop("n1"))
        else:
            raise ValueError(f"unknown function class {name!r}")
    except KeyError as exc:
        raise ValueError(f"class spec {spec!r} is missing required key {exc}") from exc
    if args:
        raise ValueError(f"unexpected keys {sorted(args)} in class spec {spec!r}")
    return cls


def format_class_spec(c: FunctionClass) -> str:
    """Inverse of :func:`parse_class_spec`."""
    if isinstance(c, Class1):
        return f"class1:i={c.witness_index}"
    if isinstance(c, Class2):
        return f"class2:i={c.witness_index}"
    if isinstance(c, Class3):
        return f"class3:r={c.r}:prefix={c.fixed_prefix}"
    if isinstance(c, Class4):
        return f"class4:r={c.r}:prefix={c.fixed_prefix}"
    if isinstance(c, Dictator):
        return f"dictator:j={c.j}"
    if isinstance(c, Lex):
        return f"lex:n1={c.ones_count}"
    raise TypeError(f"unknown function class: {c!r}")


# ---------------------------------------------------------------------------
# Symmetry group
# ---------------------------------------------------------------------------


def complement(f: TruthTable) -> TruthTable:
    """Bit-wise output complement; an involution."""
    return TruthTable(f.n, f.mask ^ ((1 << f.size) - 1))


def input_index_map(n: int, perm, neg: int) -> tuple[int, ...]:
    """Index map of the input transformation x_j -> x_perm[j] xor neg_j.

    ``perm`` is a 0-based tuple over coordinates (coordinate j reads from
    coordinate perm[j]); ``neg`` is an n-bit negation pattern, bit j for
    coordinate j (both 0-based, coordinate 0 = x_1).  Applying the map
    ``m`` to a table gives new_bits[i] = bits[m[i]].
    """
    size = 1 << n
    out = []
    for i in range(size):
        coords = [(i >> (n - 1 - j)) & 1 for j in range(n)]
        src = 0
        for j in range(n):
            src = (src << 1) | (coords[perm[j]] ^ ((neg >> j) & 1))
        out.append(src)
    return tuple(out)


def apply_index_map(f: TruthTable, index_map) -> TruthTable:
    """Relabel inputs of ``f`` by an index map (new_bits[i] = bits[map[i]])."""
    mask = 0
    for i in range(f.size):
        if (f.mask >> index_map[i]) & 1:
            mask |= 1 << i
    return TruthTable(f.n, mask)


@lru_cache(maxsize=8)
def _all_index_maps(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        input_index_map(n, perm, neg)
        for perm in permutations(range(n))
        for neg in range(1 << n)
    )


def _lex_key(mask: int, size: int) -> int:
    # bits-lexicographic order == numeric order of the bit-reversed mask
    return int(format(mask, f"0{size}b")[::-1], 2)


def canonical_form(f: TruthTable) -> TruthTable:
    """Lexicographically smallest table in the symmetry orbit of ``f``.

    The orbit ranges over output complement, input permutations and
    input negations.  Idempotent and constant on orbits.  Supported for
    n <= 6 only (the group has 2 * n! * 2^n elements).
    """
    return TruthTable(f.n, min(orbit(f), key=lambda mask: _lex_key(mask, f.size)))


def orbit(f: TruthTable) -> set[int]:
    """All masks reachable from ``f`` under the symmetry group (n <= 6)."""
    if f.n > CANONICAL_MAX_N:
        raise ValueError(f"symmetry orbits support n <= {CANONICAL_MAX_N}, got n={f.n}")
    full = (1 << f.size) - 1
    out = set()
    for index_map in _all_index_maps(f.n):
        mapped = apply_index_map(f, index_map).mask
        out.add(mapped)
        out.add(mapped ^ full)
    return out
