"""Truth-table representation of Boolean functions f: {0,1}^n -> {0,1}.

Index convention (fixed once, used everywhere): the input vector
x = (x_1, ..., x_n) maps to the integer index  sum_j x_j * 2^(n-j),
i.e. x_1 is the most significant bit.  A function is stored as an
integer bitmask in which bit i (value 2^i) holds f applied to the
binary expansion of i.

One table, ``_SPECS``, declares each class family: its spec name and
keys, and the closed-form histogram of its distance profiles
(:func:`profile_histogram`), from which the class checks take MI
without building a truth table; ``lex`` has none.  One judge of where a
class exists serves :func:`make_class` and :func:`profile_histogram`.

The symmetry group acting on truth tables is generated by output
complement, input-coordinate permutations and input-coordinate
negations.  All of these preserve the mutual information between
f(X) and the channel output, so ``canonical_form`` can be used to
deduplicate exhaustive scans.  The group acts by NumPy gathers of a
table's bits, in ``bfmi._orbit``, which ``canonical_form`` and ``orbit``
import when called: this module imports no NumPy, so the class checks
that read only specs and histograms start without it.  ``orbit`` gathers
all images in one pass, ``canonical_form`` picks the least of them by
one byte-reversal lookup over the whole orbit, and nothing is cached
between calls.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

MAX_N = 24  # bit vectors stay <= 16 Mi entries
CANONICAL_MAX_N = 6  # group size 2 * n! * 2^n; beyond this orbits are too wide

_FRESH = object()  # the default of a dict field: the record's __init__ swaps in a new dict


class _Record:
    """Base of bfmi's frozen records: a class's own annotations are its fields.

    Each subclass gets ``_fields``, its annotated names in order, and an
    ``__init__`` compiled once from them by one ``exec``: the parameters
    take the declared defaults, the body sets each field in order and
    then calls ``__post_init__`` where the record defines one.  A ``{}``
    default gives each instance a fresh empty dict.  The rest is written
    here once: assigning or deleting an attribute raises
    ``AttributeError``, equality goes by class and fields, the hash is
    the fields' tuple's, and ``repr`` is ``Name(field=value, ...)``.
    This is what ``@dataclass(frozen=True)`` gave, without its cost at
    import: the decorator execs six generated methods per class and
    loads ``dataclasses`` and ``inspect``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        cls._fields = tuple(own.get("__annotations__", ()))
        params, body, defaults = ["self"], [], {}
        for name in cls._fields:
            value = name
            if name in own:
                params.append(f"{name}=_defaults[{name!r}]")
                defaults[name] = own[name]
                if type(own[name]) is dict:  # never one dict shared by every instance
                    delattr(cls, name)
                    defaults[name], value = _FRESH, f"{{}} if {name} is _FRESH else {name}"
            else:
                params.append(name)
            body.append(f"    _set(self, {name!r}, {value})\n")
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()\n")
        namespace = {"_set": object.__setattr__, "_defaults": defaults, "_FRESH": _FRESH}
        exec(f"def __init__({', '.join(params)}):\n{''.join(body)}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class TruthTable(_Record):
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
        if self.mask < 0 or self.mask.bit_length() > 1 << self.n:
            raise ValueError("mask does not fit in 2^n bits")

    @property
    def size(self) -> int:
        """Number of table entries, 2^n."""
        return 1 << self.n

    def ones_count(self) -> int:
        return self.mask.bit_count()

    def to_json(self) -> str:
        """Serialize as ``{"n": ..., "bits_hex": ...}`` (see :func:`_table_dict`)."""
        return json.dumps(_table_dict(self))

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


def _table_dict(table: TruthTable) -> dict:
    """The truth-table file format as a dict: ``{"n": ..., "bits_hex": ...}``.

    ``bits_hex`` packs the bit vector little-endian by index (bit i
    goes to byte i // 8, position i % 8) and hex-encodes the bytes.
    """
    nbytes = (table.size + 7) // 8
    return {"n": table.n, "bits_hex": table.mask.to_bytes(nbytes, "little").hex()}


# ---------------------------------------------------------------------------
# Function classes
# ---------------------------------------------------------------------------


class Class1(_Record):
    """Exactly one input mapped to 1 (at ``witness_index``), all others to 0."""

    witness_index: int = 0


class Class2(_Record):
    """Exactly one input mapped to 0 (at ``witness_index``), all others to 1."""

    witness_index: int = 0


class Class3(_Record):
    """Indicator of the subcube whose first r coordinates equal ``fixed_prefix``.

    The fixed block sits on the first r coordinates; by symmetry
    invariance the block position does not affect mutual information,
    so the leading block is fixed for determinism.
    """

    r: int
    fixed_prefix: int = 0


class Class4(_Record):
    """Complement of :class:`Class3`: 0 exactly on the fixed-prefix subcube."""

    r: int
    fixed_prefix: int = 0


class Dictator(_Record):
    """f(x) = x_j for coordinate j (1-based)."""

    j: int = 1


class Lex(_Record):
    """1 on the ``ones_count`` lexicographically smallest inputs.

    Plain exploration plumbing; no structural claims attach to it.
    """

    ones_count: int


FunctionClass = Class1 | Class2 | Class3 | Class4 | Dictator | Lex


def _judge(n: int, c: FunctionClass) -> None:
    """Raise :func:`make_class`'s errors (n first) unless ``c`` exists at n; build nothing."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
    size = 1 << n
    if isinstance(c, (Class1, Class2)):
        if not 0 <= c.witness_index < size:
            raise ValueError(f"witness_index {c.witness_index} out of range for n={n}")
    elif isinstance(c, (Class3, Class4)):
        if not 1 <= c.r <= n - 1:
            raise ValueError(f"r must be in 1..n-1, got r={c.r} for n={n}")
        if not 0 <= c.fixed_prefix < 1 << c.r:
            raise ValueError(f"fixed_prefix {c.fixed_prefix} needs r={c.r} bits")
    elif isinstance(c, Dictator):
        if not 1 <= c.j <= n:
            raise ValueError(f"dictator coordinate j={c.j} out of range for n={n}")
    elif isinstance(c, Lex):
        if not 0 <= c.ones_count <= size:
            raise ValueError(f"ones_count {c.ones_count} out of range for n={n}")
    else:
        raise TypeError(f"unknown function class: {c!r}")


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
        If n is outside 1..MAX_N, checked before any mask is built, or the
        class parameters are out of range for ``n``.
    """
    _judge(n, c)
    size = 1 << n
    if isinstance(c, (Class1, Class2)):
        mask = 1 << c.witness_index
    elif isinstance(c, (Class3, Class4)):
        shift = n - c.r
        # the subcube is the contiguous index block fixed_prefix << shift, of length 2^shift
        mask = ((1 << (1 << shift)) - 1) << (c.fixed_prefix << shift)
    elif isinstance(c, Dictator):
        width = 1 << (n - c.j)  # x_j sits at bit position n-j of the index
        # one period is width zeros then width ones; double it until it spans the table
        # (doubling, not a repunit division: big-int division is quadratic)
        mask, period = ((1 << width) - 1) << width, 2 * width
        while period < size:
            mask |= mask << period
            period *= 2
    else:  # Lex; _judge let no other class through
        mask = (1 << c.ones_count) - 1
    if isinstance(c, (Class2, Class4)):
        mask ^= (1 << size) - 1
    return TruthTable(n, mask)


class ProfileHistogram(NamedTuple):
    """The multiset of distance profiles of an n-variable table, over every y.

    The profile of y is (N_0(y), ..., N_n(y)), N_d(y) counting the ones
    of f at Hamming distance d from y; p_YZ(y, 1) depends on f and y only
    through it.  ``profiles[i]`` occurs at ``counts[i]`` values of y, and
    ``ones`` is |f|.  The counts sum to 2^n, every N_d lies in
    [0, C(n, d)], and sum_y N_d(y) = |f|*C(n, d) for every d, since each
    one of f lies at distance d from C(n, d) values of y; the test suite
    checks these for every closed form below.  A named tuple: building
    the class at import takes about 0.08 ms, as a :class:`_Record` takes.
    """

    n: int
    ones: int
    profiles: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]


def _subcube_histogram(n: int, r: int) -> ProfileHistogram:
    """The indicator of a subcube with r fixed coordinates, 0 <= r <= n.

    From a y at distance k from the fixed prefix, C(n - r, j) of the
    subcube's 2^(n - r) ones lie at distance k + j, and C(r, k)*2^(n - r)
    values of y share that k.  r = n is a single one (class 1) and r = 1
    a dictator; the channel's invariance under y -> y xor a and under
    coordinate permutations makes the prefix and its position irrelevant.
    """
    shell = [math.comb(n - r, j) for j in range(n - r + 1)]
    profiles = tuple(tuple([0] * k + shell + [0] * (r - k)) for k in range(r + 1))
    counts = tuple(math.comb(r, k) << (n - r) for k in range(r + 1))
    return ProfileHistogram(n, 1 << (n - r), profiles, counts)


def _complement_histogram(h: ProfileHistogram) -> ProfileHistogram:
    """The histogram of the output complement: N_d -> C(n, d) - N_d and |f| -> 2^n - |f|."""
    shells = [math.comb(h.n, d) for d in range(h.n + 1)]
    profiles = tuple(tuple(c - v for v, c in zip(prof, shells)) for prof in h.profiles)
    return ProfileHistogram(h.n, (1 << h.n) - h.ones, profiles, h.counts)


# spec name -> (class, {key: default} in field order with None for a required key,
#               closed-form profile histogram at n, or None where there is none)
_SPECS = {
    "class1": (Class1, {"i": 0}, lambda n, c: _subcube_histogram(n, n)),
    "class2": (Class2, {"i": 0}, lambda n, c: _complement_histogram(_subcube_histogram(n, n))),
    "class3": (Class3, {"r": None, "prefix": 0}, lambda n, c: _subcube_histogram(n, c.r)),
    "class4": (Class4, {"r": None, "prefix": 0}, lambda n, c: _complement_histogram(_subcube_histogram(n, c.r))),
    "dictator": (Dictator, {"j": 1}, lambda n, c: _subcube_histogram(n, 1)),
    "lex": (Lex, {"n1": None}, None),
}


def profile_histogram(n: int, c: FunctionClass) -> ProfileHistogram | None:
    """The closed-form :class:`ProfileHistogram` of class ``c`` at n, or None (``lex``).

    It does not depend on p, on a witness index or prefix, or on a
    dictator's coordinate.  It raises, as :func:`make_class` does, where
    the class does not exist at n, and builds no mask.
    """
    _judge(n, c)  # so c is one of the classes below
    for cls, _, histogram in _SPECS.values():
        if isinstance(c, cls):
            return None if histogram is None else histogram(n, c)


def parse_class_spec(spec: str) -> FunctionClass:
    """Parse a CLI class spec such as ``class1:i=0`` or ``class3:r=2:prefix=1``.

    Accepted forms: ``class1[:i=K]``, ``class2[:i=K]``,
    ``class3:r=R[:prefix=P]``, ``class4:r=R[:prefix=P]``,
    ``dictator[:j=J]``, ``lex:n1=K``.  A key may appear once.
    """
    name, *parts = spec.strip().lower().split(":")
    args = {}
    for part in parts:
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"malformed class spec component {part!r} in {spec!r}")
        if key in args:
            raise ValueError(f"repeated key {key!r} in class spec {spec!r}")
        try:
            args[key] = int(val)
        except ValueError as exc:
            raise ValueError(f"non-integer value in class spec {spec!r}") from exc
    if name not in _SPECS:
        raise ValueError(f"unknown function class {name!r}")
    cls, defaults, _ = _SPECS[name]
    values = [args.pop(key, default) for key, default in defaults.items()]
    missing = [key for key, val in zip(defaults, values) if val is None]
    if missing:
        raise ValueError(f"class spec {spec!r} is missing required key {missing[0]!r}")
    if args:
        raise ValueError(f"unexpected keys {sorted(args)} in class spec {spec!r}")
    return cls(*values)


def format_class_spec(c: FunctionClass) -> str:
    """Inverse of :func:`parse_class_spec`: every key, defaults included."""
    for name, (cls, defaults, _) in _SPECS.items():
        if type(c) is cls:
            return ":".join([name, *(f"{key}={val}" for key, val in zip(defaults, vars(c).values()))])
    raise TypeError(f"unknown function class: {c!r}")


# ---------------------------------------------------------------------------
# Symmetry group
# ---------------------------------------------------------------------------


def complement(f: TruthTable) -> TruthTable:
    """Bit-wise output complement; an involution."""
    return TruthTable(f.n, f.mask ^ ((1 << f.size) - 1))


def canonical_form(f: TruthTable) -> TruthTable:
    """Lexicographically smallest table in the symmetry orbit of ``f``.

    The orbit ranges over output complement, input permutations and
    input negations.  Idempotent and constant on orbits.  Supported for
    n <= 6 only (the group has 2 * n! * 2^n elements).
    """
    from ._orbit import _lex_min, _orbit_images

    return TruthTable(f.n, _lex_min(_orbit_images(f)))


def orbit(f: TruthTable) -> set[int]:
    """All masks reachable from ``f`` under the symmetry group (n <= 6)."""
    from ._orbit import _orbit_images

    return set(_orbit_images(f).tolist())
