"""Signed permutations, reversals, and multichromosomal genomes.

A signed permutation is a sequence of nonzero integers whose absolute
values are exactly 1..n.  A reversal flips a contiguous block and negates
every entry in it.  Genomes are unordered collections of linear or
circular chromosomes over string marker names, each name used once.

The sequence rules that the DCJ and 4-regular views share live here once:
which marker extremities meet at each junction of a chromosome
(``Chromosome.junctions``) and at its loose ends (``Chromosome.telomeres``),
and the least form of a cycle of distinct items (``least_rotation``), on
which both a circular chromosome's and a circuit's canonical form rest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from . import verify

LINEAR = "linear"
CIRCULAR = "circular"


@dataclass(frozen=True)
class SignedPermutation:
    """An ordered tuple of signed integers with |values| = {1..n}."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        seen = set()
        for v in self.values:
            if v == 0:
                raise ValueError("zero entry in signed permutation")
            if abs(v) in seen:
                raise ValueError("duplicate absolute value %d" % abs(v))
            seen.add(abs(v))
        n = len(self.values)
        if seen and max(seen) != n:
            raise ValueError("absolute values must cover 1..%d with no gap" % n)

    @classmethod
    def _trusted(cls, values: tuple[int, ...]) -> SignedPermutation:
        """A permutation the library built itself from a valid one; it is
        validated only while the verify switch is on."""
        if verify.enabled():
            return cls(values)
        p = object.__new__(cls)
        object.__setattr__(p, "values", values)
        return p

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"

    def to_json(self) -> dict:
        return {"values": list(self.values)}


def identity(n: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(1, n + 1)))


def is_identity(p: SignedPermutation) -> bool:
    return p.values == tuple(range(1, len(p) + 1))


@dataclass(frozen=True)
class ReversalInterval:
    """1-based inclusive position interval of a reversal."""

    start: int
    end: int

    def __post_init__(self):
        if not (1 <= self.start <= self.end):
            raise ValueError("bad interval [%s, %s]" % (self.start, self.end))

    def __str__(self) -> str:
        return "[%d, %d]" % (self.start, self.end)


def apply_reversal(p: SignedPermutation, r: ReversalInterval) -> SignedPermutation:
    """Reverse positions start..end and negate every entry in the block."""
    if r.end > len(p):
        raise ValueError("interval %s out of bounds for n=%d" % (r, len(p)))
    v = p.values
    i, j = r.start - 1, r.end
    block = tuple(-x for x in reversed(v[i:j]))
    return SignedPermutation._trusted(v[:i] + block + v[j:])


def reverse_complement(p: SignedPermutation) -> SignedPermutation:
    """The same chromosome read from the other strand: (-pn, ..., -p1)."""
    return SignedPermutation(tuple(-v for v in reversed(p.values)))


def parse_permutation(text: str) -> SignedPermutation:
    """Parse a comma- or whitespace-separated list of signed integers."""
    text = text.strip()
    if not text:
        return SignedPermutation(())
    values = []
    for tok in re.split(r"[,\s]+", text):
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError("malformed token %r" % tok) from None
    return SignedPermutation(tuple(values))


def permutation_from_json(data: dict) -> SignedPermutation:
    return SignedPermutation(tuple(data["values"]))


# ---------------------------------------------------------------------------
# genomes

Marker = tuple[str, int]  # (name, +1 or -1)

HEAD = "head"
TAIL = "tail"


class Extremity(NamedTuple):
    marker: str
    side: str


def _ends(marker: Marker) -> tuple[Extremity, Extremity]:
    """The extremities at a marker's left and right as its chromosome reads:
    tail then head when it points forward, head then tail when reversed."""
    name, sign = marker
    tail, head = Extremity(name, TAIL), Extremity(name, HEAD)
    return (tail, head) if sign > 0 else (head, tail)


def _flip(markers: tuple[Marker, ...]) -> tuple[Marker, ...]:
    return tuple((name, -sign) for name, sign in reversed(markers))


def least_rotation(seq: tuple) -> tuple:
    """The rotation of seq that starts at its least item.

    When the items are distinct, as marker names in a chromosome and edge
    ids in a circuit are, this is the least of all rotations, found in
    linear time without building the others.
    """
    if not seq:
        return seq
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


@dataclass(frozen=True, eq=False)
class Chromosome:
    """A linear or circular sequence of signed markers.

    Equality ignores representation freedom: a circular chromosome has no
    distinguished start, and neither shape has a distinguished strand, so
    chromosomes compare equal up to rotation (circular only) and up to
    simultaneous reverse-and-negate.
    """

    shape: str
    markers: tuple[Marker, ...]

    def __post_init__(self):
        if self.shape not in (LINEAR, CIRCULAR):
            raise ValueError("unknown chromosome shape %r" % self.shape)
        if not self.markers:
            raise ValueError("empty chromosome")
        object.__setattr__(
            self, "markers", tuple((str(n), int(s)) for n, s in self.markers)
        )
        seen = set()
        for name, sign in self.markers:
            if sign not in (1, -1):
                raise ValueError("marker sign must be +1 or -1")
            if not name or name.startswith("-"):
                raise ValueError("bad marker name %r" % name)
            if name in seen:
                raise ValueError("duplicate marker %r" % name)
            seen.add(name)

    def canonical(self) -> tuple:
        ms = self.markers
        if self.shape == LINEAR:
            best = min(ms, _flip(ms))
        else:
            best = min(least_rotation(ms), least_rotation(_flip(ms)))
        return (self.shape, best)

    def junctions(self) -> list[tuple[Extremity, Extremity]]:
        """The (right end, left end) pair where each marker meets the next,
        in reading order; a circular chromosome closes with its last marker
        meeting its first."""
        ends = [_ends(m) for m in self.markers]
        if self.shape == CIRCULAR:
            ends.append(ends[0])
        return [(a[1], b[0]) for a, b in zip(ends, ends[1:])]

    def telomeres(self) -> tuple[Extremity, ...]:
        """A linear chromosome's two loose ends, the left end of its first
        marker and the right end of its last; a circular one has none."""
        if self.shape == CIRCULAR:
            return ()
        return _ends(self.markers[0])[0], _ends(self.markers[-1])[1]

    def __eq__(self, other):
        if not isinstance(other, Chromosome):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __str__(self) -> str:
        prefix = "L" if self.shape == LINEAR else "C"
        toks = [("-" + n if s < 0 else n) for n, s in self.markers]
        return "%s: %s" % (prefix, " ".join(toks))


@dataclass(frozen=True, eq=False)
class Genome:
    """An unordered collection of chromosomes with pairwise distinct markers."""

    chromosomes: tuple[Chromosome, ...]

    def __post_init__(self):
        object.__setattr__(self, "chromosomes", tuple(self.chromosomes))
        seen = set()
        for chrom in self.chromosomes:
            for name, _ in chrom.markers:
                if name in seen:
                    raise ValueError("duplicate marker %r" % name)
                seen.add(name)

    def marker_names(self) -> frozenset[str]:
        return frozenset(
            name for chrom in self.chromosomes for name, _ in chrom.markers
        )

    def canonical(self) -> tuple:
        return tuple(sorted(c.canonical() for c in self.chromosomes))

    def __eq__(self, other):
        if not isinstance(other, Genome):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.chromosomes)

    def to_json(self) -> dict:
        return {
            "chromosomes": [
                {
                    "shape": c.shape,
                    "markers": [("-" + n if s < 0 else n) for n, s in c.markers],
                }
                for c in self.chromosomes
            ]
        }


def _parse_marker(tok: str) -> Marker:
    sign = 1
    if tok.startswith("-"):
        sign, tok = -1, tok[1:]
    if not tok or tok.startswith("-"):
        raise ValueError("bad marker token %r" % tok)
    return (tok, sign)


def parse_genome(text: str) -> Genome:
    """Parse one chromosome per line: "L: b -d c" (linear) or "C: a -e f"."""
    chromosomes = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError("chromosome line without L:/C: prefix: %r" % line)
        prefix, _, rest = line.partition(":")
        prefix = prefix.strip()
        if prefix == "L":
            shape = LINEAR
        elif prefix == "C":
            shape = CIRCULAR
        else:
            raise ValueError("unknown chromosome prefix %r" % prefix)
        markers = tuple(_parse_marker(tok) for tok in rest.split())
        if not markers:
            raise ValueError("empty chromosome: %r" % line)
        chromosomes.append(Chromosome(shape, markers))
    return Genome(tuple(chromosomes))


def genome_from_json(data: dict) -> Genome:
    chromosomes = []
    for entry in data["chromosomes"]:
        markers = tuple(_parse_marker(tok) for tok in entry["markers"])
        chromosomes.append(Chromosome(entry["shape"], markers))
    return Genome(tuple(chromosomes))
