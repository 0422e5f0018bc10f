"""Signed permutations, reversals, and multichromosomal genomes.

A signed permutation is a sequence of nonzero integers whose absolute
values are exactly 1..n.  A reversal flips a contiguous block and negates
every entry in it.  A reversal script is its source and its intervals:
its constructor replays them once through ``apply_reversal`` and refuses a
script that does not end at the identity, and its ``steps`` replay them
again when read, so no script keeps the permutations in between.  Genomes
are unordered collections of linear or circular chromosomes over string
marker names, each name used once.

The sequence rules that the DCJ and 4-regular views share live here once:
which marker extremities meet at each junction of a chromosome and at its
loose ends, and the least form of a cycle of distinct items
(``least_rotation``), on which both a circular chromosome's and a circuit's
canonical form rest.  Extremities are integer ids, where marker number i
has tail 2i and head 2i + 1, and the side rule (``Chromosome._left_ends``)
says which meet: ``Chromosome.junction_ids`` lists a chromosome's
junctions, and ``Genome.mates`` writes a genome as one mate array, its
adjacencies and telomeres, in one pass per chromosome.  Two numberings
exist.  ``marker_numbers`` sorts the names, for outputs that show them;
``pair_numbers`` takes one genome's reading order, for counts over a pair
that need no names, and checks that the other genome holds the same
markers.  ``genome_from_mates`` reads a mate array back as a genome, and
``breakpoint_ids`` lists its breakpoints in the order of their named
``Extremity`` forms (``in_named_order``).

``parse_genome`` and ``genome_from_json`` read each marker token once and
find repeated markers with one set over the whole genome; they and
``genome_from_mates`` then build through ``verify.trusted``, as
``apply_reversal`` does, so they validate again only under the verify
switch.  The public constructors keep every check.  A marker name holds no
whitespace, or its text form would read back as other markers; text
tokens come from ``str.split``, so only the JSON reader and the public
constructor check it.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import neg
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
    block = tuple(map(neg, v[i:j][::-1]))
    return verify.trusted(SignedPermutation, values=v[:i] + block + v[j:])


@dataclass(frozen=True)
class ReversalScript:
    """A sequence of reversals that takes source to the identity.

    A script is its intervals.  Construction replays them once through
    ``apply_reversal``, keeping only the current permutation, and raises
    unless the replay ends at the identity; ``steps`` replays them again
    on every read.
    """

    source: SignedPermutation
    intervals: tuple[ReversalInterval, ...]

    def __post_init__(self):
        cur = self.source
        for interval in self.intervals:
            cur = apply_reversal(cur, interval)
        if not is_identity(cur):
            raise ValueError("script does not end at the identity")

    @property
    def claimed_distance(self) -> int:
        return len(self.intervals)

    @property
    def steps(self) -> tuple[tuple[ReversalInterval, SignedPermutation], ...]:
        """Each interval paired with the permutation it leaves."""
        steps = []
        cur = self.source
        for interval in self.intervals:
            cur = apply_reversal(cur, interval)
            steps.append((interval, cur))
        return tuple(steps)

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "steps": [
                {"reversal": [i.start, i.end], "result": q.to_json()}
                for i, q in self.steps
            ],
            "claimed_distance": self.claimed_distance,
        }


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


# ---------------------------------------------------------------------------
# genomes

Marker = tuple[str, int]  # (name, +1 or -1)

HEAD = "head"
TAIL = "tail"
SIDES = (TAIL, HEAD)  # indexed by an extremity id's low bit


class Extremity(NamedTuple):
    marker: str
    side: str


def marker_numbers(names: Iterable[str]) -> dict[str, int]:
    """Each marker's place among the sorted names.  Marker number i has
    extremity ids 2i (its tail) and 2i + 1 (its head)."""
    return {name: i for i, name in enumerate(sorted(names))}


def pair_numbers(ga: Genome, gb: Genome) -> dict[str, int]:
    """Each marker's place in ga's reading order, for a count that does
    not depend on how the markers are numbered.  Raises unless gb holds
    exactly ga's markers: as neither genome repeats a marker, it is enough
    that every marker of gb is numbered and the two counts agree."""
    names = [name for chrom in ga.chromosomes for name, _ in chrom.markers]
    number = dict(zip(names, range(len(names))))
    count = 0
    for chrom in gb.chromosomes:
        for name, _ in chrom.markers:
            if name not in number:
                raise ValueError("marker sets differ")
        count += len(chrom.markers)
    if count != len(number):
        raise ValueError("marker sets differ")
    return number


def in_named_order(n_ids: int) -> list[int]:
    """The extremity ids below n_ids in the order of their ``Extremity``
    forms, which sort by marker and then head before tail: the order of
    the ids x ^ 1."""
    return [k ^ 1 for k in range(n_ids)]


def breakpoint_ids(mate: list[int]) -> list[tuple[int, ...]]:
    """A genome's breakpoints from its mate array: the adjacencies, then
    the telomeres, each run and each adjacency ``in_named_order``."""
    named = in_named_order(len(mate))
    # a telomere's mate -1 reads as -2 under ^ 1, so it never passes the test
    return [(x, mate[x]) for x in named if x ^ 1 < mate[x] ^ 1] + [
        (x,) for x in named if mate[x] < 0
    ]


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
            if name.startswith("-") or name.split() != [name]:
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

    def _left_ends(self, number: Mapping[str, int]) -> list[int]:
        """The id of the extremity at each marker's left as the chromosome
        reads, marker m having ids 2 * number[m] (tail) and the next one up
        (head).  A marker pointing forward shows its tail on the left, a
        reversed one its head; its right end is the other id, left ^ 1."""
        return [2 * number[name] + (sign < 0) for name, sign in self.markers]

    def junction_ids(self, number: Mapping[str, int]) -> list[tuple[int, int]]:
        """The (right end, left end) pair where each marker meets the next,
        in reading order; a circular chromosome closes with its last marker
        meeting its first."""
        lefts = self._left_ends(number)
        nexts = lefts[1:] + lefts[:1] if self.shape == CIRCULAR else lefts[1:]
        return [(a ^ 1, b) for a, b in zip(lefts, nexts)]

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

    def mates(self, number: Mapping[str, int]) -> list[int]:
        """The mate array under number, which numbers exactly this
        genome's markers (``marker_numbers`` or ``pair_numbers``):
        ``mate[x]`` is the extremity across x's junction, or -1 when x is a
        telomere.  One pass per chromosome joins each marker's left end to
        the right end before it, which for a circular chromosome starts as
        its last marker's right end (the side rule of ``junction_ids``)."""
        # a linear chromosome's first left end has no right end before it:
        # its -1 addresses the spare slot past the end, dropped on return
        mate = [-1] * (2 * len(number) + 1)
        for chrom in self.chromosomes:
            right = -1
            if chrom.shape == CIRCULAR:
                name, sign = chrom.markers[-1]
                right = 2 * number[name] + (sign > 0)
            for name, sign in chrom.markers:
                left = 2 * number[name] + (sign < 0)
                mate[right] = left
                mate[left] = right
                right = left ^ 1
        mate.pop()
        return mate

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


def genome_from_mates(names: Sequence[str], mate: list[int]) -> Genome:
    """The genome whose mate array is mate, names[i] naming marker i;
    inverse of ``Genome.mates`` up to chromosome order and strand.

    One walk per chromosome, linear ones from their telomeres
    ``in_named_order`` first, then circular ones from the tail of their
    least marker.  A walk follows each marker to its other end and on
    across the junction there, and stops at a telomere or back at a
    visited marker.
    """
    visited = bytearray(len(names))
    telomeres = [x for x in in_named_order(len(mate)) if mate[x] < 0]
    chromosomes = []
    for start in telomeres + list(range(0, len(mate), 2)):
        if visited[start >> 1]:
            continue
        markers = []
        x = start
        while x >= 0 and not visited[x >> 1]:
            visited[x >> 1] = 1
            markers.append((names[x >> 1], -1 if x & 1 else 1))
            x = mate[x ^ 1]
        shape = LINEAR if mate[start] < 0 else CIRCULAR
        chromosomes.append(
            verify.trusted(Chromosome, shape=shape, markers=tuple(markers))
        )
    return verify.trusted(Genome, chromosomes=tuple(chromosomes))


def _read_markers(tokens) -> tuple[Marker, ...]:
    """Each token read once: "x" is marker x forward and "-x" is x reversed."""
    markers = []
    for tok in tokens:
        if not isinstance(tok, str) or not tok:
            raise ValueError("bad marker token %r" % (tok,))
        if tok[0] == "-":
            name = tok[1:]
            if not name or name[0] == "-":
                raise ValueError("bad marker token %r" % name)
            markers.append((name, -1))
        else:
            markers.append((tok, 1))
    return tuple(markers)


def _assemble(chromosomes: Iterable[tuple[str, tuple[Marker, ...]]]) -> Genome:
    """The genome of (shape, markers) pairs, drawn one at a time so that
    each source line's errors come in turn.  A marker repeated within one
    chromosome raises as soon as its chromosome is drawn, one repeated
    across chromosomes only after every chromosome is drawn."""
    built = []
    seen: set[str] = set()
    count = 0
    for shape, markers in chromosomes:
        names = dict(markers)
        if shape not in (LINEAR, CIRCULAR) or not names or len(names) < len(markers):
            Chromosome(shape, markers)  # raises, naming the first fault
        seen.update(names)
        count += len(names)
        built.append(verify.trusted(Chromosome, shape=shape, markers=markers))
    if len(seen) < count:
        Genome(tuple(built))  # raises, naming the first repeat
    return verify.trusted(Genome, chromosomes=tuple(built))


def _text_chromosomes(text: str):
    """The (shape, markers) pair of each non-blank line."""
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
        markers = _read_markers(rest.split())
        if not markers:
            raise ValueError("empty chromosome: %r" % line)
        yield shape, markers


def parse_genome(text: str) -> Genome:
    """Parse one chromosome per line: "L: b -d c" (linear) or "C: a -e f"."""
    return _assemble(_text_chromosomes(text))


def _json_chromosomes(data: dict):
    """The (shape, markers) pair of each entry of data["chromosomes"]."""
    for entry in data["chromosomes"]:
        tokens = entry["markers"]
        if not isinstance(tokens, (list, tuple)):
            raise ValueError(
                "chromosome markers must be a list of tokens, not %r" % (tokens,)
            )
        markers = _read_markers(tokens)
        # text tokens come from str.split, so only a JSON name can hold
        # whitespace, which its text form would read as a token break
        for name, _ in markers:
            if name.split() != [name]:
                raise ValueError("bad marker token %r" % name)
        yield entry["shape"], markers


def genome_from_json(data: dict) -> Genome:
    """Read the form ``Genome.to_json`` writes."""
    return _assemble(_json_chromosomes(data))
