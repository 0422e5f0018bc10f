"""The one switch for the cross-checks that cost more than linear time.

Off by default.  While it is on, these run as well:

- the sorter's per-step rebuild of the circle graph from the new
  permutation, compared with the strip the greedy loop took;
- the greedy loop's carried loop mask, compared with the loops of the
  graph after every strip (``localcomp.greedy_strips``);
- the rank check on the length of ``localcomp.find_full_lc_sequence``;
- the full validation of the rows, permutations and genomes that the
  library builds itself from valid ones (``trusted``: the circle graph
  and its strips, each reversal's result, the genome parsers and
  ``genome_from_mates``).

The test suite runs with it on; the CLI turns it on with ``--verify``.
The ``rank == n + 1 - c`` check in ``sorter.reversal_distance`` runs
with the switch on or off, and so do the replay of every script to the
identity, which is ``perm.ReversalScript``'s constructor, and the slot
and route checks of every 4-regular encoding, which build through the
public constructors.
"""

from __future__ import annotations

from contextlib import contextmanager

_on = False


def enabled() -> bool:
    """True while the super-linear cross-checks run."""
    return _on


@contextmanager
def verifying(on: bool = True):
    """Set the switch for the duration of the block, then restore it."""
    global _on
    saved, _on = _on, on
    try:
        yield
    finally:
        _on = saved


def trusted(cls, **fields):
    """An instance of the dataclass cls that the library built itself from
    valid values.  With the switch on it is ``cls(**fields)``, so every
    check of the public constructor runs; off, the fields are stored as
    given and ``__post_init__`` does not run, so they must already be in
    the constructor's normal form."""
    if _on:
        return cls(**fields)
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj
