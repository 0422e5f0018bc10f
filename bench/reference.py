"""Independent referees for the benchmark's answers.

Nothing here imports revdcj.  Reversal answers are checked against the
breakpoint graph of Hannenhalli and Pevzner: the lower bound n + 1 - c from
its cycle count, and the overlap graph of its gray edges, whose components
decide whether that bound is the exact distance.  DCJ answers are checked
against a count of the cycles and odd paths of the adjacency graph, written
from the definition on integer extremities.
"""

from __future__ import annotations


def _image(values) -> list[int]:
    """0, then 2x-1 2x for each +x and 2x 2x-1 for each -x, then 2n+1."""
    s = [0]
    for x in values:
        s += (2 * x - 1, 2 * x) if x > 0 else (-2 * x, -2 * x - 1)
    s.append(2 * len(values) + 1)
    return s


def _positions(s: list[int]) -> list[int]:
    pos = [0] * len(s)
    for i, v in enumerate(s):
        pos[v] = i
    return pos


def lower_bound(values) -> int:
    """n + 1 - c, with c the cycles of black edges (s[2i], s[2i+1]) and
    gray edges (2i, 2i+1)."""
    s = _image(values)
    pos = _positions(s)
    seen = [False] * len(s)
    cycles = 0
    for start in range(len(s)):
        if seen[start]:
            continue
        cycles += 1
        p = start
        while not seen[p]:
            seen[p] = seen[p ^ 1] = True
            p = pos[s[p ^ 1] ^ 1]
    return len(values) + 1 - cycles


def is_hard(values) -> bool:
    """True when some component of the overlap graph with two or more gray
    edges has no oriented one.

    Gray edge i joins the values 2i and 2i+1; it is oriented when their
    positions have the same parity, and two gray edges overlap when exactly
    one end of either lies strictly inside the other.  Without such a
    component the lower bound is the exact distance.
    """
    n = len(values)
    pos = _positions(_image(values))
    spans = [sorted((pos[2 * i], pos[2 * i + 1])) for i in range(n + 1)]
    root = list(range(n + 1))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i, (a, b) in enumerate(spans):
        for j in range(i + 1, n + 1):
            c, d = spans[j]
            if (a < c < b) != (a < d < b):
                root[find(i)] = find(j)
    size: dict[int, int] = {}
    oriented: dict[int, bool] = {}
    for i in range(n + 1):
        r = find(i)
        size[r] = size.get(r, 0) + 1
        oriented[r] = oriented.get(r, False) or (pos[2 * i] - pos[2 * i + 1]) % 2 == 0
    return any(size[r] > 1 and not oriented[r] for r in size)


def script_replays(source, steps, distance) -> bool:
    """steps: ((start, end), result) pairs; True when each reversal turns the
    previous permutation into the recorded result, the last result is the
    identity, and there are exactly `distance` steps."""
    cur = list(source)
    for (i, j), result in steps:
        cur[i - 1 : j] = [-x for x in reversed(cur[i - 1 : j])]
        if tuple(cur) != tuple(result):
            return False
    return cur == list(range(1, len(cur) + 1)) and len(steps) == distance


def dcj_distance(n_markers: int, genome_a, genome_b) -> int:
    """n - (cycles + odd paths / 2) of the adjacency graph.

    A genome is a list of (circular, [(marker index, sign), ...]).  Marker m
    has tail extremity 2m and head 2m+1; every extremity is one edge of the
    adjacency graph, so a component's edge count is its extremity count.
    """
    links = []
    for genome in (genome_a, genome_b):
        link = [-1] * (2 * n_markers)
        for circular, markers in genome:
            ends = [(2 * m + (s < 0), 2 * m + (s > 0)) for m, s in markers]
            pairs = [(r, l) for (_, r), (l, _) in zip(ends, ends[1:])]
            if circular:
                pairs.append((ends[-1][1], ends[0][0]))
            for r, l in pairs:
                link[r], link[l] = l, r
        links.append(link)
    seen = [False] * (2 * n_markers)
    cycles = odd_paths = 0
    for x in range(2 * n_markers):
        if seen[x]:
            continue
        seen[x] = True
        stack, edges, path = [x], 0, False
        while stack:
            y = stack.pop()
            edges += 1
            for link in links:
                z = link[y]
                if z < 0:
                    path = True
                elif not seen[z]:
                    seen[z] = True
                    stack.append(z)
        if path:
            odd_paths += edges % 2
        else:
            cycles += 1
    return n_markers - (cycles + odd_paths // 2)
