"""Output checks, done in the benchmark's own code outside the timed region.

Each function returns a list of problems; an empty list means the
operation's output is correct.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Iterable, Sequence

import numpy as np

# slack on recomputed distances; coordinates are below 2e3 and d = 30, so
# float64 rounding stays many orders of magnitude below this
CHECK_EPS = 1e-6


def member_digest(member_lists: Iterable[Sequence[int]]) -> str:
    """SHA-256 of the sorted member lists, one comma-joined list per line."""
    lines = sorted(",".join(map(str, m)) for m in member_lists)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _connected(members: Sequence[int], adj: dict[int, set[int]]) -> bool:
    todo = set(members)
    start = members[0]
    todo.discard(start)
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adj[v] & todo:
            todo.discard(u)
            queue.append(u)
    return not todo


def _social_problem(members: Sequence[int], adjacency, kind: str, k: int) -> str | None:
    mset = set(members)
    inner = {v: adjacency[v] & mset for v in members}
    if kind == "core":
        if len(members) < k + 1:
            return f"core community {list(members[:8])} has {len(members)} < k+1 members"
        low = min(len(ns) for ns in inner.values())
        if low < k:
            return f"core community {list(members[:8])} has internal degree {low} < {k}"
    else:
        for v in members:
            if not any(len(inner[v] & inner[u]) >= k - 2 for u in inner[v]):
                return f"truss community {list(members[:8])}: {v} is on no edge with support >= {k - 2}"
    if not _connected(members, inner):
        return f"{kind} community {list(members[:8])} is not connected"
    return None


def _contained(member_lists: Sequence[Sequence[int]]) -> list[str]:
    """Problems for every list contained in (or equal to) another one."""
    labels: dict[int, set[int]] = {}
    for i, members in enumerate(member_lists):
        for m in members:
            labels.setdefault(m, set()).add(i)
    out = []
    for i, members in enumerate(member_lists):
        common = set(labels[members[0]])
        for m in members[1:]:
            common &= labels[m]
            if len(common) == 1:
                break
        common.discard(i)
        if common:
            out.append(f"community {list(members[:8])} is contained in another")
    return out


def check_communities(
    member_lists: Sequence[Sequence[int]],
    coords: dict[int, tuple[float, float]],
    adjacency: dict[int, set[int]],
    max_diameter: float,
    kind: str,
    k: int,
    query: int | None = None,
) -> list[str]:
    problems: list[str] = []
    for members in member_lists:
        if query is not None and query not in members:
            problems.append(f"community {list(members[:8])} misses query user {query}")
        pts = np.array([coords[m] for m in members])
        diff = pts[:, None, :] - pts[None, :, :]
        diam = float(np.sqrt((diff**2).sum(axis=2)).max())
        if diam > max_diameter + CHECK_EPS:
            problems.append(f"community {list(members[:8])} has diameter {diam:.9g} > {max_diameter:.9g}")
        bad = _social_problem(members, adjacency, kind, k)
        if bad:
            problems.append(bad)
    problems.extend(_contained(member_lists))
    return problems
