"""Disjoint-set forest with union by size and path compression."""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

T = TypeVar("T", bound=Hashable)


class UnionFind:
    """A disjoint-set forest over arbitrary hashable elements.

    Elements are created lazily on first touch.  ``union`` returns whether
    a merge actually happened.
    """

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}
        for element in elements:
            self.add(element)

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, element: Hashable) -> bool:
        return element in self._parent

    def add(self, element: Hashable) -> None:
        """Register ``element`` as a singleton set (no-op if known)."""
        if element not in self._parent:
            self._parent[element] = element
            self._size[element] = 1

    def find(self, element: Hashable) -> Hashable:
        """The canonical representative of ``element``'s set."""
        self.add(element)
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        return True

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """True if ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def component_size(self, element: Hashable) -> int:
        """Size of the set containing ``element``."""
        return self._size[self.find(element)]

    def components(self) -> dict[Hashable, list[Hashable]]:
        """All sets, keyed by representative."""
        groups: dict[Hashable, list[Hashable]] = {}
        for element in self._parent:
            groups.setdefault(self.find(element), []).append(element)
        return groups
