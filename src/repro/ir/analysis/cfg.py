"""CFG traversal orders over :class:`~repro.ir.module.Function` blocks.

Traversal results (and the dominator tree, see :mod:`.dominators`) are
cached on the function itself, in ``Function.analyses``, stamped with
``Function.version``: every mutation API on blocks, instructions and
operands bumps the counter, so a cache hit is only possible when the
function is bit-identical to when the results were computed.  The cache
dies with its function and is never pickled or copied with it.
"""

from __future__ import annotations

from typing import List, Set

from ..module import BasicBlock, Function

__all__ = ["postorder", "reverse_postorder", "reachable_blocks"]


class FunctionAnalyses:
    """Analyses of one function at one ``Function.version``."""

    __slots__ = ("version", "postorder", "reachable", "dominator_tree")

    def __init__(self, fn: Function):
        self.version = fn.version
        self.postorder = _compute_postorder(fn)
        self.reachable = {id(b) for b in self.postorder}
        self.dominator_tree = None  # filled on demand by ``dominator_tree()``


def cached_analyses(fn: Function) -> FunctionAnalyses:
    """``fn``'s analysis cache, recomputed if ``fn`` changed since."""
    cache = fn.analyses
    if cache is None or cache.version != fn.version:
        cache = fn.analyses = FunctionAnalyses(fn)
    return cache


def postorder(fn: Function) -> List[BasicBlock]:
    """Depth-first postorder from the entry block (reachable blocks only).

    Iterative to stay safe on deep loop-nest CFGs.  Returns a fresh list;
    callers may reorder/filter it freely.
    """
    return list(cached_analyses(fn).postorder)


def _compute_postorder(fn: Function) -> List[BasicBlock]:
    if not fn.blocks:
        return []
    seen: Set[int] = set()
    order: List[BasicBlock] = []
    stack: List[tuple] = [(fn.entry, iter(fn.entry.successors))]
    seen.add(id(fn.entry))
    while stack:
        block, succs = stack[-1]
        advanced = False
        for succ in succs:
            if id(succ) not in seen:
                seen.add(id(succ))
                stack.append((succ, iter(succ.successors)))
                advanced = True
                break
        if not advanced:
            order.append(block)
            stack.pop()
    return order


def reverse_postorder(fn: Function) -> List[BasicBlock]:
    return list(reversed(postorder(fn)))


def reachable_blocks(fn: Function) -> Set[int]:
    """ids of blocks reachable from entry."""
    return set(cached_analyses(fn).reachable)
