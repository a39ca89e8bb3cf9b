"""Span recording around calls into the simulator's layers, from outside.

:class:`SpanRecorder` replaces chosen functions with wrappers that open
a span on entry and close it on return, and puts every original back in
:meth:`unpatch_all`.  Nothing under ``src/`` is edited: class methods are
swapped on the class object, and a module-level function is swapped in
every loaded module that holds a reference to it (``from x import f``
copies the name).

A span is reduced when it closes: its layer gains one call, its
duration (``total_s``) and its self time -- the duration minus the union
of its children's intervals (:func:`self_time`).  Only the open spans
and each one's list of child intervals are held, so a round of millions
of calls needs no span log.  Names starting with ``~`` are *transparent*:
they split a parent's time (``runner.map`` excludes its task bodies), but
their own self time goes to :data:`UNATTRIBUTED`, like that of the round
root opened with :meth:`SpanRecorder.begin`.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Hook run after a wrapped call returns: ``hook(args, result)``.
OnReturn = Callable[[tuple, Any], None]

#: Hook that may replace a call's arguments: ``prepare(args, kwargs)``.
Prepare = Callable[[tuple, dict], Tuple[tuple, dict]]

UNATTRIBUTED = "unattributed"


def union_length(intervals: Sequence[Tuple[float, float]],
                 lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start = max(start, lo)
        end = min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float,
              children: Sequence[Tuple[float, float]]) -> float:
    """A span's duration minus the union of its children's intervals."""
    if not children:
        return end - start
    return max(0.0, end - start - union_length(children, start, end))


class SpanRecorder:
    """Per-layer call counts and times, plus the patches that produce them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Per name index: [calls, self_s, total_s].
        self._totals: List[List[float]] = []
        #: Open spans: [name index, start, child intervals].
        self._stack: List[list] = []
        #: (owner, attribute, original value) of every active patch.
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        """Index of ``name`` in :attr:`names`, registering it if new."""
        idx = self._name_ids.get(name)
        if idx is None:
            idx = len(self.names)
            self.names.append(name)
            self._name_ids[name] = idx
            self._totals.append([0, 0.0, 0.0])
        return idx

    def begin(self, name: str) -> None:
        """Open a span by hand (the round root)."""
        self._stack.append([self.name_id(name), self.clock(), []])

    def end(self) -> None:
        """Close the innermost open span."""
        self._close(self._stack.pop(), self.clock())

    def _close(self, frame: list, end: float) -> None:
        name_idx, start, children = frame
        totals = self._totals[name_idx]
        totals[0] += 1
        totals[1] += self_time(start, end, children)
        totals[2] += end - start
        if self._stack:
            # The parent sees this span end after its reduction, so the
            # reduction's cost lands in no layer's self time.
            self._stack[-1][2].append((start, self.clock()))

    def take(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls``, ``self_s`` and ``total_s`` so far; resets them.

        Round roots and transparent (``~``) spans are folded into
        :data:`UNATTRIBUTED` (self time only).
        """
        if self._stack:
            raise RuntimeError("take() with spans still open")
        out: Dict[str, Dict[str, float]] = {}
        unattributed = 0.0
        for name, totals in zip(self.names, self._totals):
            calls, own, total = totals
            if name.startswith("~") or name == "round":
                unattributed += own
            elif calls:
                out[name] = {"calls": calls, "self_s": own, "total_s": total}
            totals[:] = [0, 0.0, 0.0]
        out[UNATTRIBUTED] = {"calls": 0, "self_s": unattributed, "total_s": 0.0}
        return out

    def wrap(self, fn: Callable[..., Any], name: str,
             on_return: Optional[OnReturn] = None,
             prepare: Optional[Prepare] = None) -> Callable[..., Any]:
        """A function that records a ``name`` span around each ``fn`` call."""
        name_idx = self.name_id(name)
        stack = self._stack
        clock = self.clock
        close = self._close

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            frame = [name_idx, clock(), []]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str,
                     on_return: Optional[OnReturn] = None,
                     prepare: Optional[Prepare] = None) -> None:
        """Wrap ``cls.attr`` (which ``cls`` itself must define)."""
        original = cls.__dict__[attr]
        if not callable(original):
            raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
        setattr(cls, attr, self.wrap(original, name, on_return, prepare))
        self._patches.append((cls, attr, original))

    def patch_method_tree(self, cls: type, attr: str, name: str,
                          on_return: Optional[OnReturn] = None) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass overriding it."""
        seen = set()
        todo = [cls]
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            if attr in klass.__dict__:
                self.patch_method(klass, attr, name, on_return)

    def patch_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a module-level function in every module that imported it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(original, name)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    @property
    def patched(self) -> int:
        """Number of attributes currently replaced by wrappers."""
        return len(self._patches)

    def unpatch_all(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
