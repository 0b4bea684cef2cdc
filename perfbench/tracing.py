"""Span recording around calls into the program's layers.

The tracer never edits the program: it replaces attributes (an
instance's bound method, a module-level function, a class method) with
wrappers for the length of one traced run and puts the originals back
afterwards.  Each wrapped call becomes one span: name, start, end, the
enclosing span and, when an argument carries one, the command id.

Synchronous calls nest on one stack -- the runtime and the simulator
both run on a single thread, and a synchronous call cannot yield to the
event loop, so the innermost open span is always the caller.  Awaited
calls (socket reads, ``drain``) are *waits*: they interleave with other
tasks, so they are recorded outside the stack (parent ``WAIT``) and
never subtracted from anyone's self time.

Spans live in flat ``array`` columns (about 40 bytes each) and are
written to a TSV file when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter
from typing import Callable, Optional

from repro.consensus.commands import Command

TOP = -1
"""Parent of a synchronous span with no enclosing span."""
WAIT = -2
"""Parent marker of an awaited (interleaving) span."""

MAX_SPANS = 4_000_000
"""Cap on retained spans (~160 MB of columns); later calls are counted
in ``dropped`` and still run, untimed."""


def command_id(value: object) -> Optional[tuple[int, int]]:
    """The command id an argument carries, if any: a :class:`Command`
    itself, or a message with a ``command`` field (``Forward``)."""
    if isinstance(value, Command):
        return value.cid
    command = getattr(value, "command", None)
    if isinstance(command, Command):
        return command.cid
    return None


class Tracer:
    """In-memory span log plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.cid_node_col = array("i")
        self.cid_seq_col = array("q")
        self.counters: dict[str, float] = {}
        self.dropped = 0
        self.wait_names: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self, nid: int, parent: int, cid) -> int:
        if len(self.start_col) >= MAX_SPANS:
            self.dropped += 1
            return -1
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(parent)
        if cid is None:
            self.cid_node_col.append(-1)
            self.cid_seq_col.append(0)
        else:
            self.cid_node_col.append(cid[0])
            self.cid_seq_col.append(cid[1])
        self.end_col.append(0.0)
        self.start_col.append(perf_counter())
        return idx

    def timed(
        self,
        fn: Callable,
        name: Optional[str] = None,
        name_of: Optional[Callable[..., str]] = None,
        cid_arg: Optional[int] = None,
        on_call: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Wrap synchronous ``fn`` so each call records one span.

        ``name_of(*args)`` picks the span name per call (handlers are
        named by message type); ``cid_arg`` is the index of the argument
        whose command id tags the span; ``on_call(*args)`` updates
        counters before the call runs."""
        stack = self._stack
        end_col = self.end_col
        fixed = self.name_id(name) if name is not None else None
        names: dict[str, int] = {}

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            if fixed is None:
                label = name_of(*args)
                nid = names.get(label)
                if nid is None:
                    nid = names[label] = self.name_id(label)
            else:
                nid = fixed
            cid = command_id(args[cid_arg]) if cid_arg is not None else None
            idx = self._open(nid, stack[-1] if stack else TOP, cid)
            if idx < 0:
                return fn(*args, **kwargs)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end_col[idx] = perf_counter()

        return wrapper

    def waited(self, fn: Callable, name: str) -> Callable:
        """Wrap coroutine function ``fn``: one ``WAIT`` span per await,
        from the call until its result is ready."""
        nid = self.name_id(name)
        self.wait_names.add(name)
        end_col = self.end_col

        async def wrapper(*args, **kwargs):
            idx = self._open(nid, WAIT, None)
            try:
                return await fn(*args, **kwargs)
            finally:
                if idx >= 0:
                    end_col[idx] = perf_counter()

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Set ``owner.attr = wrapper`` until :meth:`restore`.

        ``owner`` is a module, a class or an instance.  An instance
        attribute that normally comes from the class is deleted again
        on restore, so the object goes back to plain class lookup."""
        own = vars(owner)
        if attr in own:
            original = own[attr]
            undo = lambda: setattr(owner, attr, original)  # noqa: E731
        else:
            undo = lambda: delattr(owner, attr)  # noqa: E731
        setattr(owner, attr, wrapper)
        self._undo.append(undo)

    def replace_item(self, items: list, old: object, new: object) -> None:
        """Swap ``old`` for ``new`` in a listener list until :meth:`restore`."""
        index = items.index(old)
        items[index] = new

        def undo() -> None:
            items[items.index(new)] = old

        self._undo.append(undo)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Analysis and output
    # ------------------------------------------------------------------

    def totals(self, t0: float, t1: float) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: seconds and call count, over the spans that
        start inside ``[t0, t1]`` (``perf_counter`` times).  Seconds are
        self time for synchronous spans and the whole wait for ``WAIT``
        spans."""
        n = len(self.start_col)
        starts, ends, parents = self.start_col, self.end_col, self.parent_col
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        seconds = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        name_col = self.name_col
        for i in range(n):
            if t0 <= starts[i] <= t1:
                nid = name_col[i]
                seconds[nid] += (ends[i] - starts[i]) - child[i]
                calls[nid] += 1
        return (
            {name: seconds[i] for i, name in enumerate(self.names)},
            {name: calls[i] for i, name in enumerate(self.names)},
        )

    def write(self, path: str) -> None:
        """One TSV row per span: index, name, start, end, parent, and
        the command id (``-`` when the call carried none)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = self.names
        with open(path, "w") as fh:
            fh.write("idx\tname\tstart_s\tend_s\tparent\tcid\n")
            for i in range(len(self.start_col)):
                node = self.cid_node_col[i]
                cid = f"{node}.{self.cid_seq_col[i]}" if node >= 0 else "-"
                fh.write(
                    f"{i}\t{names[self.name_col[i]]}\t{self.start_col[i]:.9f}\t"
                    f"{self.end_col[i]:.9f}\t{self.parent_col[i]}\t{cid}\n"
                )
