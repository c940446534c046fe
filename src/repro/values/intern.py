"""The hash-consing store for o-values.

Structurally equal :class:`~repro.values.ovalues.OTuple` / ``OSet`` values
are expensive to compare and hash naively: deep equality walks whole trees,
and the Section-4.1 machinery (O-isomorphism, copy elimination) does little
else.  Hash-consing collapses the value universe into a DAG of *unique*
nodes — constructing a tuple or set that already exists returns the
existing Python object — so that

* every live tuple or set is **the** store node for its content: equal
  values are one object, and ``v1 == v2`` is the identity test,
* ``hash(v)`` is computed once per *distinct* value in the process,
* per-node metadata (``value_size``, ``value_depth``, ``oids_of``,
  ``constants_of``, ``sort_key``, canonical element order) is cached on
  the unique node and shared by every holder of the value,
* "does any value with this content exist?" is one table probe: no live
  node means no extension of any instance holds the value (compiled
  membership filters answer this way without building a tuple).

The store itself is deliberately small: two plain dicts mapping the
canonical content of a node (the sorted ``(attr, value)`` pair tuple for
tuples, the element frozenset for sets) to a plain :class:`weakref.ref`
of the interned object.  Weak references mean the store never keeps a
value alive by itself.  Dead entries are *not* removed eagerly: a removal
callback would be a Python-level call per dead value, firing inside
whatever code happens to drop the last reference (including inside a GC
pass — tens of thousands of calls after a large evaluation).  Instead a
dead reference simply reads as a miss, the re-construction replaces it,
and the tables are compacted by an amortized sweep: when a table grows
past its high-water mark, the constructor deletes its dead entries in
place and sets the next mark to twice the live size.  Each entry is
therefore swept O(1) times per doubling — constant amortized cost, no
callbacks anywhere.

The counters below make the store observable:

* ``hits``   — constructions that returned an existing node,
* ``misses`` — constructions that created a new node.

:class:`~repro.iql.evaluator.EvaluationStats` snapshots them around a run
and ``repro run --stats`` prints the deltas.

Threads
-------

The engine interns from one thread, but host applications may construct
values from several, and with equality by identity a second node for one
content (a *twin*) would compare unequal to the first.  So:

* a hit is one lock-free ``dict.get``;
* a new content is inserted with ``dict.setdefault``, one atomic step:
  the key is hashed before the table changes, and comparing keys runs no
  Python code (no o-value type defines ``__eq__``). The constructor
  returns whichever node won;
* only replacing a dead entry and sweeping take :attr:`InternStore.lock`.
  The sweep walks a ``dict.copy()`` of the table and deletes, in place,
  only entries that are still dead, so it never drops another thread's
  insert.

Process locality
----------------

The store is **process-local** by design: nothing here is shared memory,
and node identity never survives a pickle round trip on its own.
Unpickled values are rebuilt *through the receiving side's interned
constructors* (``Oid.__reduce__`` / ``OTuple.__reduce__`` /
``OSet.__reduce__`` in :mod:`repro.values.ovalues`), so a value loaded
back into the process that pickled it is that process's canonical node
again and the ``v1 == v2  ⇔  v1 is v2`` invariant holds.  Caches built
against one process's nodes — an instance's constants cache and lazy
index registry — are never pickled (``Instance.__getstate__`` leaves
them out).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Tuple
from weakref import ref as _weakref


class InternStore:
    """Process-wide hash-consing tables and counters."""

    #: Tables smaller than this are never swept; above it, a sweep runs
    #: when live+dead entries reach the table's high-water mark.
    SWEEP_FLOOR = 8192

    __slots__ = (
        "tuples",
        "sets",
        "hits",
        "misses",
        "tuples_mark",
        "sets_mark",
        "lock",
    )

    def __init__(self) -> None:
        self.tuples: Dict = {}
        self.sets: Dict = {}
        self.hits = 0
        self.misses = 0
        self.tuples_mark = self.SWEEP_FLOOR
        self.sets_mark = self.SWEEP_FLOOR
        #: Held to replace a dead entry and to sweep; never on a hit.
        #: Re-entrant: a garbage collection inside a sweep may run a
        #: finalizer that constructs values on the same thread.
        self.lock = threading.RLock()


#: The process-wide store. ``repro.values.ovalues`` binds this at import
#: time, and the compiled membership probes of ``repro.iql.compile`` read
#: its tuple table on every call; everything else should go through the
#: functions below.
STORE = InternStore()


def adopt(table: Dict, key: Any, node: Any) -> Any:
    """Store the new ``node`` as ``table``'s node for ``key`` and return
    it, or return the live node another thread stored first."""
    entry = _weakref(node)
    while True:
        current = table.setdefault(key, entry)
        if current is entry:
            return node
        winner = current()
        if winner is not None:
            return winner
        # A dead entry: only lock holders replace or delete entries, so
        # under the lock it is still dead unless one of them got there.
        with STORE.lock:
            if table.get(key) is current:
                table[key] = entry
                return node


def sweep(name: str) -> None:
    """Delete the dead entries of ``STORE.<name>`` ("tuples" or "sets")
    in place, if it is still at its high-water mark, and set the next
    mark to twice the live size."""
    mark = name + "_mark"
    with STORE.lock:
        table = getattr(STORE, name)
        if len(table) < getattr(STORE, mark):
            return  # another thread swept first
        for key, entry in table.copy().items():
            if entry() is None and table.get(key) is entry:
                del table[key]
        setattr(STORE, mark, max(InternStore.SWEEP_FLOOR, 2 * len(table)))


def counters() -> Tuple[int, int, int]:
    """(hits, misses, 0) since process start.

    The third element is retired: it counted ``__eq__`` calls answered by
    the identity test, and equality is now always that test. It stays 0
    until the benchmark drops its ``intern.eq_fast_paths`` metric."""
    return (STORE.hits, STORE.misses, 0)


def table_sizes() -> Tuple[int, int]:
    """(live interned tuples, live interned sets).

    Dead entries linger until the next amortized sweep, so this walks the
    tables and counts only references that still resolve."""
    return (
        sum(1 for ref in STORE.tuples.values() if ref() is not None),
        sum(1 for ref in STORE.sets.values() if ref() is not None),
    )
