"""The hash-consing store for o-values.

Structurally equal :class:`~repro.values.ovalues.OTuple` / ``OSet`` values
are expensive to compare and hash naively: deep equality walks whole trees,
and the Section-4.1 machinery (O-isomorphism, copy elimination) does little
else.  Hash-consing collapses the value universe into a DAG of *unique*
nodes — constructing a tuple or set that already exists returns the
existing Python object — so that

* ``v1 == v2`` is an identity check whenever both sides were interned
  (with a structural fallback across intern generations, see below),
* ``hash(v)`` is computed once per *distinct* value in the process,
* per-node metadata (``value_size``, ``value_depth``, ``oids_of``,
  ``constants_of``, ``sort_key``, canonical element order) is cached on
  the unique node and shared by every holder of the value.

The store itself is deliberately small: two plain dicts mapping the
canonical content of a node (the sorted field tuple for tuples, the
element frozenset for sets) to a plain :class:`weakref.ref` of the
interned object.  Weak references mean the store never keeps a value
alive by itself.  Dead entries are *not* removed eagerly: a removal
callback would be a Python-level call per dead value, firing inside
whatever code happens to drop the last reference (including inside a GC
pass — tens of thousands of calls after a large evaluation).  Instead a
dead reference simply reads as a miss, the re-construction overwrites it
in place, and the tables are compacted by an amortized sweep: when a
table grows past its high-water mark the constructor rebuilds it keeping
only live entries and sets the next mark to twice the live size.  Each
entry is therefore swept O(1) times per doubling — constant amortized
cost, no callbacks anywhere.

Intern generations
------------------

:func:`clear` starts a new generation: values built before it are no
longer the store's canonical nodes, and equality against current nodes
falls back to the structural comparison, so mixing generations is always
*correct*, merely slower (:func:`~repro.values.ovalues.reintern` maps an
old value onto the current node).  The counters below make the split
observable:

* ``hits``      — constructions that returned an existing node,
* ``misses``    — constructions that created a new node,
* ``eq_fast_paths`` — ``__eq__`` calls answered by the identity check.

:class:`~repro.iql.evaluator.EvaluationStats` snapshots the counters around
a run and ``repro run --stats`` prints the deltas.

Thread safety: the engine itself never interns from two threads, but
the store stays safe for host applications that do.  Under the GIL each probe, insert, and
sweep-rebuild is atomic enough; two threads racing to intern the same
content can at worst both build a node, with the last insert winning the
table.  The loser stays a valid value — the structural ``__eq__``
fallback absorbs the duplicate — so no lock sits on the construction path.

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

from typing import Dict, Tuple


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
        "eq_fast_paths",
        "tuples_mark",
        "sets_mark",
    )

    def __init__(self) -> None:
        self.tuples: Dict = {}
        self.sets: Dict = {}
        self.hits = 0
        self.misses = 0
        self.eq_fast_paths = 0
        self.tuples_mark = self.SWEEP_FLOOR
        self.sets_mark = self.SWEEP_FLOOR


#: The process-wide store. ``repro.values.ovalues`` binds this at import
#: time; everything else should go through the functions below.
STORE = InternStore()


def counters() -> Tuple[int, int, int]:
    """(hits, misses, eq_fast_paths) since process start."""
    return (STORE.hits, STORE.misses, STORE.eq_fast_paths)


def table_sizes() -> Tuple[int, int]:
    """(live interned tuples, live interned sets).

    Dead entries linger until the next amortized sweep, so this walks the
    tables and counts only references that still resolve."""
    return (
        sum(1 for ref in STORE.tuples.values() if ref() is not None),
        sum(1 for ref in STORE.sets.values() if ref() is not None),
    )


def clear() -> None:
    """Drop both tables (values already out there stay valid; equality
    across the clear falls back to the structural path)."""
    STORE.tuples.clear()
    STORE.sets.clear()
    STORE.tuples_mark = InternStore.SWEEP_FLOOR
    STORE.sets_mark = InternStore.SWEEP_FLOOR
