"""The hash-consing layer: interning, cached metadata, colour refinement,
and what pickling preserves of value identity.

Three families of properties:

* **Interning** — structurally equal values are the *same* object, also
  when host threads construct them at once (equality is identity, so a
  second node for one content would be a value unequal to itself);
  cached per-node metadata agrees with a plain recomputation.
* **Colouring** — the joint partition refinement of
  :func:`repro.schema.refine_colours` is invariant under random
  O-isomorphisms, and the new :func:`find_o_isomorphism` agrees with the
  retained pre-PR-3 search on random instance pairs.
* **Differential** — the evaluator run again after a sweep of the intern
  tables produces the same output (up to O-isomorphism for inventing
  programs) as before it, on the same random-program corpus the engine
  differential tests use, and every value it outputs is the store's node
  for its content.
* **Pickling** — round trips rebuild through interned construction, so
  canonical nodes and oids come back as themselves.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iql import Evaluator
from repro.schema import (
    Instance,
    Schema,
    apply_o_isomorphism,
    are_o_isomorphic,
    find_o_isomorphism,
    find_o_isomorphism_reference,
    refine_colours,
)
from repro.typesys import D, classref, set_of, tuple_of
from repro.values import (
    Oid,
    OSet,
    OTuple,
    constants_of,
    intern,
    oids_of,
    sort_key,
    sorted_elements,
    substitute_oids,
    value_depth,
    value_size,
)

from tests.test_differential import assert_agree, assert_canonical, random_case

# -- strategies -----------------------------------------------------------------

constants = st.one_of(st.text(max_size=4), st.integers(-50, 50), st.booleans())


def ovalues():
    return st.recursive(
        constants,
        lambda children: st.one_of(
            st.lists(children, max_size=3).map(OSet),
            st.dictionaries(
                st.sampled_from(["a", "b", "c"]), children, max_size=3
            ).map(OTuple),
        ),
        max_leaves=8,
    )


# -- interning ------------------------------------------------------------------


@given(ovalues())
def test_equal_values_are_identical_when_interned(v):
    rebuilt = _rebuild(v)
    if isinstance(v, (OTuple, OSet)):
        assert rebuilt is _rebuild(v)


def _rebuild(v):
    """Reconstruct ``v`` bottom-up through the public constructors."""
    if isinstance(v, OTuple):
        return OTuple({attr: _rebuild(x) for attr, x in v.items()})
    if isinstance(v, OSet):
        return OSet(_rebuild(x) for x in v)
    return v


def test_intern_counters_move():
    h0, m0, _ = intern.counters()
    # Hold both builds: the table is weak, so an unreferenced value is
    # evicted the moment it is collected.
    first = OTuple(x=OSet([1, 2, "fresh-counter-probe"]))
    second = OTuple(x=OSet([1, 2, "fresh-counter-probe"]))
    h1, m1, _ = intern.counters()
    assert m1 > m0  # at least the first build missed
    assert h1 > h0  # and the rebuild hit
    assert second is first


def test_weak_table_evicts_dead_values():
    tuples0, _ = intern.table_sizes()
    held = OTuple(k=OSet(["evict-probe", 7]))
    assert intern.table_sizes()[0] > tuples0
    del held
    assert intern.table_sizes()[0] <= tuples0 + 1  # entry gone with the value


def test_sweep_survives_concurrent_constructions():
    # Host threads intern concurrently. Thousands of short-lived values
    # per thread push the tables past their sweep mark again and again,
    # and a tiny switch interval preempts the sweep as often as possible.
    import sys
    import threading

    errors = []

    def build(worker):
        try:
            for i in range(6000):
                value = OTuple(w=worker, i=i, s=OSet([i, worker]))
                assert value == OTuple(w=worker, i=i, s=OSet([i, worker]))
        except Exception as exc:  # reported below: a thread cannot raise
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]


def test_concurrent_constructions_make_one_node_per_content(monkeypatch):
    # Equality is identity, so threads that intern one content at once
    # must all get one node: a twin would be a value unequal to itself.
    # Eight threads build the same contents in the same order, meeting at
    # a barrier before each one so that they race for it. Every other
    # content is built and dropped just before its race, so the threads
    # meet a dead entry for it. Every miss sweeps the table (the sweep
    # must not drop another thread's insert), and a tiny switch interval
    # preempts constructions mid-way.
    import sys
    import threading

    from repro.values import ovalues

    sweep = ovalues._sweep

    def sweep_every_miss(name):
        sweep(name)
        setattr(intern.STORE, name + "_mark", 0)

    def content(i):
        element = OSet([i, "one-node-probe"])
        return element, OTuple(i=i, s=element)

    workers, count = 8, 3000
    built = [[] for _ in range(workers)]
    errors = []
    upcoming = iter(range(count))

    def plant_dead_entry():
        # Runs once per race, before the barrier releases the threads.
        i = next(upcoming)
        if i % 2:
            content(i)  # built and dropped: its entries are dead

    race = threading.Barrier(workers, action=plant_dead_entry)

    def build(worker):
        try:
            for i in range(count):
                race.wait(timeout=30)
                built[worker].extend(content(i))
        except Exception as exc:  # reported below: a thread cannot raise
            errors.append(exc)

    monkeypatch.setattr(ovalues, "_sweep", sweep_every_miss)
    monkeypatch.setattr(intern.STORE, "tuples_mark", 0)
    monkeypatch.setattr(intern.STORE, "sets_mark", 0)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    twins = [
        k for k, node in enumerate(built[0])
        if any(built[w][k] is not node for w in range(1, workers))
    ]
    assert not twins, f"{len(twins)} of {len(built[0])} contents have a twin"
    assert_canonical(built[0])


# -- cached metadata ------------------------------------------------------------


def _naive_size(v):
    if isinstance(v, OTuple):
        return 1 + sum(_naive_size(x) for _, x in v.items())
    if isinstance(v, OSet):
        return 1 + sum(_naive_size(x) for x in v)
    return 1


def _naive_depth(v):
    if isinstance(v, OTuple):
        return 1 + max((_naive_depth(x) for _, x in v.items()), default=0)
    if isinstance(v, OSet):
        return 1 + max((_naive_depth(x) for x in v), default=0)
    return 0


def _naive_oids(v):
    if isinstance(v, Oid):
        return frozenset((v,))
    if isinstance(v, OTuple):
        return frozenset().union(*(_naive_oids(x) for _, x in v.items()), frozenset())
    if isinstance(v, OSet):
        return frozenset().union(*(_naive_oids(x) for x in v), frozenset())
    return frozenset()


def _naive_constants(v):
    if isinstance(v, Oid):
        return frozenset()
    if isinstance(v, OTuple):
        return frozenset().union(
            *(_naive_constants(x) for _, x in v.items()), frozenset()
        )
    if isinstance(v, OSet):
        return frozenset().union(*(_naive_constants(x) for x in v), frozenset())
    return frozenset((v,))


@given(ovalues())
def test_cached_metadata_matches_recomputation(v):
    assert value_size(v) == _naive_size(v)
    assert value_depth(v) == _naive_depth(v)
    assert oids_of(v) == _naive_oids(v)
    assert constants_of(v) == _naive_constants(v)
    # Caches are per-node: a second query returns the same answers.
    assert value_size(v) == _naive_size(v)
    assert oids_of(v) == _naive_oids(v)


def test_metadata_with_oids():
    a, b = Oid("a"), Oid("b")
    v = OTuple(x=OSet([a, OTuple(y=b, z="k")]), w=3)
    assert oids_of(v) == {a, b}
    assert constants_of(v) == {"k", 3}
    assert value_size(v) == _naive_size(v)
    assert value_depth(v) == 3


@given(ovalues())
def test_sorted_elements_cached_and_sorted(v):
    if isinstance(v, OSet):
        first = sorted_elements(v)
        assert first == tuple(sorted(v.elements, key=sort_key))
        assert sorted_elements(v) is first


def test_tuple_lookup_is_dict_backed_and_agrees():
    t = OTuple(b=2, a=1, c=OSet())
    assert t["a"] == 1 and t["b"] == 2
    assert t.get("missing") is None
    assert "c" in t and "d" not in t
    assert t.attributes == ("a", "b", "c")
    scan = {attr: value for attr, value in t.items()}
    assert all(t[attr] == value for attr, value in scan.items())


# -- substitution ---------------------------------------------------------------


def _naive_substitute(v, mapping):
    if isinstance(v, Oid):
        return mapping.get(v, v)
    if isinstance(v, OTuple):
        return OTuple({attr: _naive_substitute(x, mapping) for attr, x in v.items()})
    if isinstance(v, OSet):
        return OSet(_naive_substitute(x, mapping) for x in v)
    return v


@settings(max_examples=50)
@given(ovalues(), st.randoms(use_true_random=False))
def test_substitute_oids_matches_naive(v, rng):
    oids = [Oid(f"s{i}") for i in range(4)]
    v = OTuple(p=v, q=OSet(rng.sample(oids, rng.randint(0, 3))))
    mapping = {o: Oid(f"t{i}") for i, o in enumerate(rng.sample(oids, 2))}
    assert substitute_oids(v, mapping) == _naive_substitute(v, mapping)
    assert substitute_oids(v, {}) is v


# -- colouring ------------------------------------------------------------------


def _random_instance(rng):
    schema = Schema(
        classes={"Node": tuple_of(tag=D, out=set_of(classref("Node")))},
        relations={"R": set_of(classref("Node"))},
    )
    n = rng.randint(2, 8)
    oids = [Oid(f"n{i}") for i in range(n)]
    instance = Instance(schema, classes={"Node": oids})
    for o in oids:
        succ = rng.sample(oids, rng.randint(0, min(2, n)))
        instance.assign(o, OTuple(tag=f"t{rng.randint(0, 2)}", out=OSet(succ)))
    for _ in range(rng.randint(0, 2)):
        instance.add_relation_member("R", OSet(rng.sample(oids, rng.randint(1, n))))
    return instance


def _random_renaming(instance):
    return {o: Oid() for o in sorted(instance.objects())}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_colouring_invariant_under_o_isomorphism(seed):
    rng = random.Random(seed)
    instance = _random_instance(rng)
    mapping = _random_renaming(instance)
    image = apply_o_isomorphism(instance, mapping)
    colour_a, colour_b = refine_colours([instance, image])
    # Corresponding oids land in the same (shared-space) colour class.
    assert {o: colour_b[mapping[o]] for o in colour_a} == colour_a


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_find_o_isomorphism_agrees_with_reference(seed):
    rng = random.Random(seed)
    source = _random_instance(rng)
    if rng.random() < 0.5:
        target = apply_o_isomorphism(source, _random_renaming(source))
    else:
        target = _random_instance(rng)  # usually not isomorphic
    fast = find_o_isomorphism(source, target)
    slow = find_o_isomorphism_reference(source, target)
    assert (fast is None) == (slow is None), f"seed {seed}: searches disagree"
    if fast is not None:
        assert apply_o_isomorphism(source, fast) == target


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_found_isomorphism_is_valid(seed):
    rng = random.Random(seed)
    source = _random_instance(rng)
    target = apply_o_isomorphism(source, _random_renaming(source))
    mapping = find_o_isomorphism(source, target)
    assert mapping is not None
    assert apply_o_isomorphism(source, mapping) == target
    assert are_o_isomorphic(target, source)


# -- the engine on either side of an intern-table sweep -------------------------


def _force_sweep(monkeypatch):
    """Sweep both intern tables now: drop their marks and build one new
    content of each kind, whose miss finds its table at the mark."""
    monkeypatch.setattr(intern.STORE, "tuples_mark", 0)
    monkeypatch.setattr(intern.STORE, "sets_mark", 0)
    OTuple(forced_sweep=Oid())
    OSet([Oid()])
    assert intern.STORE.tuples_mark >= intern.InternStore.SWEEP_FLOOR
    assert intern.STORE.sets_mark >= intern.InternStore.SWEEP_FLOOR


def _run_intern_differential(seed, monkeypatch):
    import warnings

    program, instance = random_case(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # IQL601 fallbacks are expected
        before = Evaluator(program).run(instance.copy()).output
        # The first run's intermediate values are dead entries by now;
        # the sweep deletes them and must keep every live node. The second
        # run reuses the kernels cached on the program's rules, so their
        # membership probes read the compacted table, and every fact it
        # derives must come back as the node the first run built.
        _force_sweep(monkeypatch)
        after = Evaluator(program).run(instance.copy()).output
    assert_agree(program, before, after, seed)
    assert_canonical(v for members in after.relations.values() for v in members)
    assert_canonical(after.nu.values())


@pytest.mark.parametrize("seed", range(0, 120))
def test_interned_engine_matches_no_intern(seed, monkeypatch):
    _run_intern_differential(seed, monkeypatch)


# -- pickling: identity survives a round trip -----------------------------------
#
# The value types' pickling contract, for any caller that pickles values:
#
# 1. round trips preserve structure: a == pickle.loads(pickle.dumps(a)),
# 2. unpickling rebuilds THROUGH interned construction, so a canonical
#    node comes back as itself: a is loads(dumps(a)),
# 3. oid identity survives via the serial registry: a process that
#    unpickles its own oids gets the same objects back.

_PICKLE_OIDS = tuple(Oid(f"pk{i}") for i in range(4))


def ovalues_with_oids():
    return st.recursive(
        st.one_of(constants, st.sampled_from(_PICKLE_OIDS)),
        lambda children: st.one_of(
            st.lists(children, max_size=3).map(OSet),
            st.dictionaries(
                st.sampled_from(["a", "b", "c"]), children, max_size=3
            ).map(OTuple),
        ),
        max_leaves=8,
    )


@settings(deadline=None)
@given(ovalues_with_oids())
def test_pickle_round_trip_reinterns_to_the_identical_node(value):
    import pickle

    back = pickle.loads(pickle.dumps(value))
    assert back == value
    if isinstance(value, (OTuple, OSet)):
        # Unpickling reconstructs through __new__, so the canonical node
        # comes back as itself.
        assert back is value
    elif isinstance(value, Oid):
        assert back is value


def test_oid_identity_survives_a_subprocess_round_trip():
    # Values pickled and loaded back in the same process: its own oids
    # must come back as the same objects (the registry path).
    import pickle

    oid = Oid("w")
    t = OTuple(a=oid, b=1)
    blob = pickle.dumps((oid, t))
    back_oid, back_t = pickle.loads(blob)
    assert back_oid is oid
    assert back_t is t
    assert back_t["a"] is oid
