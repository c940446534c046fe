"""Certified parallel execution: the runtime behind ``Evaluator(parallel=N)``.

This module is the *load-bearing* half of the IQL8xx analysis
(:mod:`repro.analysis.parallel`): the evaluator executes exactly the
concurrency the :class:`~repro.analysis.parallel.ParallelCertificate`
certifies and nothing more, on one executor, :class:`ProcessDriver` —
shared-nothing ``multiprocessing`` workers (fork where available,
spawn-safe otherwise), one persistent pool per
:class:`~repro.iql.evaluator.Evaluator`. The program crosses once at
pool creation; each episode ships the instance state, and within an
episode only fact deltas cross, in the compact node-table wire encoding
of :mod:`repro.io`. Every worker runs its own process-local hash-consing
store, compiles its own kernel replica against its own instance replica,
and the coordinator merges returned facts by **re-canonicalizing** them
into its own store — `Oid`/`OTuple`/`OSet` unpickle through interned
construction (their ``__reduce__``), so a fact coming back from a worker
IS the coordinator's canonical node and oid identity survives the round
trip. This is sound precisely because certified-parallel strata are
hazard-free: workers never invent oids, never weak-assign, never delete
— they only derive memberships over identities the coordinator already
owns.

The pool runs two kinds of work:

* **concurrent strata** — each worker task evaluates its stratum with a
  private :class:`EvaluationStats`, folded into the run's stats at the
  batch barrier (:func:`merge_stats`). Counters are additive; nothing in
  a worker reads another worker's stats,
* **partitioned delta rounds** for a single certified-partitionable
  stratum — the semi-naive round loop of
  :func:`repro.iql.seminaive.run_stage_seminaive`, with each round's
  delta split round-robin across workers (:func:`drive_share`). Every
  process drives its own **kernel replica** compiled through
  :func:`repro.iql.compile.compile_seminaive` directly (bypassing the
  per-rule kernel cache). The blocking check ``value not in existing``
  is round-stable (extents are frozen within a round — certificate
  condition (b)), derivations land in worker-local buckets, and the
  coordinator alone applies the merge, so inflationary semantics makes
  the merge order-insensitive.

Rounds below :data:`PROCESS_PARTITION_THRESHOLD` run inline on the
coordinator — serialization overhead would dominate — and the
corresponding delta sync is deferred until the next driven round, so
small rounds cost no round trips at all. The adaptive replanner's
mid-fixpoint drift check is disabled in partitioned rounds (replicas are
compiled once per stratum); the round-0 full solve also runs on the
coordinator, so partitioning pays off exactly where recursion does: in
the delta rounds.
"""

from __future__ import annotations

import os
import pickle
import weakref
from dataclasses import fields
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.effects import DeltaBody, delta_body, is_plane
from repro.errors import EvaluationError
from repro.iql.compile import CompileFallback, SeminaiveKernels, compile_seminaive
from repro.iql.rules import Rule
from repro.schema.instance import Instance
from repro.values.ovalues import Oid, OSet, OValue

#: Minimum facts in a round's delta before splitting it across the pool
#: pays: a split round costs a serialization and an IPC round trip per
#: worker, so thinner rounds run inline on the coordinator and only their
#: deltas are buffered for the workers.
PROCESS_PARTITION_THRESHOLD = 256


def worker_count(requested: Any) -> int:
    """Resolve a worker-count request to a concrete non-negative int.

    ``"auto"`` resolves to the host's usable CPUs — the scheduling
    affinity mask where the platform has one, so a container pinned to 2
    of 64 cores gets 2. A negative count is an error. The IQL804 width
    clamp is applied by the caller (the certificate is not known here).
    """
    if isinstance(requested, str):
        if requested != "auto":
            raise EvaluationError(f"unknown parallel setting {requested!r}")
        try:
            return len(os.sched_getaffinity(0)) or 1
        except AttributeError:  # pragma: no cover - non-Linux hosts
            return os.cpu_count() or 1
    count = int(requested)
    if count < 0:
        raise EvaluationError(f"negative parallel worker count {count}")
    return count


def merge_stats(target, source) -> None:
    """Fold a worker task's private stats into the run's stats.

    Every numeric counter is additive and no worker reads another's
    stats, so a post-barrier fold is exact for everything except wall
    times (which become summed task times — documented). Dict counters
    merge per key; list fields extend (worker tasks never append to the
    per-stage lists, so this is a no-op in practice).
    """
    for field in fields(source):
        value = getattr(source, field.name)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            setattr(target, field.name, getattr(target, field.name) + value)
        elif isinstance(value, dict):
            bucket = getattr(target, field.name)
            for key, count in value.items():
                bucket[key] = bucket.get(key, 0) + count
        elif isinstance(value, list):
            getattr(target, field.name).extend(value)


def compile_replica(
    rules: Sequence[Rule],
    instance: Instance,
    enumeration_budget: int,
) -> Optional[Tuple[Dict[int, DeltaBody], Dict[int, SeminaiveKernels]]]:
    """Every rule's delta shape and semi-naive kernels, or None if any
    rule falls outside the compiled delta fragment.

    Compiled through :func:`~repro.iql.compile.compile_seminaive`
    directly, so the replica owns its kernels' ``sink_cell`` slots
    outright. Every delta position is forced through the lazy accessor
    here, so :func:`drive_share` never compiles.
    """
    shapes: Dict[int, DeltaBody] = {}
    for index, rule in enumerate(rules):
        shape = delta_body(rule, instance.schema)
        if shape is None:
            return None
        shapes[index] = shape
    try:
        kernels = {
            index: compile_seminaive(rule, instance, enumeration_budget)
            for index, rule in enumerate(rules)
        }
        for index, compiled in kernels.items():
            for position in shapes[index].relation_positions:
                if compiled.delta(position) is None:
                    return None
    except CompileFallback:
        return None
    return shapes, kernels


def drive_share(
    rules: Sequence[Rule],
    shapes: Dict[int, DeltaBody],
    kernels: Dict[int, SeminaiveKernels],
    instance: Instance,
    worker: int,
    stride: int,
    delta_lists: Dict[str, list],
) -> Tuple[Dict[str, Set[OValue]], int]:
    """One worker's share of a delta round, against one kernel replica.

    Positions are matched against every ``stride``-th delta fact starting
    at ``worker``; derived values land in worker-local buckets. The
    blocking read (``value not in existing``) observes ``instance``'s
    extents, which every replica holds exactly synced (all round deltas
    applied) within a round.
    """
    local: Dict[str, Set[OValue]] = {}
    considered = [0]
    for index, rule in enumerate(rules):
        head_name = rule.head.container.name
        existing = instance.relations[head_name]
        bucket = local.setdefault(head_name, set())
        compiled = kernels[index]
        body = list(rule.body)
        for position in shapes[index].relation_positions:
            source = delta_lists.get(body[position].container.name)
            if not source:
                continue
            chunk = source[worker::stride] if stride > 1 else source
            if not chunk:
                continue
            matcher, rest_body, head_eval = compiled.delta(position)

            def consume(slots, _he=head_eval, _b=bucket, _ex=existing, _c=considered):
                value = _he(slots)
                if value is not None and value not in _ex:
                    _b.add(value)
                    _c[0] += 1

            slots = rest_body.new_slots()
            rest_body.sink_cell[0] = consume
            entry = rest_body.entry
            for fact in chunk:
                if matcher(fact, slots):
                    entry(slots)
    return local, considered[0]


# -- the process driver ---------------------------------------------------------------


def _batch_facts_to_wire(
    relation_adds: Dict[str, List[OValue]],
    class_adds: Dict[str, List[Oid]],
    element_adds: List[OValue],
):
    """Flatten a stratum diff into one :func:`repro.io.batch_to_wire` call.

    Keys are namespaced (``R:``/``C:`` plus the flat ``E:`` pair list for
    set-element additions) so one node table serves the whole diff.
    """
    from repro import io  # noqa: PLC0415

    facts: Dict[str, List[OValue]] = {}
    for name, values in relation_adds.items():
        facts["R:" + name] = values
    for name, oids in class_adds.items():
        facts["C:" + name] = list(oids)
    if element_adds:
        facts["E:"] = element_adds
    return io.batch_to_wire(facts)


def _apply_wire_diff(instance: Instance, wire) -> int:
    """Apply a worker's stratum diff to the coordinator's instance.

    Decoding re-canonicalizes every fact into this process's intern
    store and resolves oids through the serial registry, so the values
    applied here are the coordinator's own nodes.
    """
    from repro import io  # noqa: PLC0415

    applied = 0
    decoded = io.batch_from_wire(wire)
    elements = decoded.pop("E:", [])
    for key, values in decoded.items():
        kind, name = key[:2], key[2:]
        if kind == "R:":
            for value in values:
                if instance.add_relation_member(name, value):
                    applied += 1
        else:  # "C:"
            for oid in values:
                if instance.add_class_member(name, oid):
                    applied += 1
    for position in range(0, len(elements), 2):
        if instance.add_set_element(elements[position], elements[position + 1]):
            applied += 1
    return applied


def _solve_stratum_with_diff(evaluator, instance: Instance, rules: List[Rule], stats):
    """Run one stratum fixpoint and capture what it added, as a wire diff.

    The snapshot covers exactly the stratum's written symbols (the
    certificate guarantees hazard-freedom, so additions are the only
    possible mutations: relation members, class members of existing
    oids, set elements of existing oids).
    """
    from repro.analysis.effects import rule_effects  # noqa: PLC0415

    schema = instance.schema
    writes: Set[str] = set()
    for rule in rules:
        writes |= rule_effects(rule, schema).writes
    written_relations = [w for w in writes if schema.is_relation(w)]
    written_classes = [w for w in writes if not schema.is_relation(w) and not is_plane(w)]
    written_planes = [w for w in writes if is_plane(w)]
    before_relations = {n: set(instance.relations[n]) for n in written_relations}
    before_classes = {n: set(instance.classes[n]) for n in written_classes}
    before_nu = dict(instance.nu) if written_planes else None

    steps = evaluator._solve_stratum_scheduled(instance, rules, stats)

    relation_adds = {
        n: sorted(instance.relations[n] - before_relations[n], key=_stable_key)
        for n in written_relations
        if instance.relations[n] - before_relations[n]
    }
    class_adds = {
        n: sorted(instance.classes[n] - before_classes[n], key=_stable_key)
        for n in written_classes
        if instance.classes[n] - before_classes[n]
    }
    element_adds: List[OValue] = []
    if before_nu is not None:
        for oid, value in instance.nu.items():
            old = before_nu.get(oid)
            if value is old:
                continue
            if not isinstance(value, OSet):
                raise EvaluationError(
                    "process worker observed a non-set ν mutation in a "
                    "certified-parallel stratum — hazard analysis violated"
                )
            old_elements = old.elements if isinstance(old, OSet) else frozenset()
            for element in sorted(value.elements - old_elements, key=_stable_key):
                element_adds.append(oid)
                element_adds.append(element)
    return _batch_facts_to_wire(relation_adds, class_adds, element_adds), steps


def _stable_key(value: OValue):
    from repro.values.ovalues import sort_key  # noqa: PLC0415

    return sort_key(value)


def _pool_worker_main(conn, worker_id: int, nworkers: int, startup: bytes) -> None:
    """The persistent process worker's command loop (spawn-safe: module
    level, imports inside). One reply per ``solve``/``begin``/``round``;
    ``state`` is fire-and-forget; any exception answers ``("error", tb)``."""
    import gc  # noqa: PLC0415
    import traceback  # noqa: PLC0415
    import warnings  # noqa: PLC0415

    from repro import io  # noqa: PLC0415

    # Under fork the worker inherits the coordinator's whole heap via
    # copy-on-write. A collection here would traverse (and so dirty) every
    # inherited page for objects this worker will never free; freeze them
    # into the permanent generation so worker GC only ever walks what the
    # worker itself allocates.
    gc.freeze()

    program, options = pickle.loads(startup)
    from repro.iql.evaluator import Evaluator, EvaluatorLimits  # noqa: PLC0415

    with warnings.catch_warnings():
        # The coordinator already announced the schedule's IQL601 stages.
        warnings.simplefilter("ignore")
        evaluator = Evaluator(
            program,
            limits=EvaluatorLimits(
                max_steps=options["max_steps"],
                enumeration_budget=options["enumeration_budget"],
                max_invented_oids=options["max_invented_oids"],
            ),
            replan_ratio=options["replan_ratio"],
        )
    instance: Optional[Instance] = None
    episode: Optional[tuple] = None  # (rules, shapes, kernels)
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            return
        try:
            if kind == "state":
                instance = pickle.loads(message[1])
                episode = None
                continue
            if kind == "solve":
                from repro.iql.evaluator import EvaluationStats  # noqa: PLC0415

                _, stage_index, rule_indexes = message
                stage = program.stages[stage_index]
                rules = [stage[i] for i in rule_indexes]
                stats = EvaluationStats()
                wire, steps = _solve_stratum_with_diff(
                    evaluator, instance, rules, stats
                )
                conn.send_bytes(pickle.dumps(("diff", wire, steps, stats)))
            elif kind == "begin":
                _, stage_index, rule_indexes = message
                stage = program.stages[stage_index]
                rules = [stage[i] for i in rule_indexes]
                replica = compile_replica(
                    rules, instance, options["enumeration_budget"]
                )
                if replica is None:
                    raise CompileFallback("kernel replica compile failed")
                episode = (rules, *replica)
                conn.send_bytes(pickle.dumps(("ready",)))
            elif kind == "round":
                _, pending, drive = message
                assert episode is not None and instance is not None
                # Catch up: apply every unshipped coordinator delta, in
                # round order. The last one IS the current round's delta
                # (already decoded into this store's canonical nodes, in
                # wire order — every worker sees the same order, so the
                # [worker::stride] shares partition exactly).
                delta_lists: Dict[str, list] = {}
                for wire in pending:
                    decoded = io.batch_from_wire(wire)
                    for name, values in decoded.items():
                        for value in values:
                            instance.add_relation_member(name, value)
                    delta_lists = decoded
                if drive:
                    rules, shapes, kernels = episode
                    local, considered = drive_share(
                        rules,
                        shapes,
                        kernels,
                        instance,
                        worker_id,
                        nworkers,
                        delta_lists,
                    )
                    wire = io.batch_to_wire(
                        {n: sorted(vs, key=_stable_key) for n, vs in local.items() if vs}
                    )
                    conn.send_bytes(pickle.dumps(("derived", wire, considered)))
                else:
                    conn.send_bytes(pickle.dumps(("synced",)))
            else:
                raise EvaluationError(f"unknown pool command {kind!r}")
        except Exception:
            conn.send_bytes(pickle.dumps(("error", traceback.format_exc())))


def _shutdown_pool(processes, connections) -> None:
    """Best-effort teardown, shared by close() and the GC finalizer."""
    for conn in connections:
        try:
            conn.send_bytes(pickle.dumps(("stop",)))
        except (OSError, ValueError):
            pass
    for process in processes:
        process.join(timeout=2)
        if process.is_alive():  # pragma: no cover - stuck worker
            process.terminate()
    for conn in connections:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class ProcessDriver:
    """The shared-nothing multiprocessing driver.

    Workers are persistent (one pool per Evaluator, reused across runs):
    the program and evaluator options cross once at pool creation, each
    parallel episode ships the instance state to the workers it engages,
    and per round only fact deltas cross, in the :mod:`repro.io` wire
    encoding. Deltas from rounds too small to split are buffered and
    piggy-backed on the next driven round, so small rounds cost zero
    round trips.
    """

    def __init__(self, evaluator, workers: int) -> None:
        import multiprocessing as mp  # noqa: PLC0415

        self.evaluator = evaluator
        self.workers = workers
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        context = mp.get_context(method)
        startup = pickle.dumps(
            (
                evaluator.program,
                {
                    "replan_ratio": evaluator.replan_ratio,
                    "max_steps": evaluator.limits.max_steps,
                    "enumeration_budget": evaluator.limits.enumeration_budget,
                    "max_invented_oids": evaluator.limits.max_invented_oids,
                },
            )
        )
        self._connections = []
        self._processes = []
        for worker_id in range(workers):
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_pool_worker_main,
                args=(theirs, worker_id, workers, startup),
                daemon=True,
                name=f"repro-par-{worker_id}",
            )
            process.start()
            theirs.close()
            self._connections.append(ours)
            self._processes.append(process)
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._processes, self._connections
        )

    # -- plumbing ---------------------------------------------------------------

    def _send(self, worker: int, message: tuple) -> None:
        data = pickle.dumps(message)
        try:
            self._connections[worker].send_bytes(data)
        except OSError as exc:  # BrokenPipeError: the worker is gone
            raise self._lost(worker, exc) from exc

    def _recv(self, worker: int):
        try:
            data = self._connections[worker].recv_bytes()
        except (EOFError, OSError) as exc:
            raise self._lost(worker, exc) from exc
        reply = pickle.loads(data)
        if reply[0] == "error":
            raise EvaluationError(
                f"process pool worker {worker} failed:\n{reply[1]}"
            )
        return reply

    def _lost(self, worker: int, exc: BaseException) -> EvaluationError:
        process = self._processes[worker]
        return EvaluationError(
            f"process pool worker {worker} (pid {process.pid}) died: "
            f"{type(exc).__name__}"
        )

    def _ship_state(self, instance: Instance, workers: Sequence[int]) -> None:
        blob = pickle.dumps(instance)
        for worker in workers:
            self._send(worker, ("state", blob))

    @staticmethod
    def _rule_indexes(stage_rules: Sequence[Rule], rules: Sequence[Rule]) -> Tuple[int, ...]:
        """Positions of ``rules`` within the program stage — positional
        identity is the one rule naming that survives pickling (labels
        can repeat, hashes are salted per process)."""
        by_identity = {id(rule): i for i, rule in enumerate(stage_rules)}
        out: List[int] = []
        for rule in rules:
            index = by_identity.get(id(rule))
            if index is None:  # pragma: no cover - schedule copies rules
                index = next(
                    i
                    for i, candidate in enumerate(stage_rules)
                    if candidate == rule and i not in out
                )
            out.append(index)
        return tuple(out)

    # -- the driver surface -------------------------------------------------------

    def run_batch(
        self,
        instance: Instance,
        stage_index: int,
        batch: Sequence[int],
        strata: Sequence[Sequence[Rule]],
        stats,
    ) -> int:
        stage_rules = self.evaluator.program.stages[stage_index]
        assignments = [
            (k % self.workers, self._rule_indexes(stage_rules, strata[stratum_index]))
            for k, stratum_index in enumerate(batch)
        ]
        engaged = sorted({worker for worker, _ in assignments})
        self._ship_state(instance, engaged)
        for worker, rule_indexes in assignments:
            self._send(worker, ("solve", stage_index, rule_indexes))
        stats.parallel_strata += len(batch)
        stats.parallel_tasks += len(batch)
        steps = 0
        # Collect in per-worker FIFO order (a worker with two strata
        # answers them in submission order).
        for worker, _ in assignments:
            _, wire, worker_steps, sub = self._recv(worker)
            steps += worker_steps
            applied = _apply_wire_diff(instance, wire)
            sub.facts_added = applied  # the coordinator's view is canonical
            merge_stats(stats, sub)
        return steps

    def run_partitioned(
        self,
        instance: Instance,
        stage_index: int,
        rules: Sequence[Rule],
        stats,
    ) -> Optional[int]:
        from repro import io  # noqa: PLC0415
        from repro.errors import NonTerminationError  # noqa: PLC0415

        evaluator = self.evaluator
        replica = compile_replica(rules, instance, evaluator.limits.enumeration_budget)
        if replica is None:
            return None
        shapes, kernels = replica

        rule_indexes = self._rule_indexes(
            evaluator.program.stages[stage_index], rules
        )
        engaged = list(range(self.workers))
        self._ship_state(instance, engaged)
        for worker in engaged:
            self._send(worker, ("begin", stage_index, rule_indexes))
        for worker in engaged:
            self._recv(worker)  # "ready": the same compile succeeded above

        rounds = 0
        first = True
        delta: Dict[str, Set[OValue]] = {}
        pending: List = []  # applied-but-unshipped round deltas, in order
        while True:
            if stats.steps >= evaluator.limits.max_steps:
                raise NonTerminationError(
                    f"no fixpoint within {evaluator.limits.max_steps} steps "
                    f"(partitioned stage)"
                )
            new: Dict[str, Set[OValue]] = {}
            if first:
                # Round 0: full solve on the coordinator's replica.
                for index, rule in enumerate(rules):
                    head_name = rule.head.container.name
                    existing = instance.relations[head_name]
                    bucket = new.setdefault(head_name, set())
                    compiled = kernels[index]
                    head_eval = compiled.head_full

                    def consume(slots, _he=head_eval, _b=bucket, _ex=existing):
                        value = _he(slots)
                        if value is not None and value not in _ex:
                            _b.add(value)
                            stats.valuations_considered += 1

                    compiled.full.execute((), consume)
                first = False
            else:
                delta_lists = {
                    name: sorted(values, key=_stable_key)
                    for name, values in delta.items()
                }
                total = sum(len(values) for values in delta_lists.values())
                if total >= PROCESS_PARTITION_THRESHOLD:
                    for worker in engaged:
                        self._send(worker, ("round", pending, True))
                    pending = []
                    stats.parallel_tasks += self.workers
                    for worker in engaged:
                        _, wire, considered = self._recv(worker)
                        stats.valuations_considered += considered
                        for name, values in io.batch_from_wire(wire).items():
                            existing = instance.relations[name]
                            bucket = new.setdefault(name, set())
                            for value in values:
                                if value not in existing:
                                    bucket.add(value)
                else:
                    local, considered = drive_share(
                        rules, shapes, kernels, instance, 0, 1, delta_lists
                    )
                    stats.valuations_considered += considered
                    new.update(local)

            rounds += 1
            stats.steps += 1
            if not any(new.values()):
                return rounds
            for name, values in new.items():
                for value in values:
                    if instance.add_relation_member(name, value):
                        stats.facts_added += 1
            delta = new
            pending.append(
                io.batch_to_wire(
                    {
                        name: sorted(values, key=_stable_key)
                        for name, values in delta.items()
                        if values
                    }
                )
            )

    def close(self) -> None:
        self._finalizer()

