"""The Hf-side fragment result cache (docs/CACHING.md).

Five layers of coverage:

* the purity pass: which fragments the splitter may memoize, and why
  the rest are blocked (open memory, hidden-store writes, impure
  builtins);
* :class:`~repro.runtime.cache.FragmentCache` /
  :class:`~repro.runtime.cache.CacheQuota` bookkeeping in isolation
  (LRU order, oversized entries, epoch invalidation, shared tenant
  budgets);
* the transparency property: over *random interleavings* of cacheable
  calls and hidden-store writes (Hypothesis), a cache-on run is
  bit-identical to cache-off and to the original program, and the
  hit/miss/invalidation counters match the analytical model exactly;
* the batched-prefetch error path: a short ``fetch_batch`` reply or an
  abort mid-prefetch must not leave a partially populated batch cache
  behind (regression for the silent-partial-population bug).
* the payoff: a repeat-heavy replay of the Table 5 corpora against a
  caching daemon hits at least half its probes per tenant and saves
  server fragment executions.
"""

import threading
import time

import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.bench.experiments import split_corpus
from repro.core.globals import hide_global
from repro.core.program import split_program
from repro.core.purity import classify_fragment
from repro.lang import check_program, parse_program
from repro.loadgen import run_loadgen
from repro.loadgen.replay import script_from_transcript
from repro.runtime.cache import (
    CacheEntry,
    CacheQuota,
    FragmentCache,
    tag_value,
)
from repro.runtime.channel import Channel, LatencyModel
from repro.runtime.interpreter import Interpreter, M_STMTS, OpenAccess
from repro.runtime.remote import HiddenComponentServer
from repro.runtime.server import HiddenServer, Tenant
from repro.runtime.splitrun import run_original, run_split
from repro.runtime.values import RuntimeErr
from repro.workloads.inputs import TABLE5_RUNS

#: a hidden global with one pure reader and one writer — ``peek``'s get
#: fragment is cacheable (epoch-keyed), ``poke``'s stmts fragment writes
#: the hidden store and must invalidate on every execution
COUNTER_SRC = """
global int secret = 3;

func int peek(int k) {
    return secret + k;
}

func void poke(int k) {
    secret = k;
}

func void main(int k) {
    print(peek(k));
    poke(k + 1);
    print(peek(k));
}
"""

#: the hidden loop body reads two open array elements per iteration —
#: open-memory traffic makes its fragments uncacheable
BATCH_SRC = """
func int f(int x, int[] B) {
    int a = x;
    int i = 0;
    while (i < 4) {
        a = a + B[i] * B[i + 1];
        i = i + 1;
    }
    return a;
}
func void main(int x) {
    int[] B = new int[8];
    int j = 0;
    while (j < 8) {
        B[j] = j * 2 + 1;
        j = j + 1;
    }
    print(f(x, B));
}
"""


def _hide(source, name="secret"):
    program = parse_program(source)
    checker = check_program(program)
    return program, hide_global(program, checker, name)


def _fragments(sp, fn_name):
    """``({label: fragment}, storage_map)`` for one split function."""
    for _fn_id, (name, fragments, storage_map) in sp.registry().items():
        if name == fn_name:
            return fragments, storage_map
    raise AssertionError("no split for %r" % fn_name)


# -- purity classification ----------------------------------------------------


def test_global_reader_cacheable_and_epoch_keyed():
    _program, sp = _hide(COUNTER_SRC)
    fragments, storage = _fragments(sp, "peek")
    verdicts = [classify_fragment(f, storage) for f in fragments.values()]
    cacheable = [v for v in verdicts if v.cacheable]
    assert cacheable, "the pure global read should be memoizable"
    for v in cacheable:
        assert v.reads_globals  # keys on the invalidation epoch
        assert not v.writes_hidden_store
        assert v.env_reads == ()


def test_hidden_store_writer_uncacheable_and_invalidating():
    _program, sp = _hide(COUNTER_SRC)
    fragments, storage = _fragments(sp, "poke")
    verdicts = [classify_fragment(f, storage) for f in fragments.values()]
    assert verdicts
    assert all(not v.cacheable for v in verdicts)
    writer = [v for v in verdicts if v.writes_hidden_store]
    assert writer, "the secret = k fragment must be flagged as a store write"
    assert any("writes hidden store" in v.reason for v in writer)


def test_open_memory_reader_uncacheable():
    program = parse_program(BATCH_SRC)
    checker = check_program(program)
    sp = split_program(program, checker, [("f", "a")])
    fragments, storage = _fragments(sp, "f")
    verdicts = [classify_fragment(f, storage) for f in fragments.values()]
    blocked = [v for v in verdicts if not v.cacheable]
    assert any("touches open memory" in v.reason for v in blocked)


def test_tag_value_type_tags():
    # bools, ints, and floats that compare equal must key differently
    assert tag_value(True) != tag_value(1)
    assert tag_value(1) != tag_value(1.0)
    assert tag_value(0) != tag_value(False)
    assert tag_value(7) == tag_value(7)
    # non-scalars are unkeyable: the call executes for real
    assert tag_value([1, 2]) is None
    assert tag_value(None) is None


# -- FragmentCache bookkeeping ------------------------------------------------


def _entry(steps=1, result=0):
    return CacheEntry(result, steps, stmt_counts=(), env_writes=())


def test_lru_eviction_order():
    cache = FragmentCache(max_entries=2)
    assert cache.store("a", _entry())
    assert cache.store("b", _entry())
    assert cache.lookup("a") is not None  # refresh: "b" is now oldest
    assert cache.store("c", _entry())
    assert cache.lookup("b") is None  # evicted
    assert cache.lookup("a") is not None
    assert cache.lookup("c") is not None
    assert cache.stats()["evictions"] == 1
    assert cache.stats()["entries"] == 2


def test_oversized_entry_is_a_miss():
    cache = FragmentCache()
    cache.store("k", _entry(steps=10))
    # replaying 10 steps would blow the remaining budget: treat as a miss
    assert cache.lookup("k", max_steps_left=9) is None
    assert cache.lookup("k", max_steps_left=10) is not None
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1


def test_invalidate_bumps_epoch_and_counter():
    cache = FragmentCache()
    assert cache.epoch == 0
    cache.invalidate()
    cache.invalidate()
    assert cache.epoch == 2
    assert cache.stats()["invalidations"] == 2


def test_hit_rate():
    cache = FragmentCache()
    assert cache.hit_rate() == 0.0
    cache.store("k", _entry())
    cache.lookup("k")
    cache.lookup("absent")
    assert cache.hit_rate() == 0.5


def test_store_refresh_keeps_one_quota_charge():
    quota = CacheQuota(max_entries=4)
    cache = FragmentCache(quota=quota)
    cache.store("k", _entry(result=1))
    cache.store("k", _entry(result=2))  # refresh, not a second charge
    assert quota.used == 1
    assert cache.lookup("k").result == 2


def test_quota_shared_across_tenant_caches():
    quota = CacheQuota(max_entries=3)
    a = FragmentCache(quota=quota)
    b = FragmentCache(quota=quota)
    assert a.store("a1", _entry())
    assert a.store("a2", _entry())
    assert b.store("b1", _entry())
    assert quota.used == 3
    # b can still make room by evicting its own entry...
    assert b.store("b2", _entry())
    assert b.lookup("b1") is None
    assert b.stats()["evictions"] == 1
    # ...but once b is empty it cannot take budget from a
    b.release_all()
    assert quota.used == 2
    a.release_all()
    assert quota.used == 0


def test_store_refuses_when_budget_gone_and_cache_empty():
    quota = CacheQuota(max_entries=1)
    full = FragmentCache(quota=quota)
    empty = FragmentCache(quota=quota)
    assert full.store("k", _entry())
    assert not empty.store("x", _entry())
    assert empty.stats()["entries"] == 0
    full.release_all()
    assert empty.store("x", _entry())


# -- transparency over random interleavings (Hypothesis) ----------------------


def _interleaving_source(ops):
    """A MiniJava program calling ``peek``/``poke`` in the given order.

    ``ops`` is a list of ``(is_poke, k)`` pairs; peeks print so the
    interleaving is observable on the open side.
    """
    lines = [
        "global int secret = 3;",
        "func int peek(int k) {",
        "    return secret + k;",
        "}",
        "func void poke(int k) {",
        "    secret = k;",
        "}",
        "func void main(int z) {",
    ]
    for is_poke, k in ops:
        if is_poke:
            lines.append("    poke(%d + z);" % k)
        else:
            lines.append("    print(peek(%d));" % k)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _stmt_counts(registry):
    return {
        (m.labels["side"], m.labels["kind"]): m.value
        for m in registry.collect()
        if m.name == M_STMTS
    }


def _observed_run(sp, cache):
    """Run a hidden-globals split with direct server access (run_split
    does not expose the server, and the bookkeeping assertions need
    ``server.cache.stats()``)."""
    with obs.telemetry() as (registry, _tracer):
        channel = Channel(LatencyModel.instant(), record=True)
        server = HiddenServer(
            sp.registry(),
            channel,
            hidden_globals=getattr(sp, "hidden_global_inits", None),
            cache=cache,
        )
        interp = Interpreter(sp.program, hidden_runtime=server)
        value = interp.run("main", (0,))
        channel.flush_deferred()
        observed = {
            "value": value,
            "output": list(interp.output),
            "steps_open": interp.steps,
            "steps_hidden": server.steps,
            "stmt_counts": _stmt_counts(registry),
            "events": [
                (e.kind, e.hid, e.fn_name, e.label, e.sent, e.result)
                for e in channel.transcript.events
            ],
        }
    return observed, server


def _expected_cache_stats(ops):
    """The analytical model: ``peek``'s get fragment keys purely on the
    invalidation epoch (no sent values, no env reads), so within each
    maximal run of consecutive peeks the first probe misses and the rest
    hit; every poke executes a store-writing fragment and bumps the
    epoch."""
    runs, current = [], 0
    for is_poke, _k in ops:
        if is_poke:
            if current:
                runs.append(current)
            current = 0
        else:
            current += 1
    if current:
        runs.append(current)
    peeks = sum(1 for is_poke, _k in ops if not is_poke)
    pokes = sum(1 for is_poke, _k in ops if is_poke)
    hits = sum(r - 1 for r in runs)
    return {
        "hits": hits,
        "misses": peeks - hits,
        "evictions": 0,
        "invalidations": pokes,
        "entries": len(runs),
        "epoch": pokes,
    }


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=4)),
        min_size=1,
        max_size=12,
    )
)
def test_interleavings_bit_identical_with_exact_bookkeeping(ops):
    source = _interleaving_source(ops)
    program = parse_program(source)
    checker = check_program(program)
    sp = hide_global(program, checker, "secret")

    off, server_off = _observed_run(sp, cache=False)
    on, server_on = _observed_run(sp, cache=True)

    # correctness: cache-on is bit-identical to cache-off (outputs, value,
    # both step counters, per-kind statement metrics, full transcript)...
    assert on == off
    # ...and both match the original, unsplit program
    original = run_original(program, args=(0,))
    assert original.output == off["output"]
    assert original.value == off["value"]

    # bookkeeping: the counters match the epoch-key model exactly
    assert server_off.cache is None
    assert server_on.cache.stats() == _expected_cache_stats(ops)


def test_write_only_name_replayed_even_when_value_was_already_there():
    # regression: env_writes used to be a value diff against the pre-call
    # env, which dropped a write whose value happened to equal the name's
    # previous one — a later hit in an activation where the name differed
    # then failed to re-apply the write (caught by the cache fuzz cells)
    from repro.core.hidden import FragmentKind, HiddenFragment
    from repro.lang.parser import parse_expression, parse_statements

    fragments = {
        # keyed by p: distinct values miss separately and seed v
        0: HiddenFragment(0, FragmentKind.STMTS, params=["p"],
                          body=parse_statements("v = p;")),
        # no params, no reads: one key for every activation
        1: HiddenFragment(1, FragmentKind.STMTS,
                          body=parse_statements("v = -2;")),
        2: HiddenFragment(2, FragmentKind.EXPR,
                          result_expr=parse_expression("v")),
    }
    registry = {0: ("f", fragments, {})}

    def run(cache):
        channel = Channel(LatencyModel.instant(), record=False)
        server = HiddenServer(registry, channel, cache=cache)
        out = []
        for seed in (-2, 7):  # first fill happens with v == -2 already
            hid = server.open_activation(0)
            server.call(hid, 0, (seed,), None)
            server.call(hid, 1, (), None)
            out.append(server.call(hid, 2, (), None))
            server.close_activation(hid)
        return out

    assert run(cache=False) == [-2, -2]
    assert run(cache=True) == [-2, -2]


# -- batched-prefetch error paths (regression) --------------------------------


def _batch_split():
    program = parse_program(BATCH_SRC)
    checker = check_program(program)
    return split_program(program, checker, [("f", "a")])


def test_short_batch_reply_rejected(monkeypatch):
    # regression: a fetch_batch reply with the wrong arity used to
    # partially populate the batch cache via zip() and silently fall back
    # to unbatched callbacks for the missing reads
    sp = _batch_split()
    original = OpenAccess.fetch_batch

    def short_reply(self, items):
        return original(self, items)[:-1]

    monkeypatch.setattr(OpenAccess, "fetch_batch", short_reply)
    with pytest.raises(RuntimeErr, match=r"fetch_batch returned 1 values for 2 reads"):
        run_split(sp, args=(3,), latency=LatencyModel.instant(), batching=True)


def test_long_batch_reply_rejected(monkeypatch):
    sp = _batch_split()
    original = OpenAccess.fetch_batch

    def long_reply(self, items):
        values = original(self, items)
        return values + [0]

    monkeypatch.setattr(OpenAccess, "fetch_batch", long_reply)
    with pytest.raises(RuntimeErr, match=r"fetch_batch returned 3 values for 2 reads"):
        run_split(sp, args=(3,), latency=LatencyModel.instant(), batching=True)


def test_failed_prefetch_leaves_no_stale_batch_entries(monkeypatch):
    # an abort mid-prefetch (here: the open side refusing the callback)
    # must clear the per-statement batch cache so nothing stale survives
    sp = _batch_split()
    evaluators = []
    from repro.runtime import server as server_mod

    original_init = server_mod._FragmentEvaluator.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        evaluators.append(self)

    monkeypatch.setattr(server_mod._FragmentEvaluator, "__init__", tracking_init)

    calls = {"n": 0}
    original_fetch = OpenAccess.fetch_batch

    def failing_fetch(self, items):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeErr("open side refused the batch")
        return original_fetch(self, items)

    monkeypatch.setattr(OpenAccess, "fetch_batch", failing_fetch)
    with pytest.raises(RuntimeErr, match="open side refused the batch"):
        run_split(sp, args=(3,), latency=LatencyModel.instant(), batching=True)
    assert calls["n"] == 2
    assert evaluators, "the hidden loop must have built an evaluator"
    for evaluator in evaluators:
        assert not evaluator._batch_cache


def test_no_partial_traffic_before_arity_check(monkeypatch):
    # the cb_batch round trip is recorded only after the reply validates,
    # so a rejected reply leaves no phantom traffic in the transcript
    sp = _batch_split()
    original = OpenAccess.fetch_batch

    def short_reply(self, items):
        return original(self, items)[:-1]

    monkeypatch.setattr(OpenAccess, "fetch_batch", short_reply)
    with obs.telemetry():
        channel = Channel(LatencyModel.instant(), record=True)
        server = HiddenServer(sp.registry(), channel, batching=True)
        interp = Interpreter(sp.program, hidden_runtime=server)
        with pytest.raises(RuntimeErr):
            interp.run("main", (3,))
        channel.flush_deferred()
    kinds = [e.kind for e in channel.transcript.events]
    assert "cb_batch" not in kinds


# -- the payoff over the Table 5 corpora ---------------------------------------


def _replay_corpora(scripts, cache, clients=2, iterations=4):
    """Replay each corpus's session shape against one daemon serving all
    of them; returns the per-tenant loadgen reports and the daemon's
    per-tenant cache counters."""
    tenants = [Tenant.from_program(name, split_corpus(name, 0.06))
               for name in scripts]
    server = HiddenComponentServer(tenants=tenants, cache=cache)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        reports = {
            name: run_loadgen(server.address, script, clients=clients,
                              iterations=iterations, program=name,
                              cache=cache)
            for name, script in scripts.items()
        }
        # sessions fold their cache counters into cache_stats as they end
        deadline = time.monotonic() + 5.0
        while server.live_sessions() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert server.live_sessions() == 0
    finally:
        server.shutdown()
        thread.join(timeout=2.0)
    return reports, server.cache_stats


def test_repeat_heavy_replay_is_worth_caching():
    """Each client iterates its corpus's session over one warm session
    cache: every tenant hits at least half its probes, the cache saves
    server fragment executions on at least 3 of the 4 corpora, and no
    client op fails with the cache on or off."""
    scripts = {}
    for run in TABLE5_RUNS:  # the first Table 5 row of each corpus
        if run.benchmark not in scripts:
            sp = split_corpus(run.benchmark, 0.06)
            scripts[run.benchmark] = script_from_transcript(
                run_split(sp, args=(run.n, run.m)).channel.transcript)
    reports_off, _ = _replay_corpora(scripts, cache=False)
    reports_on, stats = _replay_corpora(scripts, cache=True)
    improved = 0
    for name in scripts:
        for reports in (reports_off, reports_on):
            assert reports[name]["errors"] == {
                "protocol": 0, "reply": 0, "skipped_ops": 0}, name
        hits, misses = stats[name]["hits"], stats[name]["misses"]
        assert hits >= 0.5 * (hits + misses), (name, stats[name])
        execs_off = reports_off[name]["op_counts"]["call"]
        execs_on = reports_on[name]["op_counts"]["call"] - hits
        improved += execs_on < execs_off
    assert improved >= 3
