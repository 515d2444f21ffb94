"""Differential tests: each pricing fast path against its slow reference.

The route-table link-path memo, the capacity view's path-price memo and
its per-pair hop-latency and switch round-trip memos, the lazily built
route footprints, the per-version ``available()`` array, the vectorised
policy-table refresh, the share-free table's skipped EWMA, the batched
live path prices of Eqs. 6 and 14, the live ring price and the one-handle
multi-rate registration must reproduce the scalar code they replace bit
for bit, so every comparison here is exact equality.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CommContext,
    HybridRoute,
    InaRoute,
    SchemeKind,
    TreeRoute,
    TwoStageRoute,
    group_by_server,
    ina_link_footprint,
    pipeline_sync_time,
    rank_switches,
    registered_schemes,
    ring_allreduce_time,
    ring_link_footprint,
    ring_route,
    select_ina_switch,
)
from repro.comm.hybrid import leader_legs
from repro.comm.ina import switch_delay
from repro.core import (
    SLA_TESTBED_CHATBOT,
    LoadAwareScheduler,
    Policy,
    PolicyCostTable,
    estimate_kv_transfer_time,
    kv_pairings,
)
from repro.core.planner import OfflinePlanner, PlannerConfig
from repro.llm import (
    OPT_66B,
    A100,
    V100,
    BatchSpec,
    CostModelBank,
    kv_bytes_per_token,
)
from repro.network import (
    LinkKind,
    LinkLoadTracker,
    build_fig2_example,
    build_route_table,
    build_testbed,
    build_xtracks_cluster,
)
from repro.network.linkstate import MIN_AVAILABLE_FRACTION
from repro.serving.background import (
    BackgroundTraffic,
    BackgroundTrafficConfig,
)
from repro.sim.eventqueue import EventQueue

BUILDERS = {
    "testbed": build_testbed,
    "xtracks-2x1": lambda: build_xtracks_cluster(2, n_units=1),
    "xtracks-8x4": lambda: build_xtracks_cluster(8, n_units=4),
    "testbed-1track": lambda: build_testbed(tracks=1),
    "xtracks-2x2": lambda: build_xtracks_cluster(2, n_units=2),
    "xtracks-8x1": lambda: build_xtracks_cluster(8, n_units=1),
    "fig2": build_fig2_example,
}
#: the heterogeneous view and the Ethernet-only view the baselines route on
VIEWS = {"hetero": None, "ethernet": {LinkKind.NVLINK, LinkKind.PCIE}}


@functools.cache
def _built(topo: str):
    return BUILDERS[topo]()


def _table(topo: str, view: str):
    return build_route_table(_built(topo).topology, exclude_kinds=VIEWS[view])


@functools.cache
def _warm_table(topo: str, view: str):
    """A table shared across tests, so most lookups below are memo hits."""
    return _table(topo, view)


@functools.cache
def _gpu_pairs(topo: str) -> tuple[tuple[int, int], ...]:
    gpus = _built(topo).topology.gpu_ids()
    return tuple((u, v) for u in gpus for v in gpus)


@functools.cache
def _switch_pairs(topo: str) -> tuple[tuple[int, int], ...]:
    built = _built(topo)
    switches = built.access_switches + built.core_switches
    gpus = built.topology.gpu_ids()
    return tuple((g, s) for g in gpus for s in switches) + tuple(
        (s, g) for g in gpus for s in switches
    )


def _check_memo(topo: str, view: str, pairs) -> None:
    warm = _warm_table(topo, view)
    for u, v in reversed(pairs):
        warm.link_path(u, v)
    cold = _table(topo, view)
    for u, v in pairs:
        hit = warm.link_path(u, v)
        assert type(hit) is tuple
        assert warm.link_path(u, v) is hit
        assert hit == cold.link_path(u, v)


class TestLinkPathMemo:
    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("topo", ["testbed", "xtracks-2x1"])
    def test_every_pair_matches_cold_walk(self, topo, view):
        _check_memo(topo, view, _gpu_pairs(topo) + _switch_pairs(topo))

    @pytest.mark.parametrize("view", sorted(VIEWS))
    def test_scale_switch_pairs_match_cold_walk(self, view):
        _check_memo("xtracks-8x4", view, _switch_pairs("xtracks-8x4"))

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_scale_gpu_pairs_match_cold_walk(self, view, data):
        # 512 GPUs make 262k GPU pairs, too many to walk cold twice in
        # tier-1; sample them.
        pairs = _gpu_pairs("xtracks-8x4")
        idx = data.draw(
            st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=200)
        )
        _check_memo("xtracks-8x4", view, [pairs[i] for i in idx])

    def test_trivial_path_is_empty_tuple(self):
        assert _warm_table("testbed", "hetero").link_path(3, 3) == ()


def _ctx(topo: str, view: str, live: bool = False) -> CommContext:
    """A fresh context over a fresh table; ``live`` attaches an idle tracker."""
    built = _built(topo)
    return CommContext(
        built=built,
        route_table=_table(topo, view),
        linkstate=LinkLoadTracker(built.topology) if live else None,
        heterogeneous=view == "hetero",
    )


def _check_prices(topo: str, view: str, pairs) -> None:
    # An idle tracker prices every hop at exactly C(e), so the live
    # loop is the memo-free reference. Both capacity views memoize: a
    # context built without a tracker and the offline view of a live one.
    reference = _ctx(topo, view, live=True)
    sizes = (reference.route_table.selection_bytes, 3.7e7)
    for memo in (_ctx(topo, view), _ctx(topo, view, live=True).offline()):
        assert memo.linkstate is None
        for _ in range(2):  # first lookup misses, the repeat hits
            for u, v in pairs:
                for size in sizes:
                    assert memo.path_time(u, v, size) == reference.path_time(
                        u, v, size
                    )
                assert memo.path_bottleneck(u, v) == reference.path_bottleneck(
                    u, v
                )


class TestPathPriceMemo:
    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("topo", ["testbed", "xtracks-2x1"])
    def test_every_pair_matches_idle_tracker(self, topo, view):
        _check_prices(topo, view, _gpu_pairs(topo) + _switch_pairs(topo))

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_scale_pairs_match_idle_tracker(self, view, data):
        pairs = _gpu_pairs("xtracks-8x4") + _switch_pairs("xtracks-8x4")
        idx = data.draw(
            st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=200)
        )
        _check_prices("xtracks-8x4", view, [pairs[i] for i in idx])

    def test_live_view_follows_load(self):
        ctx = _ctx("testbed", "hetero", live=True)
        g, sw = ctx.built.topology.gpu_ids()[0], ctx.built.access_switches[0]
        size = ctx.route_table.selection_bytes
        idle = ctx.path_time(g, sw, size)
        links = list(ctx.path_links(g, sw))
        ctx.linkstate.register(links, 0.5 * ctx.linkstate.capacity[links[0]])
        assert ctx.path_time(g, sw, size) > idle
        assert ctx.offline().path_time(g, sw, size) == idle

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("topo", sorted(BUILDERS))
    def test_selection_price_is_the_d_matrix(self, topo, view):
        # Algorithm 2's offline D: pricing a GPU<->switch path at the
        # route-selection size reads exactly the Dijkstra latency.
        ctx = _ctx(topo, view)
        sel = ctx.route_table.selection_bytes
        latency = ctx.route_table.latency
        for u, v in _switch_pairs(topo):
            assert ctx.path_time(u, v, sel) == latency[u, v]


def _check_distance_matrix(topo: str, view: str, gpus) -> None:
    ctx = _ctx(topo, view)
    sel = ctx.route_table.selection_bytes
    dist = ctx.gpu_distance_matrix(gpus)
    expect = [[ctx.path_time(u, v, sel) for v in gpus] for u in gpus]
    assert np.array_equal(dist, np.array(expect))


class TestDistanceMatrix:
    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("topo", ["testbed", "xtracks-2x1"])
    def test_every_pair_is_its_path_price(self, topo, view):
        _check_distance_matrix(topo, view, _built(topo).topology.gpu_ids())

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_scale_sample_is_its_path_price(self, view, data):
        gpus = _built("xtracks-8x4").topology.gpu_ids()
        sample = data.draw(
            st.lists(st.sampled_from(gpus), min_size=1, max_size=160, unique=True)
        )
        _check_distance_matrix("xtracks-8x4", view, sample)


_OPS = st.one_of(
    st.tuples(
        st.just("register"),
        st.lists(st.integers(0, 81), max_size=6),
        st.floats(0.0, 2e10),
    ),
    st.tuples(st.just("release"), st.integers(0, 50)),
    st.tuples(
        st.just("set_link_factor"), st.integers(0, 81), st.floats(0.01, 1.0)
    ),
    st.tuples(
        st.just("scale_links"),
        st.lists(st.integers(0, 81), max_size=4),
        st.floats(0.1, 4.0),
    ),
    st.tuples(st.just("reset")),
)


def _apply(tracker: LinkLoadTracker, handles: list[int], op) -> None:
    kind = op[0]
    if kind == "register":
        handles.append(tracker.register(op[1], op[2]))
    elif kind == "release" and handles:
        tracker.release(handles.pop(op[1] % len(handles)))
    elif kind == "set_link_factor":
        tracker.set_link_factor(op[1], op[2])
    elif kind == "scale_links":
        tracker.scale_links(op[1], op[2])
    elif kind == "reset":
        tracker.reset()
        handles.clear()


class TestAvailableCache:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(_OPS, max_size=25))
    def test_matches_recomputation(self, ops):
        tracker = LinkLoadTracker(_built("testbed").topology)
        assert tracker.topology.n_links == 82
        handles: list[int] = []
        for op in ops:
            before = tracker.available()
            snapshot = before.copy()
            _apply(tracker, handles, op)
            cap = tracker.capacity
            expect = np.maximum(
                cap - tracker.load(), MIN_AVAILABLE_FRACTION * cap
            )
            assert np.array_equal(tracker.available(), expect)
            assert tracker.available() is tracker.available()
            # an array read before a write stays what it was
            assert np.array_equal(before, snapshot)

    def test_cached_array_is_read_only(self):
        tracker = LinkLoadTracker(_built("testbed").topology)
        avail = tracker.available()
        with pytest.raises(ValueError):
            avail[0] = 1.0
        tracker.register([0], 1e9)
        with pytest.raises(ValueError):
            tracker.available()[0] = 1.0


class _ScalarTable(PolicyCostTable):
    """The per-policy / per-pair loops the vectorised refresh replaced."""

    def refresh_utilization(self, linkstate):
        for i, p in enumerate(self.policies):
            self.b[i] = (
                linkstate.path_max_utilization(list(p.links))
                if p.links
                else 0.0
            )

    def refresh_penalties(self, linkstate):
        n = len(self.policies)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                w = self.sharing_ratio(linkstate, i, j)
                self.f[i, j] = (1 - self.gamma) * self.f[i, j] + self.gamma * w


def _policies(link_lists) -> list[Policy]:
    return [
        Policy(
            policy_id=i,
            name=f"p{i}",
            mode="nvlink" if not links else "ring",
            switch=None,
            links=tuple(links),
            bottleneck_capacity=12.5e9,
        )
        for i, links in enumerate(link_lists)
    ]


_TABLE_OPS = st.one_of(
    st.tuples(st.just("select"), st.floats(0.0, 1e9)),
    st.tuples(st.just("refresh")),
    st.tuples(st.just("refresh_utilization")),
    st.tuples(
        st.just("register"),
        st.lists(st.integers(0, 11), min_size=1, max_size=4),
        st.floats(0.0, 2e10),
    ),
    st.tuples(st.just("release"), st.integers(0, 50)),
)


class TestVectorisedRefresh:
    @settings(max_examples=80, deadline=None)
    @given(
        # links 0..11, repeats allowed; the empty list is an nvlink policy
        link_lists=st.lists(
            st.lists(st.integers(0, 11), max_size=24), min_size=1, max_size=6
        ),
        seed=st.integers(0, 2**32 - 1),
        gamma=st.floats(0.05, 1.0),
        ops=st.lists(_TABLE_OPS, max_size=30),
    )
    def test_matches_scalar_loops(self, link_lists, seed, gamma, ops):
        tracker = LinkLoadTracker(_built("testbed").topology)
        # A random load on every link, so B(e) values are not round and
        # summing them in another order would change the last bits.
        rates = np.random.default_rng(seed).uniform(0.0, 1e10, size=12)
        for lid, rate in enumerate(rates):
            tracker.register([lid], float(rate))
        fast = PolicyCostTable(_policies(link_lists), gamma=gamma)
        slow = _ScalarTable(_policies(link_lists), gamma=gamma)
        assert np.array_equal(fast.f, slow.f)
        handles: list[int] = []
        for op in ops:
            kind = op[0]
            if kind == "select":
                assert fast.select(op[1]) == slow.select(op[1])
            elif kind == "refresh":
                for t in (fast, slow):
                    t.refresh_utilization(tracker)
                    t.refresh_penalties(tracker)
            elif kind == "refresh_utilization":
                fast.refresh_utilization(tracker)
                slow.refresh_utilization(tracker)
            else:
                _apply(tracker, handles, op)
            assert np.array_equal(fast.b, slow.b)
            assert np.array_equal(fast.f, slow.f)

    def test_repeated_links_weigh_by_multiplicity(self):
        tracker = LinkLoadTracker(_built("testbed").topology)
        tracker.register([1], 0.5 * tracker.capacity[1])
        fast = PolicyCostTable(_policies([(0, 1), (1, 1, 2), ()]))
        slow = _ScalarTable(_policies([(0, 1), (1, 1, 2), ()]))
        for t in (fast, slow):
            t.refresh_utilization(tracker)
            t.refresh_penalties(tracker)
        assert np.array_equal(fast.b, slow.b)
        assert np.array_equal(fast.f, slow.f)
        # the nvlink policy shares nothing and measures zero
        assert fast.b[2] == 0.0 and not fast.f[:, 2].any()

    @pytest.mark.parametrize("seed", range(20))
    def test_long_rows_sum_left_to_right(self, seed):
        # Rows longer than numpy's 8-way pairwise block: np.sum would
        # round differently from the scalar loop's left-to-right sum.
        # gamma=1 makes f equal to W, so no rounding step hides a change.
        rng = np.random.default_rng(seed)
        tracker = LinkLoadTracker(_built("testbed").topology)
        for lid in range(24):
            tracker.register([lid], float(rng.uniform(0.0, 1e10)))
        lists = [
            rng.integers(0, 24, size=rng.integers(16, 40)).tolist()
            for _ in range(4)
        ]
        fast = PolicyCostTable(_policies(lists), gamma=1.0)
        slow = _ScalarTable(_policies(lists), gamma=1.0)
        for t in (fast, slow):
            t.refresh_penalties(tracker)
        assert np.array_equal(fast.f, slow.f)


def _live_ops(n_links: int):
    """Register/release/set_link_factor sequences over ``n_links`` links."""
    link = st.integers(0, n_links - 1)
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("register"),
                st.lists(link, min_size=1, max_size=6),
                st.floats(0.0, 2e10),
            ),
            st.tuples(st.just("release"), st.integers(0, 50)),
            st.tuples(st.just("set_link_factor"), link, st.floats(0.01, 1.0)),
        ),
        max_size=12,
    )


@functools.cache
def _priced_pairs(topo: str) -> tuple[tuple[int, int], ...]:
    """GPU<->GPU, GPU<->switch, co-located NVLink and self pairs."""
    ctx = _ctx(topo, "hetero")
    gpus = ctx.built.topology.gpu_ids()
    return (
        _gpu_pairs(topo)
        + _switch_pairs(topo)
        + tuple(ctx._direct_link_table())
        + tuple((g, g) for g in gpus)
    )


def _check_path_times(ctx: CommContext, pairs, sizes) -> None:
    fast = ctx.path_times(pairs, sizes)
    per_pair = np.broadcast_to(sizes, len(pairs)).tolist()
    slow = [ctx.path_time(u, v, b) for (u, v), b in zip(pairs, per_pair)]
    assert fast.tolist() == slow


class TestBatchedPathTimes:
    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("topo", sorted(BUILDERS))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_live_matches_per_pair_path_time(self, topo, view, data):
        every = _priced_pairs(topo)
        picks = data.draw(
            st.lists(st.integers(0, len(every) - 1), min_size=1, max_size=80)
        )
        pairs = tuple(every[i] for i in picks)
        ctx = _ctx(topo, view, live=True)
        sizes = np.array(
            data.draw(
                st.lists(
                    st.floats(0.0, 1e10),
                    min_size=len(pairs),
                    max_size=len(pairs),
                )
            )
        )
        handles: list[int] = []
        for op in data.draw(_live_ops(ctx.built.topology.n_links)):
            _apply(ctx.linkstate, handles, op)
            # the same tuple every time: the hop index is built once
            _check_path_times(ctx, pairs, 3.7e7)
            _check_path_times(ctx, pairs, sizes)
        _check_path_times(ctx, pairs, 1024)
        assert list(ctx._hops) == [pairs]

    def test_self_and_nvlink_pairs(self):
        ctx = _ctx("testbed", "ethernet", live=True)
        direct = next(iter(ctx._direct_link_table()))
        g = ctx.built.topology.gpu_ids()[0]
        pairs = ((g, g), direct, (g, g))
        ctx.linkstate.register(list(ctx.path_links(*direct)), 1e9)
        times = ctx.path_times(pairs, 5e8)
        assert times[0] == times[2] == 0.0
        assert times[1] == ctx.path_time(*direct, 5e8) > 0.0
        only_self = ((g, g),)
        assert ctx.path_times(only_self, 5e8).tolist() == [0.0]

    @pytest.mark.parametrize("live", [False, True])
    def test_capacity_view_builds_no_index(self, live):
        ctx = _ctx("xtracks-2x1", "hetero", live=live).offline()
        pairs = _gpu_pairs("xtracks-2x1")[:50]
        reference = _ctx("xtracks-2x1", "hetero", live=True)
        for sizes in (3.7e7, np.linspace(1.0, 1e9, len(pairs))):
            _check_path_times(ctx, pairs, sizes)
            assert (
                ctx.path_times(pairs, sizes).tolist()
                == reference.path_times(pairs, sizes).tolist()
            )
        assert ctx._hops == {}


def _scalar_sync_time(ctx: CommContext, stages, data_bytes) -> float:
    """Eq. 6 as the per-pair loop the batched price replaced."""
    total = 0.0
    for senders, receivers in zip(stages, stages[1:]):
        total += min(
            max(ctx.path_time(a, k, data_bytes) for k in receivers)
            for a in senders
        )
    return total


def _scalar_kv_time(ctx, model, k_in, pre, dec, exclude) -> float:
    """Eq. 14 as the per-pair dict accumulation the batched price replaced."""
    total_bytes = kv_bytes_per_token(model) * k_in
    per_gpu: dict[int, float] = {}
    for pg, dg, share in kv_pairings(pre, dec, exclude_gpus=exclude):
        t = ctx.path_time(pg, dg, total_bytes * share)
        per_gpu[pg] = per_gpu.get(pg, 0.0) + t
    return max(per_gpu.values())


@st.composite
def _stages(draw, gpus):
    """Disjoint prefill and decode stage layouts over ``gpus``."""
    pool = draw(st.permutations(gpus))
    layouts = []
    for _ in range(2):
        pp = draw(st.integers(1, min(3, len(pool))))
        tp = draw(st.integers(1, min(4, len(pool) // pp)))
        layouts.append(
            [tuple(pool[(s * tp) : (s + 1) * tp]) for s in range(pp)]
        )
        pool = pool[pp * tp :]
    return layouts


class TestBatchedPhasePrices:
    @pytest.mark.parametrize("topo", ["testbed", "xtracks-2x1"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_live_matches_scalar_loops(self, topo, data):
        ctx = _ctx(topo, "hetero", live=True)
        gpus = ctx.built.topology.gpu_ids()
        pre, dec = data.draw(_stages(gpus[:24]))
        exclude = data.draw(
            st.frozensets(st.sampled_from([g for s in dec for g in s]))
        )
        k_in = data.draw(st.integers(1, 4096))
        act = data.draw(st.integers(1, 10**8))
        handles: list[int] = []
        for op in data.draw(_live_ops(ctx.built.topology.n_links)):
            _apply(ctx.linkstate, handles, op)
            for stages in (pre, dec):
                if len(stages) > 1:
                    assert pipeline_sync_time(
                        ctx, stages, act
                    ) == _scalar_sync_time(ctx, stages, act)
            assert estimate_kv_transfer_time(
                ctx, OPT_66B, k_in, pre, dec, exclude_gpus=exclude
            ) == _scalar_kv_time(ctx, OPT_66B, k_in, pre, dec, exclude)

    def test_planner_leaves_capacity_view_unindexed(self, monkeypatch):
        calls = []
        batched = CommContext.path_times

        def counted(self, pairs, data_bytes):
            calls.append(self.linkstate is None)
            return batched(self, pairs, data_bytes)

        monkeypatch.setattr(CommContext, "path_times", counted)
        ctx = CommContext.from_built(_built("testbed"))
        bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
        planner = OfflinePlanner(
            ctx,
            OPT_66B,
            bank,
            SLA_TESTBED_CHATBOT,
            SchemeKind.HYBRID,
            config=PlannerConfig(seed=0, max_candi=6),
        )
        report = planner.plan(BatchSpec.uniform(8, 256, 220), arrival_rate=0.5)
        assert report.plan is not None
        assert calls and all(calls)
        assert ctx._hops == {}
        assert ctx._prices


class TestShareFreeTable:
    """A table whose rows share no link skips Eq. 18's EWMA: ``W`` is 0
    in every link state, so ``f`` stays exactly the zeros it starts at."""

    @settings(max_examples=60, deadline=None)
    @given(
        # distinct links dealt into rows; an empty row is an nvlink policy
        links=st.lists(st.integers(0, 11), unique=True, max_size=12),
        cuts=st.lists(st.integers(0, 12), min_size=0, max_size=5),
        gamma=st.floats(0.05, 1.0),
        ops=st.lists(_TABLE_OPS, max_size=30),
    )
    def test_f_stays_zero_and_equals_full_ewma(self, links, cuts, gamma, ops):
        bounds = [0, *sorted(cuts), len(links)]
        rows = [links[a:b] for a, b in zip(bounds, bounds[1:])]
        tracker = LinkLoadTracker(_built("testbed").topology)
        fast = PolicyCostTable(_policies(rows), gamma=gamma)
        slow = _ScalarTable(_policies(rows), gamma=gamma)
        assert fast._share_free
        handles: list[int] = []
        for op in ops:
            kind = op[0]
            if kind == "select":
                assert fast.select(op[1]) == slow.select(op[1])
            elif kind == "refresh":
                for t in (fast, slow):
                    t.refresh_utilization(tracker)
                    t.refresh_penalties(tracker)
            elif kind == "refresh_utilization":
                fast.refresh_utilization(tracker)
                slow.refresh_utilization(tracker)
            else:
                _apply(tracker, handles, op)
            assert np.array_equal(fast.b, slow.b)
            assert fast.f.tobytes() == slow.f.tobytes()
            assert fast.f.tobytes() == np.zeros_like(fast.f).tobytes()

    def test_one_shared_link_runs_the_ewma(self):
        tracker = LinkLoadTracker(_built("testbed").topology)
        table = PolicyCostTable(_policies([(0, 1), (), (1, 2)]))
        assert not table._share_free
        table.refresh_penalties(tracker)
        assert table.f[0, 2] > 0.0

    def test_one_server_groups_are_share_free(self):
        # [nvlink, ring] on one server: the nvlink row occupies no link.
        # A two-server hybrid group's rows all carry the leaders' legs.
        ctx = _ctx("xtracks-2x1", "hetero", live=True)
        gpus = ctx.built.topology.gpu_ids()
        one = LoadAwareScheduler(ctx, gpus[:8], SchemeKind.HYBRID)
        assert [p.mode for p in one.table.policies] == ["nvlink", "ring"]
        assert one.table._share_free
        two = LoadAwareScheduler(ctx, gpus[4:12], SchemeKind.HYBRID)
        assert not two.table._share_free


def _scalar_ring_time(ctx: CommContext, members, data_bytes) -> float:
    """Eq. 11 as the per-pair loop the live ring price replaced."""
    p = len(members)
    if p == 1 or data_bytes <= 0:
        return 0.0
    pairs = list(zip(members, members[1:] + members[:1]))
    bottleneck = min(ctx.path_bottleneck(u, v) for u, v in pairs)
    topo = ctx.built.topology
    hop_lat = max(
        sum(topo.links[lid].hop_latency for lid in ctx.path_links(u, v))
        for u, v in pairs
    )
    return 2.0 * (p - 1) * (data_bytes / p / bottleneck + hop_lat)


@st.composite
def _rings(draw, topo: str):
    """A one-server ring, a cross-server ring or a two-member ring."""
    topology = _built(topo).topology
    gpus = topology.gpu_ids()
    shape = draw(st.sampled_from(["one-server", "cross-server", "pair"]))
    if shape == "one-server":
        server = topology.nodes[draw(st.sampled_from(gpus))].server
        pool = [g for g in gpus if topology.nodes[g].server == server]
        size = draw(st.integers(2, len(pool)))
    elif shape == "cross-server":
        pool = gpus
        size = draw(st.integers(3, min(16, len(pool))))
    else:
        pool, size = gpus, 2
    return tuple(draw(st.permutations(pool))[:size])


class TestLiveRingPrice:
    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize(
        "topo", ["testbed", "xtracks-2x1", "testbed-1track", "fig2"]
    )
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_live_matches_per_pair_loop(self, topo, view, data):
        members = data.draw(_rings(topo))
        ctx = _ctx(topo, view, live=True)
        sizes = (3.7e7, data.draw(st.floats(0.0, 1e10)))
        handles: list[int] = []
        for op in data.draw(_live_ops(ctx.built.topology.n_links)):
            _apply(ctx.linkstate, handles, op)
            for size in sizes:
                assert ring_allreduce_time(
                    ctx, members, size, order=members
                ) == _scalar_ring_time(ctx, members, size)
        # one index for the member tuple, built on the first call
        assert len(ctx._rings) <= 1

    @pytest.mark.parametrize("topo", ["testbed", "xtracks-2x1"])
    def test_capacity_view_builds_no_index(self, topo):
        live = _ctx(topo, "hetero", live=True)
        offline = live.offline()
        gpus = live.built.topology.gpu_ids()
        for members in (tuple(gpus[:8]), tuple(gpus[:2]), tuple(gpus[::3])):
            for size in (1.0, 3.7e7):
                assert ring_allreduce_time(
                    offline, members, size, order=members
                ) == ring_allreduce_time(live, members, size, order=members)
        assert offline._rings == {} and len(live._rings) == 3

    def test_no_hop_pairs_price_infinite_bandwidth(self):
        ctx = _ctx("testbed", "hetero", live=True)
        g = ctx.built.topology.gpu_ids()[0]
        assert ctx.ring_terms(((g, g),)) == (float("inf"), 0)


def _burst_ops(n_links: int):
    """Scalar handles around one multi-rate burst and its release."""
    link = st.integers(0, n_links - 1)
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("register"),
                st.lists(link, min_size=1, max_size=6),
                st.floats(0.0, 2e10),
            ),
            st.tuples(st.just("release"), st.integers(0, 50)),
            st.tuples(st.just("set_link_factor"), link, st.floats(0.01, 1.0)),
            st.tuples(
                st.just("burst"),
                st.lists(link, min_size=1, max_size=8, unique=True),
                st.lists(st.floats(0.0, 2e10), min_size=8, max_size=8),
            ),
            st.tuples(st.just("burst_end"), st.integers(0, 50)),
        ),
        max_size=25,
    )


def _bits(tracker: LinkLoadTracker) -> tuple[bytes, bytes, bytes]:
    return (
        tracker._load.tobytes(),
        tracker.available().tobytes(),
        tracker.utilization().tobytes(),
    )


class TestMultiRateRegistration:
    @settings(max_examples=80, deadline=None)
    @given(ops=_burst_ops(82))
    def test_one_handle_equals_one_per_link(self, ops):
        topology = _built("testbed").topology
        multi, single = LinkLoadTracker(topology), LinkLoadTracker(topology)
        # scalar handles shared by both; bursts: one handle vs k handles
        handles: list[tuple[int, int]] = []
        bursts: list[tuple[int, list[int]]] = []
        for op in ops:
            kind = op[0]
            if kind == "register":
                handles.append(
                    (multi.register(op[1], op[2]), single.register(op[1], op[2]))
                )
            elif kind == "release" and handles:
                a, b = handles.pop(op[1] % len(handles))
                multi.release(a)
                single.release(b)
            elif kind == "set_link_factor":
                multi.set_link_factor(op[1], op[2])
                single.set_link_factor(op[1], op[2])
            elif kind == "burst":
                links = np.array(op[1])
                rates = np.array(op[2][: len(links)])
                bursts.append(
                    (
                        multi.register(links, rates),
                        [
                            single.register([int(l)], float(r))
                            for l, r in zip(links, rates)
                        ],
                    )
                )
                rates[:] = 0.0  # the tracker keeps its own copy
            elif kind == "burst_end" and bursts:
                one, many = bursts.pop(op[1] % len(bursts))
                multi.release(one)
                for h in many:
                    single.release(h)
            assert _bits(multi) == _bits(single)
        assert multi.active_registrations() == len(handles) + len(bursts)

    def test_rejects_negative_rates_and_shape_mismatch(self):
        tracker = LinkLoadTracker(_built("testbed").topology)
        with pytest.raises(ValueError, match="rate: every rate must be >= 0"):
            tracker.register([0, 1], np.array([1e9, -1.0]))
        # a (1,) rate array would broadcast over the ids in np.add.at
        for rates in ([1e9, 1e9, 1e9], [1e9], [[1e9, 1e9]]):
            with pytest.raises(ValueError, match="rate: shape"):
                tracker.register([0, 1], np.array(rates))
        with pytest.raises(ValueError, match="rate must be >= 0"):
            tracker.register([0, 1], -1.0)
        assert tracker.version == 0 and tracker.handles_issued == 0
        assert not tracker.load().any()


class _ScalarBursts(BackgroundTraffic):
    """The one-registration-per-link bursts the one-handle burst replaced."""

    def _burst(self, horizon_end):
        k = min(self.cfg.links_per_burst, self._eth.size)
        links = self.rng.choice(self._eth, size=k, replace=False)
        caps = self.linkstate.capacity[links]
        intensity = self._effective_intensity()
        handles = [
            self.linkstate.register([int(l)], intensity * float(c))
            for l, c in zip(links, caps)
        ]
        self.bursts_started += 1
        dur = float(self.rng.exponential(self.cfg.mean_duration))
        self.queue.schedule(dur, self._burst_end, handles, tag="bg_end")
        self._schedule_next(horizon_end)

    def _burst_end(self, handles):
        for h in handles:
            self.linkstate.release(h)


@pytest.mark.parametrize("topo", ["testbed", "xtracks-2x1"])
def test_background_bursts_write_the_tracker_once(topo):
    topology = _built(topo).topology
    cfg = BackgroundTrafficConfig(mean_gap=0.05, links_per_burst=8)
    runs = []
    for cls in (BackgroundTraffic, _ScalarBursts):
        tracker, queue = LinkLoadTracker(topology), EventQueue()
        bg = cls(topology, tracker, queue, cfg, seed=3)
        bg.start(horizon=5.0)
        runs.append((bg, tracker, queue))
    (fast, multi, q1), (slow, single, q2) = runs
    while q1.step():
        assert q2.step()
        assert q1.now == q2.now
        assert _bits(multi) == _bits(single)
    assert not q2.step()
    assert fast.bursts_started == slow.bursts_started > 10
    assert multi.handles_issued == fast.bursts_started
    assert single.handles_issued == 8 * slow.bursts_started
    assert multi.active_registrations() == single.active_registrations() == 0


@functools.cache
def _memo_views(topo: str, view: str):
    """Both capacity views, kept across tests so later lookups are memo
    hits, and an idle live view that memoizes no path price."""
    return (
        _ctx(topo, view),
        _ctx(topo, view, live=True).offline(),
        _ctx(topo, view, live=True),
    )


def _cold_latency(ctx: CommContext, u: int, v: int) -> float:
    """A path's hop latencies summed left to right, walked afresh."""
    links = ctx.built.topology.links
    return sum(links[lid].hop_latency for lid in ctx.path_links(u, v))


def _cold_delay(ctx: CommContext, gpus, switch: int) -> float:
    """Algorithm 2's group delay as the per-member round-trip loop."""
    sel = ctx.route_table.selection_bytes
    return max(
        ctx.path_time(g, switch, sel) + ctx.path_time(switch, g, sel)
        for g in gpus
    )


class TestStaticPairMemos:
    """The capacity view's per-pair hop latency (its zero-byte path
    price) and switch round trip."""

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("topo", sorted(BUILDERS))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_ring_terms_match_cold_walk(self, topo, view, data):
        members = data.draw(_rings(topo))
        pairs = tuple(zip(members, members[1:] + members[:1]))
        *memos, cold = _memo_views(topo, view)
        expect = (
            min(cold.path_bottleneck(u, v) for u, v in pairs),
            max(_cold_latency(cold, u, v) for u, v in pairs),
        )
        for ctx in memos:
            for _ in range(2):  # the repeat reads the memos
                for u, v in pairs:
                    # a path's price at zero bytes is its hop latency
                    assert ctx.path_time(u, v, 0.0) == _cold_latency(
                        cold, u, v
                    )
                assert ctx.ring_terms(pairs) == expect
            assert ctx._rings == {}

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("topo", sorted(BUILDERS))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_switch_scores_match_cold_walk(self, topo, view, data):
        built = _built(topo)
        switches = built.ina_capable_switches()
        gpus = data.draw(_rings(topo))
        cands = data.draw(st.permutations(switches))
        cands = cands[: data.draw(st.integers(1, len(cands)))]
        k = data.draw(st.integers(0, len(switches) + 1))
        *memos, cold = _memo_views(topo, view)
        delay = {sw: _cold_delay(cold, gpus, sw) for sw in switches}
        for ctx in memos:
            for _ in range(2):
                for sw in switches:
                    assert switch_delay(ctx, gpus, sw) == delay[sw]
                # the first minimum in candidate order ...
                assert select_ina_switch(ctx, gpus, cands) == min(
                    cands, key=delay.__getitem__
                )
                # ... and the (delay, id) rank
                assert rank_switches(ctx, gpus, k) == sorted(
                    switches, key=lambda sw: (delay[sw], sw)
                )[: max(1, k)]
            assert all(type(t) is float for t in ctx._round_trips.values())
            assert ctx._rings == {}

    def test_tied_switches_keep_candidate_order(self):
        ctx, _, cold = _memo_views("testbed", "hetero")
        switches = ctx.built.ina_capable_switches()
        gpus = ctx.built.topology.gpu_ids()
        tied = [
            pair
            for pair in zip(gpus, gpus[1:])
            if len({_cold_delay(cold, pair, sw) for sw in switches}) == 1
        ]
        assert tied and len(switches) == 2
        for pair in tied:
            for cands in (switches, switches[::-1]):
                assert select_ina_switch(ctx, pair, cands) == cands[0]
            assert rank_switches(ctx, pair, 2) == sorted(switches)

    def test_repeat_lookups_walk_nothing(self, monkeypatch):
        walks = []
        for name in ("_sum_hops", "_round_trip"):
            cold = getattr(CommContext, name)

            def counted(self, *args, _cold=cold):
                walks.append(args)
                return _cold(self, *args)

            monkeypatch.setattr(CommContext, name, counted)
        ctx = _ctx("xtracks-2x1", "hetero")
        gpus = ctx.built.topology.gpu_ids()[::5]
        ring = tuple(zip(gpus, gpus[1:] + gpus[:1]))
        switches = ctx.built.ina_capable_switches()
        first = ctx.ring_terms(ring), rank_switches(ctx, gpus, 2)
        # a zero-byte price per ring pair, a round trip (two selection-size
        # prices) per member and switch
        assert len(walks) == len(ring) + 3 * len(gpus) * len(switches)
        walks.clear()
        assert (ctx.ring_terms(ring), rank_switches(ctx, gpus, 2)) == first
        assert walks == []

    def test_live_view_memoizes_nothing(self):
        ctx = _ctx("testbed", "hetero", live=True)
        gpus = ctx.built.topology.gpu_ids()
        sw = ctx.built.access_switches[0]
        idle = switch_delay(ctx, gpus[:4], sw)
        ring = tuple(zip(gpus[:4], gpus[1:5]))
        ctx.ring_terms(ring)
        links = list(ctx.path_links(gpus[0], sw))
        ctx.linkstate.register(links, 0.5 * ctx.linkstate.capacity[links[0]])
        assert switch_delay(ctx, gpus[:4], sw) > idle
        assert ctx._prices == {} and ctx._round_trips == {}


def _eager_links(view: CommContext, gpus, route) -> tuple[int, ...]:
    """A route's footprint as it was built when routes were resolved."""
    if isinstance(route, HybridRoute):
        legs = leader_legs(view, route.servers, route.leaders)
        stage2 = _eager_links(view, route.leaders, route.stage2)
        if route.mode.startswith("hybrid-"):
            return stage2 + legs
        return legs + stage2
    if route.mode == "nvlink":
        return ()
    if isinstance(route, InaRoute):
        return tuple(ina_link_footprint(view, gpus, route.switch))
    if isinstance(route, TreeRoute):
        nodes = view.built.topology.nodes
        members = sorted(gpus, key=lambda g: (nodes[g].server, g))
        p2 = 1
        while p2 * 2 <= len(members):
            p2 *= 2
        links: list[int] = []
        for i in range(len(members) - p2):
            links.extend(view.path_links(members[p2 + i], members[i]))
            links.extend(view.path_links(members[i], members[p2 + i]))
        dist = 1
        while dist < p2:
            for i in range(p2):
                links.extend(view.path_links(members[i], members[i ^ dist]))
            dist <<= 1
        return tuple(links)
    servers = list(group_by_server(view, gpus).values())
    if isinstance(route, TwoStageRoute):
        if len(servers) == 1:
            return ring_route(view, gpus).links
        leaders = [m[0] for m in servers]
        return (
            leader_legs(view, servers, leaders)
            + ring_route(view, leaders).links
        )
    if route.mode == "none":  # the hybrid estimate's one-server ring
        return leader_legs(view, servers, [servers[0][0]])
    return tuple(ring_link_footprint(view, route.members, route.members))


def _check_lazy(view: CommContext, gpus, route) -> None:
    assert callable(route._links) or route._links == ()
    links = route.links
    assert type(links) is tuple and route.links is links
    assert links == _eager_links(view, gpus, route)


class TestLazyFootprints:
    @pytest.mark.parametrize("scheme", [s.name for s in registered_schemes()])
    @pytest.mark.parametrize("topo", sorted(BUILDERS))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_links_equal_eager_footprint(self, topo, scheme, data):
        scheme = next(s for s in registered_schemes() if s.name == scheme)
        view_name = "hetero" if scheme.heterogeneous else "ethernet"
        ctx, _, live = _memo_views(topo, view_name)
        gpus = list(data.draw(_rings(topo)))
        size = data.draw(st.sampled_from([65_536.0, 3.7e7]))
        # every Eq. 7 candidate, the plain ring included
        for route in scheme._candidates(ctx, gpus) + [ring_route(ctx, gpus)]:
            _check_lazy(ctx, gpus, route)
        # the winner's links are what the estimate registers
        best, t = scheme.estimate_route(ctx, gpus, size)
        est = scheme.estimate_time(ctx, gpus, size)
        assert (est.mode, est.ina_switch, est.step_time) == (
            best.mode, best.switch, t
        )
        assert est.links == _eager_links(ctx, gpus, best)
        # policy-table rows, resolved on the live view's capacity view
        k = data.draw(st.integers(1, 3))
        for route in scheme.policy_routes(live, gpus, k):
            _check_lazy(live.offline(), gpus, route)

    def test_planner_walks_only_mode_selection_footprints(self, monkeypatch):
        counts = dict.fromkeys(("ring", "ina", "legs"), 0)
        import repro.comm.hybrid
        import repro.comm.ina
        import repro.comm.ring
        import repro.comm.scheme
        import repro.comm.twostage

        for key, module, name in (
            ("ring", repro.comm.ring, "ring_link_footprint"),
            ("ina", repro.comm.ina, "ina_link_footprint"),
            ("legs", repro.comm.hybrid, "leader_legs"),
            ("legs", repro.comm.scheme, "leader_legs"),
            ("legs", repro.comm.twostage, "leader_legs"),
        ):
            def counted(*args, _fn=getattr(module, name), _key=key):
                counts[_key] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        ctx = CommContext.from_built(_built("xtracks-2x1"))
        bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
        planner = OfflinePlanner(
            ctx,
            OPT_66B,
            bank,
            SLA_TESTBED_CHATBOT,
            SchemeKind.HYBRID,
            config=PlannerConfig(seed=0, max_candi=6),
        )
        report = planner.plan(BatchSpec.uniform(8, 256, 220), arrival_rate=0.5)
        assert report.plan is not None
        # 1,089 groups priced; mode selection read 43 estimates: 20
        # one-server NVLink rings walk the leader's legs, 4 hybrid INA
        # stages walk legs and an INA footprint, 19 plain-ring fallbacks
        # walk a ring. Eager routes walked 4,003 footprints here.
        assert report.cache_stats["group_misses"] == 1089
        modes = [e.mode for e in planner._cache._group_memo.values()]
        assert len(modes) == 43
        assert counts == {"ring": 19, "ina": 4, "legs": 24}
        assert counts["ina"] == modes.count("ina")
        assert counts["ring"] == modes.count("ring")
        assert counts["legs"] == modes.count("none") + modes.count("ina")
