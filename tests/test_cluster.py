"""Tests for the cluster layer: routers (determinism, tie-breaking),
fleet metrics, single-replica reconciliation, and the step-time cache."""

import pytest

from repro.gpu.inference import (
    clear_step_time_cache,
    step_time_cache_info,
)
from repro.models.zoo import ARCHS
from repro.serve import (
    LeastKVLoadRouter,
    PrefixAffinityRouter,
    Request,
    RoundRobinRouter,
    ServingCluster,
    ServingEngine,
    available_routers,
    chat_workload,
    get_router,
    make_workload,
)

ARCH = ARCHS["llama-2-7b"]


def _requests(n=8, prompt=128, out=8):
    return [
        Request(f"r{i}", prompt_len=prompt, max_new_tokens=out, arrival_s=0.01 * i)
        for i in range(n)
    ]


class TestRouters:
    def test_registry(self):
        assert available_routers() == [
            "free-kv-at-arrival",
            "least-kv-load",
            "prefix-affinity",
            "queue-depth",
            "round-robin",
        ]
        assert isinstance(get_router("round-robin", 2), RoundRobinRouter)
        router = LeastKVLoadRouter(3)
        assert get_router(router, 3) is router
        with pytest.raises(KeyError, match="unknown router"):
            get_router("random", 2)

    def test_round_robin_cycles(self):
        router = RoundRobinRouter(3)
        assert [router.route(r) for r in _requests(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_least_load_ties_break_to_lowest_index(self):
        router = LeastKVLoadRouter(4)
        # All loads equal at every step until each replica has one request.
        assert [router.route(r) for r in _requests(4)] == [0, 1, 2, 3]

    def test_least_load_prefers_lighter_replica(self):
        router = LeastKVLoadRouter(2)
        heavy = Request("h", prompt_len=4096, max_new_tokens=512)
        light = Request("l", prompt_len=32, max_new_tokens=8)
        assert router.route(heavy) == 0
        assert router.route(light) == 1
        # replica 1 is still lighter: 40 < 4608
        assert router.route(Request("m", prompt_len=64, max_new_tokens=8)) == 1

    def test_prefix_affinity_sticks(self):
        router = PrefixAffinityRouter(3)
        reqs = [
            Request(f"c{i}", prompt_len=256, max_new_tokens=8,
                    prefix_id=f"sys-{i % 2}", prefix_len=128)
            for i in range(6)
        ]
        homes = [router.route(r) for r in reqs]
        assert homes[0::2] == [homes[0]] * 3  # sys-0 pinned
        assert homes[1::2] == [homes[1]] * 3  # sys-1 pinned
        assert homes[0] != homes[1]

    def test_prefix_affinity_falls_back_for_plain_requests(self):
        router = PrefixAffinityRouter(2)
        assert router.route(Request("a", prompt_len=64)) == 0
        assert router.route(Request("b", prompt_len=64)) == 1

    @pytest.mark.parametrize(
        "pools",
        [
            dict(n_replicas=2),
            dict(n_prefill=2, n_decode=2, decode_router=RoundRobinRouter(2)),
        ],
        ids=["unified", "disaggregated"],
    )
    def test_router_instance_reset_between_runs(self, pools):
        # A router *instance* must behave like a fresh one on every run.
        reqs = _requests(5)
        router = RoundRobinRouter(2)
        cluster = ServingCluster(ARCH, "mxfp4", router=router,
                                 kv_token_budget=16_384, **pools)
        first = cluster.run(reqs)
        second = cluster.run(reqs)
        assert first.assignments == second.assignments
        assert first.decode_assignments == second.decode_assignments
        assert first.summary() == second.summary()

    @pytest.mark.parametrize(
        "routers, match",
        [
            (dict(router="shared", decode_router="shared"), "distinct instances"),
            (dict(decode_router=RoundRobinRouter(5)), "decode_router built for 5"),
            (dict(router=RoundRobinRouter(5)), "router built for 5"),
        ],
        ids=["shared-instance", "decode-size", "prefill-size"],
    )
    def test_disaggregated_pool_routers_validated(self, routers, match):
        # One instance for both pools would share rotation state between
        # them; an instance sized for another pool would route outside it.
        shared = RoundRobinRouter(2)
        routers = {k: shared if v == "shared" else v for k, v in routers.items()}
        cluster = ServingCluster(ARCH, "mxfp4", n_prefill=2, n_decode=2,
                                 kv_token_budget=16_384, **routers)
        with pytest.raises(ValueError, match=match):
            cluster.run(_requests(4))

    def test_router_determinism_under_fixed_seed(self):
        reqs = chat_workload(48, n_prefixes=4, prefix_len=256, seed=11, rate_rps=40.0)
        cluster = ServingCluster(
            ARCH, "mxfp4", n_replicas=3, router="prefix-affinity",
            kv_token_budget=32_768,
        )
        first = cluster.run(reqs).assignments
        second = cluster.run(reqs).assignments  # fresh router per run
        assert first == second


class TestClusterReconciliation:
    def test_one_replica_matches_engine_exactly(self):
        reqs = make_workload(12, seed=5, rate_rps=30.0)
        cluster = ServingCluster(ARCH, "mxfp4+", n_replicas=1, kv_token_budget=32_768)
        engine = ServingEngine(ARCH, "mxfp4+", kv_token_budget=32_768)
        fleet = cluster.run(reqs)
        single = engine.run(reqs)
        assert fleet.makespan_s == single.makespan_s
        assert fleet.total_tokens == single.total_tokens
        for a, b in zip(fleet.responses, single.responses):
            assert (a.ttft_s, a.tpot_s, a.finish_s) == (b.ttft_s, b.tpot_s, b.finish_s)

    def test_responses_keep_input_order(self):
        reqs = _requests(9)
        fleet = ServingCluster(ARCH, "mxfp4", n_replicas=3, kv_token_budget=16_384).run(reqs)
        assert [r.request_id for r in fleet.responses] == [r.request_id for r in reqs]

    def test_duplicate_ids_rejected(self):
        cluster = ServingCluster(ARCH, "mxfp4", n_replicas=2)
        with pytest.raises(ValueError, match="duplicate"):
            cluster.run([Request("x", prompt_len=8), Request("x", prompt_len=8)])

    def test_more_replicas_cut_latency(self):
        reqs = make_workload(24, seed=2, rate_rps=1000.0,
                             prompt=None, output=None)
        one = ServingCluster(ARCH, "mxfp4", n_replicas=1, kv_token_budget=65_536).run(reqs)
        four = ServingCluster(ARCH, "mxfp4", n_replicas=4, kv_token_budget=65_536).run(reqs)
        assert four.makespan_s < one.makespan_s
        assert four.mean_ttft_s < one.mean_ttft_s


class TestFleetMetrics:
    def test_summary_keys_and_goodput(self):
        reqs = _requests(8)
        fleet = ServingCluster(ARCH, "mxfp4", n_replicas=2, kv_token_budget=16_384).run(reqs)
        summary = fleet.summary(ttft_slo_s=10.0, tpot_slo_s=10.0)
        assert summary["requests"] == 8
        assert summary["n_replicas"] == 2
        assert len(summary["replicas"]) == 2
        # Generous SLOs: every request is good, goodput == throughput.
        assert summary["slo_attainment"] == 1.0
        assert summary["goodput_tok_s"] == pytest.approx(fleet.throughput_tok_s)
        # Impossible SLO: nothing qualifies.
        assert fleet.slo_attainment(ttft_slo_s=0.0) == 0.0
        assert fleet.goodput_tok_s(ttft_slo_s=0.0) == 0.0

    def test_prefix_affinity_beats_round_robin_on_chat(self):
        # 4 prefixes over 4 replicas: affinity stores each system prompt
        # once fleet-wide (4 misses total); round-robin scatters every
        # prefix across all replicas and re-misses on each.
        reqs = chat_workload(48, n_prefixes=4, prefix_len=768, seed=3, rate_rps=50.0)
        kwargs = dict(n_replicas=4, page_budget_bytes=1 << 30, block_tokens=16)
        affinity = ServingCluster(ARCH, "mxfp4+", router="prefix-affinity", **kwargs).run(reqs)
        scattered = ServingCluster(ARCH, "mxfp4+", router="round-robin", **kwargs).run(reqs)
        hits = lambda f: sum(r.kv["prefix_hits"] for r in f.replica_results)
        misses = lambda f: sum(r.kv["prefix_misses"] for r in f.replica_results)
        assert misses(affinity) == 4
        assert hits(affinity) > hits(scattered)
        assert affinity.mean_ttft_s < scattered.mean_ttft_s


class TestMetricViewCaching:
    def test_percentiles_never_resort_on_repeat_access(self):
        reqs = _requests(16)
        fleet = ServingCluster(ARCH, "mxfp4", n_replicas=2,
                               kv_token_budget=16_384).run(reqs)
        assert fleet.sorts_performed == 0
        first = fleet.p99_ttft_s()
        assert fleet.sorts_performed == 1
        for _ in range(5):
            assert fleet.p99_ttft_s() == first
            assert fleet.p99_ttft_s(q=50.0) <= first  # same cached view
            fleet.summary(ttft_slo_s=1.0, tpot_slo_s=0.1)
        assert fleet.sorts_performed == 1
        # per-replica results cache their own sorted views the same way
        rep = fleet.replica_results[0]
        before = rep.sorts_performed
        rep.p99_ttft_s()
        rep.p99_ttft_s()
        assert rep.sorts_performed == before + 1


class TestStepTimeCache:
    def test_replicas_share_step_times(self):
        clear_step_time_cache()
        reqs = _requests(8, prompt=64, out=4)
        ServingCluster(ARCH, "mxfp4", n_replicas=4, router="round-robin",
                       kv_token_budget=16_384).run(reqs)
        info = step_time_cache_info()
        # 4 identical replicas: at least 3/4 of step evaluations are hits.
        assert info["hits"] >= 3 * info["misses"]

    def test_cache_transparent(self):
        from repro.gpu.inference import step_time
        from repro.gpu.spec import RTX5090
        from repro.serve import get_recipe

        clear_step_time_cache()
        cfg = get_recipe("mxfp4")
        first = step_time(RTX5090, ARCH, cfg, [(8, 64)])
        again = step_time(RTX5090, ARCH, cfg, [(8, 64)])
        assert first == again
        assert step_time_cache_info()["hits"] == 1
        clear_step_time_cache()
        info = step_time_cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (0, 0, 0)
        # the sub-memos (attention pairs, row-count stacks) reset too
        for sub in ("attention", "rows"):
            assert (info[sub]["hits"], info[sub]["misses"], info[sub]["size"]) == (
                0, 0, 0,
            )
