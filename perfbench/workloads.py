"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``setup`` (the program
receives only the generated requests or token batches), then repeats one
*iteration* — the unit the benchmark times — until the run's time is up:

* fleets (``steady``, ``chat-disagg``): one replay of the seeded trace
  through a freshly built fleet, with the process-global ``step_time``
  memo cleared first (every fresh CLI process pays that cold cache);
* ``numeric-ppl``: one scored 16 x 128 batch under one recipe;
* ``numeric-decode``: one ``ServingEngine.step()`` of a closed batch.

Every iteration's outputs are kept for the correctness checks, and an
iteration that raises counts all of its operations as failed while the
run carries on.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.gpu.inference import clear_step_time_cache, step_time_cache_info
from repro.models import zoo
from repro.models.zoo import ARCHS, get_corpus, load_model
from repro.nn.tensor import no_grad
from repro.serve import (
    QuantRecipe,
    Request,
    ServingCluster,
    ServingEngine,
    chat_workload,
    make_workload,
)

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: SLO behind the goodput figure: a request's tokens count only when its
#: TTFT <= 0.5 s and its TPOT <= 50 ms (simulated seconds).
TTFT_SLO_S = 0.5
TPOT_SLO_S = 0.05

MODEL = "llama-3.1-8b-sim"
CORPUS = "wiki2-sim"
PPL_RECIPES = ("mxfp4", "mxfp4+")
PPL_BATCH, PPL_SEQ = 16, 128
#: Candidate ``Corpus.val_batch`` offsets; a seed scores PPL_OFFSETS of them.
PPL_POOL = tuple(range(0, 9600, 400))
PPL_OFFSETS = 4
#: Relative tolerance on a batch's perplexity against the stored reference.
PPL_RTOL = 1e-6
#: Candidate decode prompts: PROMPT_LEN tokens of the validation stream at
#: ``j * PROMPT_STRIDE``; a seed decodes DECODE_REQUESTS of them.
PROMPT_POOL, PROMPT_STRIDE, PROMPT_LEN = 48, 200, 32
DECODE_REQUESTS, DECODE_NEW_TOKENS, DECODE_MAX_BATCH = 12, 20, 2
#: Below this share of reference-equal greedy tokens the decode is wrong.
MIN_TOKEN_MATCH = 0.9


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def response_checks(name: str, requests, responses) -> list[str]:
    """Every request answered exactly once, with its full output budget and
    ``arrival <= first token <= finish``."""
    errors = []
    ids = [r.request_id for r in responses]
    if sorted(ids) != sorted(r.request_id for r in requests) or len(set(ids)) != len(ids):
        errors.append(f"{name}: responses do not answer each request exactly once")
    budget = {r.request_id: r.max_new_tokens for r in requests}
    for r in responses:
        if r.output_len != budget.get(r.request_id):
            errors.append(f"{name}: {r.request_id} output_len {r.output_len} != budget")
            break
        if not r.arrival_s <= r.first_token_s <= r.finish_s:
            errors.append(f"{name}: {r.request_id} violates arrival <= first <= finish")
            break
    return errors


def sim_metrics(responses, makespan_s: float) -> dict[str, float]:
    """Simulated-time latency and goodput figures of one served batch."""
    ttft = [r.ttft_s for r in responses]
    tpot = [r.tpot_s for r in responses]
    good = sum(
        r.output_len
        for r in responses
        if r.ttft_s <= TTFT_SLO_S and r.tpot_s <= TPOT_SLO_S
    )
    return {
        "sim_ttft_p50_s": percentile(ttft, 50),
        "sim_ttft_p99_s": percentile(ttft, 99),
        "sim_tpot_p50_s": percentile(tpot, 50),
        "sim_tpot_p99_s": percentile(tpot, 99),
        "sim_goodput_tok_s": good / makespan_s,
    }


def serving_figures(kv_stats, preemptions: int, n_requests: int) -> dict[str, float]:
    """Allocator, preemption and step-time-memo ratios of one served batch."""
    allocs = sum(k["allocations"] for k in kv_stats)
    failed = sum(k["failed_allocations"] for k in kv_stats)
    hits = sum(k["prefix_hits"] for k in kv_stats)
    misses = sum(k["prefix_misses"] for k in kv_stats)
    info = step_time_cache_info()
    lookups = info["hits"] + info["misses"]
    return {
        "serve.engine.preemptions_per_request": preemptions / n_requests,
        "gpu.inference.step_time.hit_ratio": info["hits"] / lookups if lookups else 0.0,
        "serve.kvcache.alloc_success_ratio": allocs / (allocs + failed) if allocs + failed else 0.0,
        "serve.kvcache.prefix_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def fleet_fingerprint(fleet) -> tuple:
    return (
        fleet.makespan_s,
        fleet.total_tokens,
        tuple(sorted(fleet.assignments.items())),
        tuple(sorted(fleet.decode_assignments.items())),
        tuple((r.request_id, r.first_token_s, r.finish_s, r.preemptions) for r in fleet.responses),
        tuple(
            (res.makespan_s, res.stages.prefill_s, res.stages.decode_s)
            for res in fleet.replica_results
        ),
    )


class Workload:
    """Shared run bookkeeping; subclasses fill in setup/iterate/checks."""

    name = ""

    def __init__(self) -> None:
        self.iter_s: list[float] = []  # host seconds per timed iteration
        self.tokens = 0  # tokens processed by successful iterations
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def setup(self, seed: int) -> dict[str, float]:
        raise NotImplementedError

    def timed_phase(self, seconds: float) -> float:
        """Iterate until ``seconds`` of wall time have passed (and at least
        ``min_iterations`` ran); returns the wall time spent."""
        t0 = time.perf_counter()
        n = 0
        while n < self.min_iterations() or time.perf_counter() - t0 < seconds:
            self.iteration()
            n += 1
        return time.perf_counter() - t0

    def min_iterations(self) -> int:
        return 1

    def iteration(self) -> None:
        raise NotImplementedError

    def pass_once(self) -> None:
        """A fixed amount of work (the traced run times one untraced and one
        traced pass): ``min_iterations`` iterations."""
        for _ in range(self.min_iterations()):
            self.iteration()

    def layer_figures(self) -> dict[str, float]:
        """Per-layer counts the program reports for the latest pass."""
        return {}

    def host_seconds(self) -> float:
        return float(sum(self.iter_s))

    def checks(self) -> list[str]:
        return list(self.errors)

    def report(self) -> dict[str, float]:
        """Workload-specific end-to-end figures (sim latency, quality)."""
        return {}


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
class FleetWorkload(Workload):
    """Open-loop trace replayed through a fresh fleet per iteration."""

    n_requests = 0

    def make_requests(self, seed: int) -> list[Request]:
        raise NotImplementedError

    def build(self):
        """A fresh fleet (and its tracer/metrics, if any)."""
        raise NotImplementedError

    def serve(self, cluster, extras):
        """The timed work of one iteration; returns the FleetResult."""
        return cluster.run(self.requests)

    def setup(self, seed: int) -> dict[str, float]:
        t0 = time.perf_counter()
        self.requests = self.make_requests(seed)
        t1 = time.perf_counter()
        self.build()
        self.reference = None  # (fleet, extras) of the first replay
        return {"generate_s": t1 - t0, "setup_s": time.perf_counter() - t0}

    def one_replay(self):
        """Build, run and time one replay; returns (cluster, fleet, extras, seconds)."""
        cluster, extras = self.build()
        clear_step_time_cache()
        gc.collect()
        t0 = time.perf_counter()
        fleet = self.serve(cluster, extras)
        return cluster, fleet, extras, time.perf_counter() - t0

    def iteration(self) -> None:
        self.attempted += len(self.requests)
        try:
            cluster, fleet, extras, dt = self.one_replay()
        except Exception as exc:  # a failed replay fails all its requests
            self.failed += len(self.requests)
            self.errors.append(f"{self.name}: replay raised {exc!r}")
            return
        self.iter_s.append(dt)
        self.tokens += fleet.total_tokens
        self.last = (cluster, fleet, extras)
        if self.reference is None:
            self.reference = (fleet, extras)
        elif fleet_fingerprint(fleet) != fleet_fingerprint(self.reference[0]):
            self.errors.append(f"{self.name}: replay differs from the first replay")

    def checks(self) -> list[str]:
        errors = list(self.errors)
        if self.reference is None:
            return errors + [f"{self.name}: no replay completed"]
        fleet, extras = self.reference
        errors.extend(response_checks(self.name, self.requests, fleet.responses))
        errors.extend(self.fleet_checks(fleet, extras))
        return errors

    def fleet_checks(self, fleet, extras) -> list[str]:
        return []

    def report(self) -> dict[str, float]:
        if self.reference is None:
            return {}
        fleet = self.reference[0]
        out = sim_metrics(fleet.responses, fleet.makespan_s)
        out["sim_requests_per_host_s"] = len(self.requests) * len(self.iter_s) / self.host_seconds()
        return out

    def layer_figures(self) -> dict[str, float]:
        cluster, fleet, _ = self.last
        out = serving_figures(
            [e.kv_cache.stats() for e in cluster.engines], fleet.preemptions, len(fleet.responses)
        )
        out["serve.kvcache.transfer_bytes_per_request"] = fleet.transfer_bytes_per_request
        return out


class Steady(FleetWorkload):
    """Unified 4-replica fleet at ~77% of simulated capacity, untraced."""

    name = "steady"
    n_requests = 5000
    rate_rps = 100.0
    #: Simulated seconds the last request may finish after the last
    #: arrival; a fleet over capacity grows its backlog far past this.
    backlog_bound_s = 5.0

    def make_requests(self, seed: int) -> list[Request]:
        return make_workload(self.n_requests, seed=seed, arrival="poisson", rate_rps=self.rate_rps)

    def build(self):
        cluster = ServingCluster(
            ARCHS["llama-2-13b"],
            "mxfp4+",
            n_replicas=4,
            router="round-robin",
            scheduler="prefill-first",
            kv_token_budget=262_144,
        )
        return cluster, None

    def fleet_checks(self, fleet, extras) -> list[str]:
        tail = fleet.makespan_s - max(r.arrival_s for r in self.requests)
        if tail > self.backlog_bound_s:
            return [f"steady: backlog drains {tail:.2f} s after the last arrival (over capacity)"]
        return []


class ChatDisagg(FleetWorkload):
    """Traced 2+2 disaggregated fleet on a bursty shared-prefix chat trace."""

    name = "chat-disagg"
    n_requests = 2000
    rate_rps = 40.0
    #: Flight-recorder cap (the newest events survive, the rest are dropped).
    trace_capacity = 200_000

    def make_requests(self, seed: int) -> list[Request]:
        return chat_workload(
            self.n_requests, n_prefixes=32, prefix_len=512, seed=seed,
            arrival="bursty", rate_rps=self.rate_rps,
        )

    def build(self, traced: bool = True):
        tracer = obs.Tracer(capacity=self.trace_capacity) if traced else None
        metrics = obs.MetricsRegistry(interval_s=1.0) if traced else None
        cluster = ServingCluster(
            ARCHS["llama-2-13b"],
            "mxfp4+",
            n_prefill=2,
            n_decode=2,
            router="prefix-affinity",
            decode_router="free-kv-at-arrival",
            page_budget_bytes=2 << 30,
            block_tokens=16,
            kv_transfer="pcie5",
            tracer=tracer,
            metrics=metrics,
        )
        return cluster, {"tracer": tracer, "metrics": metrics}

    def serve(self, cluster, extras):
        fleet = cluster.run(self.requests)
        extras["export"] = obs.chrome_trace(extras["tracer"].events(), extras["metrics"])
        return fleet

    def fleet_checks(self, fleet, extras) -> list[str]:
        errors = []
        try:
            obs.validate_chrome_trace(extras["export"])
        except ValueError as exc:
            errors.append(f"chat-disagg: chrome trace export invalid: {exc}")
        # Tracing must not perturb the simulation: an untraced fleet on the
        # same trace gives the identical result (checked once per run,
        # outside the timed iterations).
        untraced, _ = self.build(traced=False)
        clear_step_time_cache()
        if fleet_fingerprint(untraced.run(self.requests)) != fleet_fingerprint(fleet):
            errors.append("chat-disagg: traced fleet differs from the untraced fleet")
        return errors

    def layer_figures(self) -> dict[str, float]:
        out = super().layer_figures()
        tracer = self.last[2]["tracer"]
        out["obs.tracer.dropped_share"] = tracer.dropped / tracer.appended if tracer.appended else 0.0
        return out


# ----------------------------------------------------------------------
# Numeric workloads
# ----------------------------------------------------------------------
def load_numeric() -> tuple[dict[str, float], object, object]:
    """Model from ``.model_cache`` plus corpus, timed cold.

    ``load_model``/``get_corpus`` memoize in process-wide dicts; they are
    emptied first so each repetition pays the load a fresh process pays.
    """
    zoo._MODEL_CACHE.clear()
    zoo._CORPUS_CACHE.clear()
    t0 = time.perf_counter()
    model = load_model(MODEL)
    load_model_s = time.perf_counter() - t0
    return {"load_model_s": load_model_s}, model, get_corpus(CORPUS)


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


class NumericPPL(Workload):
    """Held-out perplexity under mxfp4 and mxfp4+ over seeded offsets."""

    name = "numeric-ppl"

    def setup(self, seed: int) -> dict[str, float]:
        t0 = time.perf_counter()
        times, self.model, corpus = load_numeric()
        rng = np.random.default_rng(seed)
        self.offsets = sorted(int(o) for o in rng.choice(PPL_POOL, PPL_OFFSETS, replace=False))
        contexts = {r: QuantRecipe.from_name(r).to_context() for r in PPL_RECIPES}
        self.work = [
            (off, recipe, corpus.val_batch(PPL_BATCH, PPL_SEQ, off), contexts[recipe])
            for off in self.offsets
            for recipe in PPL_RECIPES
        ]
        self.nll: dict[tuple, float] = {}
        self.n = 0
        times["setup_s"] = time.perf_counter() - t0
        return times

    def min_iterations(self) -> int:
        return len(self.work)

    def score(self, item) -> float:
        _off, _recipe, tokens, qc = item
        with no_grad():
            return self.model.loss(tokens, qc).item()

    def iteration(self) -> None:
        item = self.work[self.n % len(self.work)]
        self.n += 1
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            nll = self.score(item)
            dt = time.perf_counter() - t0
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"numeric-ppl: batch raised {exc!r}")
            return
        self.iter_s.append(dt)
        self.tokens += PPL_BATCH * PPL_SEQ
        self.record(item, nll)

    def record(self, item, nll: float) -> None:
        key = item[:2]
        if key not in self.nll:
            self.nll[key] = nll
        elif self.nll[key] != nll:
            self.errors.append(f"numeric-ppl: batch {key} scored differently on repeat")

    def ppl(self, recipe: str) -> float:
        return float(np.exp(np.mean([self.nll[(o, recipe)] for o in self.offsets])))

    def checks(self) -> list[str]:
        errors = list(self.errors)
        if len(self.nll) < len(self.work):
            return errors + ["numeric-ppl: not every batch was scored"]
        ref = load_reference()["nll"]
        for (off, recipe), nll in sorted(self.nll.items()):
            want = ref[recipe][str(off)]
            if abs(np.exp(nll) / np.exp(want) - 1.0) > PPL_RTOL:
                errors.append(
                    f"numeric-ppl: {recipe} @ {off}: ppl {np.exp(nll):.6f} != reference {np.exp(want):.6f}"
                )
        if not self.ppl("mxfp4+") < self.ppl("mxfp4"):
            errors.append("numeric-ppl: ppl(mxfp4+) is not below ppl(mxfp4)")
        return errors

    def report(self) -> dict[str, float]:
        if len(self.nll) < len(self.work):
            return {}
        return {"ppl_mxfp4plus": self.ppl("mxfp4+"), "ppl_mxfp4": self.ppl("mxfp4")}


class NumericDecode(Workload):
    """Closed batch of greedy decodes through ``ServingEngine(model=...)``."""

    name = "numeric-decode"

    def setup(self, seed: int) -> dict[str, float]:
        t0 = time.perf_counter()
        times, self.model, corpus = load_numeric()
        rng = np.random.default_rng(seed)
        self.prompt_ids = sorted(int(j) for j in rng.choice(PROMPT_POOL, DECODE_REQUESTS, replace=False))
        self.requests = [
            Request(
                f"p{j:02d}",
                prompt_tokens=corpus.val[j * PROMPT_STRIDE : j * PROMPT_STRIDE + PROMPT_LEN],
                max_new_tokens=DECODE_NEW_TOKENS,
            )
            for j in self.prompt_ids
        ]
        self.engine = self.new_engine()
        times["setup_s"] = time.perf_counter() - t0
        self.results = []  # ServingResult of every completed batch
        self.batch_tokens = 0
        return times

    def new_engine(self) -> ServingEngine:
        engine = ServingEngine(
            ARCHS["llama-3.1-8b"], "mxfp4+", max_batch=DECODE_MAX_BATCH, model=self.model
        )
        for request in self.requests:
            engine.submit(request)
        return engine

    def timed_phase(self, seconds: float) -> float:
        # A run ends on its deadline but never before one closed batch has
        # completed, so the token check always has a full batch to read.
        # Tokens of the batch cut by the deadline count as generated.
        t0 = time.perf_counter()
        while not self.results or time.perf_counter() - t0 < seconds:
            self.iteration()
        self.attempted += self.batch_tokens
        self.tokens += self.batch_tokens
        self.batch_tokens = 0
        return time.perf_counter() - t0

    def pass_once(self) -> None:
        done = len(self.results) + self.failed
        while len(self.results) + self.failed == done:
            self.iteration()

    def iteration(self) -> None:
        try:
            t0 = time.perf_counter()
            event = self.engine.step()
            dt = time.perf_counter() - t0
        except Exception as exc:  # the whole batch's tokens fail
            budget = DECODE_REQUESTS * DECODE_NEW_TOKENS
            self.attempted += budget
            self.failed += budget
            self.errors.append(f"numeric-decode: step raised {exc!r}")
            self.engine.abort()
            self.batch_tokens = 0
            self.engine = self.new_engine()
            return
        self.iter_s.append(dt)
        self.batch_tokens += event.n_decode_rows
        if not self.engine.has_work():
            self.results.append(self.engine.collect(self.requests))
            self.attempted += self.batch_tokens
            self.tokens += self.batch_tokens
            self.batch_tokens = 0
            self.engine = self.new_engine()

    def token_match_rate(self) -> float:
        ref = load_reference()["tokens"]
        match = total = 0
        for result in self.results:
            for r in result.responses:
                want = ref[str(int(r.request_id[1:]))]
                got = [] if r.tokens is None else [int(t) for t in r.tokens]
                total += len(want)
                match += sum(a == b for a, b in zip(got, want))
        return match / total if total else 0.0

    def checks(self) -> list[str]:
        errors = list(self.errors)
        if not self.results:
            return errors + ["numeric-decode: no closed batch completed"]
        for result in self.results:
            errors.extend(response_checks(self.name, self.requests, result.responses))
        first = [list(r.tokens) for r in self.results[0].responses]
        if any([list(r.tokens) for r in res.responses] != first for res in self.results[1:]):
            errors.append("numeric-decode: a repeated batch decoded different tokens")
        rate = self.token_match_rate()
        if rate < MIN_TOKEN_MATCH:
            errors.append(f"numeric-decode: token match rate {rate:.3f} < {MIN_TOKEN_MATCH}")
        return errors

    def report(self) -> dict[str, float]:
        if not self.results:
            return {}
        result = self.results[0]
        out = sim_metrics(result.responses, result.makespan_s)
        out["token_match_rate"] = self.token_match_rate()
        out["decode_step_ms_p50"] = percentile(self.iter_s, 50) * 1e3
        out["decode_step_ms_p90"] = percentile(self.iter_s, 90) * 1e3
        out["decode_step_samples"] = len(self.iter_s)
        return out

    def layer_figures(self) -> dict[str, float]:
        result = self.results[-1]
        return serving_figures([result.kv], result.preemptions, len(result.responses))


WORKLOADS = {w.name: w for w in (Steady, ChatDisagg, NumericPPL, NumericDecode)}
