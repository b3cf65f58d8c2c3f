"""One workload of the self-optimizing-loop benchmark, in its own process.

    python3 -m bench.loop --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client: campaign after
campaign goes through ``TransparentDeploySystem.run_simulation``, the
next one only after the previous returned, as ``SelfOptimizingLoop``
drives it.  A *pass* is a fresh seeded set-up followed by the
workload's fixed list of campaigns; passes repeat until ``--seconds`` is
used up (at least :data:`MIN_PASSES`), and every pass must reproduce the
first one's virtual-clock outcome exactly.  The result is one JSON
object on stdout; ``bench/run.py`` turns it into the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.benchlib.kb_builder import build_dataset
from repro.cloud.cluster import StarClusterManager
from repro.cloud.performance import PerformanceModel
from repro.cloud.provider import SimulatedEC2
from repro.cloud.spot import SpotMarketModel
from repro.core.deploy import DeployOutcome, TransparentDeploySystem
from repro.core.knowledge_base import KnowledgeBase, RunRecord
from repro.disar.eeb import ElementaryElaborationBlock
from repro.disar.master import DisarMasterService, ElaborationReport
from repro.ml import ALGORITHMS
from repro.workload.campaign import CampaignGenerator

from bench.spans import Span, Tracer, exclusive_seconds, installed, write_chrome_trace

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")

#: Candidate campaigns drawn per campaign kept.  The pool is cut into
#: equal strata by campaign size (:func:`campaign_size`) and the median
#: of each stratum is kept, so runs at different seeds do comparable
#: amounts of work.
POOL_FACTOR = 4
#: Passes per run at least: each campaign's time is its median over the
#: passes, so a burst of load from elsewhere on the machine does not
#: land in the percentiles, and set-up is timed this many times.
MIN_PASSES = 3
#: Campaigns of the first pass written to the Chrome trace file.
TRACE_FILE_CAMPAIGNS = 25
SPOT_HAZARD_PER_HOUR = 100.0
SPOT_TARGET_P = 0.9
#: Value iteration sums binomial probabilities, so a certified
#: P(deadline) may leave [0, 1] by rounding (seen: 1 + 4.4e-16); more
#: than this is a broken certificate.
PROBABILITY_SLACK = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    #: Seeded knowledge-base records loaded during set-up.
    kb_runs: int
    #: Distinct campaigns per pass.
    campaigns: int
    tmax_seconds: float
    retrain_every: int
    max_nodes: int = 8
    #: The paper's Section IV campaigns (``CampaignGenerator.paper_campaign()``,
    #: 3 portfolios, 15 EEBs) with the SCR computed and checked; otherwise
    #: one random block per campaign, planned and billed only.
    compute_results: bool = False
    #: Spot fleets through the certification gate, which forces the guard.
    spot: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("loop-retrain", kb_runs=60, campaigns=30, tmax_seconds=900.0, retrain_every=1),
        Workload(
            "loop-spot-guarded",
            kb_runs=40,
            campaigns=150,
            tmax_seconds=900.0,
            retrain_every=50,
            spot=True,
        ),
        Workload(
            "loop-paper-compute",
            kb_runs=40,
            campaigns=12,
            tmax_seconds=7200.0,
            retrain_every=25,
            max_nodes=2,
            compute_results=True,
        ),
        Workload(
            "loop-wide-select",
            kb_runs=1500,
            campaigns=40,
            tmax_seconds=900.0,
            retrain_every=10**9,
            max_nodes=32,
        ),
    )
}


@dataclass
class Inputs:
    records: list[RunRecord]
    campaigns: list[list[ElementaryElaborationBlock]]
    market_seed: int
    system_seed: int


def campaign_size(workload: Workload, blocks: list[ElementaryElaborationBlock]) -> float:
    """What a campaign's cost grows with in ``workload``: contract-years
    when the SCR is computed (valuation loops over contracts and years),
    otherwise the simulator's work units, which set the plan and the bill."""
    if workload.compute_results:
        return float(sum(len(b.contracts) * b.characteristic_parameters.max_horizon for b in blocks))
    return PerformanceModel().campaign_units(blocks)


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Knowledge-base records, campaigns and seeds, all from ``seed``."""
    kb_seed, campaign_seed, order_seed, market_seed, system_seed = (
        int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(5)
    )
    generator = CampaignGenerator(campaign_seed)
    pool = [
        generator.paper_campaign().blocks if workload.compute_results else [generator.random_block()]
        for _ in range(POOL_FACTOR * workload.campaigns)
    ]
    order = np.argsort([campaign_size(workload, blocks) for blocks in pool], kind="stable")
    picks = [int(stratum[len(stratum) // 2]) for stratum in np.array_split(order, workload.campaigns)]
    return Inputs(
        records=build_dataset(workload.kb_runs, seed=kb_seed).records,
        campaigns=[pool[i] for i in np.random.default_rng(order_seed).permutation(picks)],
        market_seed=market_seed,
        system_seed=system_seed,
    )


def build_system(workload: Workload, inputs: Inputs) -> TransparentDeploySystem:
    """The timed set-up: load the knowledge base, build, fit once."""
    knowledge_base = KnowledgeBase()
    for record in inputs.records:
        knowledge_base.add(record)
    market = (
        SpotMarketModel(seed=inputs.market_seed, base_hazard_per_hour=SPOT_HAZARD_PER_HOUR)
        if workload.spot
        else None
    )
    manager = StarClusterManager(
        provider=SimulatedEC2(seed=inputs.system_seed, spot_market=market),
        seed=inputs.system_seed,
    )
    system = TransparentDeploySystem(
        cluster_manager=manager,
        knowledge_base=knowledge_base,
        max_nodes=workload.max_nodes,
        # Exploration is off so the virtual-clock metrics follow Algorithm
        # 1's argmin, not its epsilon-greedy coin.  The spot workload keeps
        # the paper's 0.05: the provider spares a fleet's last node, so
        # only explored multi-node fleets can be reclaimed.
        epsilon=0.05 if workload.spot else 0.0,
        retrain_every=workload.retrain_every,
        seed=inputs.system_seed,
    )
    system.retrain()
    return system


def scr_digest(report: ElaborationReport) -> str:
    """SHA-256 over every block's SCR bits, in block-id order."""
    text = ";".join(
        f"{eeb_id}:{float(report.alm_results[eeb_id].scr_report.scr).hex()}"
        for eeb_id in sorted(report.alm_results)
    )
    return hashlib.sha256(text.encode()).hexdigest()


def serial_digests(campaigns: list[list[ElementaryElaborationBlock]]) -> list[str]:
    """Reference SCR digests: one unit, serial backend."""
    return [
        scr_digest(DisarMasterService().execute(blocks, n_units=1, backend="serial"))
        for blocks in campaigns
    ]


def reference_digests(workload: Workload, seed: int) -> list[str]:
    """:func:`serial_digests` of every campaign, computed before timing
    starts by one worker process per core, each on every n-th campaign."""
    parts = max(1, min(os.cpu_count() or 1, workload.campaigns))
    command = [
        sys.executable, "-m", "bench.loop",
        "--workload", workload.name,
        "--seed", str(seed),
        "--seconds", "0",
        "--campaigns", str(workload.campaigns),
    ]
    workers = [
        subprocess.Popen([*command, "--reference-part", f"{part}/{parts}"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        for part in range(parts)
    ]
    outputs = [worker.communicate()[0] for worker in workers]
    digests = [""] * workload.campaigns
    for part, (worker, output) in enumerate(zip(workers, outputs)):
        if worker.returncode != 0:
            raise RuntimeError(f"reference worker {part}/{parts} exited with status {worker.returncode}")
        digests[part::parts] = json.loads(output)
    return digests


def virtual_record(outcome: DeployOutcome) -> tuple:
    """Everything the virtual clock decided for one campaign, exactly."""
    choice = outcome.choice
    return (
        choice.instance_type.api_name,
        choice.n_nodes,
        outcome.market,
        outcome.n_rescues,
        outcome.n_reclaims,
        *(
            float(value).hex()
            for value in (
                outcome.measured_seconds,
                outcome.cost_usd,
                choice.predicted_seconds,
                outcome.wasted_cost_usd,
                outcome.certified_p_deadline,
            )
        ),
    )


def check(workload: Workload, outcome: DeployOutcome, kb_grew: bool, digest: str | None, reference: str | None) -> list[str]:
    problems = []
    if not (math.isfinite(outcome.measured_seconds) and outcome.measured_seconds > 0):
        problems.append(f"measured seconds {outcome.measured_seconds}")
    if not (math.isfinite(outcome.cost_usd) and outcome.cost_usd > 0):
        problems.append(f"cost {outcome.cost_usd}")
    if not kb_grew:
        problems.append("knowledge base did not grow by one record")
    if workload.spot and not -PROBABILITY_SLACK <= outcome.certified_p_deadline <= 1.0 + PROBABILITY_SLACK:
        problems.append(f"certified P(deadline) {outcome.certified_p_deadline}")
    if digest != reference:
        problems.append(f"SCR digest {digest} != serial reference {reference}")
    return problems


@dataclass
class Pass:
    setup_s: float
    loop_s: float = 0.0
    iter_s: list[float] = field(default_factory=list)
    #: Per campaign; ``None`` where the campaign raised.
    outcomes: list[DeployOutcome | None] = field(default_factory=list)
    scr: list[str | None] = field(default_factory=list)
    failed: dict[int, list[str]] = field(default_factory=dict)
    traced: bool = False

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.loop_s


def run_pass(workload: Workload, inputs: Inputs, reference: list[str] | None, tracer: Tracer | None) -> Pass:
    gc.collect()  # every pass starts from a collected heap
    if tracer is not None:
        tracer.trace = "setup"
    start = time.perf_counter()
    system = build_system(workload, inputs)
    result = Pass(setup_s=time.perf_counter() - start, traced=tracer is not None)
    kwargs = {
        "compute_results": workload.compute_results,
        "market": "spot" if workload.spot else "on_demand",
        "verify_deadline_p": SPOT_TARGET_P if workload.spot else None,
    }
    kb_size = len(system.knowledge_base)
    loop_start = time.perf_counter()
    for index, blocks in enumerate(inputs.campaigns):
        if tracer is not None:
            tracer.trace = index
        call_start = time.perf_counter()
        try:
            outcome = system.run_simulation(blocks, workload.tmax_seconds, **kwargs)
        except Exception:  # a failed campaign is counted; the loop goes on
            traceback.print_exc()
            result.iter_s.append(time.perf_counter() - call_start)
            result.failed[index] = ["raised"]
            result.outcomes.append(None)
            result.scr.append(None)
            kb_size = len(system.knowledge_base)
            continue
        result.iter_s.append(time.perf_counter() - call_start)
        grown = len(system.knowledge_base)
        digest = scr_digest(outcome.report) if workload.compute_results else None
        problems = check(
            workload,
            outcome,
            grown == kb_size + 1,
            digest,
            reference[index] if reference is not None else None,
        )
        kb_size = grown
        # The report (per-block ALM results) is dropped once digested:
        # kept alive, it makes later passes' garbage collections slower.
        result.outcomes.append(replace(outcome, report=None))
        result.scr.append(digest)
        if problems:
            result.failed[index] = problems
    result.loop_s = time.perf_counter() - loop_start
    return result


class LayerTotals:
    """Self time, calls and span values per span name over the campaigns
    of the traced passes (set-up spans are left out)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self.evaluate_all_in_runtime_s = 0.0
        self.runtime_s = 0.0

    def add(self, spans: list[Span]) -> None:
        spans = [span for span in spans if isinstance(span.trace, int)]
        for name, seconds in exclusive_seconds(spans).items():
            self.seconds[name] += seconds
        by_id = {span.id: span for span in spans}
        for span in spans:
            self.calls[span.name] += 1
            self.values[span.name] += span.value
            if span.name == "runtime.run":
                self.runtime_s += span.end - span.start
            elif span.name == "core.evaluate_all":
                parent = by_id.get(span.parent)
                while parent is not None and parent.name != "runtime.run":
                    parent = by_id.get(parent.parent)
                if parent is not None:
                    self.evaluate_all_in_runtime_s += span.end - span.start

    def metrics(self, n_campaigns: int) -> dict[str, float]:
        def per(name: str) -> float:
            return self.seconds.get(name, 0.0) / n_campaigns

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        predicts = [f"ml.predict.{name}" for name in ALGORITHMS]
        metrics = {}
        for name in ALGORITHMS:
            metrics[f"ml.fit.{name}.s"] = per(f"ml.fit.{name}")
            metrics[f"ml.predict.{name}.s"] = per(f"ml.predict.{name}")
        metrics.update(
            {
                "ml.predict.calls": sum(self.calls[name] for name in predicts) / n_campaigns,
                "ml.predict.rows": sum(self.values[name] for name in predicts) / n_campaigns,
                "core.retrain.s": per("core.retrain"),
                "core.retrain.calls": self.calls["core.retrain"] / n_campaigns,
                "core.kb.training_matrices.s": per("core.kb.training_matrices"),
                "core.kb.add.s": per("core.kb.add"),
                "core.select.s": per("core.select"),
                "core.evaluate_all.s": per("core.evaluate_all"),
                "core.evaluate_all.calls_per_campaign": self.calls["core.evaluate_all"] / n_campaigns,
                "core.run_simulation.self_s": per("core.run_simulation"),
                "runtime.run.self_s": per("runtime.run"),
                "runtime.evaluate_all_share": ratio(self.evaluate_all_in_runtime_s, self.runtime_s),
                "spot.verify.self_s": per("spot.verify"),
                "spot.mdp.solve.s": per("spot.mdp.solve"),
                "spot.mdp.states_per_solve": ratio(self.values["spot.mdp.solve"], self.calls["spot.mdp.solve"]),
                "spot.demotion_rate": ratio(self.values["spot.verify"], self.calls["spot.verify"]),
                "cloud.run_campaign.self_s": per("cloud.run_campaign"),
                "disar.execute.self_s": per("disar.execute"),
                "disar.blocks_per_campaign": self.values["disar.execute"] / n_campaigns,
                "montecarlo.lsmc.s": per("montecarlo.lsmc"),
                "montecarlo.inner_paths_per_s": ratio(self.values["montecarlo.lsmc"], self.seconds.get("montecarlo.lsmc", 0.0)),
            }
        )
        return metrics


def outcome_metrics(workload: Workload, outcomes: list[DeployOutcome | None]) -> dict[str, float]:
    """Virtual-clock metrics of one pass (every pass has the same ones)."""
    done = [outcome for outcome in outcomes if outcome is not None]
    if not done:
        return {}
    errors = [
        abs(outcome.prediction_error_seconds)
        for outcome in done
        if not outcome.bootstrap and math.isfinite(outcome.choice.predicted_seconds)
    ]
    spent = sum(outcome.cost_usd for outcome in done)
    return {
        "deadline_compliance": statistics.fmean(o.measured_seconds <= workload.tmax_seconds for o in done),
        "cost_usd_per_campaign": spent / len(done),
        "ml.pred_mae_s": statistics.fmean(errors) if errors else 0.0,
        "runtime.rescue_rate": statistics.fmean(o.n_rescues > 0 for o in done),
        "runtime.wasted_cost_frac": sum(o.wasted_cost_usd for o in done) / spent,
        "cloud.reclaims_per_campaign": statistics.fmean(o.n_reclaims for o in done),
    }


def digest_of(parts: list[str]) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def golden_problem(workload: Workload, seed: int, digest: str) -> str | None:
    entry = json.loads(GOLDEN.read_text()).get(workload.name)
    if entry is None or (entry["seed"], entry["campaigns"]) != (seed, workload.campaigns):
        return None
    if entry["scr_digest"] != digest:
        return f"SCR digest {digest} != golden {entry['scr_digest']}"
    return None


def run(workload: Workload, seed: int, seconds: float, traced: bool, trace_file: str | None = None) -> dict:
    """Run ``workload`` for about ``seconds``; the raw result document.

    Traced runs alternate untraced and traced passes, so the tracing
    overhead compares passes measured side by side.
    """
    inputs = make_inputs(workload, seed)
    reference = reference_digests(workload, seed) if workload.compute_results else None
    tracer = Tracer()
    totals = LayerTotals()
    passes: list[Pass] = []
    while True:
        tracing = traced and len(passes) % 2 == 1
        with installed(tracer) if tracing else nullcontext():
            passes.append(run_pass(workload, inputs, reference, tracer if tracing else None))
        if tracing:
            spans = tracer.drain()
            totals.add(spans)
            if trace_file is not None and len(passes) == 2:
                write_chrome_trace(
                    trace_file,
                    [s for s in spans if not isinstance(s.trace, int) or s.trace < TRACE_FILE_CAMPAIGNS],
                )
        if len(passes) >= max(MIN_PASSES, round(seconds / passes[0].wall_s)):
            break
    plain = [p for p in passes if not p.traced]

    first = passes[0]
    expected = [virtual_record(o) if o is not None else None for o in first.outcomes]
    failures: list[str] = []
    failed: set[object] = set()
    for number, p in enumerate(passes):
        for index, outcome in enumerate(p.outcomes):
            problems = list(p.failed.get(index, []))
            if outcome is not None and virtual_record(outcome) != expected[index]:
                problems.append("virtual-clock outcome differs from the first pass")
            if problems:
                failed.add((number, index))
                failures.extend(f"pass {number} campaign {index}: {problem}" for problem in problems)
    scr = digest_of([d for d in first.scr if d is not None]) if workload.compute_results else None
    mismatch = golden_problem(workload, seed, scr) if scr is not None else None
    if mismatch is not None:
        failed.add("golden")
        failures.append(mismatch)

    attempted = len(passes) * workload.campaigns
    n_failed = min(attempted, len(failed))

    def loop_s_per_campaign(group: list[Pass]) -> float:
        return statistics.median(p.loop_s / workload.campaigns for p in group)

    # Virtual-clock metrics in both modes; bench/run.py keeps the ones
    # BENCHMARK.json declares for the mode.
    metrics = outcome_metrics(workload, first.outcomes)
    if traced:
        layered = [p for p in passes if p.traced]
        metrics.update(totals.metrics(len(layered) * workload.campaigns))
        metrics["trace.iter_s"] = sum(p.loop_s for p in layered) / (len(layered) * workload.campaigns)
        metrics["trace.overhead_frac"] = loop_s_per_campaign(layered) / loop_s_per_campaign(plain) - 1.0
    else:
        per_campaign = [statistics.median(times) for times in zip(*(p.iter_s for p in plain))]
        metrics.update(
            {
                "campaigns_per_s": 1.0 / loop_s_per_campaign(plain),
                "iter_s_p50": statistics.median(per_campaign),
                "iter_s_p90": statistics.quantiles(per_campaign, n=10)[8],
                "setup_s": statistics.median(p.setup_s for p in plain),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": (attempted - n_failed) / attempted,
            }
        )
    return {
        "workload": workload.name,
        "seed": seed,
        "campaigns_per_pass": workload.campaigns,
        "numpy": np.__version__,
        "attempted": attempted,
        "failed": n_failed,
        "failures": failures,
        "plan_digest": digest_of(
            [f"{o.choice.instance_type.api_name}:{o.choice.n_nodes}:{o.market}" for o in first.outcomes if o is not None]
        ),
        "scr_digest": scr,
        "passes": [
            {"traced": p.traced, "setup_s": p.setup_s, "loop_s": p.loop_s, "iter_s": p.iter_s} for p in passes
        ],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", help="Chrome trace-event JSON to write (traced runs)")
    parser.add_argument("--campaigns", type=int, help="override the campaigns per pass (smoke runs)")
    parser.add_argument("--reference-part", help="K/N: print the serial reference digests of campaigns K, K+N, ...")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    if args.campaigns is not None:
        workload = replace(workload, campaigns=args.campaigns)
    if args.reference_part is not None:
        part, parts = (int(n) for n in args.reference_part.split("/"))
        print(json.dumps(serial_digests(make_inputs(workload, args.seed).campaigns[part::parts])))
        return 0
    result = run(workload, args.seed, args.seconds, bool(args.trace), args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
