"""One benchmark workload, run in one fresh interpreter by ``run.py``.

    python3 perfbench/workload.py --workload cold-heatmap --seed 1 \
        --seconds 11 --trace 0 --workdir DIR [--setup-only]

The process sets up (imports, warehouse open/migrate, input generation
and, for ``service-mix``, coordinator and worker boot), prints
``perfbench:ready``, runs one warm-up item that is excluded from timing,
runs the timed phase, checks the outputs and prints ``perfbench:result``
followed by one JSON object.  ``run.py`` turns that into the metrics.

With ``--trace 1`` the timed phase is replaced by one fixed unit of work
(one round) run untraced and with spans around every layer boundary, so
the exact counts repeat at a fixed seed and the difference between the
two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import math
import os
import queue
import signal
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import ScaledClock
from tracing import NullTracer, Tracer, cache_counts, counts, duration, install_layers

HERE = Path(__file__).resolve().parent
READY = "perfbench:ready"
RESULT = "perfbench:result "

#: The five CCA families every workload covers, and the one stack that
#: hosts all of them (xquic: every family, and the paper's CUBIC case study).
FAMILIES = ("cubic", "reno", "bbr", "bbr3", "gcc")
STACKS = ("xquic",)

#: cold-heatmap protocol: short trials keep one trial near 0.3 s of host
#: time, and one trial per side keeps a round (every cell once) near 8 s.
COLD_DURATION_S = 4.0
COLD_TRIALS = 1
#: warm-replay protocol: the benchmark suite's 100 s trials, so a cloud
#: holds 800 points at 10 ms RTT (one point per 10 RTTs, 10 % truncated
#: at each end); one trial per side keeps a cell near 0.3 s.
WARM_DURATION_S = 100.0
WARM_TRIALS = 1
#: Input sets, one per round in turn.  k-means runs until it converges,
#: so a cell's cost depends on its clouds; four sets of ten cells make a
#: run's cost depend less on the seed than one set replayed four times.
WARM_INPUTS = 4
#: service-mix protocol for fresh campaigns: one short trial per side,
#: so a run holds many distinct cells.
SERVICE_DURATION_S = 3.0
SERVICE_TRIALS = 1
#: The client's campaign cycle.  Resubmissions repeat the latest fresh
#: spec.  Two in three are resubmissions, so the median item is a
#: resubmission and the tail (p77 at 45 items) a fresh campaign.
SERVICE_CYCLE = ("fresh", "resubmit", "resubmit")
#: Fixed worker lease poll: the idle wait after an empty poll is at most
#: 20 ms instead of the default uniform 0-0.5 s.
SERVICE_POLL_S = 0.02
#: Steps in one round (and in the traced unit): one fresh campaign per
#: family, each followed by its resubmissions.
SERVICE_ROUND = len(SERVICE_CYCLE) * len(FAMILIES)
WORKER_NAME = "bench-worker"


def derive(seed: int, *labels) -> int:
    """A 32-bit seed derived from the benchmark seed and a label."""
    text = ":".join([str(seed), *map(str, labels)])
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def conditions():
    """One shallow (Fig 6b) and one deep (Fig 6a) buffer condition."""
    from repro.harness import scenarios

    return (scenarios.shallow_buffer(), scenarios.deep_buffer())


def same(a: float, b: float) -> bool:
    """Bit-equal floats, NaN equal to NaN."""
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


def result_values(r) -> dict:
    """The values ``ResultStore.record_measurement`` stores for a
    ``ConformanceResult``."""
    return {
        "conf": r.conformance,
        "conf_t": r.conformance_t,
        "conf_old": r.conformance_legacy,
        "delta_tput_mbps": r.delta_throughput_mbps,
        "delta_delay_ms": r.delta_delay_ms,
        "k_test": float(r.test_envelope.k),
        "k_ref": float(r.reference_envelope.k),
    }


def cell_blocks(block) -> list:
    """One heatmap call per (family, condition): one round of the unit."""
    return [
        functools.partial(block, condition, family)
        for family in FAMILIES
        for condition in conditions()
    ]


def import_time_s(env) -> float:
    """Median wall time of a fresh interpreter importing the worker entry point."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli, repro.fabric.worker"],
            env=env,
            check=True,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Workload:
    """Shared skeleton: a unit of work is a list of blocks, each a call
    into the program that yields timed items."""

    name = ""
    #: Worker spawn to first heartbeat (service-mix only).
    worker_ready_s = 0.0

    def __init__(self, args):
        self.args = args
        self.workdir = Path(args.workdir).resolve()
        self.tracer = NullTracer()
        self.samples = []
        self.clock = None
        self.failures = []
        self.extra = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    def timed(self, seconds: float) -> float:
        """Run whole rounds (every block once, in order) until the busy
        time, scaled to the reference host speed, reaches ``seconds``.  So
        every run holds the same item mix and, whatever the host's speed,
        the same number of rounds.  Returns the elapsed wall time."""
        gc.collect()
        self.clock = ScaledClock()
        start = time.perf_counter()
        while self.clock.so_far_s < seconds:
            for block in self.blocks():
                self.clocked(block)
        return time.perf_counter() - start

    def clocked(self, block) -> None:
        """Run one block and add its busy time and items to the clock."""
        first = len(self.samples)
        start = time.perf_counter()
        block()
        self.clock.add(time.perf_counter() - start, self.samples[first:])

    def traced(self) -> dict:
        """The unit once more, block by block: each block untraced, then
        traced, so the host's drift cancels out of the overhead figure.
        A first untraced unit primes what later rounds reuse (the
        warehouse's page cache)."""
        for block in self.blocks():
            block()
        self.samples = []
        tracer = Tracer()
        phases = {"untraced_s": 0.0, "traced_s": 0.0}
        for block in self.blocks():
            for phase in phases:
                self.tracer = tracer if phase == "traced_s" else NullTracer()
                if phase == "traced_s":
                    install_layers(tracer)
                gc.collect()
                start = time.perf_counter()
                block()
                phases[phase] += time.perf_counter() - start
                tracer.uninstall()
        install_layers(tracer)
        self.trace_setup()
        tracer.uninstall()
        self.check()
        return phases

    def trace_setup(self) -> None:
        """Layer calls of the set-up path to trace besides the unit."""

    # subclasses ---------------------------------------------------------
    def setup(self) -> None: ...
    def warmup(self) -> None: ...
    def blocks(self): ...
    def check(self) -> None: ...
    def teardown(self) -> None: ...


# ---------------------------------------------------------------------------
# cold-heatmap


class ColdHeatmap(Workload):
    """A reduced Fig 6 heatmap from an empty memory-only cache."""

    name = "cold-heatmap"

    def setup(self):
        from repro.harness.cache import ResultCache
        from repro.harness.config import ExperimentConfig
        from repro.harness.conformance import conformance_heatmap
        from repro.store import ResultStore

        self.heatmap = conformance_heatmap
        self.config = ExperimentConfig(
            duration_s=COLD_DURATION_S,
            trials=COLD_TRIALS,
            seed=derive(self.args.seed, "cold"),
        )
        self.store = ResultStore(self.workdir / "warehouse.db")
        self.digests = {}
        self.blocks_run = 0
        workload = self

        class TrialTimer(ResultCache):
            """Memory-only cache that times each simulated trial (the item)."""

            def __init__(self):
                super().__init__(directory=None)
                self.clouds = []

            def get_or_compute(self, key, compute):
                def timed():
                    start = time.perf_counter()
                    value = compute()
                    workload.samples.append(time.perf_counter() - start)
                    self.clouds.append((key, value))
                    return value

                return super().get_or_compute(key, timed)

        self.cache_class = TrialTimer

    def warmup(self):
        from repro.harness.runner import Impl, reference_impl, sampled_points

        config = type(self.config)(
            duration_s=COLD_DURATION_S,
            trials=1,
            seed=derive(self.args.seed, "cold-warmup"),
        )
        sampled_points(
            Impl(STACKS[0], FAMILIES[0]), reference_impl(FAMILIES[0]),
            conditions()[0], config, 0, cache=self.cache_class(),
        )
        self.samples.clear()

    def blocks(self):
        return cell_blocks(self.block)

    def block(self, condition, family):
        cache = self.cache_class()
        label = condition.describe()
        with self.tracer.span("harness.conformance_heatmap", condition=label, cca=family) as attrs:
            cells = self.heatmap(
                condition, self.config, ccas=(family,), stacks=STACKS,
                cache=cache, store=self.store, store_run=f"cold:{label}",
            )
            attrs["counts"] = cache_counts(cache.counters())
        self.blocks_run += 1
        expected = {(stack, family) for stack in STACKS}
        if set(cells) != expected:
            self.fail(f"{label}: cells {sorted(cells)} != {sorted(expected)}")
        digest = hashlib.sha256()
        for key, cloud in sorted(cache.clouds, key=lambda kv: kv[0]):
            digest.update(key.encode())
            digest.update(cloud.tobytes())
        for cell in sorted(cells):
            values = result_values(cells[cell].result)
            for name in ("conf", "conf_t", "conf_old"):
                if not 0.0 <= values[name] <= 1.0:
                    self.fail(f"{label} {cell} {name}={values[name]} outside [0, 1]")
            digest.update(repr((cell, sorted(values.items()))).encode())
        first = self.digests.setdefault(f"{label}/{family}", digest.hexdigest())
        if first != digest.hexdigest():
            self.fail(f"{label}/{family}: replayed cell differs from the first one")

    def check(self):
        self.extra["digest"] = hashlib.sha256(
            json.dumps(self.digests, sort_keys=True).encode()
        ).hexdigest()
        self.extra["blocks"] = self.blocks_run

    def teardown(self):
        self.store.close()


# ---------------------------------------------------------------------------
# warm-replay


class WarmReplay(Workload):
    """The same heatmap replayed from warehouse-held point clouds."""

    name = "warm-replay"

    def setup(self):
        import numpy as np

        from repro.core.conformance import evaluate_conformance
        from repro.harness.config import ExperimentConfig
        from repro.harness.conformance import conformance_heatmap, measure_conformance
        from repro.harness.runner import Impl, reference_impl, trial_identity
        from repro.store import ResultStore, StoreCache

        workload = self

        class CellTimer(ResultStore):
            """The warehouse, stamping the end of every recorded cell."""

            mark = 0.0

            def record_measurement(self, run, measurement):
                row = super().record_measurement(run, measurement)
                now = time.perf_counter()
                workload.samples.append(now - self.mark)
                self.mark = now
                return row

        self.np = np
        self.evaluate = evaluate_conformance
        self.heatmap = conformance_heatmap
        self.measure = measure_conformance
        self.store_cache = StoreCache
        self.configs = [
            ExperimentConfig(
                duration_s=WARM_DURATION_S,
                trials=WARM_TRIALS,
                seed=derive(self.args.seed, "warm", index),
            )
            for index in range(WARM_INPUTS)
        ]
        self.rounds = 0
        self.warm_config = ExperimentConfig(
            duration_s=WARM_DURATION_S,
            trials=WARM_TRIALS,
            seed=derive(self.args.seed, "warm-warmup"),
        )
        self.store = CellTimer(self.workdir / "warehouse.db")
        rng = np.random.default_rng(derive(self.args.seed, "clouds"))
        cells = [
            (config, condition, index, cca)
            for config in self.configs
            for condition in conditions()
            for index, cca in enumerate(FAMILIES)
        ]
        cells.append((self.warm_config, conditions()[0], 0, FAMILIES[0]))
        self.keys = {}
        items = []
        for config, condition, index, cca in cells:
            reference = reference_impl(cca)
            layout = self.layout(rng, condition, modes=1 + index % 4)
            for stack in STACKS:
                impl = Impl(stack, cca)
                # The implementation runs a little deeper in the queue and
                # a little slower than its reference.
                shift = (
                    condition.rtt_ms * rng.normal(0.1, 0.01),
                    -condition.bandwidth_mbps * rng.normal(0.04, 0.005),
                )
                for test, offset in ((impl, shift), (reference, (0.0, 0.0))):
                    keys = []
                    for trial in range(config.trials):
                        _, key = trial_identity(test, reference, condition, config, trial)
                        keys.append(key)
                        items.append(
                            (key, self.cloud(rng, condition, config, layout, offset))
                        )
                    self.keys[(config.seed, condition, stack, cca, test == impl)] = keys
        self.store.put_trials(items)
        self.items = items
        self.results = {}

    def layout(self, rng, condition, modes):
        """Mode centres in (delay ms, throughput Mb/s), spread evenly from
        low-delay/high-throughput to high-delay/low-throughput, each
        jittered by the seed; the mode count and spacing are fixed, so a
        cell's analysis cost barely depends on the seed."""
        np = self.np
        steps = (np.arange(modes) + 0.5) / modes
        delay = condition.rtt_ms * (1.0 + 0.9 * condition.buffer_bdp * steps)
        tput = condition.bandwidth_mbps * (0.9 - 0.6 * steps)
        jitter = rng.normal(0.0, 0.02, (modes, 2))
        return np.column_stack([
            delay + jitter[:, 0] * condition.rtt_ms,
            tput + jitter[:, 1] * condition.bandwidth_mbps,
        ])

    def cloud(self, rng, condition, config, centres, offset):
        """One trial's sampled cloud, as many points as the sampling
        protocol yields for the configured duration."""
        np = self.np
        window_s = config.sampling.sample_rtts * condition.rtt_s
        kept = 1.0 - 2 * config.sampling.truncate_fraction
        points = int(round(config.duration_s * kept / window_s))
        mode = rng.integers(0, len(centres), size=points)
        spread = np.array([
            0.04 * condition.rtt_ms * condition.buffer_bdp,
            0.03 * condition.bandwidth_mbps,
        ])
        cloud = centres[mode] + np.asarray(offset) + rng.normal(0.0, 1.0, (points, 2)) * spread
        return np.clip(cloud, 0.1, None)

    def warmup(self):
        condition = conditions()[0]
        self.measure(
            STACKS[0], FAMILIES[0], condition, self.warm_config,
            cache=self.store_cache(self.store), store=self.store,
            store_run="warmup",
        )
        self.samples.clear()

    def blocks(self):
        config = self.configs[self.rounds % WARM_INPUTS]
        self.rounds += 1
        return cell_blocks(functools.partial(self.block, config))

    def block(self, config, condition, family):
        cache = self.store_cache(self.store)
        label = f"{config.seed}:{condition.describe()}"
        self.store.mark = time.perf_counter()
        with self.tracer.span("harness.conformance_heatmap", condition=label, cca=family) as attrs:
            cells = self.heatmap(
                condition, config, ccas=(family,), stacks=STACKS,
                cache=cache, store=self.store, store_run=f"warm:{label}",
            )
            attrs["counts"] = cache_counts(cache.counters())
        counters = cache.counters()
        if counters["misses"] or not counters["hits"]:
            self.fail(f"{label}/{family}: cache counters {counters} show simulated trials")
        values = {cell: result_values(m.result) for cell, m in cells.items()}
        first = self.results.setdefault(f"{label}/{family}", values)
        if repr(first) != repr(values):
            self.fail(f"{label}/{family}: replayed cell differs from the first one")

    def check(self):
        """Every stored cell equals a direct evaluate_conformance."""
        for config in self.configs[:self.rounds]:
            for condition in conditions():
                self.check_stored(config, condition)

    def check_stored(self, config, condition):
        label = f"{config.seed}:{condition.describe()}"
        stored = {}
        for row in self.store.query(run=f"warm:{label}"):
            stored.setdefault((row.stack, row.cca), {})[row.metric] = row.value
        for (stack, cca), got in sorted(stored.items()):
            trials = [
                [self.store.get_trial(k) for k in self.keys[(config.seed, condition, stack, cca, flag)]]
                for flag in (True, False)
            ]
            want = result_values(self.evaluate(trials[0], trials[1], config.envelope))
            if set(got) != set(want) or not all(same(got[k], want[k]) for k in want):
                self.fail(f"{label} {stack}/{cca}: stored {got} != direct {want}")
        self.extra["digest"] = hashlib.sha256(
            repr(sorted((k, sorted(v.items())) for k, v in self.results.items())).encode()
        ).hexdigest()

    def trace_setup(self):
        # Ingest the clouds once more, into a scratch warehouse, so the
        # set-up path (put_trials) is measured too.
        from repro.store import ResultStore

        with ResultStore(self.workdir / "ingest.db") as scratch:
            scratch.put_trials(self.items)

    def teardown(self):
        self.store.close()


# ---------------------------------------------------------------------------
# service-mix


class Fleet:
    """``repro fabric serve`` plus one ``repro fabric worker`` process."""

    def __init__(self, directory: Path, env: dict, trace_out=None):
        self.directory = directory
        self.env = env
        self.trace_out = trace_out
        self.procs = []
        self.url = ""
        self.worker_ready_s = 0.0

    def start(self, client_class) -> "Fleet":
        try:
            return self._start(client_class)
        except BaseException:
            self.stop()
            raise

    def _start(self, client_class) -> "Fleet":
        self.directory.mkdir(parents=True)
        self.db = self.directory / "store.db"
        serve_log = self.directory / "serve.log"
        self.procs.append(self._spawn(
            [sys.executable, "-m", "repro", "fabric", "serve",
             "--db", str(self.db), "--port", "0"],
            serve_log,
        ))
        self.url = self._await_url(serve_log)
        trace = [] if self.trace_out is None else ["--trace-out", str(self.trace_out)]
        spawned = time.perf_counter()
        self.procs.append(self._spawn(
            [sys.executable, str(HERE / "entry.py"), *trace, "--",
             "fabric", "worker", "--url", self.url, "--store", str(self.db),
             "--name", WORKER_NAME, "--poll", str(SERVICE_POLL_S)],
            self.directory / "worker.log",
        ))
        client = client_class(self.url)
        deadline = spawned + 120.0
        while not any(w["name"] == WORKER_NAME for w in client.fabric_workers()):
            self._alive()
            if time.perf_counter() > deadline:
                raise RuntimeError("worker never sent its first heartbeat")
            time.sleep(0.01)
        self.worker_ready_s = time.perf_counter() - spawned
        return self

    def _spawn(self, cmd, log_path):
        with open(log_path, "w") as log:
            return subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT,
                env=self.env, cwd=str(self.directory),
            )

    def _alive(self):
        for proc in self.procs:
            if proc.poll() is not None:
                raise RuntimeError(f"{proc.args[:5]} exited with {proc.returncode}")

    def _await_url(self, log_path: Path) -> str:
        deadline = time.perf_counter() + 120.0
        while time.perf_counter() < deadline:
            for line in log_path.read_text().splitlines():
                if "listening on " in line:
                    return line.split("listening on ", 1)[1].split()[0]
            self._alive()
            time.sleep(0.01)
        raise RuntimeError("fabric serve never printed its listening line")

    def stop(self) -> None:
        """SIGTERM the worker, then the coordinator; wait for both."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []


class ServiceMix(Workload):
    """A closed-loop client driving the fabric over real HTTP: one thread
    submits campaigns one at a time and follows each to ``done``, a
    second reads every finished run while the next campaign runs."""

    name = "service-mix"

    def setup(self):
        from repro.harness.config import ExperimentConfig, NetworkCondition
        from repro.harness.conformance import measure_conformance
        from repro.harness.runner import Impl, reference_impl, trial_identity
        from repro.service import ServiceClient, ServiceError

        self.client_class = ServiceClient
        self.service_error = ServiceError
        self.measure = measure_conformance
        self.config_class = ExperimentConfig
        self.condition = NetworkCondition(20.0, 10.0, 1.0)
        self.impl = Impl
        self.reference = reference_impl
        self.identity = trial_identity
        self.env = dict(os.environ)
        self.fresh_specs = []
        self.campaigns = []
        self.rejected = 0
        self.fleet = Fleet(self.workdir / "fleet", self.env).start(ServiceClient)
        self.worker_ready_s = self.fleet.worker_ready_s

    def spec(self, label) -> dict:
        """A fresh campaign: one cell, families in turn, its own seed."""
        seed = derive(self.args.seed, "service", label)
        family = FAMILIES[len(self.fresh_specs) % len(FAMILIES)]
        spec = {
            "kind": "conformance",
            "stacks": [STACKS[0]],
            "ccas": [family],
            "conditions": [{
                "bandwidth_mbps": self.condition.bandwidth_mbps,
                "rtt_ms": self.condition.rtt_ms,
                "buffer_bdp": self.condition.buffer_bdp,
            }],
            "duration_s": SERVICE_DURATION_S,
            "trials": SERVICE_TRIALS,
            "seed": seed,
            "run": f"mix-{seed}",
        }
        self.fresh_specs.append(spec)
        return spec

    def campaign(self, client, spec: dict, kind: str) -> None:
        """Submit and follow the event stream to the end (one item)."""
        start = time.perf_counter()
        while True:
            try:
                with self.tracer.span("service.submit", run=spec["run"]):
                    snapshot = client.submit(spec)
                break
            except self.service_error as exc:
                if exc.status != 429:
                    raise
                self.rejected += 1
                time.sleep(0.1)
        events = list(client.stream(snapshot["id"]))
        latency = time.perf_counter() - start
        self.samples.append(latency)
        self.campaigns.append({
            "kind": kind, "spec": spec, "submitted_at": snapshot["submitted_at"],
            "events": events, "latency_s": latency,
        })

    def reader(self, runs: "queue.Queue", errors: list) -> None:
        """Read every finished run's metrics.json and heatmap.svg."""
        client = self.client_class(self.fleet.url)
        while True:
            run = runs.get()
            if run is None:
                return
            try:
                with self.tracer.span("service.read", run=run):
                    rows = client.metrics(run)
                with self.tracer.span("service.read", run=run):
                    svg = client.heatmap_svg(run)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                errors.append(f"read {run}: {type(exc).__name__}: {exc}")
                continue
            if not rows or "<svg" not in svg:
                errors.append(f"read {run}: empty metrics or heatmap")

    def drive(self, steps=None, seconds=None) -> None:
        """Run the campaign cycle for ``steps`` items, or whole rounds of
        ``SERVICE_ROUND`` clocked items until the clock reads ``seconds``."""
        errors = []
        runs = queue.Queue()
        reader = threading.Thread(target=self.reader, args=(runs, errors))
        reader.start()
        try:
            client = self.client_class(self.fleet.url)
            fresh = None
            step = 0
            while steps is None or step < steps:
                if (seconds is not None and step % SERVICE_ROUND == 0
                        and self.clock.so_far_s >= seconds):
                    break
                kind = SERVICE_CYCLE[step % len(SERVICE_CYCLE)]
                if kind == "fresh":
                    fresh = self.spec(step)
                campaign = functools.partial(self.campaign, client, fresh, kind)
                if seconds is None:
                    campaign()
                else:
                    self.clocked(campaign)
                runs.put(fresh["run"])
                step += 1
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            errors.append(f"campaign: {type(exc).__name__}: {exc}")
        finally:
            runs.put(None)
            reader.join()
        for error in errors:
            self.fail(error)

    def warmup(self):
        self.campaign(self.client_class(self.fleet.url), self.spec("warmup"), "fresh")
        self.samples.clear()

    def timed(self, seconds: float) -> float:
        gc.collect()
        self.clock = ScaledClock()
        start = time.perf_counter()
        self.drive(seconds=seconds)
        return time.perf_counter() - start

    def traced(self) -> dict:
        steps = SERVICE_ROUND
        gc.collect()
        start = time.perf_counter()
        self.drive(steps=steps)
        untraced_s = time.perf_counter() - start
        self.check()
        self.fleet.stop()
        # The traced unit runs on a fresh fleet, into a fresh warehouse,
        # whose worker records spans from its first call; spans from
        # before the unit (its own warm-up) are dropped below.
        trace_out = self.workdir / "worker-trace.json"
        self.fleet = Fleet(self.workdir / "fleet-traced", self.env, trace_out)
        self.fleet.start(self.client_class)
        self.worker_ready_s = self.fleet.worker_ready_s
        self.fresh_specs, self.campaigns, self.rejected = [], [], 0
        self.warmup()
        self.campaigns = []
        self.tracer = Tracer()
        gc.collect()
        start = time.perf_counter()
        self.drive(steps=steps)
        traced_s = time.perf_counter() - start
        self.check()
        self.fleet.stop()
        worker = json.loads(trace_out.read_text())
        self.tracer.spans.extend(s for s in worker["spans"] if s["start"] >= start)
        return {"untraced_s": untraced_s, "traced_s": traced_s}

    def check(self):
        """Every campaign done; resubmissions simulate nothing and add no
        trial rows; one campaign equals a direct measure_conformance."""
        attempts = 0
        queue_wait, settle = [], []
        for campaign in self.campaigns:
            events, run = campaign["events"], campaign["spec"]["run"]
            states = [e for e in events if e["event"] == "state"]
            trials = [e for e in events if e["event"] == "trial"]
            running = [e for e in states if e["state"] == "running"]
            if not states or states[-1]["state"] != "done":
                self.fail(f"{run}: campaign ended {states[-1:]}")
                continue
            if campaign["kind"] == "resubmit" and any(
                e["status"] != "cached" for e in trials
            ):
                self.fail(f"{run}: resubmission simulated trials")
            attempts += len(running)
            if running:
                queue_wait.append(running[0]["time"] - campaign["submitted_at"])
            if trials:
                settle.append(states[-1]["time"] - trials[-1]["time"])
        expected = set()
        for spec in self.fresh_specs:
            config = self.config_class(
                duration_s=spec["duration_s"], trials=spec["trials"], seed=spec["seed"]
            )
            impl = self.impl(spec["stacks"][0], spec["ccas"][0])
            reference = self.reference(spec["ccas"][0])
            for test in (impl, reference):
                for trial in range(config.trials):
                    expected.add(
                        self.identity(test, reference, self.condition, config, trial)[1]
                    )
        with contextlib.closing(
            sqlite3.connect(f"file:{self.fleet.db}?mode=ro", uri=True)
        ) as conn:
            stored = {row[0] for row in conn.execute("SELECT key FROM trials")}
        if stored != expected:
            self.fail(
                f"warehouse holds {len(stored)} trial rows, fresh campaigns "
                f"account for {len(expected)}"
            )
        spec = next(c["spec"] for c in self.campaigns if c["kind"] == "fresh")
        direct = result_values(self.measure(
            spec["stacks"][0], spec["ccas"][0], self.condition,
            self.config_class(
                duration_s=spec["duration_s"], trials=spec["trials"], seed=spec["seed"]
            ),
        ).result)
        served = {
            row["metric"]: row["value"]
            for row in self.client_class(self.fleet.url).metrics(spec["run"])
        }
        if set(served) != set(direct) or not all(
            same(served[k], direct[k]) for k in direct
        ):
            self.fail(f"{spec['run']}: service {served} != direct {direct}")
        tasks = len(self.campaigns)
        if attempts != tasks:
            self.fail(f"{attempts} leases for {tasks} campaigns")
        if self.rejected:
            self.fail(f"{self.rejected} submissions refused with 429")
        self.extra.update({
            "fabric.queue_wait_s": statistics.fmean(queue_wait) if queue_wait else 0.0,
            "fabric.settle_s": statistics.fmean(settle) if settle else 0.0,
            "fabric.attempts_per_task": attempts / tasks if tasks else 0.0,
            "service.rejected": self.rejected,
        })
        for kind in ("fresh", "resubmit"):
            latencies = [c["latency_s"] for c in self.campaigns if c["kind"] == kind]
            self.extra[f"{kind}.count"] = len(latencies)
            self.extra[f"{kind}.median_s"] = (
                statistics.median(latencies) if latencies else 0.0
            )

    def teardown(self):
        self.fleet.stop()


WORKLOADS = {w.name: w for w in (ColdHeatmap, WarmReplay, ServiceMix)}


def layer_metrics(spans: list, extra: dict) -> dict:
    """The per-layer metrics from one traced unit's spans."""
    total = counts(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def mean_s(name):
        chosen = named(name)
        return sum(map(duration, chosen)) / len(chosen) if chosen else 0.0

    def rate(count, chosen):
        busy = sum(map(duration, chosen))
        return count / busy if busy else 0.0

    m = {}
    run_pair = named("netsim.run_pair")
    m["netsim.trial_s"] = mean_s("netsim.run_pair")
    m["netsim.packets_per_s"] = rate(total.get("netsim.packets", 0), run_pair)
    for family in FAMILIES:
        key = f"cca.{family}.packets"
        chosen = [s for s in run_pair if key in s["attrs"]["counts"]]
        m[f"cca.{family}.packets_per_s"] = rate(total.get(key, 0), chosen)
    for name in ("netsim.packets", "netsim.retransmissions", "core.points"):
        m[name] = total.get(name, 0)
    m["core.sample_s"] = mean_s("core.sample_points")
    m["core.conformance_s"] = mean_s("core.evaluate_conformance")
    hits = total.get("harness.cache_hits", 0)
    misses = total.get("harness.cache_misses", 0)
    m["harness.cache_hits"] = hits
    m["harness.cache_misses"] = misses
    m["harness.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["store.get_trial_s"] = mean_s("store.get_trial")
    m["store.put_trials_s"] = mean_s("store.put_trials")
    m["store.record_measurement_s"] = mean_s("store.record_measurement")
    store_ops = [s for s in spans if s["name"].startswith("store.")]
    m["store.ops_per_s"] = rate(len(store_ops), store_ops)
    m["service.submit_s"] = mean_s("service.submit")
    m["service.read_s"] = mean_s("service.read")
    for name in ("fabric.queue_wait_s", "fabric.settle_s",
                 "fabric.attempts_per_task", "service.rejected"):
        m[name] = extra.get(name, 0.0)
    m["startup.import_s"] = extra["startup.import_s"]
    m["exec.worker_ready_s"] = extra["exec.worker_ready_s"]
    m["trace.overhead_pct"] = extra["trace.overhead_pct"]
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None,
                        help="where a traced run writes its spans")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args)
    workload.setup()
    print(READY, flush=True)
    result = {"workload": args.workload}
    try:
        if args.setup_only:
            return 0
        workload.warmup()
        if args.trace:
            phases = workload.traced()
        else:
            result["elapsed_s"] = workload.timed(args.seconds)
            workload.check()
    finally:
        workload.teardown()
    result["samples"] = workload.samples
    if workload.clock is not None:
        result["clock"] = workload.clock.summary()
    result["failures"] = workload.failures
    result["extra"] = workload.extra
    if args.trace:
        extra = dict(workload.extra)
        extra["startup.import_s"] = import_time_s(dict(os.environ))
        extra["exec.worker_ready_s"] = workload.worker_ready_s
        extra["trace.overhead_pct"] = 100.0 * (
            phases["traced_s"] / phases["untraced_s"] - 1.0
        )
        result["phases"] = phases
        result["layers"] = layer_metrics(workload.tracer.spans, extra)
        workload.tracer.dump(
            args.trace_file, workload=args.workload, seed=args.seed, phases=phases,
            metrics=result["layers"],
        )
        result["trace_file"] = args.trace_file
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
