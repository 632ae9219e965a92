"""``serve_mixed``: open-loop traffic against a ``repro-sky serve`` process.

The server hosts karate, bombing_proxy and wikitalk_sim with default
knobs.  The seeded schedule sends blocks of 30 queries: 20 on
wikitalk_sim (16 skyline, 2 group with k 2-4, closeness or harmonic, 2
cliques with top_k 2 and 3) and 10 on the small graphs (mostly group),
so the skyline 6 / group 3 / clique 1 mix holds overall; each cost
class is spread evenly over a block.  Beside the queries,
``REGISTRATIONS`` ``POST /graphs`` calls add fresh aliases of a
``.rsky`` written during set-up, each followed by one query of every
kind on the new alias.  Arrivals are paced by cost: each request owns a
slot of its expected engine time over ``UTILIZATION`` and arrives at a
seeded point early in it, so the server is about that busy without
bursts, and a slower engine shows as queueing in the latencies.

An untimed warm-up query of every follow-up kind on every hosted graph
opens the run.  At most ``CONNECTIONS`` requests are in flight; a
request is sent at its scheduled time or as soon as a connection frees
up, and its latency is timed from the scheduled time.
``query_p50_ms``/``query_p90_ms`` are Harrell-Davis quantiles of the
window's latencies on wikitalk_sim, two thirds of the traffic: over
every query, the median fell in the gap between the small graphs'
millisecond answers and the heavy skylines and jumped between the two
from run to run (the small graphs' latencies are per-layer numbers).

The window takes ``WINDOW_SHARE`` of the run's seconds; the rest goes
to closed-loop probes of the heavy graph (``PROBES``, one request at a
time on one connection), whose medians per kind are this workload's
``skyline_s``, ``group_s`` and ``clique_s``.  Every 200 is checked
against a reference computed in-process before the window opens:
``lc_join`` for skylines, the block kernel's candidate count, the lazy
greedy's group and recomputed objective, and the base clique variant's
sizes.  No serving path runs a join, so this workload's ``join_s`` is
the median wall of ``JOIN_REPEATS`` in-process ``lc_join`` passes over
the hosted graphs, taken after the probes.

Every time is rescaled by calibration samples taken next to it (see
``common.local_factor``): the host's speed drifts within seconds.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from checks import CheckError, check_served, group_objective
from common import (
    ROOT,
    WORK,
    calibrate,
    hd_quantile,
    local_factor,
    median,
    peak_rss_mb,
    percentile,
    speed_factor,
    timed_calibration,
)
from metrics import UNITS, to_reference

HOSTED = ("karate", "bombing_proxy", "wikitalk_sim")
HEAVY = "wikitalk_sim"
#: Requests per block: 16 skyline, 2 group and 2 clique on the heavy
#: graph, 2 skyline, 7 group and 1 clique on the small ones — the
#: skyline 6 / group 3 / clique 1 mix overall, with the heavy graph's
#: engine time (and so the server's load) kept low and its skyline
#: answers, the median's cluster, numerous.
BLOCK = 30
#: The heavy graph's group queries cycle through these, two per block.
HEAVY_GROUPS = ((2, "closeness"), (4, "harmonic"), (3, "closeness"),
                (2, "harmonic"), (4, "closeness"), (3, "harmonic"))
#: Expected engine seconds per request on the reference host, by kind:
#: on the heavy graph, on a registered alias, and on the small graphs
#: (registrations cost as much).
HEAVY_COST = {"skyline": 0.15, "group": 0.6, "clique": 0.6}
FRESH_COST = {"skyline": 0.05, "group": 0.6, "clique": 0.05}
LIGHT_COST = 0.01
#: The server's target busy share.  A request's slot is its cost over
#: this (at least ``MIN_SLOT_S``) and it arrives in the first
#: ``1 - UTILIZATION`` of the slot, so at reference speed no request
#: waits for another; on a host whose speed drifts by up to 1.7x, a
#: jittered grid at a fixed rate queued requests behind one another by
#: chance and its latency percentiles spread 0.25-0.4 across seeds.
UTILIZATION = 0.4
MIN_SLOT_S = 0.1
CONNECTIONS = 2
REGISTRATIONS = 3
#: Share of the run's seconds given to the open-loop window; the
#: closed-loop probes get the rest.
WINDOW_SHARE = 0.6
#: One probe round, sent one request at a time to the otherwise idle
#: server.  Fixed parameters, so every sample of a kind is the same query.
PROBES = (
    {"graph": HEAVY, "kind": "skyline"},
    {"graph": HEAVY, "kind": "group", "k": 3, "measure": "closeness"},
    {"graph": HEAVY, "kind": "skyline"},
    {"graph": HEAVY, "kind": "clique", "top_k": 2},
)
PROBE_MIN_ROUNDS = 2
#: lc_join passes over the hosted graphs after the probes.
JOIN_REPEATS = 8
#: The queries that follow each registration, on its new alias.
FOLLOW = (
    {"kind": "skyline"},
    {"kind": "group", "k": 3, "measure": "closeness"},
    {"kind": "clique", "top_k": 2},
)
SETUP_REPEATS = 3
STARTUP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
#: Least time to the next send for an in-window speed sample.
CALIBRATION_SLACK_S = 0.05

#: The graph behind the registered aliases.
FRESH_N, FRESH_EXPONENT, FRESH_COPY, FRESH_HUBS, FRESH_SATELLITES = 2000, 2.6, 0.9, 2, 300


def make_fresh_graph(seed: int):
    from repro.graph.generators import copying_power_law
    from repro.workloads.synthetic import attach_hub_satellites

    backbone = copying_power_law(FRESH_N, FRESH_EXPONENT, FRESH_COPY, seed=seed)
    return attach_hub_satellites(backbone, FRESH_HUBS, FRESH_SATELLITES, seed=seed)


def cost(item: dict) -> float:
    """Expected engine seconds of a scheduled request."""
    if "register" in item:
        return LIGHT_COST
    query = item["payload"]
    if query["graph"] == HEAVY:
        return HEAVY_COST[query["kind"]]
    if query["graph"].startswith("fresh"):
        return FRESH_COST[query["kind"]]
    return LIGHT_COST


def slot(item: dict) -> float:
    return max(MIN_SLOT_S, cost(item) / UTILIZATION)


def schedule(seed: int, seconds: float) -> list[dict]:
    """The seeded request schedule, sorted by scheduled send time: as
    many whole blocks as fit in ``seconds`` beside the registrations
    (at least one), stretched to fill it."""
    rng = random.Random(seed)
    heavy = {"graph": HEAVY}
    block_s = (16 * slot({"payload": dict(heavy, kind="skyline")})
               + 2 * slot({"payload": dict(heavy, kind="group")})
               + 2 * slot({"payload": dict(heavy, kind="clique")})
               + 10 * slot({"payload": {"graph": "karate"}}))
    register_s = slot({"register": ""}) + sum(
        slot({"payload": dict(q, graph="fresh")}) for q in FOLLOW)
    blocks = max(1, int((seconds - REGISTRATIONS * register_s) // block_s))
    queries = []
    for b in range(blocks):
        block = [{"graph": HEAVY, "kind": "skyline"} for _ in range(16)]
        block += [{"graph": HEAVY, "kind": "group", "k": k, "measure": m}
                  for k, m in (HEAVY_GROUPS[(2 * b + j) % 6] for j in range(2))]
        block += [{"graph": HEAVY, "kind": "clique", "top_k": t} for t in (2, 3)]
        for graph, groups, cliques in (("karate", 4, 1), ("bombing_proxy", 3, 0)):
            block.append({"graph": graph, "kind": "skyline"})
            block += [{"graph": graph, "kind": "group", "k": rng.randint(2, 4),
                       "measure": rng.choice(("closeness", "harmonic"))}
                      for _ in range(groups)]
            block += [{"graph": graph, "kind": "clique", "top_k": rng.randint(1, 3)}
                      for _ in range(cliques)]
        queries += spread(block, rng)
    items = [{"payload": q} for q in queries]
    # Each registration and its follow-ups go in at a seeded point of
    # their share of the sequence (last first, so positions hold).
    for r in reversed(range(REGISTRATIONS)):
        alias = f"fresh{r}"
        at = round((r + 0.25 + 0.5 * rng.random()) * len(queries) / REGISTRATIONS)
        group = [{"register": alias}]
        group += [{"payload": dict(q, graph=alias), "after": alias} for q in FOLLOW]
        items[at:at] = group
    stretch = seconds / sum(slot(item) for item in items)
    start = 0.0
    for item in items:
        width = slot(item)
        item["at"] = (start + rng.random() * (1.0 - UTILIZATION) * width) * stretch
        start += width
    return items


def spread(block, rng):
    """``block`` in a seeded order that spreads each cost class evenly.

    Classes: heavy-graph group/clique, heavy-graph skyline, small
    graphs.  Each request gets the target ``(rank + U) / class size``
    within its shuffled class; sorting by target interleaves the
    classes, so expensive requests never bunch up by chance.
    """
    def cost_class(q):
        if q["graph"] != HEAVY:
            return 2
        return 1 if q["kind"] == "skyline" else 0

    keyed = []
    for c in (0, 1, 2):
        members = [q for q in block if cost_class(q) == c]
        rng.shuffle(members)
        keyed += [((i + rng.random()) / len(members), q) for i, q in enumerate(members)]
    keyed.sort(key=lambda pair: pair[0])
    return [q for _key, q in keyed]


def base_graph(name: str) -> str:
    return "fresh" if name.startswith("fresh") else name


def ref_key(payload: dict) -> tuple:
    params = tuple(sorted((k, v) for k, v in payload.items() if k != "graph"))
    return (base_graph(payload["graph"]),) + params


def references(graphs: dict, items) -> dict:
    """Reference answer per distinct query."""
    from repro import neighborhood_skyline
    from repro.clique import base_topk_mcc, mc_brb
    from repro.core.api import group_centrality_maximize

    refs, skylines = {}, {}
    for name, graph in graphs.items():
        joined = neighborhood_skyline(graph, "lc_join")
        block = neighborhood_skyline(graph, "filter_refine_block")
        skylines[name] = joined.skyline
        refs[ref_key({"graph": name, "kind": "skyline"})] = {
            "skyline": joined.skyline,
            "candidate_size": len(block.candidates),
        }
    # Greedy picks and top-k rounds are prefix-stable (the first k picks
    # do not depend on the requested k), so one reference per graph and
    # measure at the largest k, and per graph at the largest top_k,
    # answers every smaller query too.
    queries = [item["payload"] for item in items if "payload" in item]
    for name, graph in graphs.items():
        mine = [q for q in queries if base_graph(q["graph"]) == name]
        for measure in ("closeness", "harmonic"):
            ks = [q["k"] for q in mine if q["kind"] == "group" and q["measure"] == measure]
            if not ks:
                continue
            res = group_centrality_maximize(graph, max(ks), measure=measure,
                                            strategy="lazy", skyline=skylines[name])
            for k in set(ks):
                group = res.group[:k]
                refs[ref_key({"graph": name, "kind": "group", "k": k,
                              "measure": measure})] = {
                    "group": group,
                    "objective": group_objective(graph, group, measure),
                }
        top = [q["top_k"] for q in mine if q["kind"] == "clique"]
        if top:
            cliques = base_topk_mcc(graph, max(top)) if max(top) > 1 else []
            best = len(mc_brb(graph))
            for t in set(top):
                sizes = [best] if t == 1 else [len(c) for c in cliques[:t]]
                refs[ref_key({"graph": name, "kind": "clique", "top_k": t})] = {
                    "sizes": sizes}
    return refs


def join_wall(graphs) -> float:
    """Wall time of ``lc_join`` over every hosted graph, in reference-host
    seconds, each call rescaled by the samples taken right around it."""
    from repro import neighborhood_skyline

    total = 0.0
    before = calibrate()
    for graph in graphs.values():
        t0 = time.perf_counter()
        neighborhood_skyline(graph, "lc_join")
        dt = time.perf_counter() - t0
        after = calibrate()
        total += dt * speed_factor(before + after)
        before = after
    return total


def start_server(log_path):
    """Launch the server; returns (process, port, seconds to listening)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
    for name in HOSTED:
        cmd += ["--graph", name]
    t0 = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
    while True:
        with open(log_path) as fh:
            for line in fh:
                if line.startswith("serving on http://"):
                    port = int(line.split()[2].rsplit(":", 1)[1])
                    return proc, port, time.perf_counter() - t0
        if proc.poll() is not None or time.perf_counter() - t0 > STARTUP_TIMEOUT_S:
            stop_server(proc)
            raise RuntimeError(f"server did not start; see {log_path}")
        time.sleep(0.005)


def stop_server(proc) -> int:
    """SIGTERM, then wait; returns 1 if it had to be killed, else 0."""
    if proc.poll() is not None:
        return 0
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
        return 0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return 1


def http_call(port, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


def open_loop(port, items, rsky_path):
    """Fire ``items`` on schedule; returns (records, window start,
    ``(time, seconds)`` calibration samples taken in the window)."""
    registered = {item["register"]: threading.Event() for item in items if "register" in item}
    records = [None] * len(items)

    def fire(index, item, start):
        after = item.get("after")
        if after is not None:
            registered[after].wait(REQUEST_TIMEOUT_S)
        sent = time.perf_counter()
        try:
            if "register" in item:
                spec = f"{item['register']}={rsky_path}"
                status, doc = http_call(port, "POST", "/graphs", {"spec": spec})
                registered[item["register"]].set()
            else:
                status, doc = http_call(port, "POST", "/query", item["payload"])
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, doc = 0, {"error": repr(exc)}
        records[index] = {"sched": start + item["at"], "sent": sent,
                          "done": time.perf_counter(), "status": status, "doc": doc}

    start = time.perf_counter()
    samples = []
    with ThreadPoolExecutor(max_workers=CONNECTIONS) as pool:
        futures = []
        for index, item in enumerate(items):
            due = start + item["at"]
            # At most one speed sample per gap, taken once nothing is in
            # flight (so no request shares the CPU or the GIL with it).
            while due - time.perf_counter() > CALIBRATION_SLACK_S:
                if all(f.done() for f in futures):
                    samples.append(timed_calibration())
                    break
                time.sleep(0.005)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(fire, index, item, start))
        for future in futures:
            future.result()
    return records, start, samples


def warm_up(port) -> list[dict]:
    """One query of every follow-up kind on every hosted graph, untimed,
    so the window starts on a warm server; returns the records."""
    records = []
    for name in HOSTED:
        for query in FOLLOW:
            payload = dict(query, graph=name)
            try:
                status, doc = http_call(port, "POST", "/query", payload)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, doc = 0, {"error": repr(exc)}
            records.append({"payload": payload, "status": status, "doc": doc})
    return records


def probe(port, until: float) -> list[dict]:
    """Closed-loop rounds of ``PROBES`` while the next round is expected
    to end by ``until`` (at least ``PROBE_MIN_ROUNDS``).  Each record's
    ``ref_s`` is its latency rescaled by the samples taken just before
    and just after it."""
    records = []
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for payload in PROBES:
            before = calibrate()
            sent = time.perf_counter()
            try:
                status, doc = http_call(port, "POST", "/query", payload)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, doc = 0, {"error": repr(exc)}
            dt = time.perf_counter() - sent
            records.append({"payload": payload, "status": status, "doc": doc,
                            "ref_s": dt * speed_factor(before + calibrate())})
        rounds += 1
        now = time.perf_counter()
        if rounds >= PROBE_MIN_ROUNDS and now + (now - round_start) > until:
            return records


def server_layers(doc: dict) -> dict:
    queue = doc["queue"]
    batches = doc["batches"]
    calls = doc["engine"]["session_calls"]
    pooled = sum(calls.values())
    return {
        "serve.queue_wait_p50_ms": 1000.0 * (doc["queue_wait"].get("p50_s") or 0.0),
        "serve.queue_wait_p90_ms": 1000.0 * (doc["queue_wait"].get("p90_s") or 0.0),
        "serve.batch_size_mean": batches["requests"] / batches["total"] if batches["total"] else 0.0,
        "serve.service_p50_ms": 1000.0 * (doc["service_time"].get("p50_s") or 0.0),
        "serve.service_p90_ms": 1000.0 * (doc["service_time"].get("p90_s") or 0.0),
        "serve.warm_session_frac": calls.get("warm", 0) / pooled if pooled else 0.0,
        "serve.rejected": queue["rejected_total"],
        "serve.expired": queue["expired_total"],
        "serve.degraded": sum(doc["supervision"]["degraded"].values()),
        "parallel.resilience_events": sum(
            v for k, v in doc["engine"]["extra"].items() if k.startswith("resilience_")
        ),
    }


def run(seed: int, seconds: float, tracer):
    """The workload on one CPU, shared with the server it starts (which
    inherits the affinity): the calibration samples then time the CPU
    the server runs on, not whichever of the host's CPUs the client
    landed on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return _run(seed, seconds, tracer)
    finally:
        os.sched_setaffinity(0, allowed)


def _run(seed: int, seconds: float, tracer):
    from repro.graph.binfmt import read_binary_graph, write_binary_graph
    from repro.workloads import load

    WORK.mkdir(exist_ok=True)
    setup_samples = calibrate(3)
    rsky = WORK / f"fresh-{seed}.rsky"
    logs = [WORK / f"serve-{seed}-{rep}.log" for rep in range(SETUP_REPEATS)]
    setups, writes = [], []
    killed = 0
    proc = None
    graphs = {name: load(name) for name in HOSTED}
    try:
        for rep in range(SETUP_REPEATS):
            if proc is not None:
                killed += stop_server(proc)
            t0 = time.perf_counter()
            fresh = make_fresh_graph(seed)
            t1 = time.perf_counter()
            write_binary_graph(fresh, rsky)
            writes.append(time.perf_counter() - t1)
            proc, port, _startup = start_server(logs[rep])
            setups.append(time.perf_counter() - t0)
        setup_samples += calibrate(3)

        items = schedule(seed, WINDOW_SHARE * seconds)
        hosted = dict(graphs)
        graphs["fresh"] = read_binary_graph(rsky)
        t0 = time.perf_counter()
        warm = [{"payload": dict(q, graph=name)} for name in HOSTED for q in FOLLOW]
        refs = references(graphs, items + warm + [{"payload": q} for q in PROBES])
        refs_s = time.perf_counter() - t0

        warm = warm_up(port)
        records, start, window_samples = open_loop(port, items, rsky)
        # Server-side numbers describe the window, so they are read
        # before the probes.
        status, metrics_doc = http_call(port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        probes = probe(port, start + seconds)
        joins = [join_wall(hosted) for _ in range(JOIN_REPEATS)]
    finally:
        if proc is not None:
            killed += stop_server(proc)
        rsky.unlink(missing_ok=True)
        for log in logs:
            log.unlink(missing_ok=True)

    wrong, failed = [], 0
    latency = {"skyline": [], "group": [], "clique": []}
    heavy = {"skyline": [], "group": [], "clique": []}
    heavy_window = []
    lateness, register_ms = [], []
    window = speed_factor([d for _t, d in window_samples] or None)

    def ref_s(rec, since):
        """Seconds from ``since`` to the answer, in reference-host seconds."""
        elapsed = rec["done"] - since
        if not window_samples:
            return elapsed * window
        return elapsed * local_factor(window_samples, (since + rec["done"]) / 2)

    # Spans are recorded from the request records after the window, so
    # tracing cannot stretch the open loop; its cost is this loop.
    t0 = time.perf_counter()
    if tracer.enabled:
        for index, (item, rec) in enumerate(zip(items, records)):
            kind = "register" if "register" in item else item["payload"]["kind"]
            slip = tracer.add("loadgen.slip", rec["sched"], rec["sent"], op=index)
            tracer.add(f"serve.{kind}", rec["sent"], rec["done"], op=index, parent=slip)
    trace_s = time.perf_counter() - t0
    for index, (item, rec) in enumerate(zip(items, records)):
        lateness.append(1000.0 * (rec["sent"] - rec["sched"]))
        if rec["status"] != 200:
            failed += 1
            if "payload" in item:
                latency[item["payload"]["kind"]].append(float("inf"))
                if item["payload"]["graph"] == HEAVY:
                    heavy_window.append(float("inf"))
            continue
        if "register" in item:
            register_ms.append(1000.0 * ref_s(rec, rec["sent"]))
            continue
        payload = item["payload"]
        latency[payload["kind"]].append(ref_s(rec, rec["sched"]))
        if payload["graph"] == HEAVY:
            heavy_window.append(latency[payload["kind"]][-1])
        graph = graphs[base_graph(payload["graph"])]
        try:
            check_served(f"request {index} {payload}", graph, payload["kind"],
                         payload, rec["doc"], refs[ref_key(payload)])
        except CheckError as exc:
            wrong.append(str(exc))
    for what, recs in (("warm-up", warm), ("probe", probes)):
        for index, rec in enumerate(recs):
            payload = rec["payload"]
            if rec["status"] != 200:
                failed += 1
                if what == "probe":
                    heavy[payload["kind"]].append(float("inf"))
                continue
            if what == "probe":
                heavy[payload["kind"]].append(rec["ref_s"])
            try:
                check_served(f"{what} {index} {payload}", graphs[payload["graph"]],
                             payload["kind"], payload, rec["doc"], refs[ref_key(payload)])
            except CheckError as exc:
                wrong.append(str(exc))

    all_ms = [1000.0 * v for vs in latency.values() for v in vs]
    heavy_ms = [1000.0 * v for v in heavy_window]
    finished = max(rec["done"] for rec in records)
    ok_queries = sum(1 for v in all_ms if v != float("inf"))
    values = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "ops_per_s": ok_queries / (finished - start),
        "query_p50_ms": hd_quantile(heavy_ms, 0.5),
        "query_p90_ms": hd_quantile(heavy_ms, 0.9),
        "skyline_s": hd_quantile(heavy["skyline"], 0.5),
        "group_s": hd_quantile(heavy["group"], 0.5),
        "clique_s": hd_quantile(heavy["clique"], 0.5),
        "join_s": hd_quantile(joins, 0.5),
        "latency_samples": len(heavy_ms),
        "probe_samples": {kind: len(v) for kind, v in heavy.items()},
    }
    layers = server_layers(metrics_doc)
    layers.update({
        "serve.skyline_p50_ms": 1000.0 * median(latency["skyline"]),
        "serve.group_p50_ms": 1000.0 * median(latency["group"]),
        "serve.clique_p50_ms": 1000.0 * median(latency["clique"]),
        "serve.register_ms": median(register_ms),
        "loadgen.lateness_p90_ms": percentile(lateness, 90),
        "loadgen.lateness_max_ms": max(lateness),
        "graph.rsky_write_s": median(writes),
        "parallel.children_after_close": killed,
        "trace.overhead_frac": trace_s / (finished - start),
    })
    # Client-side times above are already in reference-host seconds.
    # The server shares the host, so the window's samples give its
    # speed too; the samples around set-up give set-up's.
    rescaled = ("query_p50_ms", "query_p90_ms", "skyline_s", "group_s", "clique_s",
                "join_s", "serve.skyline_p50_ms", "serve.group_p50_ms",
                "serve.clique_p50_ms", "serve.register_ms")
    setup_names = ("setup_s", "graph.rsky_write_s")
    to_reference(layers, window, [n for n in UNITS if n not in rescaled + setup_names])
    to_reference(values, speed_factor(setup_samples), setup_names)
    to_reference(layers, speed_factor(setup_samples), setup_names)
    return {
        "values": values,
        "layers": layers,
        "attempted": len(items) + len(warm) + len(probes),
        "failed": failed,
        "wrong": wrong,
        "sizes": {
            **{name: {"n": g.num_vertices, "m": g.num_edges} for name, g in graphs.items()},
            "requests": len(items) + len(warm) + len(probes),
            "queries": len(all_ms) + len(warm) + len(probes),
        },
        "info": {"references_s": refs_s, "setup_runs_s": setups,
                 "window_speed_factor": window,
                 "requests": [
                     [item.get("register") or item["payload"], rec["status"],
                      round(rec["sched"] - start, 4), round(rec["sent"] - start, 4),
                      round(rec["done"] - start, 4)]
                     for item, rec in zip(items, records)
                 ],
                 "per_kind_counts": {k: len(v) for k, v in latency.items()},
                 "probe_ref_s": {k: v for k, v in heavy.items()}},
    }
