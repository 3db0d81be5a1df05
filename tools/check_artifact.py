#!/usr/bin/env python3
"""Check the JSON artifacts of the end-to-end smoke runs.

    tools/check_artifact.py CHECK FILE...

Runs one named check (see CHECKS at the bottom) on the given files and
exits 1, naming the failed assertion, if any part of it fails.
tools/smoke.sh and CI's bench jobs call it after each run.
"""
import json
import sys
import traceback

BACKENDS = ("scalar", "avx2", "neon")
OUTCOME = """mean_wait_hours p95_wait_hours utilization transferred_bytes
    makespan_days completed_jobs starvation_index max_site_mean_wait_hours
    redirected_jobs clamped_jobs"""

# Keys each artifact kind must carry, by dotted path: "" is the document,
# and a path that crosses a list covers every item of it.
REQUIRED = {
    "bench_kernels": {"": """schema_version available_backends active_backend
        kernels models determinism_ok gemm_speedup_vs_scalar"""},
    "scenario_matrix": {
        "": "schema_version models scenarios",
        "scenarios.cells": """wd jsd diff_corr dcr diff_mlef fit_seconds
            sample_seconds rows_per_sec"""},
    "serve_http_stats": {"": """schema_version simd_backend service admission
        cache jobs quota http server"""},
    "serve_soak": {
        "": """schema_version config transport shard_transport
            capacity_jobs_per_sec expected_hash sweep p95_ratio_vs_low_load
            deterministic""",
        "sweep": """multiplier offered_jobs_per_sec submitted accepted rejected
            shed deadline_missed failed p50_ms p95_ms p99_ms
            max_queue_depth_seen hashes_ok"""},
    "serve_stats": {
        "": """schema_version simd_backend jobs rows failures wall_seconds
            jobs_per_sec rows_per_sec output_hash""",
        "cache": "hits misses loads evictions hit_rate resident capacity",
        "pool": "workers queued active submitted completed"},
    "stream_matrix": {
        "": "schema_version simd_backend models scenarios",
        "scenarios.tracks.windows": """wd jsd diff_corr refresh_seconds
            refresh_rows_per_sec sample_rows_per_sec"""},
    "twin_matrix": {
        "": """version simd_backend model policies disruptions drifts cells
            mean_decision_fidelity mean_outcome_gap outcome_digest""",
        "cells.policies.real": OUTCOME, "cells.policies.synth": OUTCOME},
}


def items(doc, path):
    """Every object at a dotted path, descending through lists."""
    nodes = [doc]
    for key in filter(None, path.split(".")):
        nodes = [n[key] for n in nodes]
        nodes = [x for n in nodes for x in (n if isinstance(n, list) else [n])]
    return nodes


def load(path, kind=None):
    """Parse an artifact; with a kind, check its header and required keys."""
    with open(path) as f:
        doc = json.load(f)
    if kind is None:
        return doc
    assert doc.get("kind") == kind, (path, doc.get("kind"), kind)
    for where, keys in REQUIRED[kind].items():
        for node in items(doc, where):
            missing = [k for k in keys.split() if k not in node]
            assert not missing, (path, where, missing)
    assert doc.get("schema_version", doc.get("version")) == 1, path
    assert doc.get("simd_backend", "scalar") in BACKENDS, path
    return doc


def numbers(doc, where):
    """The keys REQUIRED lists at `where` all hold numbers."""
    for node in items(doc, where):
        for key in REQUIRED[doc["kind"]][where].split():
            assert isinstance(node[key], (int, float)), (where, key, node)


def same(key, *docs):
    """Cross-run equality: every document has the same value at `key`."""
    values = [d[key] for d in docs]
    assert len(set(values)) == 1, (key, values)


def sweep_ok(doc, depth=True, failed=True):
    """Every sweep point matched its digests; unless switched off, it
    failed no job and held each shard's queue depth to max_queue_depth + 1
    (admission counts in-flight jobs beyond the first)."""
    cfg = doc["config"]
    bound = cfg["max_queue_depth"] + 1
    for p in doc["sweep"]:
        assert p["hashes_ok"] is True, p
        if failed:
            assert p["failed"] == 0, p
        if depth:
            depths = (p["shard_max_depths"] if cfg["shards"] > 1
                      else [p["max_queue_depth_seen"]])
            assert len(depths) == cfg["shards"], depths
            assert max(depths) <= bound, (p["multiplier"], depths, bound)


def p95_ok(doc):
    """Accepted-job p95 at the top load is within 2x the low-load p95 per
    shard (admission is per shard, so queue room grows with the shard
    count); null means an end of the sweep accepted nothing."""
    ratio = doc["p95_ratio_vs_low_load"]
    bound = 2.0 * doc["config"]["shards"]
    assert ratio is not None and ratio <= bound, (ratio, bound)


def check_stream(path):
    doc = load(path, "stream_matrix")
    assert len(doc["scenarios"]) == 8, len(doc["scenarios"])
    warm, cold = {}, {}
    for s in doc["scenarios"]:
        tracks = {t["model_key"] for t in s["tracks"]}
        assert tracks == set(doc["models"]), (s["id"], tracks)
        for t in s["tracks"]:
            assert len(t["windows"]) == s["num_windows"], (s["id"], t)
            side = warm if s["refresh"] == "warm" else cold
            side[(s["stride_days"], s["drift"], t["model_key"])] = \
                t["total_refresh_seconds"]
    slower = [k for k in warm if warm[k] >= cold[k]]
    assert not slower, f"warm refresh not faster for {slower}"
    return f"warm < cold in all {len(warm)} tracks"


def check_matrix(path):
    doc = load(path, "scenario_matrix")
    assert len(doc["scenarios"]) == 4, len(doc["scenarios"])
    for s in doc["scenarios"]:
        cells = {c["model_key"] for c in s["cells"]}
        assert cells == set(doc["models"]), (s["id"], cells)
    numbers(doc, "scenarios.cells")
    return f"{len(doc['scenarios'])} scenarios x {len(doc['models'])} models"


def check_kernels(path, pinned_path):
    doc = load(path, "bench_kernels")
    pinned = load(pinned_path, "bench_kernels")
    backends = doc["available_backends"]
    assert backends[0] == "scalar", backends
    assert doc["active_backend"] in backends, doc["active_backend"]
    assert pinned["active_backend"] == "scalar", pinned["active_backend"]
    kernels = {"gemm", "softmax_rows", "axpy", "sq_l2", "interp_grid",
               "jsd_acc"}
    rates = {b: {r["name"]: r["throughput"] for r in doc["kernels"]
                 if r["backend"] == b} for b in backends}
    for b in backends:
        assert set(rates[b]) == kernels, (b, kernels - set(rates[b]))
    for r in doc["kernels"] + pinned["kernels"]:
        assert r["seconds"] > 0 and r["throughput"] > 0, r
    # Every model sampled bitwise-identically at 1 vs 4 threads under
    # every backend.
    assert doc["determinism_ok"] is True
    assert all(m["deterministic_across_threads"] for m in doc["models"])
    models = {(m["key"], m["backend"]) for m in doc["models"]}
    expect = {(k, b) for k in ("ctabgan", "smote", "tabddpm", "tvae")
              for b in backends}
    assert models == expect, expect ^ models
    # Hosted runners are AVX2: hold the vectorized GEMM to its floor.
    if doc["active_backend"] == "avx2":
        assert doc["gemm_speedup_vs_scalar"] >= 1.5, \
            doc["gemm_speedup_vs_scalar"]
    scal, vec = rates["scalar"], rates[doc["active_backend"]]
    for name in sorted(kernels):
        print(f"{name:14s} {scal[name]:14.3e} -> {vec[name]:14.3e} "
              f"({vec[name] / scal[name]:5.2f}x)")
    return f"gemm {doc['gemm_speedup_vs_scalar']:.2f}x scalar; deterministic"


def check_serve(path, alt_path):
    doc, alt = load(path, "serve_stats"), load(alt_path, "serve_stats")
    same("simd_backend", doc, alt)
    assert doc["jobs"] == 6 and doc["failures"] == 0, \
        (doc["jobs"], doc["failures"])
    assert doc["rows"] == 4 * 500 + 2 * 300, doc["rows"]
    for key in ("p50", "p95"):
        assert isinstance(doc["latency_ms"][key], (int, float)), key
    cache = doc["cache"]
    assert cache["capacity"] == 1 and cache["evictions"] >= 1, cache
    # Same script at other concurrency and cache pressure: same bytes.
    same("output_hash", doc, alt)
    return f"hash {doc['output_hash']} stable across clients and capacity"


def check_soak(path, rerun_path):
    doc, rerun = load(path, "serve_soak"), load(rerun_path, "serve_soak")
    assert doc["config"]["admission"] == "reject", doc["config"]
    for d in (doc, rerun):
        sweep_ok(d)
        assert d["deterministic"] is True, d["expected_hash"]
    multipliers = [p["multiplier"] for p in doc["sweep"]]
    assert min(multipliers) == 0.5 and max(multipliers) == 4.0, multipliers
    # Overload actually happened: the 4x point refused work.
    top = max(doc["sweep"], key=lambda p: p["multiplier"])
    assert top["rejected"] > 0, top
    p95_ok(doc)
    same("expected_hash", doc, rerun)
    return f"p95 ratio {doc['p95_ratio_vs_low_load']:.2f}, hash stable"


def check_sharded(path, baseline_path):
    sharded = load(path, "serve_soak")
    baseline = load(baseline_path, "serve_soak")
    cfg = sharded["config"]
    assert cfg["shards"] == 4 and cfg["replicas"] == 3, cfg
    assert baseline["config"]["shards"] == 1, baseline["config"]
    for d in (sharded, baseline):
        assert d["deterministic"] is True, d["expected_hash"]
        sweep_ok(d)
        p95_ok(d)
    # Placement never changes bytes.
    same("expected_hash", sharded, baseline)
    shards = sharded["shards"]
    assert shards["count"] == 4 and shards["replicas"] == 3, shards
    assert shards["routed"] > 0, shards
    assert len(shards["per_shard"]) == 4, shards
    # Every shard took work: a gate over an idle shard checks nothing.
    per_shard = [s["submitted"] + s["rejected"] for s in shards["per_shard"]]
    assert min(per_shard) >= 1, per_shard
    assert sum(per_shard) >= shards["routed"], (per_shard, shards)
    # Sharding never collapses throughput (0.75 is slack for runner noise).
    cap, cap_base = (sharded["capacity_jobs_per_sec"],
                     baseline["capacity_jobs_per_sec"])
    assert cap >= 0.75 * cap_base, (cap, cap_base)
    return f"hash equal at 1 and 4 shards; capacity {cap:.1f}/{cap_base:.1f}"


def check_job(path):
    return load(path)["job_id"]


def check_first_page(path):
    doc = load(path)
    assert doc["status"] == "done", doc["status"]
    assert doc["rows"] == 500 and doc["seed"] == "987654321098765432", \
        (doc["rows"], doc["seed"])
    assert len(doc["data"]) == 200, len(doc["data"])  # --page-rows 200
    assert doc["next_cursor"] == 200, doc["next_cursor"]
    kinds = {c["kind"] for c in doc["schema"]}
    assert kinds <= {"numerical", "categorical"}, kinds
    return "first page of 200 rows"


def check_last_page(path):
    doc = load(path)
    assert doc["next_cursor"] is None and len(doc["data"]) == 100, \
        (doc["next_cursor"], len(doc["data"]))
    return "last page of 100 rows"


def check_http_stats(path):
    doc = load(path, "serve_http_stats")
    assert doc["quota"]["keys"] == 2, doc["quota"]
    assert doc["quota"]["open_access"] is False, doc["quota"]
    routes = {r["route"]: r for r in doc["http"]["routes"]}
    for route in ("GET /healthz", "GET /v1/models", "POST /v1/sample",
                  "GET /v1/jobs/{id}", "DELETE /v1/jobs/{id}"):
        assert route in routes, (route, sorted(routes))
        assert routes[route]["requests"] >= 1, routes[route]
    # 401s and the 429 land on the route they hit, as errors.
    assert routes["GET /v1/models"]["errors"] >= 3, routes["GET /v1/models"]
    assert doc["server"]["requests"] >= 15, doc["server"]
    # Every request the smoke sends is well framed and its 4xx answers come
    # from the REST layer, so any count here is the shared HTTP parser
    # refusing the CLI client's own bytes, or a handler throwing.
    assert doc["server"]["parse_errors"] == 0, doc["server"]
    assert doc["server"]["handler_errors"] == 0, doc["server"]
    return f"{doc['server']['requests']} requests over {len(routes)} routes"


def check_transport(inproc_path, socket_path):
    a, b = load(inproc_path, "serve_soak"), load(socket_path, "serve_soak")
    assert a["transport"] == "in-process" and b["transport"] == "socket", \
        (a["transport"], b["transport"])
    assert a["deterministic"] is True and b["deterministic"] is True
    same("expected_hash", a, b)
    assert b["http"]["requests"] > 0 and b["http"]["connections"] > 0, \
        b["http"]
    return f"hash {a['expected_hash']} equal in-process and over a socket"


def check_remote(path, baseline_path):
    remote = load(path, "serve_soak")
    baseline = load(baseline_path, "serve_soak")
    for d in (remote, baseline):
        assert d["deterministic"] is True, d["expected_hash"]
    assert baseline["shard_transport"] == "in-process"
    assert remote["shard_transport"] == "multi-process"
    assert len(remote["config"]["remote_shards"]) == 3, remote["config"]
    # Bytes that crossed process boundaries digest like in-process ones.
    same("expected_hash", remote, baseline)
    shards = remote["shards"]
    assert shards["count"] == 4, shards
    assert shards["local"] == 1 and shards["remote"] == 3, shards
    assert shards["routed"] > 0, shards
    assert shards["rerouted_transport"] == 0, shards  # every worker alive
    # Workers apply their own admission config, so no depth bound here.
    sweep_ok(remote, depth=False)
    return f"hash {remote['expected_hash']} equal in-process and remote"


def check_kill(path):
    doc = load(path, "serve_soak")
    assert doc["deterministic"] is True, doc["expected_hash"]
    # The dead worker owns replicas and, at queue depth 0, is tried first.
    shards = doc["shards"]
    assert shards["rerouted_transport"] > 0, shards
    sweep_ok(doc, depth=False, failed=False)
    return f"{shards['rerouted_transport']} transport re-routes, bytes kept"


def check_twin(path, alt_path):
    doc, alt = load(path, "twin_matrix"), load(alt_path, "twin_matrix")
    assert doc["model"] == "smote", doc["model"]
    policies = doc["policies"]
    assert policies == ["random", "locality", "least-loaded", "hybrid"]
    assert set(doc["disruptions"]) == {"none", "site_outage",
                                       "campaign_burst", "anomaly_storm"}
    assert set(doc["drifts"]) == {"none", "mean_shift"}
    cells = doc["cells"]
    assert len(cells) == 4 * 2, len(cells)  # disruptions x drifts
    for c in cells:
        assert 0.0 <= c["decision_fidelity"] <= 1.0, c["id"]
        assert c["best_policy_real"] in policies, c["id"]
        assert c["best_policy_synth"] in policies, c["id"]
        assert [p["policy"] for p in c["policies"]] == policies, c["id"]
        if c["disruption"] == "site_outage":
            assert len(c["outages"]) >= 1, c["id"]
            for o in c["outages"]:
                assert o["end_day"] > o["start_day"], (c["id"], o)
        for p in c["policies"]:
            assert p["outcome_gap"] >= 0.0, (c["id"], p["policy"])
    numbers(doc, "cells.policies.real")
    numbers(doc, "cells.policies.synth")
    assert 0.0 <= doc["mean_decision_fidelity"] <= 1.0
    assert doc["mean_outcome_gap"] >= 0.0
    # Serial and 4-thread-via-service sweeps fold to one outcome digest.
    assert len(doc["outcome_digest"]) == 16, doc["outcome_digest"]
    same("outcome_digest", doc, alt)
    return f"{len(cells)} cells, digest {doc['outcome_digest']} stable"


def check_json(*paths):
    for path in paths:
        load(path)
    return "valid JSON"


# check_first_page is CHECK "first-page", and so on.
CHECKS = {name[6:].replace("_", "-"): fn for name, fn in globals().items()
          if name.startswith("check_")}


def main(argv):
    if len(argv) < 2 or argv[0] not in CHECKS:
        print(f"usage: check_artifact.py {{{','.join(CHECKS)}}} FILE...",
              file=sys.stderr)
        return 2
    check = CHECKS[argv[0]]
    try:
        message = check(*argv[1:])
    except AssertionError as e:
        frame = traceback.extract_tb(e.__traceback__)[-1]
        print(f"FAIL {argv[0]}: line {frame.lineno}: {frame.line}: {e}",
              file=sys.stderr)
        return 1
    except Exception as e:  # a missing key or file, bad JSON, wrong arity
        print(f"FAIL {argv[0]}: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    # `job` prints the bare id for the caller to capture.
    print(message if argv[0] == "job" else f"ok: {message}")
    return 0


if __name__ == "__main__":
    if not __debug__:
        sys.exit("check_artifact.py checks with assert; run it without -O")
    sys.exit(main(sys.argv[1:]))
