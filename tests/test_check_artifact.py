#!/usr/bin/env python3
"""tools/check_artifact.py must pass a minimal document set for each check
and fail every doctored copy: one per bound or cross-run equality.

    python3 tests/test_check_artifact.py
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
sys.dont_write_bytecode = True
sys.path.insert(0, TOOLS)
from check_artifact import REQUIRED  # noqa: E402

HASH = "b0bf94465d185b9e"
POLICIES = ["random", "locality", "least-loaded", "hybrid"]
CUT = object()  # as a doctored value: drop the last item of the list


def keys(artifact, where, **values):
    """The keys the checker requires of an artifact kind at `where`, set to
    1 unless given."""
    return dict(dict.fromkeys(REQUIRED[artifact][where].split(), 1), **values)


def soak(shards=1, replicas=1, transport="in-process", remotes=0,
         rerouted_transport=0):
    """A passing serve_soak document: depth 3 under CI's --max-queue 2."""
    doc = keys("serve_soak", "", kind="serve_soak",
               config={"admission": "reject", "max_queue_depth": 2,
                       "shards": shards, "replicas": replicas,
                       "remote_shards": ["127.0.0.1:1"] * remotes},
               transport=transport, expected_hash=HASH, deterministic=True,
               shard_transport="multi-process" if remotes else "in-process",
               capacity_jobs_per_sec=10.0, p95_ratio_vs_low_load=1.5)
    doc["sweep"] = [keys("serve_soak", "sweep", multiplier=m, failed=0,
                         max_queue_depth_seen=3, hashes_ok=True)
                    for m in (0.5, 1.0, 2.0, 4.0)]
    if shards > 1:
        for p in doc["sweep"]:
            p["shard_max_depths"] = [3] * shards
    if shards > 1 or remotes:
        count = shards + remotes
        doc["shards"] = {"count": count, "local": shards, "remote": remotes,
                         "replicas": replicas, "routed": 8, "rerouted": 0,
                         "rerouted_transport": rerouted_transport,
                         "per_shard": [{"submitted": 3, "rejected": 0}
                                       for _ in range(count)]}
    if transport == "socket":
        doc["http"] = {"requests": 9, "connections": 4}
    return doc


def stream():
    window = keys("stream_matrix", "scenarios.tracks.windows")
    return {"schema_version": 1, "kind": "stream_matrix",
            "simd_backend": "avx2", "models": ["smote"],
            "scenarios": [{"id": f"{stride}-{drift}-{refresh}",
                           "stride_days": stride, "drift": drift,
                           "refresh": refresh, "num_windows": 1,
                           "tracks": [{"model_key": "smote",
                                       "windows": [window],
                                       "total_refresh_seconds": seconds}]}
                          for stride in (1, 7)
                          for drift in ("none", "mean_shift")
                          for refresh, seconds in (("cold", 2), ("warm", 1))]}


def matrix():
    cell = keys("scenario_matrix", "scenarios.cells", model_key="smote")
    return {"schema_version": 1, "kind": "scenario_matrix",
            "models": ["smote"],
            "scenarios": [{"id": str(i), "cells": [cell]} for i in range(4)]}


def kernels(active):
    backends = ["scalar", "avx2"]
    return keys("bench_kernels", "", kind="bench_kernels",
                available_backends=backends, active_backend=active,
                kernels=[{"name": k, "backend": b, "seconds": 1.0,
                          "throughput": 1.0 + (b == "avx2")}
                         for b in backends
                         for k in ("gemm", "softmax_rows", "axpy", "sq_l2",
                                   "interp_grid", "jsd_acc")],
                models=[{"key": k, "backend": b,
                         "deterministic_across_threads": True}
                        for b in backends
                        for k in ("ctabgan", "smote", "tabddpm", "tvae")],
                determinism_ok=True, gemm_speedup_vs_scalar=2.0)


def serve_stats():
    return keys("serve_stats", "", kind="serve_stats", simd_backend="avx2",
                jobs=6, rows=2600, failures=0, output_hash=HASH,
                latency_ms={"p50": 1.0, "p95": 2.0},
                cache=keys("serve_stats", "cache", capacity=1),
                pool=keys("serve_stats", "pool"))


def http_stats():
    routes = [{"route": r, "requests": 3, "errors": 3 if "models" in r else 0}
              for r in ("GET /healthz", "GET /v1/models", "POST /v1/sample",
                        "GET /v1/jobs/{id}", "DELETE /v1/jobs/{id}")]
    return keys("serve_http_stats", "", kind="serve_http_stats",
                simd_backend="avx2", quota={"keys": 2, "open_access": False},
                http={"routes": routes},
                server={"requests": 15, "parse_errors": 0,
                        "handler_errors": 0})


def twin():
    outcome = keys("twin_matrix", "cells.policies.real")
    cells = [{"id": f"{d}-{drift}", "disruption": d, "decision_fidelity": 1.0,
              "best_policy_real": "random", "best_policy_synth": "random",
              "outages": [{"start_day": 1.0, "end_day": 2.0}],
              "policies": [{"policy": p, "outcome_gap": 0.0, "real": outcome,
                            "synth": outcome} for p in POLICIES]}
             for d in ("none", "site_outage", "campaign_burst",
                       "anomaly_storm")
             for drift in ("none", "mean_shift")]
    return keys("twin_matrix", "", kind="twin_matrix", simd_backend="avx2",
                model="smote", policies=POLICIES,
                disruptions=["none", "site_outage", "campaign_burst",
                             "anomaly_storm"],
                drifts=["none", "mean_shift"], cells=cells,
                mean_outcome_gap=0.0, outcome_digest=HASH)


def page(rows, cursor):
    return {"status": "done", "rows": 500, "seed": "987654321098765432",
            "schema": [{"kind": "numerical"}, {"kind": "categorical"}],
            "data": [[0.0, "a"]] * rows, "next_cursor": cursor}


# check -> (passing documents, {doctored copy: (document, key..., value)}).
CASES = {
    "stream": ([stream()], {
        "warm refresh not faster":
            (0, "scenarios", 1, "tracks", 0, "total_refresh_seconds", 2),
        "7 scenarios": (0, "scenarios", CUT)}),
    "matrix": ([matrix()], {"3 scenarios": (0, "scenarios", CUT)}),
    "kernels": ([kernels("avx2"), kernels("scalar")], {
        "gemm speedup 1.49x on avx2": (0, "gemm_speedup_vs_scalar", 1.49)}),
    "serve": ([serve_stats(), serve_stats()], {
        "5 jobs": (0, "jobs", 5),
        "2599 rows": (0, "rows", 2599),
        "no evictions": (0, "cache", "evictions", 0),
        "a failure": (0, "failures", 1),
        "output_hash differs": (1, "output_hash", "0" * 16)}),
    "soak": ([soak(), soak()], {
        "depth above max_queue_depth + 1":
            (0, "sweep", 3, "max_queue_depth_seen", 4),
        "p95 ratio above 2": (0, "p95_ratio_vs_low_load", 2.01),
        "p95 ratio null": (0, "p95_ratio_vs_low_load", None),
        "a failed job": (0, "sweep", 2, "failed", 1),
        "a digest mismatch": (0, "sweep", 1, "hashes_ok", False),
        "expected_hash differs": (1, "expected_hash", "0" * 16)}),
    "sharded": ([soak(4, 3, "socket"), soak(1, 1, "socket")], {
        "a shard above max_queue_depth + 1":
            (0, "sweep", 3, "shard_max_depths", 3, 4),
        "baseline above max_queue_depth + 1":
            (1, "sweep", 3, "max_queue_depth_seen", 4),
        "sharded p95 ratio above 2 x 4": (0, "p95_ratio_vs_low_load", 8.01),
        "baseline p95 ratio above 2": (1, "p95_ratio_vs_low_load", 2.01),
        "capacity below 0.75 x baseline": (0, "capacity_jobs_per_sec", 7.4),
        "a failed job": (0, "sweep", 0, "failed", 1),
        "a digest mismatch": (1, "sweep", 0, "hashes_ok", False),
        "nothing routed": (0, "shards", "routed", 0),
        "an idle shard": (0, "shards", "per_shard", 2, "submitted", 0),
        "2 replicas": (0, "config", "replicas", 2),
        "expected_hash differs": (1, "expected_hash", "0" * 16)}),
    "job": ([{"job_id": 7}], {"no job id": (0, {})}),
    "first-page": ([page(200, 200)], {
        "199 rows": (0, "data", CUT),
        "cursor 201": (0, "next_cursor", 201)}),
    "last-page": ([page(100, None)], {
        "99 rows": (0, "data", CUT),
        "a next cursor": (0, "next_cursor", 500)}),
    "http-stats": ([http_stats()], {
        "a route never hit": (0, "http", "routes", 4, "requests", 0),
        "2 errors on GET /v1/models": (0, "http", "routes", 1, "errors", 2),
        "14 requests": (0, "server", "requests", 14),
        "a parse error": (0, "server", "parse_errors", 1),
        "a handler error": (0, "server", "handler_errors", 1)}),
    "transport": ([soak(), soak(transport="socket")], {
        "expected_hash differs": (1, "expected_hash", "0" * 16)}),
    "remote": ([soak(1, 2, remotes=3), soak()], {
        "a transport re-route": (0, "shards", "rerouted_transport", 1),
        "nothing routed": (0, "shards", "routed", 0),
        "a failed job": (0, "sweep", 0, "failed", 1),
        "expected_hash differs": (1, "expected_hash", "0" * 16)}),
    "kill": ([soak(1, 2, remotes=3, rerouted_transport=3)], {
        "no transport re-route": (0, "shards", "rerouted_transport", 0),
        "a digest mismatch": (0, "sweep", 2, "hashes_ok", False)}),
    "twin": ([twin(), twin()], {
        "7 cells": (0, "cells", CUT),
        "outcome_digest differs": (1, "outcome_digest", "0" * 16)}),
    "json": (["{}"], {"not JSON": (0, "{not json")}),
}


def doctor(docs, change):
    """A deep copy of `docs` with one value changed (or list item cut)."""
    docs = copy.deepcopy(docs)
    *path, last, value = change
    node = docs
    for key in path:
        node = node[key]
    if value is CUT:
        node[last].pop()
    else:
        node[last] = value
    return docs


def run(check, docs, tmp):
    paths = [os.path.join(tmp, f"{i}.json") for i in range(len(docs))]
    for path, doc in zip(paths, docs):
        with open(path, "w") as f:
            f.write(doc if isinstance(doc, str) else json.dumps(doc))
    return subprocess.run(
        [sys.executable, os.path.join(TOOLS, "check_artifact.py"), check,
         *paths], capture_output=True, text=True)


def main():
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for check, (docs, doctored) in CASES.items():
            r = run(check, docs, tmp)
            if r.returncode != 0:
                bad.append(f"{check}: passing documents failed: {r.stderr}")
            for name, change in doctored.items():
                r = run(check, doctor(docs, change), tmp)
                if r.returncode != 1 or "FAIL" not in r.stderr:
                    bad.append(f"{check}: {name}: exit {r.returncode}")
    total = sum(1 + len(d) for _, d in CASES.values())
    print(f"{total - len(bad)} of {total} cases as expected")
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
