"""Names shared by the orchestrator (which imports nothing heavy) and the
child processes."""

#: workload -> the fixture it decodes
WORKLOAD_FIXTURE = {
    "seq-1080p": "pan-1080p",
    "cluster-1080p": "pan-1080p",
    "threaded-detail": "detail-960",
    "wall-paced": "fish-640",
    "service-paced": "studio-320",
}

#: layer (the prefix of a per-layer metric's name) -> the (end-to-end metric,
#: workload) pairs its numbers should move, written down before measuring.
#: A pair not listed is a prediction of no change.  ``BENCHMARK.json`` may
#: carry only name, unit and direction per metric, so the mapping lives here;
#: ``test_spine.py`` keeps it in step with the declared names.
MOVES = {
    "parser": [
        ("fps", "seq-1080p"), ("cpu_s_per_frame", "seq-1080p"),
        ("latency_p50_ms", "wall-paced"), ("fps", "cluster-1080p"),
    ],
    "reconstruct": [
        ("fps", "seq-1080p"), ("peak_rss_mb", "seq-1080p"), ("fps", "cluster-1080p"),
    ],
    "splitter": [("fps", "cluster-1080p"), ("fps", "threaded-detail")],
    "plan_codec": [
        ("fps", "cluster-1080p"), ("cpu_s_per_frame", "cluster-1080p"),
        ("fps", "threaded-detail"),
    ],
    "pdecoder": [("fps", "threaded-detail"), ("fps", "cluster-1080p")],
    "channel": [("fps", "cluster-1080p"), ("latency_p50_ms", "cluster-1080p")],
    "pool": [("fps", "cluster-1080p"), ("peak_rss_mb", "cluster-1080p")],
    "cluster": [("latency_p50_ms", "cluster-1080p"), ("fps", "cluster-1080p")],
    "model": [("fps", "cluster-1080p"), ("fps", "threaded-detail")],  # explains them
    "bcast": [("latency_p50_ms", "wall-paced")],
    "loadgen": [("latency_p50_ms", "wall-paced")],
    "receiver": [("latency_p50_ms", "wall-paced"), ("fps", "wall-paced")],
    "paced": [("latency_p50_ms", "wall-paced"), ("latency_p50_ms", "service-paced")],
    "service": [("latency_p50_ms", "service-paced"), ("cpu_s_per_frame", "service-paced")],
    # the harness's own validity checks move nothing
    "waterfall": [],
    "trace": [],
    "host": [],  # the box's speed during the traced pass, see yardstick.py
}
