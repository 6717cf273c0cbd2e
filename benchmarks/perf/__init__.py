"""Per-layer performance benchmark for the MLIR → HLS compile path.

Four workloads (``verify_small``, ``compile_mini``, ``daemon_mini``,
``dse_mini``) each run in a fresh child process; ``--trace 1`` adds
rounds through benchmark-owned spans around each layer's public call.
See ``README.md`` beside this file for metrics, bounds and usage.
"""
