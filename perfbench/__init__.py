"""The repository benchmark: workloads, tracing probes and the runner (``run.py``)."""
