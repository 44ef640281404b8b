"""End-to-end and per-layer benchmark of the toricres resultant pipeline.

`run.py` is the entry point; each workload runs in child processes
(`child.py`) against a fresh certificate cache, then against the cache the
cold child filled.  `verify.py` checks every answer against references
carried here, `trace.py` turns timing wrappers into per-layer metrics, and
`metrics.py` names every metric with its unit and prediction.
"""
