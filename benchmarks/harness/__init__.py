"""The ContrArc benchmark: four workloads, end-to-end and per-layer metrics.

See README.md in this directory. ``run.py`` is one run of one workload;
``python -m benchmarks.harness`` runs every workload and prints the
metrics.
"""
