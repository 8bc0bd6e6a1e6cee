"""The repository benchmark: served, evolution and fan-out workloads.

``python3 perfbench/run.py --workload <serve|evolve|fanout> --seed N
--seconds S --trace <0|1>`` runs one workload from the root of a
checkout and prints its metrics; see ``perfbench/README.md``.
"""
