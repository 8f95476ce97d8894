"""The AAL Guard benchmark: seeded workloads, an oracle, spans and a runner.

Run ``python3 perfbench/run.py --help`` from the root of a checkout.
"""
