"""Behavior- and capability-aware access control for assisted living.

The package authenticates residents of an instrumented home from their
sensor-observed behavior plus a credential, reasons over a fact base with
forward-chained Horn rules, and answers access requests with
permit/deny decisions carrying obligations, recommendations, trust and
priority values.
"""
