"""Deliberate violation: a sim-core module reading a write-only counter.

Incrementing the counter is the sanctioned use and is not flagged.
"""


def fold(node):
    node.horizon_stats.taken += 1


def steer(node):
    if node.horizon_stats.taken > 3:
        return "stop"
    return "go"
