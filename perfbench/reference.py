"""A fixed piece of dict and integer work, timed to gauge the host's speed.

Usage: python3 perfbench/reference.py

``run.py`` runs this script as a fresh process after each untraced
pass, once per op of the pass and the same way it runs the ops, and
divides the run's wall times by the median time of this script.  It
imports nothing from the program, so no change to the program moves
its time.  The loop runs at module level on purpose: its names are
globals, so every step is a few dict lookups.  In this form its time
tracked the drift of both workloads' ops.
"""

table = {}
acc = 0
for i in range(600_000):
    key = (i * 7919) % 1009
    table[key] = table.get(key, 0) + i
    acc += len(table) & 3
