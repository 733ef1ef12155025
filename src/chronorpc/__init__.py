"""chronorpc: time-triggered remote operations with completion-time prediction.

A client schedules an operation for a wall-clock instant, the server runs
it at that instant and reports how long it actually took, and the client
uses that feedback to predict completion times well enough to hit a
deadline with the *end* of an operation rather than its start. On top of
that sit multi-server coordinators (simultaneous start, consistent
snapshot, all-or-nothing commit) and a deterministic virtual-time harness
for evaluating the prediction algorithms.
"""
