"""Black-box snapshot-isolation checking for the MVCC service.

``harness`` records histories (reads + commits with client-side intervals)
from N reader x M writer threads driving a :class:`repro.HypeRService`
directly or through the HTTP door; ``checker`` verifies the
recorded history against snapshot isolation using only observable values
and wall-clock intervals — no knowledge of the store's internals.
"""
