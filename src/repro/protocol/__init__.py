"""The layered reliable-multicast protocol of paper Section 7.

* :mod:`repro.protocol.layering` — geometric layer rates and cumulative
  subscription levels (Section 7.1.1).
* :mod:`repro.protocol.schedule` — the reverse-binary packet schedule
  across layers with the One Level Property (Section 7.1.2, Table 5,
  Figure 7), and the one round walk the sender runs over it.
* :mod:`repro.protocol.congestion` — synchronization points, sender
  bursts, and the receiver join/drop rules (from Vicisano, Rizzo and
  Crowcroft [19], as adopted by the paper).
* :mod:`repro.protocol.receiver` / :mod:`repro.protocol.session` — the
  end-to-end prototype simulation behind Figure 8.

Beyond the paper, the feedback control plane (ROADMAP's channel-aware
delivery):

* :mod:`repro.protocol.feedback` — the compact receiver→sender
  :class:`FeedbackReport` wire frame and serial-gap loss estimation.
* :mod:`repro.protocol.adaptive` — :class:`AdaptivePolicy`, aggregating
  reports into rate and block-schedule decisions.
"""

from repro.protocol.layering import LayerConfig
from repro.protocol.schedule import (
    layer_block_range,
    layered_rounds,
)
from repro.protocol.congestion import CongestionPolicy, SubscriptionController
from repro.protocol.feedback import (
    FeedbackReport,
    LossEstimator,
    report_from_client,
)
from repro.protocol.adaptive import AdaptivePolicy, PolicyDecision
from repro.protocol.receiver import LayeredReceiver
from repro.protocol.session import SessionResult, run_session, run_single_layer_session

__all__ = [
    "LayerConfig",
    "layer_block_range",
    "layered_rounds",
    "CongestionPolicy",
    "SubscriptionController",
    "FeedbackReport",
    "LossEstimator",
    "report_from_client",
    "AdaptivePolicy",
    "PolicyDecision",
    "LayeredReceiver",
    "SessionResult",
    "run_session",
    "run_single_layer_session",
]
