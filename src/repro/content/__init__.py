"""Content democratization: objects, ledger, economy, overlay privacy.

Section 3.3: "The Metaverse encourages every participant to contribute
content ... NFTs and well-design[ed] economics models are the keys to the
sustainability of user contributions ... we have to consider the
appropriateness of content overlays under the privacy-preserving
perspective."
"""

from repro.content.economy import RewardPolicy
from repro.content.ledger import ContentLedger, LedgerRecord
from repro.content.objects import ContentLibrary, ContentObject
from repro.content.privacy import OverlayRequest, PrivacyDecision, PrivacyPolicy

__all__ = [
    "ContentLedger",
    "ContentLibrary",
    "ContentObject",
    "LedgerRecord",
    "OverlayRequest",
    "PrivacyDecision",
    "PrivacyPolicy",
    "RewardPolicy",
]
