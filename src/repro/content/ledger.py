"""A hash-chained attribution ledger (NFT-like, without the blockchain).

The claim the paper makes is about *attribution and reward integrity*:
contributors must be durably credited for what they add.  An append-only
hash chain delivers exactly that — each record commits to its
predecessor, so any retroactive edit is detectable — without simulating
distributed consensus, which the paper does not depend on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

GENESIS_HASH = "0" * 64


@dataclass(frozen=True)
class LedgerRecord:
    """One ledger entry: a token mint or transfer."""

    index: int
    timestamp: float
    action: str          # "mint" | "transfer"
    token_id: str
    subject: str         # content digest for mint; token for transfer
    owner: str
    previous_hash: str

    def hash(self) -> str:
        payload = "|".join([
            str(self.index), f"{self.timestamp:.6f}", self.action,
            self.token_id, self.subject, self.owner, self.previous_hash,
        ])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class LedgerError(Exception):
    """Invalid ledger operation."""


class ContentLedger:
    """Append-only token ledger with ownership tracking."""

    def __init__(self):
        self._records: List[LedgerRecord] = []
        self._owners: Dict[str, str] = {}
        self._minted_digests: Dict[str, str] = {}  # digest -> token

    def __len__(self) -> int:
        return len(self._records)

    @property
    def head_hash(self) -> str:
        return self._records[-1].hash() if self._records else GENESIS_HASH

    def mint(self, timestamp: float, content_digest: str, owner: str) -> str:
        """Mint a token for a new content digest; returns the token id."""
        if content_digest in self._minted_digests:
            raise LedgerError(f"content already minted: {content_digest[:12]}...")
        token_id = hashlib.sha256(
            f"token|{content_digest}|{len(self._records)}".encode("utf-8")
        ).hexdigest()[:16]
        record = LedgerRecord(
            index=len(self._records),
            timestamp=timestamp,
            action="mint",
            token_id=token_id,
            subject=content_digest,
            owner=owner,
            previous_hash=self.head_hash,
        )
        self._records.append(record)
        self._owners[token_id] = owner
        self._minted_digests[content_digest] = token_id
        return token_id

    def transfer(self, timestamp: float, token_id: str, from_owner: str,
                 to_owner: str) -> None:
        """Transfer a token; only its current owner may do so."""
        current = self._owners.get(token_id)
        if current is None:
            raise LedgerError(f"unknown token: {token_id!r}")
        if current != from_owner:
            raise LedgerError(
                f"{from_owner!r} does not own {token_id!r} (owner: {current!r})"
            )
        record = LedgerRecord(
            index=len(self._records),
            timestamp=timestamp,
            action="transfer",
            token_id=token_id,
            subject=token_id,
            owner=to_owner,
            previous_hash=self.head_hash,
        )
        self._records.append(record)
        self._owners[token_id] = to_owner

    def owner_of(self, token_id: str) -> str:  # replint: ignore[ARCH003] -- test observer of token ownership
        try:
            return self._owners[token_id]
        except KeyError:
            raise LedgerError(f"unknown token: {token_id!r}") from None

    def token_for(self, content_digest: str) -> Optional[str]:  # replint: ignore[ARCH003] -- test observer of digest deduplication
        return self._minted_digests.get(content_digest)

    def verify(self) -> bool:
        """Check the whole chain's integrity."""
        previous = GENESIS_HASH
        for index, record in enumerate(self._records):
            if record.index != index:
                return False
            if record.previous_hash != previous:
                return False
            previous = record.hash()
        return True

    def records(self) -> List[LedgerRecord]:  # replint: ignore[ARCH003] -- test observer of the record chain
        return list(self._records)

    def tamper(self, index: int, new_owner: str) -> None:
        """Test hook: rewrite a historical record (breaks the chain)."""
        old = self._records[index]
        self._records[index] = LedgerRecord(
            index=old.index,
            timestamp=old.timestamp,
            action=old.action,
            token_id=old.token_id,
            subject=old.subject,
            owner=new_owner,
            previous_hash=old.previous_hash,
        )
