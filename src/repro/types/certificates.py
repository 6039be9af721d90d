"""Signed statements — votes, blames, checkpoint votes, Δ-adjustments —
and their certificates.

Each *kind* of statement is a frozen dataclass of statement fields with
its own signing domain and memoized signing-bytes function.  It travels
in one of three *wire forms*, each implemented once as a mixin that
appends its signature fields after the statement fields:

* :class:`Signed` — ``+ signer id, signature`` (one replica's statement);
* :class:`RawCert` — ``+ ((signer id, signature), ...)``;
* :class:`AggregateCert` — ``+ signer_bits, agg_signature``.

A registered wire class is one kind plus one form.  The codec encodes
dataclass fields positionally in declaration order, so the inherited
field order *is* the wire layout.  :func:`certify` builds a certificate
of either form from matching signed statements.

Certificates are *self-certifying*: they carry the signatures that prove
them, so any replica can verify one without trusting the relayer.  The
same structures serve all four protocols; only the quorum size differs
(f+1 under n=2f+1 synchrony, 2f+1 under n=3f+1 partial synchrony).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from ..codec import encode, register
from ..crypto.hashing import Digest, short_hex
from ..crypto.signatures import Signer

#: Signing domain for votes (shared across protocols; the phase field
#: separates multi-phase protocols like PBFT/HotStuff).
VOTE_DOMAIN = "vote"

#: Signing domain for blames.
BLAME_DOMAIN = "blame"

#: Signing domain for checkpoint votes (recovery subsystem).
CHECKPOINT_DOMAIN = "checkpoint"

#: Signing domain for Δ-adjustment proposals (guard subsystem).
DELTA_ADJUST_DOMAIN = "delta-adjust"

#: Signing domain for synchrony-guard probes (guard subsystem).
GUARD_PROBE_DOMAIN = "guard-probe"


def pack_signer_bits(signer_ids) -> int:
    """Pack a collection of replica ids into a signer bitmap."""
    bits = 0
    for signer_id in signer_ids:
        bits |= 1 << signer_id
    return bits


def unpack_signer_bits(bits: int) -> Tuple[int, ...]:
    """Unpack a signer bitmap into sorted replica ids.

    A negative bitmap is malformed (the right shift below would never
    terminate on one) and unpacks to the empty set.
    """
    if bits < 0:
        return ()
    ids = []
    index = 0
    while bits:
        if bits & 1:
            ids.append(index)
        bits >>= 1
        index += 1
    return tuple(ids)


@lru_cache(maxsize=8192)
def vote_signing_bytes(protocol: str, phase: int, epoch: int, height: int, block_hash: Digest) -> bytes:
    """Canonical bytes a vote signature covers.

    Including the protocol name prevents cross-protocol replay when two
    protocols share a key registry inside one test process.  Memoized: a
    quorum check re-derives the same bytes once per (voter-independent)
    vote identity instead of once per signature.
    """
    return encode((protocol, phase, epoch, height, block_hash))


@lru_cache(maxsize=1024)
def blame_signing_bytes(protocol: str, epoch: int) -> bytes:
    """Canonical bytes a blame signature covers (memoized, see above)."""
    return encode((protocol, epoch))


@lru_cache(maxsize=1024)
def checkpoint_signing_bytes(protocol: str, height: int, block_hash: Digest, state_digest: Digest) -> bytes:
    """Canonical bytes a checkpoint-vote signature covers (memoized)."""
    return encode((protocol, height, block_hash, state_digest))


@lru_cache(maxsize=1024)
def delta_adjust_signing_bytes(protocol: str, seq: int, rung: int) -> bytes:
    """Canonical bytes a Δ-adjustment signature covers (memoized)."""
    return encode((protocol, seq, rung))


@lru_cache(maxsize=4096)
def guard_probe_signing_bytes(protocol: str, sender: int, seq: int) -> bytes:
    """Canonical bytes a guard-probe signature covers (memoized)."""
    return encode((protocol, sender, seq))


# -- statement kinds ------------------------------------------------------------


class _Statement:
    """Behaviour shared by every kind and wire form."""

    def signing_bytes(self) -> bytes:
        """Canonical bytes every signature over this statement covers."""
        return self._signing_bytes(*self._statement_fields(self))

    def verify(self, signer: Signer, quorum: int = 1) -> bool:
        """Check the signature(s) (``signer`` supplies the key registry).

        The verdict is memoized on the object per (scheme, registry,
        quorum): a broadcast vote or certificate reaches every replica of
        a simulated cluster as the same object, and all replicas share
        one registry, so the repeat verifications are object-identical.
        A different registry or scheme (e.g. a second cluster in one test
        process) recomputes.
        """
        memo = self.__dict__.get("_verify_memo")
        if (
            memo is not None
            and memo[0] is signer.scheme
            and memo[1] is signer.registry
            and memo[2] == quorum
        ):
            return memo[3]
        ok = self._verify_uncached(signer, quorum)
        object.__setattr__(self, "_verify_memo", (signer.scheme, signer.registry, quorum, ok))
        return ok

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        statement = " ".join(
            f"{f.name}={short_hex(v) if isinstance(v, bytes) else v}"
            for f, v in zip(fields(self._statement_type), self._statement_fields(self))
        )
        signers = f"by {self._signed_pair(self)[0]}" if isinstance(self, Signed) else f"x{self.signer_count}"
        return f"{type(self).__name__}({statement} {signers})"


def _kind(domain: str, signing_bytes: Callable[..., bytes], signer: str, pairs: str):
    """Class decorator: a frozen statement dataclass of one kind.

    ``signer`` / ``pairs`` name the signer-id field of the kind's signed
    form and the pair-tuple field of its raw certificate (declared by the
    registered classes: the names are part of the keyword API).  The
    constants set here are plain class attributes, not ``ClassVar``
    annotations: registered classes' type hints must name wire fields only.
    """

    def decorate(cls):
        cls = dataclass(frozen=True, repr=False)(cls)
        cls.DOMAIN = domain
        cls._statement_type = cls
        cls._signing_bytes = staticmethod(signing_bytes)
        cls._statement_fields = attrgetter(*(f.name for f in fields(cls)))
        cls._signed_pair = attrgetter(signer, "signature")
        cls._pairs = attrgetter(pairs)
        return cls

    return decorate


@_kind(VOTE_DOMAIN, vote_signing_bytes, signer="voter", pairs="votes")
class VoteStatement(_Statement):
    """A vote for a block hash in an epoch/phase.

    Certificates are ranked lexicographically by ``(epoch, height)``; the
    chain-selection and locking rules of every protocol here compare
    certificates by that rank.
    """

    protocol: str
    phase: int
    epoch: int
    height: int
    block_hash: Digest

    @property
    def rank(self) -> Tuple[int, int]:
        """Ordering key: (epoch, height)."""
        return (self.epoch, self.height)


@_kind(BLAME_DOMAIN, blame_signing_bytes, signer="blamer", pairs="blames")
class BlameStatement(_Statement):
    """A statement that epoch ``epoch``'s leader failed."""

    protocol: str
    epoch: int


@_kind(CHECKPOINT_DOMAIN, checkpoint_signing_bytes, signer="voter", pairs="votes")
class CheckpointStatement(_Statement):
    """An attestation that the ledger prefix up to ``height`` is committed
    with cumulative digest ``state_digest``.

    f+1 matching checkpoint votes prove at least one honest replica
    committed that prefix, which (by agreement) makes it safe for every
    replica — including a rejoining one — to adopt.  Unlike a quorum
    certificate (which in AlterBFT certifies but does not commit —
    commitment is a temporal 2Δ condition), a checkpoint certificate
    *is* a commit proof: the protocol's only transferable one.
    """

    protocol: str
    height: int
    block_hash: Digest
    state_digest: Digest


@_kind(DELTA_ADJUST_DOMAIN, delta_adjust_signing_bytes, signer="proposer", pairs="adjusts")
class DeltaAdjustStatement(_Statement):
    """A proposal to switch the synchrony bound to a new ladder rung.

    ``seq`` is the count of adjustments the proposer has already
    installed, so a certificate for one rung switch cannot be replayed to
    re-trigger it later (all correct replicas install in lockstep because
    installs are certificate-driven).  ``rung`` is the target exponent on
    the Δ ladder (effective Δ = ``base_delta * 2**rung``); agreeing on a
    discrete rung rather than a raw float lets replicas with slightly
    divergent local tail estimates still produce *matching* adjustments.

    f+1 matching adjustments are authority to install the rung: they
    include at least one honest replica whose local delay measurements
    justified the switch, so Byzantine replicas alone can never move Δ.
    Every correct replica installs the certified rung at its next epoch
    boundary, making the switch atomic across the cluster (epoch entry is
    itself synchronized within Δ by the blame machinery).
    """

    protocol: str
    seq: int
    rung: int


# -- wire forms -----------------------------------------------------------------


def _matching(items: Sequence["Signed"]) -> Tuple[Tuple[Any, ...], List[Tuple[int, bytes]]]:
    """The statement ``items`` agree on, and their signer-sorted pairs."""
    statement = items[0]._statement_fields(items[0])
    divergent = any(item._statement_fields(item) != statement for item in items)
    assert not divergent, "cannot combine divergent statements"
    return statement, sorted(item._signed_pair(item) for item in items)


class Signed:
    """Wire form ``statement + (signer id, signature)``."""

    @classmethod
    def create(cls, signer: Signer, *args: Any, **kwargs: Any):
        """Sign a statement given by its fields (in wire order or by name)."""
        statement = cls._statement_fields(cls._statement_type(*args, **kwargs)) if kwargs else args
        signature = signer.digest_and_sign(cls.DOMAIN, cls._signing_bytes(*statement))
        return cls(*statement, signer.replica_id, signature)

    def _verify_uncached(self, signer: Signer, quorum: int) -> bool:
        signer_id, signature = self._signed_pair(self)
        return signer.verify_digest(signer_id, self.DOMAIN, self.signing_bytes(), signature)


class Certificate:
    """A quorum of matching statements, in either certificate wire form:
    ``signer_count``, ``signer_ids``, ``verify(signer, quorum)`` and the
    ``signed_by_members(n)`` screen a receiver runs before key lookups."""


class RawCert(Certificate):
    """Wire form ``statement + ((signer id, signature), ...)``, signer-sorted."""

    @classmethod
    def build(cls, items: Sequence[Signed], signer: Optional[Signer] = None):
        statement, pairs = _matching(items)
        return cls(*statement, tuple(pairs))

    @property
    def signer_count(self) -> int:
        return len(self._pairs(self))

    @property
    def signer_ids(self) -> Tuple[int, ...]:
        return tuple(signer_id for signer_id, _ in self._pairs(self))

    def signed_by_members(self, n: int) -> bool:
        return all(isinstance(i, int) and 0 <= i < n for i, _ in self._pairs(self))

    def _verify_uncached(self, signer: Signer, quorum: int) -> bool:
        """Quorum size, signer distinctness, then one batch check."""
        pairs = self._pairs(self)
        signer_ids = {signer_id for signer_id, _ in pairs}
        if len(signer_ids) != len(pairs) or len(pairs) < quorum:
            return False
        return signer.batch_verify_digest(self.DOMAIN, self.signing_bytes(), pairs)


@dataclass(frozen=True, repr=False)
class AggregateCert(Certificate):
    """Wire form ``statement + signer_bits, agg_signature``.

    The same proof as a :class:`RawCert`, in a smaller message (the
    quantity AlterBFT's synchrony bet is calibrated against): one
    aggregate signature plus a signer bitmap instead of f+1 raw pairs.
    A replica built with ``crypto_aggregate`` disabled never emits one,
    so the default wire traffic keeps the raw format.

    Rogue-key safety lives in the scheme (see ``crypto/aggregate.py``):
    per-signer challenges bind each public key individually, so a key
    registered as a function of honest keys gains nothing.  On top of
    that, the bitmap names the signer set explicitly and verification
    resolves public keys through the shared registry — a certificate
    cannot smuggle in an unregistered key at all.
    """

    signer_bits: int
    agg_signature: bytes

    @classmethod
    def build(cls, items: Sequence[Signed], signer: Signer):
        """Aggregate verified statements (``signer`` resolves public keys).

        Callers verify the statements *before* aggregating — an invalid
        input signature yields an aggregate that fails verification,
        losing the attribution a per-statement check provides.
        """
        statement, pairs = _matching(items)
        message = cls._signing_bytes(*statement)
        return cls(
            *statement,
            pack_signer_bits(signer_id for signer_id, _ in pairs),
            signer.aggregate_digest(cls.DOMAIN, message, pairs),
        )

    @property
    def signer_count(self) -> int:
        return bin(self.signer_bits).count("1")

    @property
    def signer_ids(self) -> Tuple[int, ...]:
        return unpack_signer_bits(self.signer_bits)

    def signed_by_members(self, n: int) -> bool:
        bits = self.signer_bits
        return isinstance(bits, int) and 0 <= bits < 1 << n

    def _verify_uncached(self, signer: Signer, quorum: int) -> bool:
        signer_ids = self.signer_ids
        if len(signer_ids) < quorum or self.signer_bits < 0:
            return False
        return signer.verify_aggregate_digest(
            signer_ids, self.DOMAIN, self.signing_bytes(), self.agg_signature
        )


# -- registered wire classes ----------------------------------------------------


def _wire(type_id: int):
    """Class decorator: a frozen dataclass registered under ``type_id``."""
    return lambda cls: register(type_id)(dataclass(frozen=True, repr=False)(cls))


@_wire(14)
class Vote(Signed, VoteStatement):
    """A signed vote for a block hash in an epoch/phase."""

    voter: int
    signature: bytes

    @classmethod
    def create(cls, signer: Signer, protocol: str, epoch: int, height: int,
               block_hash: Digest, phase: int = 0) -> "Vote":
        """Sign a vote; ``phase`` comes last so single-phase callers omit it."""
        return super().create(signer, protocol, phase, epoch, height, block_hash)


@_wire(15)
class QuorumCertificate(RawCert, VoteStatement):
    """A quorum of votes for one block in one epoch/phase."""

    votes: Tuple[Tuple[int, bytes], ...]  # (voter id, signature), voter-sorted


@_wire(120)
class AggregateQuorumCertificate(AggregateCert, VoteStatement):
    """A quorum certificate carried as bitmap + aggregate signature."""


@_wire(16)
class Blame(Signed, BlameStatement):
    """A signed statement that epoch ``epoch``'s leader failed."""

    blamer: int
    signature: bytes


@_wire(17)
class BlameCertificate(RawCert, BlameStatement):
    """f+1 blames proving epoch ``epoch`` must be abandoned."""

    blames: Tuple[Tuple[int, bytes], ...]  # (blamer id, signature), sorted


@_wire(121)
class AggregateBlameCertificate(AggregateCert, BlameStatement):
    """A blame certificate carried as bitmap + aggregate signature."""


@_wire(18)
class CheckpointVote(Signed, CheckpointStatement):
    """A signed checkpoint attestation (see :class:`CheckpointStatement`)."""

    voter: int
    signature: bytes


@_wire(19)
class CheckpointCertificate(RawCert, CheckpointStatement):
    """f+1 matching checkpoint votes: a transferable commit proof."""

    votes: Tuple[Tuple[int, bytes], ...]  # (voter id, signature), voter-sorted


@_wire(122)
class AggregateCheckpointCertificate(AggregateCert, CheckpointStatement):
    """A checkpoint certificate carried as bitmap + aggregate signature."""


@_wire(110)
class DeltaAdjust(Signed, DeltaAdjustStatement):
    """A signed Δ-adjustment proposal (see :class:`DeltaAdjustStatement`)."""

    proposer: int
    signature: bytes


@_wire(111)
class DeltaAdjustCertificate(RawCert, DeltaAdjustStatement):
    """f+1 matching Δ-adjustments: authority to install a new ladder rung."""

    adjusts: Tuple[Tuple[int, bytes], ...]  # (proposer id, signature), sorted


@_wire(123)
class AggregateDeltaAdjustCertificate(AggregateCert, DeltaAdjustStatement):
    """A Δ-adjust certificate carried as bitmap + aggregate signature."""


#: Signed form → (raw, aggregate) certificate forms of the same kind.
_CERT_FORMS = {
    Vote: (QuorumCertificate, AggregateQuorumCertificate),
    Blame: (BlameCertificate, AggregateBlameCertificate),
    CheckpointVote: (CheckpointCertificate, AggregateCheckpointCertificate),
    DeltaAdjust: (DeltaAdjustCertificate, AggregateDeltaAdjustCertificate),
}


def certify(items: Sequence[Signed], signer: Signer, aggregate: bool) -> Certificate:
    """Combine matching signed statements into a certificate.

    ``aggregate`` (``ProtocolConfig.crypto_aggregate``) picks the wire
    form: bitmap + aggregate signature, or the raw signature list.
    """
    raw, agg = _CERT_FORMS[type(items[0])]
    return agg.build(items, signer) if aggregate else raw.build(items)


def genesis_qc(protocol: str, block_hash: Digest) -> QuorumCertificate:
    """The distinguished empty certificate for the genesis block.

    It has rank ``(0, 0)``, below every real certificate, and is accepted
    without signatures by convention.
    """
    return QuorumCertificate(protocol, 0, 0, 0, block_hash, ())


def is_genesis_qc(qc: "AnyQuorumCert") -> bool:
    """True for the distinguished genesis certificate."""
    return qc.epoch == 0 and qc.height == 0 and qc.signer_count == 0


#: Either wire form of each certificate kind (message field annotations).
AnyQuorumCert = Union[QuorumCertificate, AggregateQuorumCertificate]
AnyBlameCert = Union[BlameCertificate, AggregateBlameCertificate]
AnyCheckpointCert = Union[CheckpointCertificate, AggregateCheckpointCertificate]
AnyDeltaAdjustCert = Union[DeltaAdjustCertificate, AggregateDeltaAdjustCertificate]
