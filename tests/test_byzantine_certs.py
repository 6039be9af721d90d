"""Byzantine certificates at the replica-level entry points.

Every certificate kind (quorum, blame, checkpoint, Δ-adjust) in both wire
forms (raw signature list, aggregate bitmap) is malformed in each way a
Byzantine peer could try, then fed to the entry point an honest replica
uses for that kind.  Each must be rejected with ``False`` or
:class:`VerificationError` — never another exception, never accepted.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import ProtocolConfig
from repro.consensus.validators import ValidatorSet
from repro.core.protocol import AlterBFTReplica
from repro.crypto.keystore import build_cluster_keys
from repro.errors import VerificationError
from repro.guard import SynchronyMonitor
from repro.recovery import RecoveryManager
from repro.recovery.manager import STATUS
from repro.types.certificates import (
    Blame,
    CheckpointVote,
    DeltaAdjust,
    RawCert,
    Vote,
    certify,
    genesis_qc,
    pack_signer_bits,
)
from repro.types.messages import DeltaAdjustCertMsg, StatusResponseMsg
from tests.conftest import FakeContext

N, F = 3, 1
BIG_ID = 1000


def _statements(kind, signers, protocol="alterbft"):
    """One signed statement of ``kind`` per signer."""
    if kind == "qc":
        return [Vote.create(s, protocol, 1, 1, b"\x11" * 32) for s in signers]
    if kind == "blame":
        return [Blame.create(s, protocol, 1) for s in signers]
    if kind == "checkpoint":
        return [
            CheckpointVote.create(s, protocol, 4, b"\x22" * 32, b"\x33" * 32)
            for s in signers
        ]
    return [DeltaAdjust.create(s, protocol, seq=0, rung=1) for s in signers]


def _replica():
    """An AlterBFT replica (id 0) with a synchrony guard and a recovery
    manager attached, on a FakeContext."""
    signers = build_cluster_keys("hashsig", N)
    pconf = ProtocolConfig(n=N, f=F, delta=0.005, guard_enabled=True)
    replica = AlterBFTReplica(0, ValidatorSet.synchronous(N, F), pconf, signers[0])
    FakeContext(node_id=0, n=N).bind_replica(replica)
    replica.guard = SynchronyMonitor(replica, small_threshold=4096)
    replica.recovery = RecoveryManager(replica, 4)
    return replica, signers


def _accepts(kind, replica, cert) -> bool:
    """Feed ``cert`` through the entry point for its kind; True iff taken.

    A :class:`VerificationError` counts as a rejection; any other
    exception propagates and fails the test.
    """
    if kind == "qc":
        return replica.verify_qc(cert)
    if kind == "blame":
        return replica.verify_blame_cert(cert)
    if kind == "checkpoint":
        manager = replica.recovery
        manager.state = STATUS
        tip = genesis_qc(replica.protocol_name, replica.store.genesis.block_hash)
        manager.on_status_response(
            1, StatusResponseMsg(sender=1, epoch=1, ledger_height=0, checkpoint=cert, tip=tip)
        )
        return 1 in manager._status_responses
    try:
        replica.guard.on_delta_adjust_cert(1, DeltaAdjustCertMsg(cert=cert))
    except VerificationError:
        return False
    return replica.guard.pending_cert is cert


def _with_signers(cert, pairs):
    """``cert`` re-stated with the (id, signature) list ``pairs``; an
    aggregate keeps its signature and only gets the matching bitmap."""
    if isinstance(cert, RawCert):
        pairs_field = dataclasses.fields(cert)[-1].name
        return dataclasses.replace(cert, **{pairs_field: tuple(pairs)})
    return dataclasses.replace(cert, signer_bits=pack_signer_bits(i for i, _ in pairs))


def _pair(statement):
    """``(signer id, signature)``: the last two fields of a signed form."""
    return dataclasses.astuple(statement)[-2:]


def _honest(kind, signers, aggregate):
    statements = _statements(kind, signers[:2])
    return certify(statements, signers[2], aggregate), statements


def _duplicate_signer(kind, signers, aggregate):
    first, _ = _statements(kind, signers[:2])
    if not aggregate:
        cert, _ = _honest(kind, signers, False)
        return _with_signers(cert, [_pair(first)] * 2)
    return certify([first, first], signers[2], True)


def _negative_id(kind, signers, aggregate):
    cert, statements = _honest(kind, signers, aggregate)
    if not aggregate:
        pairs = list(map(_pair, statements))
        return _with_signers(cert, [(-1, pairs[0][1]), pairs[1]])
    return dataclasses.replace(cert, signer_bits=-1)


def _non_member(kind, signers, aggregate):
    cert, statements = _honest(kind, signers, aggregate)
    pairs = list(map(_pair, statements))
    return _with_signers(cert, [pairs[0], (N, pairs[1][1])])


def _bit_at_or_above_n(kind, signers, aggregate):
    cert, statements = _honest(kind, signers, aggregate)
    pairs = list(map(_pair, statements))
    if not aggregate:
        return _with_signers(cert, pairs + [(BIG_ID, pairs[0][1])])
    return dataclasses.replace(cert, signer_bits=cert.signer_bits | 1 << BIG_ID)


def _negative_bitmap(kind, signers, aggregate):
    cert, statements = _honest(kind, signers, aggregate)
    if not aggregate:
        return _with_signers(cert, [(~i, sig) for i, sig in map(_pair, statements)])
    return dataclasses.replace(cert, signer_bits=~cert.signer_bits)


def _below_quorum(kind, signers, aggregate):
    return certify(_statements(kind, signers[:1]), signers[2], aggregate)


def _wrong_protocol(kind, signers, aggregate):
    return certify(_statements(kind, signers[:2], protocol="pbft"), signers[2], aggregate)


ATTACKS = {
    "duplicate-signer": _duplicate_signer,
    "negative-signer-id": _negative_id,
    "non-member-id": _non_member,
    "bit-at-or-above-n": _bit_at_or_above_n,
    "negative-bitmap": _negative_bitmap,
    "below-quorum": _below_quorum,
    "wrong-protocol": _wrong_protocol,
}
KINDS = ("qc", "blame", "checkpoint", "delta-adjust")
FORMS = {"raw": False, "aggregate": True}


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("kind", KINDS)
def test_honest_certificate_accepted(kind, form):
    """Control: the unmodified certificate passes every entry point, so
    each rejection below is caused by its malformation."""
    replica, signers = _replica()
    cert, _ = _honest(kind, signers, FORMS[form])
    assert _accepts(kind, replica, cert)


@pytest.mark.parametrize("attack", sorted(ATTACKS))
@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("kind", KINDS)
def test_byzantine_certificate_rejected(kind, form, attack):
    replica, signers = _replica()
    cert = ATTACKS[attack](kind, signers, FORMS[form])
    assert not _accepts(kind, replica, cert)


@pytest.mark.parametrize(
    "attack", ["negative-signer-id", "non-member-id", "bit-at-or-above-n", "negative-bitmap"]
)
@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("kind", KINDS)
def test_membership_screen_rejects_before_key_lookup(kind, form, attack):
    """Both wire forms fail the one membership screen, so a bad signer
    set never reaches the registry or the (memoized) signature check."""
    replica, signers = _replica()
    assert _honest(kind, signers, FORMS[form])[0].signed_by_members(N)
    cert = ATTACKS[attack](kind, signers, FORMS[form])
    assert not cert.signed_by_members(N)
    assert not replica.verify_certificate(cert)
    assert "_verify_memo" not in cert.__dict__
