"""Validator set: identities, leader rotation, quorum sizes."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class ValidatorSet:
    """The fixed membership of one cluster.

    Attributes:
        n: replica count.
        f: tolerated Byzantine replicas.
        quorum: votes required for a certificate (protocol-dependent:
            f+1 for synchronous 2f+1 protocols, 2f+1 for 3f+1 ones).
    """

    n: int
    f: int
    quorum: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.f < 0 or not 1 <= self.quorum <= self.n:
            raise ConfigError(f"invalid validator set n={self.n} f={self.f} q={self.quorum}")

    @staticmethod
    def synchronous(n: int, f: int) -> "ValidatorSet":
        """n = 2f+1 style set with quorum f+1 (AlterBFT, Sync HotStuff)."""
        if n < 2 * f + 1:
            raise ConfigError(f"synchronous set needs n >= 2f+1 (n={n}, f={f})")
        return ValidatorSet(n=n, f=f, quorum=f + 1)

    @staticmethod
    def partially_synchronous(n: int, f: int) -> "ValidatorSet":
        """n = 3f+1 style set with quorum 2f+1 (HotStuff, PBFT)."""
        if n < 3 * f + 1:
            raise ConfigError(f"partially synchronous set needs n >= 3f+1 (n={n}, f={f})")
        return ValidatorSet(n=n, f=f, quorum=2 * f + 1)

    def leader_of(self, epoch: int) -> int:
        """Round-robin leader for an epoch/view."""
        return epoch % self.n

    def is_valid_replica(self, replica_id: int) -> bool:
        return 0 <= replica_id < self.n

