"""Crash-safe training checkpoints.

A checkpoint is one :meth:`training_state` snapshot (model parameters,
optimizer moments, RNG position, loss history — see the resumable-
training protocol on :class:`~repro.estimators.learned.LwNnEstimator`)
written through :func:`repro.persistence.save_bundle`, i.e. into the
same checksummed container as estimator artifacts, with the same
atomic tmp+fsync+rename write discipline.  A crash mid-save therefore
leaves either the previous checkpoint set or the new one — never a torn
file that a resume would trust.

:class:`CheckpointStore` manages a directory of numbered checkpoints,
keeps the newest ``keep``, and on :meth:`latest` walks newest-to-oldest
**skipping anything that fails its checksum** (emitting a
``lifecycle.checkpoint.corrupt`` event), so a truncated checkpoint
degrades a resume by a few epochs instead of poisoning it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from ..obs import LIFECYCLE_CHECKPOINTS, get_events, get_registry
from ..persistence import PersistenceError, load_bundle, save_bundle

#: ``kind`` tag of checkpoint bundles in the persistence container.
CHECKPOINT_KIND = "training-checkpoint"

_CHECKPOINT_RE = re.compile(r"^ckpt_(\d{6})\.repro$")


@dataclass(frozen=True)
class Checkpoint:
    """One recovered checkpoint: the epoch it was taken at + the state."""

    epoch: int
    state: dict
    path: Path


class CheckpointStore:
    """A directory of numbered, checksummed training checkpoints."""

    def __init__(self, directory: str | Path, *, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be at least 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.saves = 0
        self.corrupt_skipped = 0

    # ------------------------------------------------------------------
    def path_for(self, epoch: int) -> Path:
        return self.directory / f"ckpt_{epoch:06d}.repro"

    def epochs(self) -> list[int]:
        """Epoch numbers of the checkpoints on disk, ascending."""
        found = []
        for entry in self.directory.iterdir():
            match = _CHECKPOINT_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    # ------------------------------------------------------------------
    def save(self, state: dict, epoch: int) -> Path:
        """Atomically persist one snapshot; prunes beyond ``keep``."""
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        path = self.path_for(epoch)
        save_bundle({"epoch": epoch, "state": state}, path, kind=CHECKPOINT_KIND)
        self.saves += 1
        self._count("saved")
        for old in self.epochs()[: -self.keep]:
            self.path_for(old).unlink(missing_ok=True)
        return path

    def latest(self) -> Checkpoint | None:
        """Newest *loadable* checkpoint; corrupt ones are skipped.

        A checkpoint that fails its checksum (torn write, bit rot) emits
        a ``lifecycle.checkpoint.corrupt`` event and the walk falls back
        to the next-older one — a resume never trusts a corrupt file.
        """
        for epoch in reversed(self.epochs()):
            path = self.path_for(epoch)
            try:
                bundle = load_bundle(path, kind=CHECKPOINT_KIND)
            except PersistenceError as exc:
                self.corrupt_skipped += 1
                self._count("corrupt")
                get_events().emit(
                    "lifecycle.checkpoint.corrupt",
                    path=str(path),
                    epoch=epoch,
                    error=str(exc),
                )
                continue
            return Checkpoint(epoch=int(bundle["epoch"]), state=bundle["state"], path=path)
        return None

    def clear(self) -> None:
        """Remove every checkpoint (training finished or abandoned)."""
        for epoch in self.epochs():
            self.path_for(epoch).unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self.epochs())

    # ------------------------------------------------------------------
    def _count(self, outcome: str) -> None:
        get_registry().counter(
            LIFECYCLE_CHECKPOINTS, "Training checkpoints, by outcome"
        ).inc(outcome=outcome)
