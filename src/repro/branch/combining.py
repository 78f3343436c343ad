"""Combining (tournament) predictor with meta chooser and BTB."""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GShare
from repro.branch.saturating import counter_table, train_counter
from repro.branch.twolevel import TwoLevelPAs


@dataclass(slots=True)
class BranchPrediction:
    """Outcome of a combining-predictor lookup.

    Attributes:
        taken: Predicted direction.
        target: Predicted target (``None`` on a BTB miss).
        gshare_taken: The gshare component's vote (needed to train the meta
            table at resolve time).
        pas_taken: The PAs component's vote.
    """

    taken: bool
    target: int | None
    gshare_taken: bool
    pas_taken: bool


class CombiningPredictor:
    """Table 1 combining predictor: gshare + PAs + 64K meta chooser + BTB.

    The meta table is indexed by PC; each 2-bit meta counter selects the
    PAs component when high and gshare when low, and is trained toward
    whichever component was correct when the two disagree.
    """

    def __init__(
        self,
        gshare_entries: int = 64 * 1024,
        pas_l1_entries: int = 16 * 1024,
        pas_l2_entries: int = 64 * 1024,
        meta_entries: int = 64 * 1024,
        btb_entries: int = 2048,
        btb_ways: int = 4,
    ):
        self.gshare = GShare(entries=gshare_entries)
        self.pas = TwoLevelPAs(l1_entries=pas_l1_entries, l2_entries=pas_l2_entries)
        self._meta = counter_table(meta_entries, bits=2)
        self._meta_mask = meta_entries - 1
        self.btb = BranchTargetBuffer(entries=btb_entries, ways=btb_ways)
        self.lookups = 0
        self.mispredictions = 0

    def _meta_index(self, pc: int) -> int:
        return (pc >> 2) & self._meta_mask

    def predict(self, pc: int) -> BranchPrediction:
        """Predict direction and target for the branch at ``pc``."""
        self.lookups += 1
        gshare_taken = self.gshare.predict(pc)
        pas_taken = self.pas.predict(pc)
        use_pas = self._meta[self._meta_index(pc)] >= 2
        taken = pas_taken if use_pas else gshare_taken
        target = self.btb.lookup(pc) if taken else None
        return BranchPrediction(
            taken=taken, target=target, gshare_taken=gshare_taken, pas_taken=pas_taken
        )

    def resolve(self, pc: int, prediction: BranchPrediction, taken: bool, target: int) -> bool:
        """Train all components with the resolved outcome.

        Returns:
            True if the prediction was a misprediction (wrong direction, or
            predicted taken with a wrong/unknown target).
        """
        mispredicted = prediction.taken != taken or (taken and prediction.target != target)
        if mispredicted:
            self.mispredictions += 1
        # Train the meta chooser only when the components disagreed; it
        # counts toward PAs, so "taken" here means "PAs was right".
        if prediction.gshare_taken != prediction.pas_taken:
            train_counter(self._meta, self._meta_index(pc), prediction.pas_taken == taken)
        self.gshare.update(pc, taken)
        self.pas.update(pc, taken)
        if taken:
            self.btb.update(pc, target)
        return mispredicted
