"""The Mobility Semantics Complementor.

"The Complementor module handles the discontinuity of the original mobility
semantics sequence generated by the Annotator.  It infers the missing
mobility semantics of the sequence by referring to other generated mobility
semantics sequences and the spatial information captured by the DSM"
(paper §2).  Gaps longer than the threshold between consecutive triplets
are filled by :class:`SemanticsInference`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...dsm import Topology
from ...errors import InferenceError
from ...timeutil import TimeRange
from ..semantics import MobilitySemantic, MobilitySemanticsSequence
from .inference import InferenceConfig, SemanticsInference
from .knowledge import MobilityKnowledge


@dataclass(frozen=True)
class ComplementorConfig:
    """Knobs of the complementing layer."""

    #: Gaps longer than this many seconds trigger inference.
    gap_threshold: float = 120.0
    inference: InferenceConfig = InferenceConfig()

    def __post_init__(self) -> None:
        if self.gap_threshold <= 0:
            raise InferenceError(
                f"gap_threshold must be positive, got {self.gap_threshold}"
            )


@dataclass(frozen=True)
class ComplementResult:
    """The complemented sequence plus gap bookkeeping."""

    sequence: MobilitySemanticsSequence
    gaps_found: int
    gaps_filled: int
    inferred_semantics: int


class MobilitySemanticsComplementor:
    """The complementing layer of the three-layer framework."""

    def __init__(
        self,
        knowledge: MobilityKnowledge,
        topology: Topology,
        config: ComplementorConfig | None = None,
    ):
        self.knowledge = knowledge
        self.topology = topology
        self.config = config if config is not None else ComplementorConfig()
        self.inference = SemanticsInference(
            knowledge, topology, self.config.inference
        )

    def prime(self) -> None:
        """Eagerly attach a current compiled transition model.

        Phase-two chunk runners call this once before their sequence loop
        so the compile cost (and its telemetry tick) lands per chunk, not
        inside the first gap's inference.  A no-op on the object path.
        """
        self.inference.prime()

    def flush_telemetry(self) -> None:
        """Flush the inference's accumulated memo counters to telemetry."""
        self.inference.flush_telemetry()

    def complement(
        self,
        original: MobilitySemanticsSequence,
        gaps: list[tuple[int, TimeRange]] | None = None,
    ) -> ComplementResult:
        """Fill the temporal gaps of one annotated sequence.

        ``gaps`` is ``original.gaps(gap_threshold)`` when the caller has
        already scanned for them.
        """
        if gaps is None:
            gaps = original.gaps(self.config.gap_threshold)
        if not gaps:
            return ComplementResult(original, 0, 0, 0)
        complemented: list[MobilitySemantic] = list(original.semantics)
        filled = 0
        inferred_total = 0
        for index, gap in gaps:
            before = original[index]
            after = original[index + 1]
            if not self._known(before.region_id) or not self._known(
                after.region_id
            ):
                continue
            inferred = self.inference.infer_between(before, after, gap)
            if inferred:
                complemented.extend(inferred)
                filled += 1
                inferred_total += len(inferred)
        sequence = MobilitySemanticsSequence(original.device_id, complemented)
        return ComplementResult(sequence, len(gaps), filled, inferred_total)

    def _known(self, region_id: str) -> bool:
        return region_id in self.knowledge._region_set
