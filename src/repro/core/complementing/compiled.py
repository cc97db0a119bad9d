"""Compiled transition model: integer-indexed tables for the MAP inference.

The object-model inference (:mod:`repro.core.complementing.inference`)
walks the region graph through networkx adjacency views and recomputes
the smoothed ``log P(dest | origin)`` ratio on every dynamic-programming
step — the committed phase-two profile
(``benchmarks/profiles/phase_two_objects.txt``) shows those two costs
dominating the complementing stage.  :class:`CompiledTransitionModel`
pays them once per knowledge *generation* instead of once per DP step:

- an integer-indexed region vocabulary (``index`` / ``regions``);
- dense per-origin rows of smoothed transition probabilities and their
  logs, computed by the **same floating-point expression** as
  :meth:`MobilityKnowledge.transition_probability` followed by
  :func:`math.log` — same floats in, bit-for-bit the same floats out;
- a frozen integer adjacency (neighbor index tuples plus membership
  frozensets) lifted once from ``Topology.region_graph`` **in the
  graph's own iteration order**, so the indexed Viterbi visits states in
  exactly the sequence the object path would and every first-seen /
  strict-``>`` tie-break lands on the same winner;
- per-leg edge weights and per-region mean dwells for the duration
  model, again precomputed by the very expressions the object path
  evaluates per call.

Staleness is handled by the knowledge's monotonic ``generation``
counter: every mutation (``observe``/``fold``/``unfold``/``scale``)
bumps it, and :func:`ensure_compiled` recompiles when the attached
model's recorded generation, ``smoothing`` (a public field whose
assignment bumps nothing) or topology identity no longer matches.
Once compiled, a model is immutable, so concurrent phase-two workers may
race to compile the same generation — the last attach wins and both
models are interchangeable.  Compiles and attach-cache hits are counted
through the telemetry registry (``trips_inference_compiles_total`` /
``trips_inference_compile_hits_total``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ...errors import InferenceError

if TYPE_CHECKING:  # pragma: no cover
    from ...dsm import Topology
    from .knowledge import MobilityKnowledge

_EMPTY_ROW: dict = {}


class CompiledTransitionModel:
    """Per-generation compilation of one knowledge + topology pair.

    Immutable after :meth:`compile`; all queries are plain list/dict
    lookups with no networkx, no smoothing arithmetic and no ``math.log``
    in the loop.
    """

    __slots__ = (
        "generation",
        "topology",
        "regions",
        "index",
        "in_graph",
        "neighbors",
        "neighbor_sets",
        "prob_rows",
        "log_rows",
        "edge_weights",
        "mean_dwells",
        "smoothing",
    )

    def __init__(
        self,
        generation: int,
        topology: "Topology",
        regions: tuple[str, ...],
        index: dict[str, int],
        in_graph: tuple[bool, ...],
        neighbors: tuple[tuple[int, ...], ...],
        neighbor_sets: tuple[frozenset, ...],
        prob_rows: tuple[tuple[float, ...], ...],
        log_rows: tuple[tuple[float, ...], ...],
        edge_weights: dict[tuple[int, int], float | None],
        mean_dwells: tuple[float | None, ...],
        smoothing: float,
    ):
        self.generation = generation
        self.topology = topology
        self.regions = regions
        self.index = index
        self.in_graph = in_graph
        self.neighbors = neighbors
        self.neighbor_sets = neighbor_sets
        self.prob_rows = prob_rows
        self.log_rows = log_rows
        self.edge_weights = edge_weights
        self.mean_dwells = mean_dwells
        self.smoothing = smoothing

    @classmethod
    def compile(
        cls, knowledge: "MobilityKnowledge", topology: "Topology"
    ) -> "CompiledTransitionModel":
        """Compile tables for ``knowledge``'s current generation.

        Every table entry is produced by the same float expression the
        object-model query evaluates per call — ``(count + smoothing) /
        (total + smoothing * vocabulary)`` and its ``math.log`` — so a
        table lookup and the live computation are bit-for-bit
        interchangeable.  The region graph's node set must cover the
        knowledge vocabulary it intersects; a graph node outside the
        vocabulary would make the object path raise mid-DP, so the
        mismatch is rejected up front.
        """
        regions = tuple(knowledge.regions)
        index = {region: position for position, region in enumerate(regions)}
        smoothing = knowledge.smoothing
        vocabulary = len(regions) - 1
        transitions = knowledge._transitions
        outgoing_totals = knowledge._outgoing_totals

        prob_rows: list[tuple[float, ...]] = []
        log_rows: list[tuple[float, ...]] = []
        for origin in regions:
            outgoing = transitions.get(origin, _EMPTY_ROW)
            total = outgoing_totals.get(origin, 0)
            denominator = total + smoothing * vocabulary
            prob_row: list[float] = []
            log_row: list[float] = []
            for destination in regions:
                if destination == origin:
                    # Self-transitions were merged away during annotation;
                    # the object path returns probability 0.0 and never
                    # asks for its log (the region graph has no self
                    # loops), so -inf is a safe, never-read placeholder.
                    prob_row.append(0.0)
                    log_row.append(-math.inf)
                    continue
                count = outgoing.get(destination, 0)
                probability = (count + smoothing) / denominator
                prob_row.append(probability)
                log_row.append(math.log(probability))
            prob_rows.append(tuple(prob_row))
            log_rows.append(tuple(log_row))

        graph = topology.region_graph
        in_graph: list[bool] = []
        neighbors: list[tuple[int, ...]] = []
        edge_weights: dict[tuple[int, int], float | None] = {}
        for position, region in enumerate(regions):
            if region not in graph:
                in_graph.append(False)
                neighbors.append(())
                continue
            in_graph.append(True)
            row: list[int] = []
            # Graph iteration order is preserved verbatim: dict-insertion
            # order is the object Viterbi's tie-break order.
            for neighbor in graph.neighbors(region):
                neighbor_position = index.get(neighbor)
                if neighbor_position is None:
                    raise InferenceError(
                        f"region graph node {neighbor!r} is not in the "
                        "knowledge vocabulary; cannot compile the "
                        "transition model"
                    )
                row.append(neighbor_position)
                edge_weights[(position, neighbor_position)] = graph.edges[
                    region, neighbor
                ].get("weight")
            neighbors.append(tuple(row))

        stats = knowledge._stats
        mean_dwells: list[float | None] = []
        for region in regions:
            region_stats = stats[region]
            if region_stats.visits > 0:
                mean_dwells.append(region_stats.mean_dwell)
            else:
                mean_dwells.append(None)

        return cls(
            generation=knowledge.generation,
            topology=topology,
            regions=regions,
            index=index,
            in_graph=tuple(in_graph),
            neighbors=tuple(neighbors),
            neighbor_sets=tuple(frozenset(row) for row in neighbors),
            prob_rows=tuple(prob_rows),
            log_rows=tuple(log_rows),
            edge_weights=edge_weights,
            mean_dwells=tuple(mean_dwells),
            smoothing=smoothing,
        )

    # ------------------------------------------------------------------
    # Named-region queries (the knowledge fast paths)
    # ------------------------------------------------------------------
    def probability(self, origin: str, destination: str) -> float:
        """Table lookup of the smoothed ``P(destination | origin)``."""
        return self.prob_rows[self.index[origin]][self.index[destination]]

    def log_probability(self, origin: str, destination: str) -> float:
        """Table lookup of ``log P(destination | origin)``."""
        return self.log_rows[self.index[origin]][self.index[destination]]

    def probability_row(self, origin: str) -> tuple[float, ...]:
        """The full smoothed distribution out of ``origin`` (dense)."""
        return self.prob_rows[self.index[origin]]

    def mean_dwell(self, position: int, default: float) -> float:
        """Precomputed mean dwell of the indexed region, with default."""
        value = self.mean_dwells[position]
        return default if value is None else value

    def leg_distance(self, origin: int, destination: int) -> float:
        """Walking distance of one leg, defaulted like the object path."""
        weight = self.edge_weights.get((origin, destination))
        if weight is None or not math.isfinite(weight):
            return 25.0  # conservative unknown-leg estimate
        return weight


def ensure_compiled(
    knowledge: "MobilityKnowledge", topology: "Topology"
) -> CompiledTransitionModel:
    """The attached compiled model, recompiled when stale.

    Freshness means the attached model was compiled from this knowledge
    object's **current** generation and smoothing against this very
    topology object; any mutation since (or a different topology)
    forces a recompile.
    The attach is a single attribute store, so concurrent callers may
    compile the same generation twice — wasteful but exact, never stale.
    """
    # Lazy import: repro.telemetry itself imports this package (for
    # ExactSum), so a module-level import here would be circular.  This
    # runs once per phase-two chunk, not per DP step — the cost is noise.
    from ...telemetry import get_registry

    compiled = knowledge.compiled_model()
    registry = get_registry()
    if compiled is not None and compiled.topology is topology:
        if registry.enabled:
            registry.counter("trips_inference_compile_hits_total").inc()
        return compiled
    compiled = CompiledTransitionModel.compile(knowledge, topology)
    knowledge.attach_compiled(compiled)
    if registry.enabled:
        registry.counter("trips_inference_compiles_total").inc()
    return compiled
