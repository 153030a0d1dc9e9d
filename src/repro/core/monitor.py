"""The FlowPulse monitor: model + detection + localization, end to end.

One :class:`FlowPulseMonitor` watches one job across the whole fabric.
Per collective iteration it receives the per-leaf
:class:`~repro.simnet.counters.IterationRecord` measurements (from the
packet simulator's collectors or from the fast simulator), updates the
load model if it is a learning one, runs every leaf's threshold
detector independently — there is no inter-switch coordination, as in
the paper — and localizes any deficit alarms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..simnet.counters import IterationRecord
from .blocks import BlockError, IterationSegment
from .detection import DetectionConfig, DetectionResult, ThresholdDetector, _prediction_state
from .localization import LocalizationResult, Localizer
from .prediction.base import LoadPredictor
from .prediction.learning import LearningEvent


@dataclass(frozen=True)
class IterationVerdict:
    """Outcome of monitoring one collective iteration."""

    iteration: int
    learning_event: LearningEvent
    skipped: bool  # True while the learning predictor warms up / relearns
    results: tuple[DetectionResult, ...] = ()
    localizations: tuple[LocalizationResult, ...] = ()

    @property
    def triggered(self) -> bool:
        return any(r.triggered for r in self.results)

    @property
    def max_score(self) -> float:
        """The iteration's classifier score: worst |deviation| anywhere."""
        return max((r.max_abs_deviation for r in self.results), default=0.0)

    def suspected_links(self) -> frozenset[str]:
        return frozenset(
            link for loc in self.localizations for link in loc.suspected_links()
        )


@dataclass
class RunVerdict:
    """Aggregate over a monitored run (many iterations)."""

    verdicts: list[IterationVerdict] = field(default_factory=list)

    @property
    def triggered(self) -> bool:
        return any(v.triggered for v in self.verdicts)

    @property
    def first_detection_iteration(self) -> int | None:
        for verdict in self.verdicts:
            if verdict.triggered:
                return verdict.iteration
        return None

    @property
    def max_score(self) -> float:
        scored = [v.max_score for v in self.verdicts if not v.skipped]
        return max(scored, default=0.0)

    def suspected_links(self) -> frozenset[str]:
        return frozenset(
            link for v in self.verdicts for link in v.suspected_links()
        )

    def suspicion_counts(self) -> dict[str, int]:
        """How many iteration-leaf observations implicated each link."""
        counts: dict[str, int] = {}
        for verdict in self.verdicts:
            for localization in verdict.localizations:
                for suspicion in localization.suspicions:
                    counts[suspicion.link] = counts.get(suspicion.link, 0) + 1
        return counts


class FlowPulseMonitor:
    """Fabric-wide FlowPulse instance for one monitored job."""

    def __init__(
        self,
        predictor: LoadPredictor,
        config: DetectionConfig | None = None,
        localizer: Localizer | None = None,
        telemetry=None,
    ) -> None:
        self.predictor = predictor
        self.config = config or DetectionConfig()
        self.detector = ThresholdDetector(self.config)
        self.localizer = localizer or Localizer(
            sender_threshold=self.config.threshold
        )
        #: Optional telemetry session (duck-typed; see
        #: :mod:`repro.telemetry.audit` for the emitted schema).  The
        #: audit trail is observation-only: it reads finished verdicts,
        #: so enabling it cannot change any detection outcome.
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def process_iteration(
        self, records: list[IterationRecord]
    ) -> IterationVerdict:
        """Monitor one iteration; records must be ordered by leaf."""
        event = self.predictor.update(records)
        if self._skips(event):
            iteration = records[0].tag.iteration if records else -1
            verdict = IterationVerdict(
                iteration=iteration, learning_event=event, skipped=True
            )
            if self.telemetry is not None:
                self._audit(verdict)
            return verdict
        verdict = self._score_iteration(records, event, self.predictor.predict())
        if self.telemetry is not None:
            self._audit(verdict)
        return verdict

    def _skips(self, event: LearningEvent) -> bool:
        """Whether this iteration's records must not be detected on:
        predictor not ready, or the baseline was built *from* these
        records (checking them against it would be circular)."""
        return (
            not self.predictor.ready
            or event is LearningEvent.HEALING_DETECTED
            or event in (LearningEvent.BASELINE_READY, LearningEvent.REBASELINED)
        )

    def _score_iteration(
        self, records: list[IterationRecord], event: LearningEvent, prediction
    ) -> IterationVerdict:
        """The scalar scoring oracle: detect + localize one iteration
        against a ready prediction.  Every other scoring path (including
        the vectorized block pass) must match this bit for bit."""
        iteration = records[0].tag.iteration if records else -1
        results = []
        localizations = []
        for record in records:
            leaf_prediction = prediction.for_leaf(record.leaf)
            result = self.detector.evaluate(record, leaf_prediction)
            results.append(result)
            if result.triggered:
                localizations.append(
                    self.localizer.localize(record, leaf_prediction, result)
                )
        return IterationVerdict(
            iteration=iteration,
            learning_event=event,
            skipped=False,
            results=tuple(results),
            localizations=tuple(localizations),
        )

    # ------------------------------------------------------------------
    def process_block(self, block) -> list[IterationVerdict]:
        """Score a batch of iterations in one pass; bit-identical to
        sequential :meth:`process_iteration` calls.

        ``block`` is a sequence of columnar
        :class:`~repro.core.blocks.IterationSegment` entries, one per
        iteration; anything else raises
        :class:`~repro.core.blocks.BlockError`.  Predictor updates
        run in iteration order (learning predictors stay correct);
        scoring is then grouped by prediction and, where segments are
        dense (uniform port pattern, every predicted port above
        ``min_port_bytes``), evaluated as one vectorized numpy pass over
        the whole ``(iterations, leaves, ports)`` value block.  The
        arithmetic is the same float64 arithmetic as the scalar
        detector's, so quiet iterations produce identical results;
        triggered or irregular leaves are re-evaluated through the
        scalar oracle, which makes parity exact everywhere.
        """
        predictor = self.predictor
        stateless = type(predictor).update is LoadPredictor.update
        verdicts: list[IterationVerdict | None] = [None] * len(block)
        groups: dict[int, list] = {}
        predictions: dict[int, object] = {}
        for index, segment in enumerate(block):
            if not isinstance(segment, IterationSegment):
                raise BlockError(
                    f"process_block takes IterationSegment entries, got "
                    f"{type(segment).__name__} (use process_iteration for "
                    "record lists)"
                )
            if stateless:
                # The base update ignores its records and returns NONE;
                # skipping it avoids materializing columnar records.
                event = LearningEvent.NONE
            else:
                event = predictor.update(segment.records())
            if self._skips(event):
                verdicts[index] = IterationVerdict(
                    iteration=segment.iteration, learning_event=event, skipped=True
                )
                continue
            prediction = predictor.predict()
            key = id(prediction)
            predictions[key] = prediction
            groups.setdefault(key, []).append((index, segment, event))
        for key, members in groups.items():
            self._score_group(predictions[key], members, verdicts)
        if self.telemetry is not None:
            # Audit in iteration order, matching the sequential path.
            for verdict in verdicts:
                self._audit(verdict)
        return verdicts

    def _score_group(self, prediction, members, verdicts) -> None:
        """Score iterations that share one prediction object.

        Falls back to the scalar oracle per iteration whenever the dense
        preconditions fail; otherwise runs the vectorized pass.
        """
        plan = self._dense_plan(prediction, members)
        if plan is None:
            for index, segment, event in members:
                verdicts[index] = self._score_iteration(
                    segment.records(), event, prediction
                )
            return
        leaves, states, pattern_width = plan
        threshold = self.config.threshold
        segments = [segment for _i, segment, _ev in members]
        observed = np.empty((len(segments), len(leaves), pattern_width))
        for position, segment in enumerate(segments):
            observed[position] = segment.port_value_matrix()
        expected = np.array([state[2] for state in states])  # (m, p)
        deviations = (observed - expected) / expected
        magnitudes = np.abs(deviations)
        worst = magnitudes.max(axis=2).tolist()
        # Inclusive boundary, as in the scalar detector.
        triggered = (magnitudes >= threshold).any(axis=2)
        for position, (index, segment, event) in enumerate(members):
            iteration = segment.iteration
            observed_rows = observed[position].tolist()
            deviation_rows = deviations[position].tolist()
            triggered_row = triggered[position]
            results = []
            localizations = []
            for j, leaf in enumerate(leaves):
                leaf_prediction, ports, expected_floats = states[j]
                if triggered_row[j]:
                    # Alarm-bearing leaves go through the scalar oracle:
                    # identical detection plus the localization pass.
                    record = segment.record(j)
                    result = self.detector.evaluate(record, leaf_prediction)
                    results.append(result)
                    if result.triggered:
                        localizations.append(
                            self.localizer.localize(record, leaf_prediction, result)
                        )
                else:
                    results.append(
                        DetectionResult(
                            leaf,
                            iteration,
                            alarms=(),
                            max_abs=worst[position][j],
                            _lazy=(
                                leaf,
                                ports,
                                expected_floats,
                                observed_rows[j],
                                deviation_rows[j],
                            ),
                        )
                    )
            verdicts[index] = IterationVerdict(
                iteration=iteration,
                learning_event=event,
                skipped=False,
                results=tuple(results),
                localizations=tuple(localizations),
            )

    def _dense_plan(self, prediction, members):
        """``(leaves, per-leaf states, pattern width)`` when every member
        segment satisfies the vectorized fast path, else ``None``.

        Dense means: all member segments share one leaf order and one
        sorted port pattern, and every leaf's
        prediction covers exactly that pattern with all expected volumes
        at or above ``min_port_bytes`` (and positive, so the division is
        the same operation the scalar fast path performs).
        """
        first = members[0][1]
        pattern = first.port_pattern()
        if pattern is None:
            return None
        leaves_array = first.leaves
        for _index, segment, _event in members[1:]:
            if segment.port_pattern() is None:
                return None
            if not np.array_equal(segment.leaves, leaves_array):
                return None
            if not np.array_equal(segment.port_pattern(), pattern):
                return None
        pattern_list = pattern.tolist()
        min_port_bytes = self.config.min_port_bytes
        leaves = [int(leaf) for leaf in leaves_array]
        states = []
        for leaf in leaves:
            leaf_prediction = prediction.for_leaf(leaf)
            ports, expected_floats, any_small = _prediction_state(
                leaf_prediction, min_port_bytes
            )
            if any_small or ports != pattern_list or min(expected_floats) <= 0.0:
                return None
            states.append((leaf_prediction, ports, expected_floats))
        return leaves, states, len(pattern_list)

    # ------------------------------------------------------------------
    def _audit(self, verdict: IterationVerdict) -> None:
        """Emit the iteration's audit trail (schema:
        :mod:`repro.telemetry.audit`).  Pure observation — reads the
        finished verdict, mutates nothing."""
        t = self.telemetry
        t.emit(
            "audit.iteration",
            iteration=verdict.iteration,
            learning_event=verdict.learning_event.name,
            skipped=verdict.skipped,
            triggered=verdict.triggered,
            max_score=verdict.max_score,
            leaves=len(verdict.results),
        )
        t.counter("audit.iterations").inc()
        if verdict.skipped:
            t.counter("audit.skipped_iterations").inc()
            return
        for result in verdict.results:
            t.emit(
                "audit.leaf",
                iteration=verdict.iteration,
                leaf=result.leaf,
                triggered=result.triggered,
                max_abs_deviation=result.max_abs_deviation,
                ports=result.audit_ports(),
            )
            for alarm in result.alarms:
                t.emit(
                    "audit.alarm",
                    iteration=verdict.iteration,
                    leaf=alarm.leaf,
                    spine=alarm.spine,
                    predicted=alarm.predicted,
                    observed=alarm.observed,
                    deviation=alarm.deviation,
                    deficit=alarm.is_deficit,
                )
                t.counter("audit.alarms").inc()
        for localization in verdict.localizations:
            t.emit(
                "audit.localization",
                iteration=verdict.iteration,
                leaf=localization.leaf,
                suspicions=[
                    {
                        "link": s.link,
                        "kind": s.kind,
                        "spine": s.spine,
                        "affected_senders": list(s.affected_senders),
                        "deviation": s.deviation,
                    }
                    for s in localization.suspicions
                ],
            )
            t.counter("audit.localizations").inc()

    def process_run(
        self, run_records: list[list[IterationRecord]]
    ) -> RunVerdict:
        """Monitor a sequence of iterations."""
        verdict = RunVerdict()
        for records in run_records:
            verdict.verdicts.append(self.process_iteration(records))
        return verdict


def score_for_roc(verdict: RunVerdict, cap: float = 10.0) -> float:
    """Collapse a run verdict to a finite ROC score.

    Infinite deviations (traffic on a port predicted idle) are capped so
    ROC sweeps stay numerically well-behaved.
    """
    score = verdict.max_score
    return min(score, cap) if math.isfinite(score) else cap
