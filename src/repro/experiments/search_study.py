"""The Section III search-strategy study feeding Fig. 5 and Fig. 6.

For each scenario (unconstrained / 1 constraint / 2 constraints) and
each strategy (combined / phase / separate), run ``num_repeats``
independent searches over the enumerated micro space and keep the
archives.  Fig. 5 consumes the per-repeat best points and the top-100
reward-ranked Pareto points; Fig. 6 consumes the averaged reward
traces.

The study itself is **spec-driven**: the grid is declared as a
:class:`repro.core.study.StudySpec` (the ``search-study``, ``fig5``
and ``fig6`` presets in :mod:`repro.experiments.presets`) and
materialized through the strategy and accuracy-source registries by
:func:`repro.core.study.run_study`, which returns the
:class:`SearchStudyResult` defined here.  ``repro run fig5|fig6``
builds the ``search-study`` spec from its flags; ``repro study run``
runs any spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.evaluator import CodesignEvaluator
from repro.core.reward import RewardConfig
from repro.experiments.common import Scale, SpaceBundle
from repro.search.runner import RepeatOutcome

__all__ = [
    "SearchStudyResult",
    "top_pareto_by_reward",
    "make_bundle_evaluator",
]


def make_bundle_evaluator(
    bundle: SpaceBundle, scenario: RewardConfig
) -> CodesignEvaluator:
    """Database evaluator with the bundle's precomputed latency table."""
    evaluator = CodesignEvaluator.from_database(
        bundle.database, scenario, platform=bundle.platform
    )
    evaluator.attach_latency_table(
        bundle.latency_ms, bundle.row_of_hash(), bundle.space
    )
    return evaluator


def top_pareto_by_reward(
    bundle: SpaceBundle, scenario: RewardConfig, k: int = 100
) -> list[dict]:
    """Top-``k`` Pareto-optimal points under a scenario's reward.

    The reference set Fig. 5 plots: Pareto points of the full space,
    ranked by the experiment's reward function (infeasible Pareto
    points are excluded, as in the paper).
    """
    from repro.core.pareto import reward_ranked_points

    return reward_ranked_points(bundle.front, scenario, k)


@dataclass
class SearchStudyResult:
    """All repeats for every (scenario, strategy) pair."""

    outcomes: dict[str, dict[str, RepeatOutcome]]
    pareto_top100: dict[str, list[dict]]
    scale: Scale
    extras: dict = field(default_factory=dict)

    def best_points_table(self, scenario: str) -> list[tuple]:
        """Fig. 5 rows: per-repeat best point of each strategy."""
        rows = []
        for strategy, outcome in self.outcomes[scenario].items():
            for entry in outcome.best_entries():
                m = entry.metrics
                rows.append(
                    (
                        strategy,
                        round(m.latency_ms, 2),
                        round(m.accuracy, 2),
                        round(m.area_mm2, 1),
                        round(entry.reward, 4),
                    )
                )
        return rows

    def mean_final_rewards(self) -> dict[str, dict[str, float]]:
        """Scenario -> strategy -> mean best reward over repeats."""
        return {
            scenario: {
                strategy: outcome.mean_best_reward()
                for strategy, outcome in by_strategy.items()
            }
            for scenario, by_strategy in self.outcomes.items()
        }
