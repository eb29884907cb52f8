"""Unit tests for proposal post-processing and accuracy metrics."""

import numpy as np
import pytest

from repro.core.evaluation import average_iou, compliance_rate, match_to_ground_truth, proposal_statistics
from repro.core.objective import LogObjective
from repro.core.postprocess import RegionProposal, proposals_from_result
from repro.core.query import RegionQuery
from repro.data.engine import DataEngine
from repro.data.regions import Region
from repro.data.statistics import CountStatistic
from repro.exceptions import ValidationError
from repro.optim.result import OptimizationResult


def constant_statistic(vectors: np.ndarray) -> np.ndarray:
    return np.full(vectors.shape[0], 50.0)


def center_statistic(vectors: np.ndarray) -> np.ndarray:
    return 100.0 * vectors[:, 0]


def make_result(vectors, fitness):
    vectors = np.asarray(vectors, dtype=np.float64)
    return OptimizationResult(
        positions=vectors,
        fitness=np.asarray(fitness, dtype=np.float64),
        initial_positions=vectors.copy(),
    )


@pytest.fixture()
def simple_objective():
    return LogObjective(constant_statistic, RegionQuery(threshold=10.0, direction="above"))


class TestProposalsFromResult:
    def test_infeasible_particles_are_dropped(self, simple_objective):
        result = make_result([[0.5, 0.5, 0.1, 0.1]], [-np.inf])
        assert proposals_from_result(result, simple_objective) == []

    def test_overlapping_particles_merge_into_one_proposal(self, simple_objective):
        vectors = [
            [0.5, 0.5, 0.1, 0.1],
            [0.51, 0.5, 0.1, 0.1],
            [0.5, 0.49, 0.1, 0.1],
        ]
        result = make_result(vectors, [3.0, 2.0, 1.0])
        proposals = proposals_from_result(result, simple_objective, overlap_threshold=0.3)
        assert len(proposals) == 1
        assert proposals[0].support == 3

    def test_distant_particles_stay_separate(self, simple_objective):
        vectors = [
            [0.2, 0.2, 0.05, 0.05],
            [0.8, 0.8, 0.05, 0.05],
        ]
        result = make_result(vectors, [2.0, 1.0])
        proposals = proposals_from_result(result, simple_objective)
        assert len(proposals) == 2

    def test_proposals_sorted_by_objective(self, simple_objective):
        vectors = [
            [0.2, 0.2, 0.05, 0.05],
            [0.8, 0.8, 0.05, 0.05],
        ]
        result = make_result(vectors, [1.0, 5.0])
        proposals = proposals_from_result(result, simple_objective)
        assert proposals[0].objective_value >= proposals[1].objective_value

    def test_max_proposals_limits_output(self, simple_objective):
        vectors = [[0.1 * i + 0.05, 0.5, 0.02, 0.02] for i in range(8)]
        result = make_result(vectors, list(range(8)))
        proposals = proposals_from_result(result, simple_objective, max_proposals=3)
        assert len(proposals) == 3

    def test_min_support_filters_singletons(self, simple_objective):
        vectors = [
            [0.2, 0.2, 0.05, 0.05],
            [0.21, 0.2, 0.05, 0.05],
            [0.8, 0.8, 0.05, 0.05],
        ]
        result = make_result(vectors, [3.0, 2.0, 1.0])
        proposals = proposals_from_result(
            result, simple_objective, overlap_threshold=0.3, min_support=2
        )
        assert len(proposals) == 1
        assert proposals[0].support == 2

    def test_predicted_value_comes_from_predictor(self):
        objective = LogObjective(
            lambda vectors: np.full(vectors.shape[0], 123.0), RegionQuery(threshold=10.0)
        )
        result = make_result([[0.5, 0.5, 0.1, 0.1]], [1.0])
        proposals = proposals_from_result(result, objective)
        assert proposals[0].predicted_value == pytest.approx(123.0)

    def test_invalid_parameters_rejected(self, simple_objective):
        result = make_result([[0.5, 0.5, 0.1, 0.1]], [1.0])
        with pytest.raises(ValidationError):
            proposals_from_result(result, simple_objective, overlap_threshold=1.5)
        with pytest.raises(ValidationError):
            proposals_from_result(result, simple_objective, min_support=0)

    def test_proposal_vector_round_trip(self):
        region = Region([0.4, 0.6], [0.1, 0.2])
        proposal = RegionProposal(region=region, predicted_value=1.0, objective_value=2.0)
        np.testing.assert_allclose(proposal.vector, region.to_vector())

    def test_objective_value_matches_reported_region(self):
        # Regression: proposals used to report the cluster *seed's* fitness but
        # the max-margin *member's* region, so objective_value did not
        # correspond to region.  The representative's objective must be
        # re-evaluated for the vector actually reported.
        query = RegionQuery(threshold=10.0, direction="above")
        objective = LogObjective(center_statistic, query)
        # Two overlapping particles: index 0 gets the (fake) higher swarm
        # fitness and seeds the cluster, index 1 has the larger predicted
        # margin and becomes the representative.
        vectors = np.array(
            [
                [0.50, 0.5, 0.1, 0.1],
                [0.52, 0.5, 0.1, 0.1],
            ]
        )
        result = make_result(vectors, [99.0, 1.0])
        proposals = proposals_from_result(result, objective, overlap_threshold=0.3)
        assert len(proposals) == 1
        proposal = proposals[0]
        np.testing.assert_allclose(proposal.vector, vectors[1])
        assert proposal.predicted_value == pytest.approx(52.0)
        assert proposal.objective_value == pytest.approx(objective.evaluate_batch(vectors[1:])[0])
        assert proposal.objective_value != pytest.approx(99.0)

    def test_proposals_sorted_by_recomputed_objective(self):
        query = RegionQuery(threshold=10.0, direction="above")
        objective = LogObjective(center_statistic, query)
        # Swarm fitness order (fake) disagrees with the true objective order;
        # sorting must follow the re-evaluated representative objectives.
        vectors = np.array(
            [
                [0.30, 0.5, 0.05, 0.05],
                [0.90, 0.5, 0.05, 0.05],
            ]
        )
        result = make_result(vectors, [50.0, 1.0])
        proposals = proposals_from_result(result, objective)
        assert len(proposals) == 2
        assert proposals[0].objective_value >= proposals[1].objective_value
        assert proposals[0].predicted_value == pytest.approx(90.0)


class TestEvaluationMetrics:
    def test_match_to_ground_truth_perfect_match(self):
        truth = [Region([0.5, 0.5], [0.1, 0.1])]
        proposals = [Region([0.5, 0.5], [0.1, 0.1])]
        assert match_to_ground_truth(proposals, truth) == [pytest.approx(1.0)]

    def test_match_handles_empty_proposals(self):
        truth = [Region([0.5], [0.1]), Region([0.2], [0.05])]
        assert match_to_ground_truth([], truth) == [0.0, 0.0]

    def test_average_iou_mixes_matched_and_unmatched(self):
        truth = [Region([0.2, 0.2], [0.1, 0.1]), Region([0.8, 0.8], [0.1, 0.1])]
        proposals = [Region([0.2, 0.2], [0.1, 0.1])]
        assert average_iou(proposals, truth) == pytest.approx(0.5)

    def test_average_iou_accepts_region_proposals(self):
        truth = [Region([0.2, 0.2], [0.1, 0.1])]
        proposals = [
            RegionProposal(region=Region([0.2, 0.2], [0.1, 0.1]), predicted_value=1.0, objective_value=1.0)
        ]
        assert average_iou(proposals, truth) == pytest.approx(1.0)

    def test_average_iou_empty_ground_truth_is_zero(self):
        assert average_iou([Region([0.5], [0.1])], []) == 0.0

    def test_compliance_rate_counts_true_satisfaction(self, simple_dataset):
        engine = DataEngine(simple_dataset, CountStatistic())
        query = RegionQuery(threshold=1.5, direction="above")
        good = Region.from_bounds([0.0, 0.0, 0.0], [1.0, 1.0, 10.0])  # contains 5 points
        bad = Region.from_bounds([0.0, 0.0, 0.0], [0.05, 0.05, 0.5])  # contains none
        assert compliance_rate([good, bad], engine, query) == pytest.approx(0.5)

    def test_compliance_rate_empty_proposals_is_zero(self, simple_dataset):
        engine = DataEngine(simple_dataset, CountStatistic())
        assert compliance_rate([], engine, RegionQuery(threshold=1.0)) == 0.0

    def test_proposal_statistics_returns_true_values(self, simple_dataset):
        engine = DataEngine(simple_dataset, CountStatistic())
        regions = [Region.from_bounds([0.0, 0.0, 0.0], [0.3, 0.3, 3.0])]
        np.testing.assert_allclose(proposal_statistics(regions, engine), [2.0])
