"""Unit tests for the baseline region-mining methods."""

import numpy as np
import pytest

from repro.baselines.naive import NaiveGridSearch
from repro.baselines.prim import PRIM, PrimBox
from repro.baselines.true_gso import TrueFunctionGSO
from repro.core.evaluation import average_iou, compliance_rate
from repro.core.query import RegionQuery
from repro.data.engine import DataEngine
from repro.exceptions import ValidationError
from repro.optim.gso import GSOParameters


class TestNaiveGridSearch:
    def test_candidate_count_formula(self, density_engine):
        naive = NaiveGridSearch(num_centers=4, num_lengths=3)
        assert naive.num_candidates(density_engine) == (4 * 3) ** density_engine.region_dim

    def test_finds_planted_region(self, small_density_synthetic, density_engine, density_query):
        naive = NaiveGridSearch(num_centers=6, num_lengths=4, max_half_fraction=0.3)
        proposals = naive.find_regions(density_engine, density_query, max_proposals=5)
        assert proposals
        assert average_iou(proposals, small_density_synthetic.ground_truth_regions) > 0.2

    def test_all_proposals_satisfy_query(self, density_engine, density_query):
        naive = NaiveGridSearch(num_centers=5, num_lengths=3, max_half_fraction=0.3)
        proposals = naive.find_regions(density_engine, density_query)
        assert compliance_rate(proposals, density_engine, density_query) == pytest.approx(1.0)

    def test_report_records_evaluations(self, density_engine, density_query):
        naive = NaiveGridSearch(num_centers=4, num_lengths=3)
        naive.find_regions(density_engine, density_query)
        report = naive.last_report_
        assert report.num_evaluated == report.num_candidates
        assert not report.timed_out
        assert report.fraction_evaluated == pytest.approx(1.0)

    def test_time_budget_stops_early(self, density_engine, density_query):
        naive = NaiveGridSearch(num_centers=12, num_lengths=12, time_budget_seconds=0.01)
        naive.find_regions(density_engine, density_query)
        report = naive.last_report_
        assert report.timed_out
        assert report.fraction_evaluated < 1.0

    def test_max_candidates_strides_the_grid(self, density_engine, density_query):
        naive = NaiveGridSearch(num_centers=10, num_lengths=10, max_candidates=100)
        naive.find_regions(density_engine, density_query)
        assert naive.last_report_.num_evaluated <= 110

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            NaiveGridSearch(num_centers=0)
        with pytest.raises(ValidationError):
            NaiveGridSearch(min_half_fraction=0.5, max_half_fraction=0.1)


class TestPRIM:
    def test_finds_high_response_box(self, aggregate_synthetic):
        dataset = aggregate_synthetic.dataset
        points = dataset.select_columns(aggregate_synthetic.region_columns).values
        response = dataset.column("target")
        prim = PRIM(mass_min=0.02, threshold=2.0, max_boxes=2)
        boxes = prim.find_boxes(points, response)
        assert boxes
        assert boxes[0].mean_response > 2.0

    def test_box_overlaps_ground_truth_on_aggregate_data(self, aggregate_synthetic):
        dataset = aggregate_synthetic.dataset
        points = dataset.select_columns(aggregate_synthetic.region_columns).values
        response = dataset.column("target")
        prim = PRIM(mass_min=0.02, threshold=2.0, max_boxes=2)
        proposals = prim.find_regions(points, response)
        assert average_iou(proposals, aggregate_synthetic.ground_truth_regions) > 0.15

    def test_density_data_without_response_gives_poor_regions(self, small_density_synthetic):
        dataset = small_density_synthetic.dataset
        points = dataset.values
        prim = PRIM(mass_min=0.02, max_boxes=2)
        proposals = prim.find_regions(points, np.ones(points.shape[0]))
        # With a constant response PRIM has no signal — exactly the paper's point.
        assert average_iou(proposals, small_density_synthetic.ground_truth_regions) < 0.3

    def test_box_support_respects_mass_min(self, aggregate_synthetic):
        dataset = aggregate_synthetic.dataset
        points = dataset.select_columns(aggregate_synthetic.region_columns).values
        response = dataset.column("target")
        prim = PRIM(mass_min=0.05, max_boxes=1)
        boxes = prim.find_boxes(points, response)
        assert boxes[0].support >= int(np.ceil(0.05 * points.shape[0]))

    def test_max_boxes_limits_output(self, aggregate_synthetic):
        dataset = aggregate_synthetic.dataset
        points = dataset.select_columns(aggregate_synthetic.region_columns).values
        response = dataset.column("target")
        prim = PRIM(mass_min=0.02, max_boxes=1)
        assert len(prim.find_boxes(points, response)) <= 1

    def test_prim_box_to_region_handles_degenerate_sides(self):
        box = PrimBox(
            lower=np.array([0.1, 0.5]),
            upper=np.array([0.3, 0.5]),
            mean_response=1.0,
            support=10,
            mass=0.1,
        )
        region = box.to_region()
        assert np.all(region.half_lengths > 0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            PRIM(peel_alpha=0.9)
        with pytest.raises(ValidationError):
            PRIM(mass_min=0.0)
        with pytest.raises(ValidationError):
            PRIM(max_boxes=0)

    def test_mismatched_response_length_rejected(self):
        prim = PRIM()
        with pytest.raises(ValidationError):
            prim.find_boxes(np.ones((10, 2)), np.ones(5))


class TestTrueFunctionGSO:
    def test_finds_planted_region(self, small_density_synthetic, density_engine, density_query):
        baseline = TrueFunctionGSO(
            gso_parameters=GSOParameters(num_particles=40, num_iterations=30, random_state=0),
            random_state=0,
        )
        proposals = baseline.find_regions(density_engine, density_query)
        result = baseline.last_result_
        assert result.function_evaluations > 0
        regions = proposals or []
        # Either the de-duplicated proposals or the feasible particles should hit the GT.
        from repro.data.regions import Region

        particles = [Region.from_vector(v) for v in result.optimization.feasible_positions]
        iou = average_iou(particles or regions, small_density_synthetic.ground_truth_regions)
        assert iou > 0.1

    def test_records_elapsed_time(self, density_engine, density_query):
        baseline = TrueFunctionGSO(
            gso_parameters=GSOParameters(num_particles=20, num_iterations=10, random_state=0)
        )
        baseline.find_regions(density_engine, density_query)
        assert baseline.last_result_.elapsed_seconds > 0
