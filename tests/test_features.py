"""Unit tests for repro.trees.features (clustering feature vectors)."""

import numpy as np
import pytest

from repro.isomorphism import contains
from repro.trees import FCTSet, FeatureSpace

from .conftest import make_graph


@pytest.fixture
def space(paper_db):
    fct_set = FCTSet(dict(paper_db.items()), sup_min=3 / 9, max_edges=3)
    return FeatureSpace(fct_set.fcts()), fct_set


class TestFeatureSpace:
    def test_dimensions(self, space):
        feature_space, fct_set = space
        assert len(feature_space) == len(fct_set.fcts())

    def test_duplicate_features_rejected(self, space):
        feature_space, fct_set = space
        features = fct_set.fcts()
        with pytest.raises(ValueError):
            FeatureSpace(features + features[:1])

    def test_vector_for_known_matches_cover(self, space, paper_db):
        feature_space, fct_set = space
        for graph_id in paper_db.ids():
            vector = feature_space.vector_for_known(graph_id)
            for i, feature in enumerate(feature_space.features):
                assert vector[i] == (1.0 if graph_id in feature.cover else 0.0)

    def test_vector_of_added_graph_agrees_with_vf2(self, space):
        """A graph FCT maintenance has added reads the same vector from
        the covers as literal containment tests give."""
        _, fct_set = space
        added = {
            100: make_graph("COS", [(0, 1), (0, 2)]),
            101: make_graph("CONS", [(0, 1), (1, 2), (0, 3)]),
        }
        fct_set.apply(added=added)
        feature_space = FeatureSpace(fct_set.fcts())
        assert len(feature_space)
        for graph_id, graph in added.items():
            literal = np.array(
                [
                    1.0 if contains(graph, feature.tree) else 0.0
                    for feature in feature_space.features
                ]
            )
            assert literal.any()
            assert np.array_equal(
                feature_space.vector_for_known(graph_id), literal
            )

    def test_vector_for_unseen_graph(self, space):
        _, fct_set = space
        fct_set.apply(added={100: make_graph("PP", [(0, 1)])})
        feature_space = FeatureSpace(fct_set.fcts())
        assert feature_space.vector_for_known(100).sum() == 0.0

    def test_matrix_for_known_row_order(self, space, paper_db):
        feature_space, _ = space
        ids = paper_db.ids()
        matrix = feature_space.matrix_for_known(ids)
        assert matrix.shape == (len(ids), len(feature_space))
        for row, graph_id in enumerate(ids):
            assert np.array_equal(
                matrix[row], feature_space.vector_for_known(graph_id)
            )

    def test_empty_feature_space(self):
        space = FeatureSpace([])
        assert len(space) == 0
        assert space.vector_for_known(0).shape == (0,)
