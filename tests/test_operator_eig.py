"""Each operator owns its eigendecomposition: ``op.eig`` is computed once
and every consumer reads it, so no operator is decomposed twice, and no
run turns it into an n x n filter matrix."""

from types import SimpleNamespace

import pytest

from spectral_transfer import experiments, graphs
from spectral_transfer.experiments import ExperimentConfig, run_experiment
from spectral_transfer.graphs import build_laplacian, path_graph


@pytest.fixture()
def decomposed(monkeypatch):
    """Operators passed to ``graphs.eigendecompose``, one entry per call."""
    calls = []
    original = graphs.eigendecompose

    def counting(op):
        calls.append(op)
        return original(op)

    monkeypatch.setattr(graphs, "eigendecompose", counting)
    return calls


def test_eig_is_computed_once_and_cached(decomposed):
    op = build_laplacian(path_graph(6), "unnormalized")
    assert op.eig is op.eig
    assert decomposed == [op]


def test_convnet_transfer_decomposes_each_operator_once(decomposed, tmp_path):
    # the input operator, its perturbed copy and the two coarsened
    # operators; the non-pooling second layer hands its operator on
    config = ExperimentConfig(
        experiment="convnet-transfer", seed=3, out_dir=str(tmp_path),
        graph="grid(5,5)", laplacian="normalized",
        net_perturbation="add_edges(0.05)", probes=2,
    )
    assert run_experiment(config).all_certified
    assert len(decomposed) == 4
    assert len({id(op) for op in decomposed}) == 4


@pytest.mark.parametrize("experiment, keys", [
    ("perturb-stability", {"graph": "random-geometric(30,0.4)",
                           "filters": ("lowpass(1.0)", "heat(1.0)", "poly(0,1)"),
                           "perturbations": ("remove_edges(0.1)", "add_edges(0.1)",
                                             "remove_vertices(0.1)")}),
    ("coarsen-transfer", {"graph": "grid(5,5)"}),
    ("convnet-transfer", {"graph": "grid(5,5)", "laplacian": "normalized", "probes": 2}),
], ids=["perturb-stability", "coarsen-transfer", "convnet-transfer"])
def test_no_run_forms_an_n_by_n_filter_matrix(monkeypatch, tmp_path, experiment, keys):
    def dense(self, values):
        raise AssertionError("an n x n filter matrix was formed")

    monkeypatch.setattr(graphs.EigenDecomposition, "apply_function", dense)
    config = ExperimentConfig(experiment=experiment, seed=5, out_dir=str(tmp_path), **keys)
    assert run_experiment(config).all_certified


@pytest.mark.parametrize("perturbations, restricted", [
    (("remove_edges(0.1)", "add_edges(0.1)"), 0),
    (("remove_edges(0.1)", "remove_vertices(0.1)"), 1),
])
def test_perturb_stability_restricts_the_fine_operator_only_when_vertices_go(
        monkeypatch, tmp_path, perturbations, restricted):
    built = []  # fine operators the runner restricts and wraps
    original = experiments.OperatorWithInnerProduct.symmetric
    monkeypatch.setattr(experiments, "OperatorWithInnerProduct", SimpleNamespace(
        symmetric=lambda mat: built.append(mat) or original(mat)
    ))
    config = ExperimentConfig(
        experiment="perturb-stability", seed=5, out_dir=str(tmp_path),
        graph="random-geometric(30,0.4)", filters=("heat(1.0)",),
        perturbations=perturbations,
    )
    assert run_experiment(config).all_certified
    assert len(built) == restricted
