"""Each operator owns its eigendecomposition: ``op.eig`` is computed once
and every consumer reads it, so no operator is decomposed twice."""

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


def test_perturb_stability_builds_each_fine_filter_matrix_once(monkeypatch, tmp_path):
    built = []  # (filter name, decomposition); holding them keeps ids unique
    original = experiments.filter_matrix

    def recording(filt, eig):
        built.append((filt.name, eig))
        return original(filt, eig)

    monkeypatch.setattr(experiments, "filter_matrix", recording)
    config = ExperimentConfig(
        experiment="perturb-stability", seed=5, out_dir=str(tmp_path),
        graph="random-geometric(30,0.4)",
        filters=("lowpass(1.0)", "heat(1.0)"),
        perturbations=("remove_edges(0.1)", "add_edges(0.1)"),
    )
    assert run_experiment(config).all_certified
    keys = [(name, id(eig)) for name, eig in built]
    # two fine-side matrices shared by both perturbations, plus one per
    # perturbation and filter on the perturbed side
    assert len(keys) == 2 + 2 * 2
    assert len(set(keys)) == len(keys)
