"""Self-tests of the benchmark's own code.

    python3 -m pytest bench -q
"""

import math
import sys

import pytest

from hostspeed import HostSpeed
from run import SRC, Runner, end_to_end, per_layer, summarize
from tracer import LABELS, Tracer, self_times, union_length
from workloads import WORKLOADS, run_seeds

sys.path.insert(0, str(SRC))

import spectral_transfer  # noqa: E402
from spectral_transfer import experiments, filters, graphs, spaces  # noqa: E402


def test_summarize_reports_median_and_sample_count():
    assert summarize([3.0, 1.0, 2.0]) == {"p50": 2.0, "samples": 3}
    assert summarize([4.0, 1.0, 3.0, 2.0]) == {"p50": 2.5, "samples": 4}


def test_host_speed_takes_the_factors_around_each_call():
    speed = HostSpeed(clock=iter([0.0, 3.0, 10.0, 14.0]).__next__)
    factors = iter([2.0, 8.0, 1.0])
    speed.factor = lambda: next(factors)
    assert speed.timed(lambda: "a") == ("a", 3.0, 4.0)
    # The factor after the first call is the factor before the second.
    assert speed.timed(lambda: "b") == ("b", 4.0, math.sqrt(8.0))


def test_host_factor_is_one_at_the_reference_times():
    from hostspeed import REFERENCE_S

    speed = HostSpeed()
    speed.times = lambda: dict(REFERENCE_S)
    assert speed.factor() == pytest.approx(1.0)
    speed.times = lambda: {name: 2 * t for name, t in REFERENCE_S.items()}
    assert speed.factor() == pytest.approx(2.0)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert union_length([], 0, 10) == 0


def test_self_time_subtracts_children_only_once():
    # a [0, 10] holds b [1, 4] and c [5, 6]; b holds d [2, 3].
    spans = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
        ["c", 5.0, 6.0, 0, 0],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_per_layer_means_over_runs():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.wrap("experiments.run_experiment", lambda f: f())
    inner = tracer.wrap("graphs.build_laplacian", lambda: None)
    for run in range(2):
        tracer.run = run
        outer(inner)  # outer spans 3 ticks, inner 1 of them
    metrics = tracer.per_layer(runs=2)
    assert metrics["experiments.run_experiment.calls"] == (1.0, "count")
    assert metrics["experiments.run_experiment.self_s"] == (2.0, "s")
    assert metrics["graphs.build_laplacian.self_s"] == (1.0, "s")


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.startswith("spectral_transfer")
        for attr, value in vars(module).items()
    }


def test_tracer_rebinds_imported_names_and_restores_everything():
    before = _bindings()
    raw_from_graph = spaces.GraphSpace.__dict__["from_graph"]
    raw_basis = spaces.CircleSpace.__dict__["basis_matrix"]
    tracer = Tracer()
    with tracer.installed():
        # A name imported by another module is traced, not only the definition.
        assert experiments.eigendecompose is graphs.eigendecompose
        assert experiments.eigendecompose is not before["spectral_transfer.graphs", "eigendecompose"]
        assert filters.eigendecompose is graphs.eigendecompose
        assert spectral_transfer.run_experiment is experiments.run_experiment
        space = spaces.GraphSpace.from_graph(graphs.path_graph(4))
    assert [s[0] for s in tracer.spans] == [
        "spaces.GraphSpace.from_graph", "graphs.build_laplacian", "graphs.eigendecompose",
    ]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert space.n_vertices == 4
    assert _bindings() == before
    assert spaces.GraphSpace.__dict__["from_graph"] is raw_from_graph
    assert spaces.CircleSpace.__dict__["basis_matrix"] is raw_basis


def test_distinct_ratios_count_repeated_work():
    small, other = graphs.path_graph(5), graphs.grid_graph(2, 3)
    lowpass = filters.make_filter("lowpass(1.0)")
    tracer = Tracer()
    with tracer.installed():
        op = graphs.build_laplacian(small, "unnormalized")
        eig = graphs.eigendecompose(op)
        graphs.eigendecompose(graphs.build_laplacian(small, "unnormalized"))
        eig_other = graphs.eigendecompose(graphs.build_laplacian(other, "unnormalized"))
        filters.filter_matrix(lowpass, eig)
        filters.filter_matrix(filters.make_filter("lowpass(1.0)"), eig)
        filters.filter_matrix(filters.make_filter("heat(1.0)"), eig)
    metrics = tracer.per_layer(runs=1)
    assert metrics["graphs.eigendecompose.distinct_ratio"][0] == 2 / 3
    assert metrics["filters.filter_matrix.distinct_ratio"][0] == 2 / 3
    want_mb = (2 * len(eig.groups) * 5**2 + len(eig_other.groups) * 6**2) * 8 / 2**20
    assert abs(metrics["graphs.eigendecompose.projector_mb"][0] - want_mb) < 1e-12


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_run_seeds_are_a_function_of_the_bench_seed():
    assert run_seeds(3, 4) == run_seeds(3, 4)
    assert run_seeds(3, 4)[:2] == run_seeds(3, 2)
    assert run_seeds(3, 4) != run_seeds(4, 4)


# Small shapes of each workload: the same experiment and code path.
TINY = {
    "graph-perturb": {"graph": "random-geometric(40,0.35)"},
    "mc-large-n": {"sizes": "32, 64, 128", "trials": "60"},
    "mc-verify": {"sizes": "32", "trials": "100"},
    "convnet-probe": {"graph": "grid(5,5)", "probes": "2"},
}
MAIN_LAYER = {
    "graph-perturb": "graphs.eigendecompose",
    "mc-large-n": "sampling.sampled_laplacian_matrix",
    "mc-verify": "montecarlo.mc_trial",
    "convnet-probe": "filters.apply_exact",
}


class _TinyRunner(Runner):
    def run(self, seed, reference_dir=None, **overrides):
        return super().run(seed, reference_dir, **TINY[self.workload.name], **overrides)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_each_workload(name, tmp_path):
    runner = _TinyRunner(WORKLOADS[name], tmp_path)
    metrics, samples = end_to_end(runner, [11, 12], setup_times=[0.5])
    assert samples == 2
    assert set(metrics) == {"run_s.p50", "wall_s", "peak_rss_mb", "setup_s"}
    assert all(value > 0 for value, _ in metrics.values())

    layers = per_layer(runner, [11], tmp_path / "spans.jsonl")
    assert runner.failures == []
    assert runner.attempted == 4
    assert layers[f"{MAIN_LAYER[name]}.calls"][0] >= 1
    assert {f"{label}.calls" for label in LABELS} <= set(layers)
    assert "trace.overhead_frac" in layers
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_failed_check_is_counted(tmp_path):
    runner = Runner(WORKLOADS["convnet-probe"], tmp_path)
    runner.run(5, reference_dir=None, graph="grid(4,4)", probes="2", laplacian="bogus")
    assert runner.attempted == 1
    assert len(runner.failures) == 1


def _write_run(directory, value, verdict="true"):
    directory.mkdir()
    (directory / "summary.txt").write_text('{"certified": true, "error": %r}\n' % value)
    (directory / "bounds.csv").write_text(f"bound,lhs,pass\nworst,{value},{verdict}\n")


def test_check_run_tolerates_roundoff_but_not_changes(tmp_path):
    from check import check_run

    _write_run(tmp_path / "ref", 0.25)
    _write_run(tmp_path / "roundoff", 0.25 * (1 + 1e-9))
    _write_run(tmp_path / "changed", 0.2501)
    _write_run(tmp_path / "verdict", 0.25, verdict="false")
    ref = tmp_path / "ref"
    assert check_run(0, tmp_path / "roundoff", ref) == []
    assert len(check_run(0, tmp_path / "changed", ref)) == 2
    assert any("pass" in p for p in check_run(0, tmp_path / "verdict", ref))
    assert check_run(1, tmp_path / "ref") == ["exit status 1"]
