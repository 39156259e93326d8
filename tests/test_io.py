"""Graph file formats, report emission, and experiment configuration."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from spectral_transfer.errors import SpectralTransferError
from spectral_transfer.graph_io import parse_graph, synthetic_graph
from spectral_transfer.graphs import path_graph
from spectral_transfer.reports import (
    ReportBundle,
    ScatterData,
    emit_reports,
    render_scatter_svg,
)
from spectral_transfer.experiments import (
    CONFIG_KEYS,
    EXPERIMENTS,
    ExperimentConfig,
    run_experiment,
    split_top_level,
)
from spectral_transfer.textio import TextFile, config_entries, parse_descriptor

from edge_arrays import edge_arrays, triple_arrays


class TestEdgeList:
    def test_p3(self, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("0 1 1.0\n1 2 1.0\n")
        graph = parse_graph(path, "edge_list")
        assert edge_arrays(graph) == edge_arrays(path_graph(3))

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1 2.5  # inline\n")
        graph = parse_graph(path)
        assert edge_arrays(graph) == ([0], [1], [2.5])

    def test_malformed_token_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 x 1.0\n")
        with pytest.raises(SpectralTransferError, match=re.escape(f"{path}: line 1: ")):
            parse_graph(path)

    def test_nonfinite_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 inf\n")
        with pytest.raises(SpectralTransferError, match="non-finite"):
            parse_graph(path)


class TestMatrixMarket:
    def test_symmetric_k2(self, tmp_path):
        path = tmp_path / "k2.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 1\n1 2 1.0\n"
        )
        graph = parse_graph(path, "matrix_market")
        assert edge_arrays(graph) == ([0], [1], [1.0])

    def test_general_is_rejected_naming_the_header(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 2 1.0\n2 1 3.0\n"
        )
        with pytest.raises(SpectralTransferError) as info:
            parse_graph(path, "matrix_market")
        assert str(info.value) == (
            f"{path}: line 1: a 'general' Matrix Market header declares a directed graph, "
            "and only undirected graphs are supported; write the file with a 'symmetric' "
            "header"
        )

    @pytest.mark.parametrize("entries", ["3 3 2\n2 1 2.0\n1 3 0.5\n", "3 3 0\n", "oops\n"],
                             ids=["two-edges", "no-edges", "malformed"])
    def test_general_is_rejected_whatever_its_entries(self, tmp_path, entries):
        # the header decides, before any entry is read
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate integer General\n" + entries)
        with pytest.raises(SpectralTransferError, match="'general' Matrix Market header.*'symmetric'"):
            parse_graph(path, "matrix_market")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2 1\n")
        with pytest.raises(SpectralTransferError, match="header"):
            parse_graph(path, "matrix_market")

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 3 1.0\n"
        )
        with pytest.raises(SpectralTransferError, match="declared range"):
            parse_graph(path, "matrix_market")


class TestOff:
    def test_single_triangle(self, tmp_path):
        path = tmp_path / "t.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        graph = parse_graph(path, "off")
        assert graph.n_vertices == 3
        assert graph.n_edges == 3
        assert graph.w.tolist() == [1.0] * 3

    def test_shared_edge_deduplicated(self, tmp_path):
        path = tmp_path / "two.off"
        path.write_text(
            "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n3 1 2 3\n"
        )
        graph = parse_graph(path, "off")
        assert graph.n_vertices == 4
        assert graph.n_edges == 5

    def test_empty_face_list(self, tmp_path):
        path = tmp_path / "v.off"
        path.write_text("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n")
        graph = parse_graph(path, "off")
        assert graph.n_edges == 0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.off"
        path.write_text("OOPS\n3 1 0\n")
        with pytest.raises(SpectralTransferError, match="OFF header"):
            parse_graph(path, "off")

    def test_face_index_overflow(self, tmp_path):
        path = tmp_path / "x.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")
        with pytest.raises(SpectralTransferError, match="overflow"):
            parse_graph(path, "off")


class TestExactParse:
    """Shortest-repr floats in a file parse back to the very same edges."""

    EDGES = ((0, 1, 0.1 + 0.2), (1, 2, 1 / 3), (3, 4, 7.25e-9))
    TEXT = {
        "edge_list": "# u v w\n0 1 0.30000000000000004\n1 2 0.3333333333333333\n"
                     "3 4 7.25e-09\n",
        # symmetric storage keeps the lower triangle
        "matrix_market": "%%MatrixMarket matrix coordinate real symmetric\n5 5 3\n"
                         "2 1 0.30000000000000004\n3 2 0.3333333333333333\n"
                         "5 4 7.25e-09\n",
    }

    @pytest.mark.parametrize("format", ["edge_list", "matrix_market"])
    def test_repr_floats(self, tmp_path, format):
        path = tmp_path / "g.txt"
        path.write_text(self.TEXT[format])
        graph = parse_graph(path, format)
        assert graph.n_vertices == 5
        assert edge_arrays(graph) == triple_arrays(self.EDGES)


class TestSynthetic:
    def test_descriptors(self):
        assert synthetic_graph("path(5)").n_vertices == 5
        assert synthetic_graph("grid(2,3)").n_vertices == 6
        g = synthetic_graph("random-geometric(20,0.4,3)")
        assert g.n_vertices == 20

    def test_geometric_uses_default_seed(self):
        g1 = synthetic_graph("random-geometric(20,0.4)", default_seed=3)
        g2 = synthetic_graph("random-geometric(20,0.4,3)")
        assert edge_arrays(g1) == edge_arrays(g2)

    def test_bad_descriptor(self):
        with pytest.raises(SpectralTransferError, match=r"unknown graph descriptor 'torus\(5\)'"):
            synthetic_graph("torus(5)")
        with pytest.raises(SpectralTransferError, match="random-geometric needs a seed"):
            synthetic_graph("random-geometric(20,0.4)")


class TestReports:
    def test_empty_bundle_summary_only(self, tmp_path):
        bundle = ReportBundle("coarsen-transfer", {"seed": 1})
        written = emit_reports(bundle, tmp_path)
        assert [os.path.basename(p) for p in written] == ["summary.txt"]
        payload = json.loads((tmp_path / "summary.txt").read_text())
        assert payload["certified"] is True

    def test_table_rows_and_header(self, tmp_path):
        rows = tuple((i, float(i) / 3, True) for i in range(8))
        bundle = ReportBundle(
            "coarsen-transfer", {}, tables={"modes": (("a", "b", "c"), rows)}
        )
        emit_reports(bundle, tmp_path)
        lines = (tmp_path / "modes.csv").read_text().strip().split("\n")
        assert lines[0] == "a,b,c"
        assert len(lines) == 9
        assert lines[1].endswith("true")

    def test_svg_written_only_on_request(self, tmp_path):
        scatter = ScatterData("x", "y", ((1.0, 0.5, "f"),), 1.0)
        bundle = ReportBundle("perturb-stability", {}, scatters={"scatter": scatter})
        emit_reports(bundle, tmp_path / "plain")
        assert not (tmp_path / "plain" / "scatter.svg").exists()
        emit_reports(bundle, tmp_path / "svg", svg=True)
        text = (tmp_path / "svg" / "scatter.svg").read_text()
        assert "<circle" in text and "stroke=\"red\"" in text

    def test_svg_handles_empty_points(self):
        text = render_scatter_svg(ScatterData("x", "y", (), 2.0))
        assert text.startswith("<svg")


class TestSplitTopLevel:
    def test_respects_parentheses(self):
        assert split_top_level("lowpass(1.0), midpass(1,0.5), heat(2)") == [
            "lowpass(1.0)", "midpass(1,0.5)", "heat(2)",
        ]

    def test_empty(self):
        assert split_top_level("") == []

    @pytest.mark.parametrize("text", ["heat(1", "heat(1))", ")(", "a, b)"])
    def test_unbalanced_parentheses_raise(self, text):
        with pytest.raises(ValueError, match="unbalanced"):
            split_top_level(text)


class TestTextio:
    @pytest.mark.parametrize("text, parsed", [
        ("identity", ("identity", [])),
        (" heat(0.5) ", ("heat", ["0.5"])),
        ("random-geometric(20, 0.4,3)", ("random-geometric", ["20", "0.4", "3"])),
        ("poly(1,,2)", ("poly", ["1", "2"])),
        ("f(g(1,2), 3)", ("f", ["g(1,2)", "3"])),
    ])
    def test_descriptor_grammar(self, text, parsed):
        assert parse_descriptor(text) == parsed

    @pytest.mark.parametrize("text", ["Heat(1)", "heat(1", "heat(1))", "heat)1(", "", "(1)",
                                      "heat(1) x"])
    def test_descriptor_outside_the_grammar_names_it(self, text):
        with pytest.raises(SpectralTransferError, match=re.escape(repr(text.strip()))):
            parse_descriptor(text)

    def test_undecodable_file_raises_an_error_naming_it(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(SpectralTransferError, match=f"cannot read thing {re.escape(str(path))}"):
            TextFile(path, "thing")

    def test_config_entries_track_sections_and_lines(self, tmp_path):
        path = tmp_path / "x.ini"
        path.write_text("# c\n[a]\nK = 1%\n; c\n[b]\nk = 2\n")
        entries = list(config_entries(TextFile(path, "x"), sections=True))
        assert entries == [(2, "a", None, None), (3, "a", "k", "1%"),
                           (5, "b", None, None), (6, "b", "k", "2")]
        path.write_text("[a]\nk = 1\nK = 2\n")
        with pytest.raises(SpectralTransferError, match=r"line 3: \[a\]: duplicate key 'k'"):
            list(config_entries(TextFile(path, "x"), sections=True))


class TestExperimentConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return path

    def test_defaults_and_overrides(self, tmp_path):
        path = self.write(tmp_path, "experiment = coarsen-transfer\ngraph = path(8)\nseed = 5\n")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.seed == 5
        assert cfg.filters == ("lowpass(1.0)", "highpass(1.0)", "heat(1.0)")
        cfg2 = ExperimentConfig.from_file(path, seed=9, out_dir="elsewhere")
        assert cfg2.seed == 9
        assert cfg2.out_dir == "elsewhere"

    def test_experiment_mismatch(self, tmp_path):
        path = self.write(tmp_path, "experiment = mc-verify\n")
        with pytest.raises(SpectralTransferError, match="command line"):
            ExperimentConfig.from_file(path, experiment="coarsen-transfer", seed=1)

    def test_seed_mandatory(self, tmp_path):
        path = self.write(tmp_path, "experiment = coarsen-transfer\ngraph = path(8)\n")
        with pytest.raises(SpectralTransferError, match="seed"):
            ExperimentConfig.from_file(path)

    def test_exactly_one_graph_source(self, tmp_path):
        path = self.write(
            tmp_path, "experiment = coarsen-transfer\nseed = 1\n"
        )
        with pytest.raises(SpectralTransferError, match="exactly one graph source"):
            ExperimentConfig.from_file(path)

    def test_missing_file_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "experiment = coarsen-transfer\ngraph_file = nowhere.txt\nseed = 1\n",
        )
        with pytest.raises(SpectralTransferError, match="does not exist"):
            ExperimentConfig.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "experiment = coarsen-transfer\ngraph = path(8)\nseed = 1\nbogus = 3\n",
        )
        with pytest.raises(SpectralTransferError, match="bogus"):
            ExperimentConfig.from_file(path)

    def test_comments_case_and_percent_signs(self, tmp_path):
        path = self.write(
            tmp_path,
            "# a comment\n; another\n\nEXPERIMENT = coarsen-transfer\n"
            "Graph = path(8)\nseed=5\nout = a%(seed)s%\nsvg = True\n",
        )
        cfg = ExperimentConfig.from_file(path)
        assert (cfg.experiment, cfg.graph, cfg.seed) == ("coarsen-transfer", "path(8)", 5)
        assert cfg.out_dir == "a%(seed)s%"
        assert cfg.svg is True

    def test_laplacian_default_depends_on_the_experiment(self):
        def laplacian(experiment, **kw):
            return ExperimentConfig(experiment=experiment, seed=1, graph="path(16)",
                                    **kw).laplacian

        assert laplacian("convnet-transfer") == "normalized"
        assert laplacian("coarsen-transfer") == "unnormalized"
        assert laplacian("perturb-stability") == "unnormalized"
        assert laplacian("convnet-transfer", laplacian="unnormalized") == "unnormalized"

    def test_a_key_the_experiment_does_not_read_stays_none(self):
        cfg = ExperimentConfig(experiment="mc-verify", seed=1, sizes=(64,), trials=100)
        assert (cfg.graph_format, cfg.laplacian, cfg.filters, cfg.probes) == (None,) * 4
        assert (cfg.out_dir, cfg.svg, cfg.delta) == ("spectral_transfer_out", False, 0.25)
        coarsen = ExperimentConfig(experiment="coarsen-transfer", seed=1, graph="path(8)")
        assert coarsen.parsed_perturbations == () and coarsen.trial_configs == ()

    def test_filters_are_parsed_with_the_config(self):
        cfg = ExperimentConfig(experiment="perturb-stability", seed=1, graph="path(8)")
        assert [f.name for f in cfg.parsed_filters] == ["lowpass(1)", "highpass(1)", "heat(1)"]
        assert cfg.perturbations == (
            "remove_edges(0.05)", "remove_edges(0.1)",
            "add_edges(0.05)", "add_edges(0.1)", "remove_vertices(0.05)",
        )
        # an experiment that runs no filter rejects the key before parsing it
        with pytest.raises(SpectralTransferError, match=r"^key 'filters' is not read by "
                           r"mc-verify \(read by coarsen-transfer, perturb-stability\)$"):
            ExperimentConfig(experiment="mc-verify", seed=1, filters=("bogus(1)",))

    def test_perturbations_and_campaigns_are_parsed_with_the_config(self):
        cfg = ExperimentConfig(experiment="perturb-stability", seed=1, graph="path(8)",
                               perturbations=("remove_edges(0.05)", "add_edges(0.1)"))
        assert [(p.mode, p.fraction) for p in cfg.parsed_perturbations] == [
            ("remove_edges", 0.05), ("add_edges", 0.1),
        ]
        assert cfg.parsed_perturbations[0].seed != cfg.parsed_perturbations[1].seed
        net = ExperimentConfig(experiment="convnet-transfer", seed=1, graph="path(16)")
        assert [(p.mode, p.fraction) for p in net.parsed_perturbations] == [
            ("remove_edges", 0.1),
        ]
        verify = ExperimentConfig(experiment="mc-verify", seed=1, sizes=(64,), trials=100)
        assert [t.weight for t in verify.trial_configs] == ["uniform", "cosine"]
        assert [t.activation_probes for t in verify.trial_configs] == [8, 8]
        circle = ExperimentConfig(experiment="circle-sampling", seed=1)
        assert [t.activation_probes for t in circle.trial_configs] == [0, 0]
        assert circle.trial_configs[0].master_seed != verify.trial_configs[0].master_seed
        # an experiment that runs none of them rejects each key before parsing it
        for key, read_by in (("perturbations", "perturb-stability"),
                             ("weights", "circle-sampling, mc-verify")):
            with pytest.raises(SpectralTransferError, match=rf"^key '{key}' is not read by "
                               rf"coarsen-transfer \(read by {read_by}\)$"):
                ExperimentConfig(experiment="coarsen-transfer", seed=1, graph="path(8)",
                                 **{key: ("bogus(1)",)})

    @pytest.mark.parametrize("kw, message", [
        (dict(filters=()), "filters needs at least one entry"),
        (dict(perturbations=()), "perturbations needs at least one entry"),
        (dict(seed=-1), "seed must be nonnegative"),
        (dict(band=-1.0), "band must be nonnegative"),
        (dict(perturbations=("add_edges(2)",)), "fraction 2.0 outside"),
    ])
    def test_rejected_before_any_graph_work(self, kw, message):
        with pytest.raises(SpectralTransferError, match=message):
            ExperimentConfig(**dict(dict(experiment="perturb-stability", seed=1,
                                         graph="path(8)"), **kw))

    def test_graph_experiments_reject_extra_source(self, tmp_path):
        path = self.write(
            tmp_path, "experiment = mc-verify\ngraph = path(8)\nseed = 1\n"
        )
        with pytest.raises(SpectralTransferError, match=(
            r": line 2: key 'graph' is not read by mc-verify \(read by coarsen-transfer, "
            r"perturb-stability, convnet-transfer\)$"
        )):
            ExperimentConfig.from_file(path)


def test_readme_key_table_lists_each_config_key_once_with_its_readers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config format", 1)[1].split("\n###", 1)[0]
    documented = []  # (key, experiments that read it) of each row's keys
    for row in section.split("\n"):
        if row.startswith("| `"):
            keys, read_by = row.split(" | ")[:2]
            read_by = EXPERIMENTS if read_by == "every experiment" else tuple(read_by.split(", "))
            documented += [(key, read_by) for key in re.findall(r"`([a-z_]+)`", keys)]
    assert len(dict(documented)) == len(documented)
    assert dict(documented) == {key: tuple(f.metadata["read_by"])
                                for key, f in CONFIG_KEYS.items()}


def quick_config(**kw):
    """A small config of ``kw``'s experiment, coarsen-transfer if it names
    none, with ``path(8)`` and one filter for the experiments that read them."""
    defaults = dict(experiment="coarsen-transfer", seed=3, out_dir="unused")
    defaults.update(kw)
    if defaults["experiment"] not in ("circle-sampling", "mc-verify"):
        defaults.setdefault("graph", "path(8)")
    if defaults["experiment"] in ("coarsen-transfer", "perturb-stability"):
        defaults.setdefault("filters", ("lowpass(1.0)",))
    return ExperimentConfig(**defaults)


_REFERENCE_NET = str(Path(__file__).resolve().parents[1] / "configs" / "reference_net.ini")
# the table cells emit_reports writes; a summary value may also be None
_CELL = (bool, int, float, str)


def assert_native(value, where):
    """``value`` is None, a bool, int, float or str, or a list, tuple or
    dict of these at any depth: what json writes with no fallback."""
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, (where, key)
            assert_native(item, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            assert_native(item, f"{where}[{index}]")
    else:
        # type(), not isinstance: a numpy float64 is a float subclass
        assert value is None or type(value) in _CELL, (where, type(value))


@pytest.mark.parametrize("kw", [
    dict(experiment="perturb-stability", graph="random-geometric(20,0.4)",
         perturbations=("remove_edges(0.1)", "add_edges(0.1)", "remove_vertices(0.1)")),
    dict(experiment="coarsen-transfer", graph="grid(4,4)",
         filters=("lowpass(1.0)", "heat(1.0)", "poly(1,-0.1)")),
    dict(experiment="convnet-transfer", graph="path(16)", net_file=_REFERENCE_NET, probes=3),
    dict(experiment="circle-sampling", sizes=(32, 64, 128), trials=30),
    dict(experiment="mc-verify", sizes=(32,), trials=100),
], ids=lambda kw: kw["experiment"])
def test_reports_hold_only_values_json_and_csv_write_as_they_are(kw):
    bundle = run_experiment(quick_config(**kw))
    assert_native(bundle.summary, "summary")
    for name, (header, rows) in bundle.tables.items():
        assert rows, name
        for row in rows:
            assert len(row) == len(header), name
            for column, cell in zip(header, row):
                assert type(cell) in _CELL, (name, column, type(cell))


class TestRunExperiment:
    def test_coarsen_path8_all_rows_pass(self):
        bundle = run_experiment(quick_config(filters=("lowpass(2.0)",)))
        assert bundle.all_certified
        header, rows = bundle.tables["modes"]
        assert len(rows) == 8
        passes = [row[-1] for row in rows]
        assert all(passes)

    def test_perturb_zero_fraction_all_zero_errors(self):
        bundle = run_experiment(quick_config(
            experiment="perturb-stability",
            perturbations=("remove_edges(0.0)",),
        ))
        assert bundle.all_certified
        _, rows = bundle.tables["stability"]
        for row in rows:
            assert row[2] == 0.0 and row[3] <= 1e-12

    def test_perturb_stability_rows_use_the_constant_of_their_bounds(self):
        # poly(1,-0.1) declares no Lipschitz constant: its D is the largest
        # quotient, 0.1 up to roundoff, and each stability row reads the D
        # that its filter's transfer bounds used for the same perturbation
        bundle = run_experiment(quick_config(
            experiment="perturb-stability", filters=("poly(1,-0.1)", "heat(0.5)"),
            perturbations=("remove_edges(0.2)", "remove_vertices(0.2)"),
        ))
        assert bundle.all_certified
        _, rows = bundle.tables["stability"]
        assert len(rows) == 4
        for desc, name, *_, lipschitz, _ in rows:
            summary = bundle.summary["perturbations"][desc][name]
            assert lipschitz == summary["lipschitz_constant"]
            assert lipschitz == (0.5 if name == "heat(0.5)" else pytest.approx(0.1, rel=1e-12))
        assert bundle.scatters["scatter"].reference_slope == 0.5

    def test_stability_rows_of_two_table_filters_use_their_own_constants(self, tmp_path):
        # every table filter is named "table", so a lookup by name would
        # hand both rows the D of the second table
        paths = []
        for slope in (0.1, 0.3):
            paths.append(tmp_path / f"slope{slope}.txt")
            paths[-1].write_text(f"0 1\n4 {1 - 4 * slope}\n")
        bundle = run_experiment(quick_config(
            experiment="perturb-stability", filters=tuple(f"table({p})" for p in paths),
            perturbations=("remove_edges(0.2)",),
        ))
        assert bundle.all_certified
        _, rows = bundle.tables["stability"]
        assert [row[6] for row in rows] == pytest.approx([0.1, 0.3], rel=1e-12)

    @pytest.mark.parametrize("experiment", ["coarsen-transfer", "perturb-stability"])
    def test_scatter_line_of_an_undeclared_filter_takes_its_measured_constant(
            self, experiment):
        bundle = run_experiment(quick_config(experiment=experiment,
                                             filters=("poly(1,-0.1)",)))
        assert bundle.scatters["scatter"].reference_slope == pytest.approx(0.1, rel=1e-12)

    def test_emitted_tables_match_declared_counts(self, tmp_path):
        bundle = run_experiment(quick_config(experiment="coarsen-transfer"))
        emit_reports(bundle, tmp_path)
        _, rows = bundle.tables["modes"]
        lines = (tmp_path / "modes.csv").read_text().strip().split("\n")
        assert len(lines) == len(rows) + 1

    def test_rerun_byte_identical(self, tmp_path):
        cfg = quick_config(experiment="perturb-stability",
                           graph="random-geometric(30,0.35)",
                           perturbations=("remove_edges(0.1)", "remove_vertices(0.1)"))
        for out in ("a", "b"):
            emit_reports(run_experiment(cfg), tmp_path / out, svg=True)
        for name in ("summary.txt", "modes.csv", "bounds.csv", "stability.csv",
                     "scatter.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name
