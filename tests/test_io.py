"""Graph file formats, report emission, and experiment configuration."""

import json
import os
import re

import numpy as np
import pytest

from spectral_transfer.errors import ConfigError, ParseError
from spectral_transfer.graph_io import parse_graph, synthetic_graph
from spectral_transfer.graphs import path_graph
from spectral_transfer.reports import (
    ReportBundle,
    ScatterData,
    emit_reports,
    render_scatter_svg,
)
from spectral_transfer.experiments import (
    ExperimentConfig,
    run_experiment,
    split_top_level,
)
from spectral_transfer.textio import TextFile, config_entries, parse_descriptor


class TestEdgeList:
    def test_p3(self, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("0 1 1.0\n1 2 1.0\n")
        graph = parse_graph(path, "edge_list")
        assert graph.edges == path_graph(3).edges

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1 2.5  # inline\n")
        graph = parse_graph(path)
        assert graph.edges == ((0, 1, 2.5),)

    def test_malformed_token_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 x 1.0\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: line 1: ")):
            parse_graph(path)

    def test_nonfinite_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 inf\n")
        with pytest.raises(ParseError, match="non-finite"):
            parse_graph(path)


class TestMatrixMarket:
    def test_symmetric_k2(self, tmp_path):
        path = tmp_path / "k2.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 1\n1 2 1.0\n"
        )
        graph = parse_graph(path, "matrix_market")
        assert not graph.directed
        assert graph.edges == ((0, 1, 1.0),)

    def test_general_is_directed(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 2 1.0\n2 1 3.0\n"
        )
        graph = parse_graph(path, "matrix_market")
        assert graph.directed
        np.testing.assert_array_equal(graph.adjacency(), [[0, 1], [3, 0]])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2 1\n")
        with pytest.raises(ParseError, match="header"):
            parse_graph(path, "matrix_market")

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 3 1.0\n"
        )
        with pytest.raises(ParseError, match="declared range"):
            parse_graph(path, "matrix_market")


class TestOff:
    def test_single_triangle(self, tmp_path):
        path = tmp_path / "t.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        graph = parse_graph(path, "off")
        assert graph.n_vertices == 3
        assert graph.n_edges == 3
        assert all(w == 1.0 for _, _, w in graph.edges)

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
        with pytest.raises(ParseError, match="OFF header"):
            parse_graph(path, "off")

    def test_face_index_overflow(self, tmp_path):
        path = tmp_path / "x.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")
        with pytest.raises(ParseError, match="overflow"):
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
        assert not graph.directed
        assert graph.n_vertices == 5
        assert graph.edges == self.EDGES

    def test_general_keeps_direction_and_order(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n2 1 2.0\n1 3 0.5\n"
        )
        graph = parse_graph(path, "matrix_market")
        assert graph.directed
        assert graph.edges == ((1, 0, 2.0), (0, 2, 0.5))


class TestSynthetic:
    def test_descriptors(self):
        assert synthetic_graph("path(5)").n_vertices == 5
        assert synthetic_graph("grid(2,3)").n_vertices == 6
        g = synthetic_graph("random-geometric(20,0.4,3)")
        assert g.n_vertices == 20

    def test_geometric_uses_default_seed(self):
        g1 = synthetic_graph("random-geometric(20,0.4)", default_seed=3)
        g2 = synthetic_graph("random-geometric(20,0.4,3)")
        assert g1.edges == g2.edges

    def test_bad_descriptor(self):
        with pytest.raises(ParseError):
            synthetic_graph("torus(5)")
        with pytest.raises(ParseError):
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
        scatter = ScatterData("x", "y", ((1.0, 0.5, "f"),), 1.0, "y = x")
        bundle = ReportBundle("perturb-stability", {}, scatters={"scatter": scatter})
        emit_reports(bundle, tmp_path / "plain")
        assert not (tmp_path / "plain" / "scatter.svg").exists()
        emit_reports(bundle, tmp_path / "svg", svg=True)
        text = (tmp_path / "svg" / "scatter.svg").read_text()
        assert "<circle" in text and "stroke=\"red\"" in text

    def test_svg_handles_empty_points(self):
        text = render_scatter_svg(ScatterData("x", "y", (), 2.0, "y = 2x"))
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
        assert parse_descriptor(text, ConfigError) == parsed

    @pytest.mark.parametrize("text", ["Heat(1)", "heat(1", "heat(1))", "heat)1(", "", "(1)",
                                      "heat(1) x"])
    def test_descriptor_outside_the_grammar_names_it(self, text):
        with pytest.raises(ParseError, match=re.escape(repr(text.strip()))):
            parse_descriptor(text, ParseError)

    def test_undecodable_file_raises_the_callers_error(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ConfigError, match=f"cannot read thing {re.escape(str(path))}"):
            TextFile(path, ConfigError, "thing")

    def test_config_entries_track_sections_and_lines(self, tmp_path):
        path = tmp_path / "x.ini"
        path.write_text("# c\n[a]\nK = 1%\n; c\n[b]\nk = 2\n")
        entries = list(config_entries(TextFile(path, ConfigError, "x"), sections=True))
        assert entries == [(2, "a", None, None), (3, "a", "k", "1%"),
                           (5, "b", None, None), (6, "b", "k", "2")]
        path.write_text("[a]\nk = 1\nK = 2\n")
        with pytest.raises(ConfigError, match=r"line 3: \[a\]: duplicate key 'k'"):
            list(config_entries(TextFile(path, ConfigError, "x"), sections=True))


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
        with pytest.raises(ConfigError, match="command line"):
            ExperimentConfig.from_file(path, experiment="coarsen-transfer", seed=1)

    def test_seed_mandatory(self, tmp_path):
        path = self.write(tmp_path, "experiment = coarsen-transfer\ngraph = path(8)\n")
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_file(path)

    def test_exactly_one_graph_source(self, tmp_path):
        path = self.write(
            tmp_path, "experiment = coarsen-transfer\nseed = 1\n"
        )
        with pytest.raises(ConfigError, match="exactly one graph source"):
            ExperimentConfig.from_file(path)

    def test_missing_file_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "experiment = coarsen-transfer\ngraph_file = nowhere.txt\nseed = 1\n",
        )
        with pytest.raises(ConfigError, match="does not exist"):
            ExperimentConfig.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "experiment = coarsen-transfer\ngraph = path(8)\nseed = 1\nbogus = 3\n",
        )
        with pytest.raises(ConfigError, match="bogus"):
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

    def test_filters_are_parsed_with_the_config(self):
        cfg = ExperimentConfig(experiment="perturb-stability", seed=1, graph="path(8)")
        assert [f.name for f in cfg.parsed_filters] == ["lowpass(1)", "highpass(1)", "heat(1)"]
        assert cfg.perturbations == (
            "remove_edges(0.05)", "remove_edges(0.1)",
            "add_edges(0.05)", "add_edges(0.1)", "remove_vertices(0.05)",
        )
        # experiments that run no filter do not parse the key
        assert ExperimentConfig(experiment="mc-verify", seed=1,
                                filters=("bogus(1)",)).parsed_filters == ()

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
        # experiments that run none of them do not parse the keys
        coarsen = ExperimentConfig(experiment="coarsen-transfer", seed=1, graph="path(8)",
                                   perturbations=("bogus(1)",), weights=("bogus",))
        assert coarsen.parsed_perturbations == () and coarsen.trial_configs == ()

    @pytest.mark.parametrize("kw, message", [
        (dict(filters=()), "filters needs at least one entry"),
        (dict(perturbations=()), "perturbations needs at least one entry"),
        (dict(seed=-1), "seed must be nonnegative"),
        (dict(filters=("poly(1,2)",)), "needs a Lipschitz constant"),
        (dict(perturbations=("add_edges(2)",)), "fraction 2.0 outside"),
    ])
    def test_rejected_before_any_graph_work(self, kw, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**dict(dict(experiment="perturb-stability", seed=1,
                                         graph="path(8)"), **kw))

    def test_graph_experiments_reject_extra_source(self, tmp_path):
        path = self.write(
            tmp_path, "experiment = mc-verify\ngraph = path(8)\nseed = 1\n"
        )
        with pytest.raises(ConfigError, match="no graph input"):
            ExperimentConfig.from_file(path)


def quick_config(**kw):
    defaults = dict(experiment="coarsen-transfer", seed=3, out_dir="unused",
                    graph="path(8)", filters=("lowpass(1.0)",))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


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
