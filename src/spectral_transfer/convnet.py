"""Fixed-weight spectral ConvNets on graphs and on the underlying space.

A network is a stack of layers; each layer filters every input channel
through a grid of spectral filters, mixes channels through a matrix, adds
constant biases, applies a pointwise activation, and optionally pools onto
a coarsened graph.  The same description runs in two places:

* on a graph, with filters applied through the layer's operator and pooling
  through a coarsening map;
* on the underlying space, with filters acting diagonally on band-limited
  coefficients and a band projection after every activation (activations do
  not preserve band limits, so the projection is part of the definition).

A channel is a vector, or a matrix whose columns are signals that pass
through the network together; a set of probe inputs is always the columns
of one matrix, so every pass runs all probes at once.

The module also measures the per-layer hypothesis terms of the transfer
bound (Laplacian mismatch, round-trip consistency, activation commutation,
pooling consistency), the output gaps between the networks, and evaluates
the bound itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import SpectralTransferError, TruncationError
from .filters import apply_exact, make_filter
from .graphs import OperatorWithInnerProduct, WeightedGraph, column_norms, operator_norm
from .sampling import CoarseningMap, coarsen_matching, coarsened_laplacian, unit_probes
from .spaces import CircleSpace, GraphSpace
from .textio import TextFile, config_entries, finite_float, split_top_level
from .transfer import filter_constants


@dataclass(frozen=True)
class Activation:
    """Pointwise nonlinearity; contractive and positively homogeneous."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("relu", "abs"):
            raise SpectralTransferError(f"unknown activation {self.kind!r}")

    def apply(self, x):
        x = np.asarray(x)
        return np.maximum(x, 0.0) if self.kind == "relu" else np.abs(x)


def pool(signal: np.ndarray, cmap: CoarseningMap, kind: str) -> np.ndarray:
    """Pool a fine signal, or each column of a matrix, onto the coarse
    vertices.

    Max pooling takes the group maximum scaled by 1/sqrt(K), for signed
    signals too; l2 averaging takes sqrt(mean of squares).  Singletons pass
    through unchanged under both kinds.
    """
    if kind not in ("max", "l2avg"):
        raise SpectralTransferError(f"unknown pooling kind {kind!r}")
    parents = np.asarray(signal, dtype=float)[cmap.members]
    starts = np.cumsum(cmap.sizes) - cmap.sizes
    sizes = cmap.sizes.reshape((-1,) + (1,) * (parents.ndim - 1))
    if kind == "max":
        return np.maximum.reduceat(parents, starts) / np.sqrt(sizes)
    return np.sqrt(np.add.reduceat(parents * parents, starts) / sizes)


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a K_l x K_{l-1} filter grid, mixing, biases, pooling."""

    filters: tuple
    mix: np.ndarray
    biases: np.ndarray
    pooling: str = "none"

    def __post_init__(self):
        mix = np.asarray(self.mix, dtype=float)
        biases = np.asarray(self.biases, dtype=float)
        k_out = len(self.filters)
        if k_out == 0 or any(len(row) != len(self.filters[0]) for row in self.filters):
            raise SpectralTransferError("filter grid must be rectangular and nonempty")
        k_in = len(self.filters[0])
        if mix.shape != (k_out, k_in):
            raise SpectralTransferError(
                f"mix matrix {mix.shape} does not match filter grid ({k_out}, {k_in})"
            )
        if biases.shape != (k_out,):
            raise SpectralTransferError(f"need {k_out} biases, got {biases.shape}")
        if self.pooling not in ("none", "max", "l2avg"):
            raise SpectralTransferError(f"unknown pooling kind {self.pooling!r}")
        object.__setattr__(self, "filters", tuple(tuple(row) for row in self.filters))
        object.__setattr__(self, "mix", mix)
        object.__setattr__(self, "biases", biases)

    @property
    def k_in(self) -> int:
        return len(self.filters[0])

    @property
    def k_out(self) -> int:
        return len(self.filters)


@dataclass(frozen=True)
class ConvNetSpec:
    """A full network: layers, activation, and the band at every depth."""

    layers: tuple
    activation: Activation
    bands: tuple

    def __post_init__(self):
        if not self.layers:
            raise SpectralTransferError("network needs at least one layer")
        if len(self.bands) != len(self.layers) + 1:
            raise SpectralTransferError(
                f"need {len(self.layers) + 1} bands for {len(self.layers)} layers"
            )
        if min(self.bands) < 0:
            raise SpectralTransferError(f"bands must be nonnegative, got {min(self.bands):g}")
        if any(b2 < b1 for b1, b2 in zip(self.bands, self.bands[1:])):
            raise SpectralTransferError("bands must be nondecreasing")
        for l, (prev, layer) in enumerate(zip(self.layers, self.layers[1:]), start=1):
            if layer.k_in != prev.k_out:
                raise SpectralTransferError(
                    f"layer {l + 1} expects {layer.k_in} channels, "
                    f"layer {l} outputs {prev.k_out}"
                )

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def k_input(self) -> int:
        return self.layers[0].k_in

    def mixing_bound(self) -> float:
        """A = max_l ||A^l||_inf over the layers."""
        return max(float(np.abs(layer.mix).sum(axis=1).max()) for layer in self.layers)

    def max_bias(self) -> float:
        return max(float(np.abs(layer.biases).max()) for layer in self.layers)

    def bias_free(self) -> bool:
        return self.max_bias() == 0.0

    def normalized_on(self, spectrum) -> "ConvNetSpec":
        """Rescale every filter to sup norm 1 on ``spectrum``, folding each
        factor into the corresponding mixing entry so the network mapping is
        unchanged."""
        new_layers = []
        for layer in self.layers:
            new_grid = []
            new_mix = np.array(layer.mix, dtype=float, copy=True)
            for i, row in enumerate(layer.filters):
                new_row = []
                for j, filt in enumerate(row):
                    scaled, factor = filt.normalized_on(spectrum)
                    new_row.append(scaled)
                    new_mix[i, j] *= factor
                new_grid.append(tuple(new_row))
            new_layers.append(
                LayerSpec(tuple(new_grid), new_mix, layer.biases, layer.pooling)
            )
        return ConvNetSpec(tuple(new_layers), self.activation, self.bands)


_NET_SECTION = re.compile(r"net|layer [1-9][0-9]*")
_NET_KEYS = {"net": ("activation", "bands"), "layer": ("filters", "mix", "biases", "pooling")}


def _numbers(text: str) -> list:
    return [finite_float(cell) for cell in split_top_level(text)]


def _rows(cast):
    """Parser of ';'-separated rows of ','-separated cells."""
    return lambda text: [[cast(c) for c in split_top_level(row)] for row in text.split(";")]


def load_convnet_spec(path) -> ConvNetSpec:
    """Load a network file: the config line grammar with a ``[net]``
    section (``activation``, relu or abs, default relu; ``bands``) and
    sections ``[layer 1]`` to ``[layer L]`` (``filters``; ``mix``;
    ``biases``, default zeros; ``pooling``, none, max or l2avg, default
    none).  ``filters`` and ``mix`` list one output channel per
    ';'-separated row and one input channel per ','-separated column, and
    every number is finite (README, "Network description files").  Errors
    name the file and, when known, the line and the section.
    """
    source = TextFile(path, "network file")
    entries = {}  # section -> {key: (line, value)}, the header line under None
    for line, section, key, value in config_entries(source, sections=True):
        if key is None and not _NET_SECTION.fullmatch(section):
            raise source.fail(line, "expected [net] or [layer k], k = 1, 2, ...", section)
        if key is not None and key not in _NET_KEYS[section.split()[0]]:
            raise source.fail(line, f"unknown key {key!r}", section)
        entries.setdefault(section, {})[key] = (line, value)
    if "net" not in entries:
        raise source.fail(None, "missing [net] section")
    n_layers = len(entries) - 1
    for section, keys in entries.items():
        if section != "net" and int(section.split()[1]) > n_layers:
            raise source.fail(keys[None][0], f"layers must be numbered 1 to {n_layers}", section)

    def read(section, key, parse, default=None):
        line, value = entries[section].get(key, entries[section][None])
        if value is None and default is None:
            raise source.fail(line, f"missing key {key!r}", section)
        with source.at(line, section, f"bad value for {key}: "):
            return default if value is None else parse(value)

    layers = []
    for section in (f"layer {number}" for number in range(1, n_layers + 1)):
        grid = read(section, "filters", _rows(make_filter))
        mix = read(section, "mix", _rows(finite_float))
        biases = read(section, "biases", _numbers, [0.0] * len(grid))
        pooling = read(section, "pooling", str, "none")
        with source.at(entries[section][None][0], section):
            layers.append(LayerSpec(grid, np.array(mix), np.array(biases), pooling))
    activation = read("net", "activation", Activation, Activation("relu"))
    bands = tuple(read("net", "bands", _numbers))
    with source.at(entries["net"][None][0], "net"):
        return ConvNetSpec(tuple(layers), activation, bands)


def _input_channels(spec: ConvNetSpec, inputs) -> tuple:
    """The K_0 input channels as float arrays, and their common column
    shape: ``()`` for vectors, ``(P,)`` for matrices of P columns."""
    if len(inputs) != spec.k_input:
        raise SpectralTransferError(f"network expects {spec.k_input} input channels")
    signals = [np.asarray(ch, dtype=float) for ch in inputs]
    columns = {ch.shape[1:] for ch in signals}
    if len(columns) > 1:
        raise SpectralTransferError("input channels must all be vectors or equal-width matrices")
    return signals, columns.pop() if columns else ()


def forward_graph(spec: ConvNetSpec, operators, pooling_maps, inputs):
    """Run the network on a graph; returns the channel signals per layer.

    ``operators[l]`` is the layer-(l+1) input operator, whose ``eig`` that
    layer's filters read; ``pooling_maps[l]`` is the coarsening used by
    layer l+1 or None.  ``inputs`` holds the K_0 input channels, each a
    vector or a matrix of column signals.
    """
    if len(operators) != spec.n_layers or len(pooling_maps) != spec.n_layers:
        raise SpectralTransferError("need one operator and one pooling map per layer")
    signals, columns = _input_channels(spec, inputs)
    outputs = []
    for l, layer in enumerate(spec.layers):
        dim = operators[l].dim
        if any(ch.shape[0] != dim for ch in signals):
            raise SpectralTransferError(
                f"layer {l + 1}: channel length does not match its graph ({dim})"
            )
        mixed = []
        for k_out in range(layer.k_out):
            acc = np.full((dim,) + columns, layer.biases[k_out], dtype=float)
            for k_in in range(layer.k_in):
                filtered = apply_exact(layer.filters[k_out][k_in], operators[l].eig, signals[k_in])
                acc = acc + layer.mix[k_out, k_in] * filtered
            mixed.append(spec.activation.apply(acc))
        if layer.pooling != "none":
            cmap = pooling_maps[l]
            if cmap is None:
                raise SpectralTransferError(f"layer {l + 1} pools but has no coarsening map")
            mixed = [pool(ch, cmap, layer.pooling) for ch in mixed]
        signals = mixed
        outputs.append(tuple(signals))
    return outputs


class _SpaceOps:
    """Pointwise evaluation and band projection for either space model."""

    def __init__(self, space, top_band: float):
        self.space = space
        if isinstance(space, GraphSpace):
            self.grid = None
        else:
            n_max = CircleSpace.max_frequency(top_band)
            self.grid_size = max(4096, 8 * 2 * (n_max + 1))  # 8x oversampled
            self.grid = np.arange(self.grid_size) / self.grid_size

    def pointwise_then_project(self, coeffs: np.ndarray, in_band: float,
                               out_band: float, func) -> np.ndarray:
        if self.grid is None:
            values = func(self.space.synthesize(coeffs, in_band))
            return self.space.project_pw(out_band, values)
        values = func(self.space.basis_matrix(self.grid, in_band) @ coeffs)
        return self.space.analyze_grid(values, out_band)

    def project_constant(self, value: float, band: float) -> np.ndarray:
        if self.grid is None:
            ones = np.ones(self.space.n_vertices)
            return value * self.space.project_pw(band, ones)
        out = np.zeros(self.space.dim_pw(band))
        out[0] = value  # the constant is the first circle basis function
        return out


def forward_continuous(spec: ConvNetSpec, space, inputs):
    """Run the network on the underlying space; returns per-layer
    coefficient stacks.

    ``inputs`` holds K_0 channels in the band of depth zero, each a
    coefficient vector or a matrix of coefficient columns.  Filters act
    diagonally, biases are projected constants, the activation
    is evaluated pointwise (oversampled quadrature on the circle, exact
    vertex arithmetic on a graph space), and each layer ends with the
    projection onto its band.  No pooling happens on this side.
    """
    ops = _SpaceOps(space, spec.bands[-1])
    signals, columns = _input_channels(spec, inputs)
    dim0 = space.dim_pw(spec.bands[0])
    for ch in signals:
        if ch.shape[0] != dim0:
            raise SpectralTransferError(
                f"input channel has {ch.shape[0]} coefficients, band holds {dim0}"
            )
    # coefficient-wise factors act on every column alike
    as_column = (-1,) + (1,) * len(columns)
    outputs = []
    for l, layer in enumerate(spec.layers):
        band_in = spec.bands[l]
        band_out = spec.bands[l + 1]
        lams = space.eigenvalues_up_to(band_in)
        next_signals = []
        for k_out in range(layer.k_out):
            acc = ops.project_constant(layer.biases[k_out], band_in).reshape(as_column)
            for k_in in range(layer.k_in):
                g_vals = layer.filters[k_out][k_in].evaluate(lams).reshape(as_column)
                acc = acc + layer.mix[k_out, k_in] * (g_vals * signals[k_in])
            projected = ops.pointwise_then_project(
                acc, band_in, band_out, spec.activation.apply
            )
            next_signals.append(projected)
        signals = next_signals
        outputs.append(tuple(signals))
    return outputs


def convnet_transfer_bound(n_layers: int, d_lipschitz: float, a_bound: float,
                           b_bound: float, delta: float, count: int) -> float:
    """Bound on the interpolated output gap between the two networks, per
    unit input norm.

    ``(L D sqrt(count) + 2L + 2)`` times the norm-growth envelope
    ``A^L + B (A^L - 1)/(A - 1)`` (or ``1 + L B`` when the mixing bound is
    1), times the hypothesis tolerance delta.  The bias-free normalized
    case reduces to ``(L D sqrt(count) + 2L + 2) delta``.
    """
    if not 0.0 <= delta < 1.0:
        raise SpectralTransferError(f"hypothesis tolerance {delta:g} outside [0, 1)")
    if a_bound <= 0:
        raise SpectralTransferError("mixing bound must be positive")
    if count < 0 or n_layers < 1:
        raise SpectralTransferError("need a nonnegative count and at least one layer")
    front = n_layers * d_lipschitz * np.sqrt(count) + 2 * n_layers + 2
    if a_bound > 1.0:
        growth = a_bound**n_layers + b_bound * (
            (a_bound**n_layers - 1.0) / (a_bound - 1.0)
        )
    else:
        # the growth recursion is monotone in the mixing bound, so the
        # unit-mixing envelope also covers a_bound < 1
        growth = 1.0 + n_layers * b_bound
    return float(front * growth * delta)


@dataclass(frozen=True)
class ConvNetGraphSetting:
    """Per-layer graphs and maps tying one graph to the underlying space.

    ``sample_maps[l]`` carries vertex signals of the space to the layer-l
    graph (layer 0 is the network input graph, on the space's own vertices,
    so ``sample_maps[0]`` is the identity); ``operators[l]`` is the
    layer-l graph operator used by layer l+1's filters (a layer that does
    not pool hands on the same object); ``pooling_maps[l]`` coarsens layer
    l to layer l+1 when that layer pools.
    """

    space: GraphSpace
    sample_maps: tuple
    operators: tuple
    pooling_maps: tuple

    @classmethod
    def build(cls, space: GraphSpace, spec: ConvNetSpec, graph: WeightedGraph,
              operator: OperatorWithInnerProduct) -> "ConvNetGraphSetting":
        """Chain maps and operators through the layers from ``graph`` and
        its layer-0 ``operator``.

        Each pooling layer matches the current graph, collapses it onto the
        matched groups, and takes ``C Delta C^T`` of the previous operator.
        """
        s = np.eye(space.n_vertices)
        maps, operators, pooling = [s], [operator], []
        for layer in spec.layers:
            cmap = None
            if layer.pooling != "none":
                cmap = coarsen_matching(graph)
                graph = _collapse_graph(graph, cmap)
                s = cmap.s_matrix @ s
                operator = coarsened_laplacian(cmap, operator)
            pooling.append(cmap)
            maps.append(s)
            operators.append(operator)
        return cls(space, tuple(maps), tuple(operators), tuple(pooling))


def _collapse_graph(graph: WeightedGraph, cmap: CoarseningMap) -> WeightedGraph:
    """Coarse graph whose edges aggregate the fine weights between groups,
    summed in edge order and listed by coarse pair."""
    n = cmap.n_coarse
    group_of = np.empty(cmap.n_fine, dtype=np.int64)
    group_of[cmap.members] = np.repeat(np.arange(n), cmap.sizes)
    gu, gv = group_of[graph.u], group_of[graph.v]
    cross = gu != gv
    pairs, slot = np.unique(np.minimum(gu, gv)[cross] * n + np.maximum(gu, gv)[cross],
                            return_inverse=True)
    weights = np.bincount(slot, graph.w[cross], minlength=pairs.size)
    return WeightedGraph(n, pairs // n, pairs % n, weights)


def network_lipschitz(spec: ConvNetSpec, settings) -> float:
    """D of the network bound: the largest Lipschitz constant that
    :func:`~spectral_transfer.transfer.filter_constants` gives a filter of
    layer l + 1 on the spectra it relates, the space's band at depth l
    against the layer-l operator of each setting."""
    return max(
        filter_constants(filt, setting.space.eigenvalues_up_to(band), op.eig.values).lipschitz
        for setting in settings
        for layer, band, op in zip(spec.layers, spec.bands, setting.operators)
        for row in layer.filters for filt in row
    )


def hypothesis_errors(setting: ConvNetGraphSetting, spec: ConvNetSpec,
                      n_probes: int = 16, seed: int = 0) -> list:
    """Measure the four per-layer hypothesis terms for one graph, as the
    ``(term, layer, value)`` rows of ``hypothesis.csv``: ``laplacian`` at
    layers 0 to L-1, ``consistency`` at L, then ``activation`` and
    ``pooling`` each at 1 to L (a layer without pooling reads 0.0).

    Laplacian mismatch and round-trip consistency are exact operator norms
    over the per-layer bands; the activation-commutation and pooling terms
    are suprema estimated over the band basis plus seeded random unit
    probes (both quantities are positively homogeneous, so unit probes
    suffice).
    """
    space = setting.space
    n_layers = spec.n_layers
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
    rows = []
    for l in range(n_layers):
        band = spec.bands[l]
        basis = space.pw_basis(band)
        s_l = setting.sample_maps[l]
        mismatch = s_l @ (space.operator.matrix @ basis) - (
            setting.operators[l].matrix @ (s_l @ basis)
        )
        rows.append(("laplacian", l, operator_norm(mismatch)))

    band_top = spec.bands[n_layers]
    basis_top = space.pw_basis(band_top)
    s_top = setting.sample_maps[n_layers]
    round_trip = basis_top - s_top.T @ (s_top @ basis_top)
    rows.append(("consistency", n_layers, operator_norm(round_trip)))

    activation_rows = []
    pooling_rows = []
    for l in range(1, n_layers + 1):
        band_lo, band_hi = spec.bands[l - 1], spec.bands[l]
        basis_lo = space.pw_basis(band_lo)
        s_prev = setting.sample_maps[l - 1]
        f_vals = basis_lo @ _basis_and_unit_probes(rng, basis_lo.shape[1], n_probes)
        lhs = spec.activation.apply(s_prev @ f_vals)
        rho = spec.activation.apply(f_vals)
        rhs = s_prev @ space.synthesize(space.project_pw(band_hi, rho), band_hi)
        activation_rows.append(("activation", l, float(column_norms(lhs - rhs).max(initial=0.0))))

        layer, gap = spec.layers[l - 1], 0.0
        if layer.pooling != "none":
            basis_hi = space.pw_basis(band_hi)
            f_vals = basis_hi @ _basis_and_unit_probes(rng, basis_hi.shape[1], n_probes)
            pooled = pool(s_prev @ f_vals, setting.pooling_maps[l - 1], layer.pooling)
            gap = float(column_norms(pooled - setting.sample_maps[l] @ f_vals).max(initial=0.0))
        pooling_rows.append(("pooling", l, gap))
    return rows + activation_rows + pooling_rows


def _basis_and_unit_probes(rng, dim: int, count: int) -> np.ndarray:
    """The ``dim`` basis columns followed by ``count`` random unit columns."""
    return np.hstack([np.eye(dim), unit_probes(rng, dim, count)])


def output_errors(spec: ConvNetSpec, setting1: ConvNetGraphSetting,
                  setting2: ConvNetGraphSetting, probes) -> dict:
    """Largest per-channel output gaps over nonzero probe inputs, relative
    to the probe norm, as ``summary.txt``'s ``errors`` entry:
    ``space_vs_graph1``, ``space_vs_graph2`` and ``two_graph``, in order.

    ``probes`` holds one band-zero coefficient column per probe.  The
    space network runs once, and each graph network runs once on the
    synthesized probes; graph outputs return by ``S^T``, S the last sample map.
    """
    space = setting1.space
    probes = np.asarray(probes, dtype=float)
    norms = np.linalg.norm(probes, axis=0)
    if np.any(norms == 0.0):
        raise SpectralTransferError("probe inputs must be nonzero")
    f_space = space.synthesize(probes, spec.bands[0])
    cont = [
        space.synthesize(ch, spec.bands[-1])
        for ch in forward_continuous(spec, space, [probes])[-1]
    ]
    back1, back2 = (
        [setting.sample_maps[-1].T @ ch for ch in forward_graph(
            spec, setting.operators[: spec.n_layers], setting.pooling_maps, [f_space])[-1]]
        for setting in (setting1, setting2)
    )

    def worst(outs_a, outs_b):
        return max(
            float((np.linalg.norm(a - b, axis=0) / norms).max(initial=0.0))
            for a, b in zip(outs_a, outs_b)
        )

    return {"space_vs_graph1": worst(cont, back1), "space_vs_graph2": worst(cont, back2),
            "two_graph": worst(back1, back2)}


def spectral_decay_check(activation: Activation, band: float, probes,
                         truncation: int = 8192, grid: int = 1 << 18) -> float:
    """Worst weighted high-frequency energy ratio after the activation.

    For band-limited circle signals f, the activation output satisfies
    ``sum_n n^2 |<rho(f), phi_n>|^2 <= M^2 ||f||^2`` with M the largest
    frequency in the band.  Returns the worst measured ratio over the
    probes, with the sum truncated at ``truncation`` (truncation only
    lowers the measured side, so the bound check stays sound).

    The truncation is validated through the Parseval residual: the grid
    energy of the activation output not captured by the first
    ``truncation`` frequencies must stay below 1e-8 of the total, else a
    :class:`TruncationError` is raised.
    """
    circle = CircleSpace()
    m_freq = circle.max_frequency(band)
    if truncation < m_freq:
        raise SpectralTransferError("truncation must cover the probe band")
    if truncation >= grid // 4:
        raise SpectralTransferError("grid must oversample the truncation frequency")
    xs = np.arange(grid) / grid
    basis = circle.basis_matrix(xs, band)
    weights = np.arange(1, truncation + 1, dtype=float) ** 2
    worst = 0.0
    for coeffs in probes:
        coeffs = np.asarray(coeffs, dtype=float)
        norm2 = float(coeffs @ coeffs)
        if norm2 == 0.0:
            raise SpectralTransferError("probes must be nonzero")
        rho_vals = activation.apply(basis @ coeffs)
        total_energy = float(rho_vals @ rho_vals) / grid
        if total_energy <= 1e-30:  # activation annihilated the probe
            continue
        spectrum = np.fft.rfft(rho_vals) / grid
        # |A_n|^2 carries both the cosine and sine energy at frequency n:
        # energy_n = 2 |A_n|^2 in the orthonormal real basis.
        energy = 2.0 * np.abs(spectrum[1 : truncation + 1]) ** 2
        weighted = float(weights @ energy)
        captured = float(np.abs(spectrum[0]) ** 2 + energy.sum())
        tail = max(total_energy - captured, 0.0)
        if tail > 1e-8 * total_energy:
            raise TruncationError(
                f"energy beyond frequency {truncation} is {tail:.3e} "
                f"({tail / total_energy:.3e} of the total); raise the truncation"
            )
        if m_freq == 0:
            ratio = 0.0 if weighted <= 1e-20 * norm2 else np.inf
        else:
            ratio = weighted / (m_freq**2 * norm2)
        worst = max(worst, ratio)
    return worst
