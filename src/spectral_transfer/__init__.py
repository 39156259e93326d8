"""Spectral graph filters, ConvNets, and sampling operators with certified
transferability bounds.

The package root holds the experiment entry points; the library lives in
its modules (``graphs``, ``filters``, ``transfer``, ...).
"""

from .experiments import ExperimentConfig, run_experiment

__version__ = "0.1.0"
