"""Exact-arithmetic tools for the three-state toric homogeneous Markov chain model."""

__version__ = "0.1.0"
