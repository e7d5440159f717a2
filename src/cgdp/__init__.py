"""Causality-guided diffusion policy laboratory.

A numpy implementation of the full pipeline: causal structure discovery,
masked Gaussian dynamics, guided diffusion action sampling, double-Q
training, synthetic environments, and executable checks of the
supporting theory.
"""
