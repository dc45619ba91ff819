"""Tangent hard-sphere clusters from a Poisson process on layered
hexagonal scaffolding, with the closed-form success bounds and the
statistical machinery to verify them."""

__version__ = "0.1.0"
