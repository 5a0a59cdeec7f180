"""coxcov: exact verification of coinvariant-algebra covariant modules of
finite reflection groups."""

__version__ = "0.1.0"
