"""Kept for the benchmark tracer's layer list: the error functionals and their rationale are in ``kernels``."""
