"""Kept for the benchmark tracer's layer list: the relation and its reduction are in ``kernels``."""
