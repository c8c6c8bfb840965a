"""Kept for the benchmark tracer's layer list: pinning and transport are ``kernels.context`` and ``transport``."""
