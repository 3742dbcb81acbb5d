"""CPU substrate: scalar golden reference, baseline pipeline, cost model.

``naive`` is an independent, loop-based implementation of every stage used to
cross-check the vectorized stages of :mod:`repro.algo.stages`; ``pipeline``
composes those stages into the paper's "well-optimized CPU version"
baseline; ``cost`` models its running time on the Intel Core i5-3470 of
Table I.
"""

from .pipeline import CPUPipeline, CPUResult

__all__ = ["CPUPipeline", "CPUResult"]
