"""A placeholder for the benchmark's tracer.

``bench/tracing.py`` imports this module and wraps ``Tensor.__init__``
to count the tensors built per training step. Nothing constructs a
:class:`Tensor`, so that count reads 0. ROADMAP item 5 deletes this
module together with the tracer's import.
"""


class Tensor:
    """Never constructed; it exists only for the tracer to import."""
