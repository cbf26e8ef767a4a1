"""Exact-arithmetic models of Witt vectors over perfect valued fields.

The package's modules cover value-group arithmetic, Hahn-series fields,
p-typical Witt vectors, Newton polygons, non-coherence witness constructions,
a constructive vector-bundle glueing pipeline, and a monomial ring-tower
calculus, with a JSON-reporting command line front end.
"""

__version__ = "0.1.0"
