"""Test oracles that share no code with the index arithmetic they check.

``matrix`` computes Hom and Ext from matrix representations, ranked by the
exact integer elimination in ``linalg``.  Nothing in ``nakct`` imports them.
"""
