"""Force-based atomistic/continuum coupling on a 1D chain.

Library + experiment harness for the coupled force field that mixes a
next-nearest-neighbor atomistic law with a local continuum law, its
linearized operators, their stability across norm pairings, and the
second-order convergence of the coupled solution to the reference one.
"""
