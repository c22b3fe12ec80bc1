"""Exact-rational polyhedral loop scheduling.

The package finds affine loop transformations three ways: an integer
scheduler, its exact rational relaxation with integral rescaling, and a
fusion-driven variant that picks loop permutations by graph coloring and then
repairs scaling, shifts and skews in separate passes.  Everything is exact:
constraint rows and their lower bounds, the simplex tableau and transform
rows are ints; solver optima and dependence minima are
`fractions.Fraction`s.  No floating point is involved anywhere.  The
package root exports nothing: each name is imported from its module.
"""
