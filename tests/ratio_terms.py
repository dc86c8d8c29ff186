"""The tests' own reference for the ratio coefficient of each index."""
from fractions import Fraction

from kothedim.grid import column_of


def ratio_coeff(p: int, q: int, m: int) -> Fraction:
    """log(a_{p,m}/a_{q,m}) / alpha_m from the matrix coefficients, -1/k on
    row k plus 1 when k exceeds m's column: c_pq off the band, c_pq - 1 on it."""
    s = column_of(m)
    return Fraction(-1, p) + (p > s) - Fraction(-1, q) - (q > s)
