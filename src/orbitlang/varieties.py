"""Plane curves and affine varieties with exact rational coefficients."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisViolated, ReducibleInput
from .polynomials import Polynomial

__all__ = ["PlaneCurve", "AffineVariety"]

PLANE_VARS = ("x", "y")
PLANE_ALIAS = {"x": "x1", "y": "x2"}  # the plane variables as coordinates of a point


@dataclass(frozen=True)
class PlaneCurve:
    """Zero locus in the affine plane of one bivariate polynomial."""

    poly: Polynomial

    def __post_init__(self):
        if self.poly.variables != PLANE_VARS:
            object.__setattr__(self, "poly", self.poly.with_variables(PLANE_VARS))
        if self.poly.is_zero or self.poly.is_constant():
            raise HypothesisViolated("a plane curve needs a nonconstant polynomial")

    def normalized(self) -> Polynomial:
        _, prim = self.poly.content_and_primitive()
        return prim

    def assert_irreducible(self):
        if not self.poly.is_irreducible():
            raise ReducibleInput("curve polynomial is not irreducible over Q")

    def __eq__(self, other):
        if not isinstance(other, PlaneCurve):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __hash__(self):
        return hash(self.normalized())


@dataclass(frozen=True)
class AffineVariety:
    """Common zero locus of finitely many polynomials in x1..xg.

    An empty generator list is the whole space.
    """

    generators: tuple[Polynomial, ...]
    dimension_ambient: int

    @classmethod
    def of(cls, generators, g: int) -> "AffineVariety":
        """Normalize generators into the coordinate names x1..xg.

        The plane aliases x -> x1 and y -> x2 are accepted for g >= 2 (and
        x -> x1 alone for g = 1).
        """
        names = tuple(f"x{i + 1}" for i in range(g))
        gens = []
        for gen in generators:
            if any(v in PLANE_ALIAS for v in gen.variables):
                gen = gen.rename_variables(PLANE_ALIAS)
            if gen.variables != names:
                gen = gen.with_variables(names)
            gens.append(gen)
        return cls(tuple(gens), g)
