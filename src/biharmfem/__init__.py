"""Mixed C0 P1 finite elements for the biharmonic equation on polygons,
with singular-function correction at a re-entrant corner."""

from .fem import CompatibilityError, SolveError
from .geometry import (BCType, DomainError, PolygonDomain, VertexClass,
                       builtin_domain, classify_vertex, perp_dimension,
                       read_domain_file, singular_exponents)
from .mesh import (MeshError, TriMesh, initial_mesh, prolongate,
                   refine_uniform)
from .singular import CutoffSpec, SingularBasis, corner_bases
from .solver import (LevelContext, ModifiedSolveResult, SingularVertexError,
                     solve_modified, solve_modified_neumann, solve_naive)
from .sources import SOURCES, get_source
from .study import (RateTable, StudyConfig, StudyReport, cauchy_rate,
                    export_csv, export_field, run_study)

__version__ = "1.0.0"
