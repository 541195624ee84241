"""lenswall: exact eta invariants of flip-spun lens spaces and signed
wall-crossing bookkeeping for one-parameter families.

Everything on the exact path is integer, rational or cyclotomic
arithmetic: the rho/eta tables and the matching run on integers, the
rewritten eta sums and the Fourier identity in Q(zeta_n).  Floating point
appears only in the embedding cross-checks and the disc-model figures.
"""

__version__ = "0.1.0"

from .cyclotomic import Cyclotomic, cyclotomic_polynomial, root_of_unity
from .errors import (
    ConeError,
    GenericityError,
    LenswallError,
    NotRationalError,
    OrderMismatchError,
    ParameterError,
    ResourceBoundError,
    StabilizationError,
    UniquenessViolationError,
)
from .eta import (
    component_classes,
    distinguish_metrics,
    eta_flipspun,
    eta_variant,
    fourier_closed_form,
    fourier_coefficient,
    fourier_unit_ratio,
    matching_sweep,
    rho_lens,
)
from .lattice import (
    IntegralLattice,
    IsometricStructure,
    Isometry,
    alpha_invariant,
    double_structure,
    metabolizer_check,
    metabolizer_search,
    reflection_sphere,
    standard_lattice,
    sw_formal_dimension,
)
from .scenario import Scenario, load_scenario
from .wallcross import (
    OrbitSummary,
    SpinCData,
    WallClass,
    classify_isometry,
    disc_project,
    finite_orbit_swtot,
    orbit_swtot,
    power_swtot,
    spinc_orbit,
    unique_crossing_index,
)
