"""Exact structure-constant engine for Hom-bialgebras, their modules and
comodules, Yetter-Drinfeld modules, and the braided structure they carry.

Everything is represented over an exact field (rationals or a prime
field) as sparse linear maps between tensor powers of the carriers, read
from and written as structure constants; every axiom, compatibility law,
braiding identity and coherence law is verified as an exact matrix
identity, with counterexamples reported per basis tuple.
"""

from .errors import (
    CertificationError,
    HomydError,
    InapplicableError,
    NotInvertibleError,
    PreconditionError,
    ShapeError,
    SpecFileError,
)
from .fields import RATIONALS, PrimeField, Rationals, field_from_descriptor
from .linmap import LinearMap
from .modules import (
    ComoduleStruct,
    ModuleStruct,
    check_comodule,
    check_comodule_morphism,
    check_module,
    check_module_morphism,
    induce_comodule,
    induce_module,
    tensor,
    tensor_comodules,
    tensor_modules,
)
from .quasitri import (
    RElement,
    SigmaForm,
    check_cqt,
    check_cqt_tensor_coincide,
    check_induced_braidings,
    check_induced_hybe,
    check_qt,
    check_qt_tensor_coincide,
    check_r_invariance,
    check_sigma_invariance,
    check_tensor_coincide,
    cqt_B,
    cqt_braiding,
    qt_B,
    qt_braiding,
    yd_from,
    yd_from_comodule,
    yd_from_module,
)
from .reports import CheckReport, Failure, compare_maps
from .structures import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    check_classical_bialgebra,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    tensor_algebra,
    twist_algebra,
    twist_bialgebra,
    twist_coalgebra,
)
from .yd import (
    YDModule,
    associator_a,
    associator_frak_a,
    b_from_c,
    braiding_B,
    braiding_c,
    check_braid_implies_hybe,
    check_braid_implies_hybe_single,
    check_braid_relation,
    check_braid_relation_for,
    check_classical_yd,
    check_hexagons,
    check_hybe,
    check_hybe_for,
    check_pentagon,
    check_yd,
    hat_tensor,
    tilde_tensor,
    twist_yd,
    yd_suite,
    yd_tensor,
)

__version__ = "0.1.0"
