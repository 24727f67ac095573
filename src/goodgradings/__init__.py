"""Good Z-gradings of classical simple Lie algebras.

Constructs, enumerates, and independently verifies all good gradings
per nilpotent orbit: exact fraction-free elimination, sparse matrix
realizations of the classical families, pyramid combinatorics, the
per-family classification with a sweep oracle that finds the good
gradings as the lattice points of a polytope, Richardson goodness
tests, and the static exceptional tables.
"""

from .algebras import (AlgebraBasis, AlgebraSpec, Family, GradingElement,
                       build_algebra, graded_decomposition)
from .classify import (GoodGradingFamily, GradingEntry, good_gradings,
                       sweep_oracle)
from .exceptional import ExceptionalEntry, exceptional_lookup, orbit_labels
from .gradings import (Characteristic, GoodPair, VerificationError,
                       characteristic_from_pyramid, characteristic_of,
                       check_duality_form, check_torus_weights,
                       grading_writer, is_good, jordan_type,
                       nilpotent_of_pyramid)
from .parabolic import (ParabolicSpec, generic_richardson_oracle,
                        grading_is_good_generic, parabolic_grading,
                        richardson_is_good)
from .partitions import (Partition, centralizer_dim, orthogonal_partitions,
                         partitions, symplectic_partitions)
from .pyramids import (Pyramid, Row, enumerate_pyramids, is_unimodal,
                       orthogonal_pyramid, orthogonal_pyramids,
                       pyramid_to_unimodal, render_pyramid, symmetric_pyramid,
                       symplectic_pyramid, symplectic_pyramids,
                       unimodal_compositions, unimodal_to_pyramid)
from .series import (pyramid_count_formula, pyramid_count_series,
                     pyramid_counts_by_partition, pyramid_series_identity_check,
                     unimodal_count_series)

__version__ = "0.1.0"
