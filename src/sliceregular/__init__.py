"""Slice regular quaternionic function calculus and quaternionic Laplace transforms.

The package has four layers:

* `quaternion` -- exact quaternion arithmetic and the slice structure;
* `series` -- coefficient-level regular calculus on truncated power series;
* `slicefn` / `stems` / `verify` -- evaluable slice regular functions in
  tensor form (one intrinsic stem with four complex components against the
  basis 1, i, j, k)
  with finite-difference regularity verifiers;
* `laplace` / `timefunctions` -- the left/right quaternionic Laplace
  transform engine and its operational calculus.

`suites` bundles the defining identities into runnable verification suites,
exposed on the command line as `sliceregular verify <suite>`.
"""

from .errors import (
    AccuracyError,
    CapabilityError,
    ConsistencyError,
    DomainError,
    PoleError,
    SingularSeriesError,
    SliceRegularError,
    StemSymmetryError,
    UsageError,
)
from .quaternion import (
    I,
    J,
    K,
    ONE,
    ZERO,
    Quaternion,
    SliceCoordinates,
    quat_exp,
    quat_from_list,
    slice_decompose,
    slice_embed,
    unit_imaginary,
)
from .regions import Region, annulus, disk, half_plane
from .series import RegularSeries, SeriesEvalReport, Side, assemble_components
from .stems import IntrinsicStem, exp_stem, identity_stem, polynomial_stem, rational_stem
from .slicefn import (
    SliceRegularFunction,
    assemble,
    cauchy_kernel,
    cauchy_kernel_right,
    exp_function,
    extend_intrinsic,
    from_series,
)
from .verify import ResidualReport, is_slice_preserving, verify_regular
from .timefunctions import (
    GrowthBound,
    TimeDomainFunction,
    constant_function,
    exponential_function,
    heaviside_shifted,
    polynomial_function,
    time_function_from_json,
)
from .laplace import (
    ConvolutionTransform,
    DEFAULT_ABS_TOL,
    DualityReport,
    TransformResult,
    convolution,
    convolve,
    derivative_of_transform,
    exp_transform_closed_form,
    heaviside_shift,
    laplace_left,
    laplace_of_convolution,
    laplace_right,
    reflection_duality_check,
    shift_real,
    transform_of_derivative,
    transform_of_integral,
    transform_of_nth_derivative,
)

__version__ = "0.1.0"
