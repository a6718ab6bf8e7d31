"""metaplab: numerical phase-space analysis.

Metaplectic operators on discrete grids, Wigner-type time-frequency
distributions, Weyl and generalized quantization, Gabor-matrix decay
analysis, and Schrodinger propagation for quadratic Hamiltonians with
bounded perturbations.  Everything runs on centered periodic grids where
the DFT is an exact unitary; identities are verified against brute-force
oracles in the test suite.
"""

from .signals import (
    Axis,
    Grid,
    GridSignal,
    PhaseSpaceField,
    GridError,
    SamplingError,
    default_grid,
    self_dual_axis,
    fourier,
    inverse_fourier,
    partial_fourier_2,
    chirp_multiply,
    rescale,
    tf_shift,
    tensor,
    conjugate,
    translate_field,
    gaussian,
    hermite,
    sign_gaussian,
    two_bump,
    smooth_noise,
    phase_align,
)
from .symplectic import (
    SymplecticMatrix,
    SymplecticError,
    BlockDecomposition,
    CovariantForm,
    QuadraticHamiltonian,
    is_symplectic,
    standard_J,
    V_C,
    D_L,
    A_FT2,
    tau_matrix,
    stft_matrix,
    free_factorize,
    covariant_from_blocks,
    cohen_B,
    covariant_from_cohen_B,
    evolve_cohen_B,
    hamiltonian_flow,
    shift_invertibility,
)
from .metaplectic import (
    Generator,
    GeneratorChain,
    DecompositionError,
    generator_decompose,
    apply,
    apply_generator,
    apply_free_quadrature,
    apply_quadrature,
    conv_chirp,
    dense_matrix,
)
from .wigner import (
    wigner_cross,
    tau_wigner,
    stft,
    wigner_A,
    wigner_A_covariant,
    stft_reduction,
    Representation,
    represent,
    CohenKernel,
    cohen_convolve,
    modulation_norm,
    wiener_amalgam_norm,
)
from .quantize import (
    SymbolGrid,
    DenseOperator,
    weyl,
    weyl_4d,
    weyl_4d_apply,
    inverse_weyl,
    op_A,
    requantize,
    symbol_pullback,
    pullback_closed_form,
    conjugation_check,
    op_A_covariant_integral,
)
from .gabor import (
    GaborLattice,
    GaborMatrixData,
    EnvelopeReport,
    FrameError,
    frame_bounds,
    gabor_matrix,
    envelope_fit,
    metaplectic_factor,
)
from .schrodinger import (
    Hamiltonian,
    WaveFrontReport,
    propagate_quadratic,
    propagate_perturbed,
    perturbation_symbol,
    evolved_wigner_check,
    wigner_kernel_check,
    wavefront,
    wavefront_propagation_check,
)

__version__ = "0.1.0"
