"""Simulation and homodyne tomography of multi-photon-subtracted squeezed vacuum."""

from .channels import (
    ExperimentParams,
    HeraldResult,
    count_rate_table,
    herald_probabilities,
    herald_subtract,
    input_state,
    loss_channel,
)
from .fock import (
    DensityMatrix,
    SqueezeSpec,
    StateVector,
    cat_state,
    coherent_state,
    fidelity,
    load_density_matrix,
    mean_photon,
    mixed_coherent,
    quadrature_basis,
    save_density_matrix,
    squeezed_vacuum,
)
from .phasespace import (
    CoherencePeak,
    coherence_peak,
    marginal,
    marginal_sweep,
    origin_parity,
    rho_quad,
    wigner,
)
from .sampler import (
    HomodyneDataset,
    PhasePlan,
    load_dataset,
    save_dataset,
    synth_dataset,
)
from .tes import (
    ConfusionMatrix,
    TesParams,
    adjacent_confusion_estimate,
    confusion,
)
from .tomography import (
    BootstrapReport,
    MleConfig,
    bootstrap,
    mle_reconstruct,
)

__version__ = "0.1.0"

from .config import (  # noqa: E402  (RunConfig builds on the types above)
    CatSpec,
    GridSpec,
    RunConfig,
    load_config,
    preset,
    save_config,
)
