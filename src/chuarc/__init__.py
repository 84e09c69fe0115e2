"""Chua-circuit reservoir computer laboratory.

A driven chaotic ODE kernel with a piecewise-linear diode, a
time-multiplexed input/output pipeline with a trainable linear readout, a
toy learning-with-errors cryptosystem as the target workload, and a
benchmark/sweep harness.
"""

from .circuit import (
    DEFAULT_INITIAL_STATE,
    ChuaParams,
    CircuitState,
    DiodePwl,
    Trace,
    bifurcation_scan,
    derivatives,
    diode_current,
    integrate,
    kennedy_circuit,
    power_spectrum,
)
from .config import ExperimentConfig, config_digest, default_config, parse_config
from .errors import ChuaRcError, ConfigurationError, GenerationError, IntegrationError
from .experiment import (
    MetricsReport,
    SweepGrid,
    axis_values,
    load_weight,
    run_experiment,
    run_sweep,
    save_weight,
    simulate_cases,
)
from .lwe import (
    Ciphertext,
    GaussianErrors,
    LweParams,
    LweTestCase,
    PublicKey,
    UniformErrors,
    decrypt_bit,
    encrypt_bit,
    generate_testcases,
    keygen,
    multibit_decrypt,
    multibit_encrypt,
)
from .pipeline import (
    Mask,
    ReadoutWeight,
    ReservoirConfig,
    StateMatrix,
    demultiplex,
    make_mask,
    multiplex,
    nmse,
    normalize,
    nrmse,
    predict,
    run_case,
    sample_hold,
    train_readout,
)
from .tasks import (
    Dataset,
    TaskSpec,
    build_dataset,
    classify,
    concentric_circles,
    modulo_teacher,
    pair_teachers,
    polynomial_teacher,
)

__version__ = "0.1.0"
