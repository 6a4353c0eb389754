"""Two-step supervised hashing.

Step 1 infers binary codes from pairwise affinity supervision by block
coordinate descent over per-bit binary quadratic programs; step 2 turns
the code matrix into out-of-sample hash functions by training one binary
classifier per bit. A packed-code retrieval engine and evaluation
metrics round out the pipeline.
"""

from .data import (
    DataFormatError,
    Dataset,
    KernelConfig,
    PairSupervision,
    generate_clusters,
    kernel_matrix,
    load_dataset,
    rbf_bandwidth,
    sample_anchors,
    supervision_from_distance,
    supervision_from_labels,
)
from .loss import LOSS_TAGS, LossKind, pair_loss, quadratic_coeffs
from .codegen import (
    BqpInstance,
    CodeMatrix,
    LowRankBqp,
    SpectralResidualWarning,
    TrainConfig,
    box_relax,
    learn_codes,
    pairwise_objective,
    spectral_relax,
    update_bit,
)
from .packed import CodesFormatError, PackedCodes, pack_signs, read_codes_file, write_codes_file
from .hashfn import (
    ClassifierConfig,
    HashModel,
    ModelFormatError,
    encode,
    load_model,
    save_model,
    train_bit_classifier,
    train_model,
)
from .retrieval import (
    CodeDatabase,
    EvalReport,
    GroundTruth,
    evaluate,
    hamming_distances,
    load_ground_truth,
    rank,
)

__version__ = "0.1.0"
