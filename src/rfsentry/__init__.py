"""RF drone detection and identification from signal-strength spectra.

The pipeline: magnitude-spectrum features from raw recordings
(:mod:`rfsentry.spectrum`), labeled datasets and synthetic corpora
(:mod:`rfsentry.dataset`), gradient boosted trees trained from scratch
(:mod:`rfsentry.gbdt`), and stratified cross-validation with paired
t-tests (:mod:`rfsentry.evaluation`).
"""

__version__ = "0.1.0"

from .dataset import (
    Case,
    LabeledDataset,
    Manifest,
    ManifestEntry,
    SegmentRecord,
    build_dataset,
    build_dronerf_manifest,
    load_features,
    load_manifest,
    load_segment,
    save_features,
    save_manifest,
    synth_segment,
    write_synthetic_corpus,
)
from .evaluation import (
    BandComparison,
    CvReport,
    FoldAssignment,
    MetricSet,
    TTestResult,
    compare_bands,
    confusion_matrix,
    cross_validate,
    metrics,
    paired_ttest,
    stratified_kfold,
    student_t_cdf,
    t_critical,
)
from .gbdt import (
    GbdtModel,
    TrainConfig,
    Tree,
    build_tree,
    leaf_weight,
    load_model,
    predict,
    predict_proba,
    save_model,
    softmax_grad_hess,
    train,
)
from .spectrum import (
    Band,
    BandMode,
    Extraction,
    MagnitudeSpectrum,
    compute_scaling_factor,
    concatenate_bands,
    dft,
    segment_spectrum,
)

__all__ = [
    "Band",
    "BandComparison",
    "BandMode",
    "Case",
    "CvReport",
    "Extraction",
    "FoldAssignment",
    "GbdtModel",
    "LabeledDataset",
    "MagnitudeSpectrum",
    "Manifest",
    "ManifestEntry",
    "MetricSet",
    "SegmentRecord",
    "TTestResult",
    "TrainConfig",
    "Tree",
    "build_dataset",
    "build_dronerf_manifest",
    "build_tree",
    "compare_bands",
    "compute_scaling_factor",
    "concatenate_bands",
    "confusion_matrix",
    "cross_validate",
    "dft",
    "leaf_weight",
    "load_features",
    "load_manifest",
    "load_model",
    "load_segment",
    "metrics",
    "paired_ttest",
    "predict",
    "predict_proba",
    "save_features",
    "save_manifest",
    "save_model",
    "segment_spectrum",
    "softmax_grad_hess",
    "stratified_kfold",
    "student_t_cdf",
    "synth_segment",
    "t_critical",
    "train",
    "write_synthetic_corpus",
]
