"""RF drone detection and identification from signal-strength spectra.

The pipeline: magnitude-spectrum features from raw recordings
(:mod:`rfsentry.spectrum`), labeled datasets and synthetic corpora
(:mod:`rfsentry.dataset`), gradient boosted trees trained from scratch
(:mod:`rfsentry.gbdt`), and stratified cross-validation with paired
t-tests (:mod:`rfsentry.evaluation`). The package root re-exports the
names of README's library examples; everything else is imported from
its submodule.
"""

__version__ = "0.1.0"

from .dataset import Case, build_dataset, build_dronerf_manifest, load_manifest, save_manifest
from .evaluation import compare_bands, cross_validate
from .gbdt import TrainConfig
from .spectrum import BandMode, Extraction

__all__ = [
    "BandMode",
    "Case",
    "Extraction",
    "TrainConfig",
    "build_dataset",
    "build_dronerf_manifest",
    "compare_bands",
    "cross_validate",
    "load_manifest",
    "save_manifest",
]
