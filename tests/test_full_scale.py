"""Optional full-scale reproduction against the real DroneRF recordings.

Point RFSENTRY_DRONERF_DIR at a DroneRF download (the directory holding
the <BUI>L_<n>.csv / <BUI>H_<n>.csv segment files) to enable this
module; it is skipped otherwise and is not part of CI. Published
lower-band 10-fold accuracies: 99.96% (case I), 90.73% (case II),
70.09% (case III); the case III lower-vs-upper comparison is the one
reported as significant.
"""

import os

import pytest

from rfsentry.dataset import Case, build_dataset, build_dronerf_manifest
from rfsentry.evaluation import compare_bands, cross_validate
from rfsentry.gbdt import TrainConfig
from rfsentry.spectrum import BandMode

DRONERF_DIR = os.environ.get("RFSENTRY_DRONERF_DIR")

pytestmark = pytest.mark.skipif(
    not DRONERF_DIR, reason="set RFSENTRY_DRONERF_DIR to a DroneRF download to enable"
)

# Published mean accuracy and the acceptance tolerance in absolute points.
LOWER_BAND_TARGETS = {Case.I: (0.9996, 0.01), Case.II: (0.9073, 0.03), Case.III: (0.7009, 0.03)}
FOLD_SEED = 0


@pytest.fixture(scope="module")
def manifest():
    found = build_dronerf_manifest(DRONERF_DIR)
    assert len(found.entries) > 0, "no DroneRF segment pairs found"
    for name, observed, expected in found.table_report():
        if observed != expected:
            print(f"note: {name}: {observed} segments (published: {expected})")
    return found


def train_config(n_classes):
    return TrainConfig(n_classes=n_classes)


@pytest.mark.parametrize("case", [Case.I, Case.II, Case.III])
def test_lower_band_accuracy_matches_published(manifest, case):
    dataset = build_dataset(manifest, BandMode.LOWER_ONLY, case, jobs=os.cpu_count() or 1)
    report = cross_validate(
        dataset, train_config(dataset.case.n_classes), k=10, seed=FOLD_SEED
    )
    target, tolerance = LOWER_BAND_TARGETS[case]
    print(
        f"case {case.value}: lower-band accuracy {report.mean['accuracy']:.4f} "
        f"+- {report.std['accuracy']:.4f} (published {target:.4f})"
    )
    assert abs(report.mean["accuracy"] - target) <= tolerance


def test_case3_lower_vs_upper_rejected(manifest):
    comparison = compare_bands(
        manifest, Case.III, train_config(10), k=10, seed=FOLD_SEED, jobs=os.cpu_count() or 1
    )
    lower = comparison.reports[BandMode.LOWER_ONLY].mean["accuracy"]
    upper = comparison.reports[BandMode.UPPER_ONLY].mean["accuracy"]
    print(f"case 3: lower {lower:.4f} vs upper {upper:.4f}; t={comparison.lb_vs_ub.t_stat:.3f}")
    assert lower > upper
    assert comparison.lb_vs_ub.rejected
    assert comparison.lb_vs_ub.mean_diff > 0
